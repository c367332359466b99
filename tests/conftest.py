"""Shared test set-up.

The CLI tests start ``python -m trisections.cli`` in subprocesses, which
do not see pytest's ``pythonpath`` setting.  Exporting the source
directory lets them import this checkout's package as well, so
``python -m pytest`` works from a fresh checkout.
"""

from __future__ import annotations

import os
from pathlib import Path


def pytest_configure(config) -> None:
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join([src, *inherited])
