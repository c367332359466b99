"""Rewrite ``digests.json`` from the current tree's outputs.

Run ``PYTHONPATH=src python tests/golden/regenerate.py`` from the
repository root after a change that alters an output on purpose, and
say in the change's notes which digests moved and why.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from corpus import DIGESTS, GROUPS, run_group


def main() -> None:
    digests = {}
    for name in GROUPS:
        with tempfile.TemporaryDirectory() as directory:
            digests.update(run_group(name, Path(directory)))
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}")


if __name__ == "__main__":
    main()
