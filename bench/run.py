"""Benchmark of the trisections engine.

Run it from the repository root:

    python3 bench/run.py --workload plan-replay --seed 7 --seconds 30 --trace 0

``BENCHMARK.json`` at the root declares the workloads, why each was
chosen, and every metric with its unit and better direction.  Each
workload runs in a fresh single-threaded Python process
(``bench/worker.py``, started with ``-I -S`` so that nothing from the
environment is imported) as a closed loop with one client: the next op
starts only when the last one has finished and been checked.

``--trace 0`` reports the end-to-end metrics of the chosen workload:
set-up time (median over seven fresh processes spread over the run),
ops per second (median over windows of whole rounds), p50 and p90 op
latency over every timed op, and peak RSS.  Times are given at
reference host speed: a fixed pure-Python kernel run between ops
measures how much slower than the reference host this host runs, and
latencies are divided by that slowness (see ``worker.py``).  A shared
host that slows everything for seconds or minutes at a time then moves
these figures little; the raw figures and the slowness are in the record.

``--trace 1`` reports the per-layer metrics of every workload, each
prefixed with the workload it was measured on, from traced runs of each
workload's fixed op list; a second process repeats the traced runs and
every exact count must match, or the result is not correct.  Spans are
written to ``bench/out/``.

The last line of standard output is the result,
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full record: workload, seed, nproc, Python version, git revision,
source digest, sample counts and the first failures.  Exit status is 0
when a result is printed, 1 when a worker fails and 2 on a usage error
or when the engine's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"
OUT = ROOT / "bench" / "out"
PACKAGE = ROOT / "src" / "trisections"
SETUP_PROBES = 3  # before and after the measuring process
DEADLINE_S = 170.0


class BenchError(Exception):
    """A worker failed or ran out of time."""


def spawn(mode: str, workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Run one worker process to completion and return its result object."""
    command = [sys.executable, "-I", "-S", str(WORKER), mode, "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    command += ["--t0", str(time.monotonic_ns())]
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {mode} {workload} ran past the deadline") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker {mode} {workload} exited {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.splitlines()[-1])


def measured_run(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    # Set-up samples come from before and after the measuring process as
    # well as from it, so that they span the run's time on the host.
    setups = [spawn("setup", workload, seed, 0, deadline) for _ in range(SETUP_PROBES)]
    result = spawn("measure", workload, seed, seconds, deadline)
    setups.append(result)
    setups += [spawn("setup", workload, seed, 0, deadline) for _ in range(SETUP_PROBES)]
    result["metrics"]["setup_s"] = statistics.median(setup["setup_s"] for setup in setups)
    result["samples"]["setup_s"] = [setup["setup_s"] for setup in setups]
    result["samples"]["raw"]["raw_setup_s"] = statistics.median(
        setup["setup_raw_s"] for setup in setups)
    return result


def traced_run(workloads: list[str], seed: int, deadline: float) -> dict:
    combined = {"attempted": 0, "failed": 0, "failures": [], "metrics": {},
                "counts_differ": [], "spans": {}}
    for workload in workloads:
        first = spawn("trace", workload, seed, 0, deadline)
        second = spawn("count", workload, seed, 0, deadline)
        if first["counts"] != second["counts"]:
            combined["counts_differ"].append(workload)
        for run in (first, second):
            combined["attempted"] += run["attempted"]
            combined["failed"] += run["failed"]
            combined["failures"] += run["failures"]
        combined["metrics"].update(
            {f"{workload}.{name}": value for name, value in first["metrics"].items()})
        combined["spans"][workload] = {"file": first["spans_file"], "count": first["spans"]}
    return combined


def git_revision() -> str:
    """HEAD's commit, read from ``.git`` directly; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the engine's sources, which identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Benchmark of the trisections engine.")
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: the engine's sources are missing ({PACKAGE.relative_to(ROOT)})",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            result = traced_run(names, args.seed, deadline)
        else:
            result = measured_run(args.workload, args.seed, args.seconds, deadline)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if sorted(result["metrics"]) != sorted(entry["name"] for entry in declared):
        print(f"error: measured metrics {sorted(result['metrics'])} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {entry["name"]: {"value": result["metrics"][entry["name"]], "unit": entry["unit"]}
               for entry in declared}
    correct = result["failed"] == 0 and not result.get("counts_differ")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": git_revision(),
        "src_sha256": source_digest(),
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_frac": result["failed"] / result["attempted"],
        "metrics": {name: dict(entry, better=spec_entry["better"])
                    for (name, entry), spec_entry in zip(metrics.items(), declared)},
        **{key: result[key] for key in ("samples", "counts_differ", "spans") if key in result},
        "failures": result["failures"],
    }
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
