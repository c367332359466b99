"""Benchmark worker: one workload in a fresh, single-threaded process.

``bench/run.py`` starts this file; it prints one JSON object as its last
line.  Modes:

* ``setup``: stop once the inputs exist and report the set-up time;
* ``measure``: warm up, then run the closed loop untraced for at least
  ``--seconds``, whole windows at a time;
* ``trace``: run the workload's fixed op list (its first ``trace_rounds``
  rounds) once untraced to warm up, then each op untraced and traced;
  write the spans and report the per-layer metrics, the tracing overhead
  and the exact counts;
* ``count``: the traced runs alone, for the determinism comparison.

Set-up time runs from ``--t0``, a CLOCK_MONOTONIC reading the parent took
just before starting this process, to the moment the inputs exist.

Timings in ``setup`` and ``measure`` are given at reference host speed.
A fixed pure-Python kernel, run between ops, measures how much slower
than the reference host this host runs at the moment; latencies are
divided by that slowness.  On a shared host whose speed changes for
seconds or minutes at a time this removes most of the run-to-run spread;
the raw figures are reported alongside.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WARMUP_S = 1.0
# The reference kernel's ns per iteration on the reference host (2 vCPU
# Intel Xeon, Python 3.11.7) when it is not slowed by other tenants.
REFERENCE_NS_PER_ITER = 500.0
REFERENCE_SHARE = 0.05
REFERENCE_MIN_ITERATIONS = 2000
SAMPLE_EVERY_NS = 50_000_000
SETUP_REFERENCE_ITERATIONS = 20000
MIN_OPS = 300  # so that the kept half holds 10 ops beyond p90
MAX_FAILURES_SHOWN = 5


def run_op(op, failures: list[str], tracer=None, index: int = 0) -> int:
    """Run one op and check it; return its latency in ns."""
    if tracer is not None:
        tracer.begin_op(index, op.kind)
    error = None
    start = time.perf_counter_ns()
    try:
        result = op.run()
    except Exception:  # an op that raises counts as failed; keep going
        error = traceback.format_exc(limit=-3)
    latency = time.perf_counter_ns() - start
    if tracer is not None:
        tracer.end_op()
    message = error if error is not None else op.check(result)
    if message is not None:
        failures.append(f"{op.kind}: {message}")
    return latency


def run_ops(ops, failures: list[str]) -> list[int]:
    return [run_op(op, failures) for op in ops]


# A fixed working set, so that the kernel's cost per iteration does not
# depend on how many iterations it runs.
_REFERENCE_TABLE = {(a, b, c): 0 for a in range(32) for b in range(8) for c in range(7)}


def reference_kernel(iterations: int) -> int:
    """Fixed pure-Python work of the engine's kind: small tuples, dict
    updates, sorting and hashing.  Its speed is the host's speed."""
    table = _REFERENCE_TABLE
    total = 0
    for i in range(iterations):
        key = (i & 31, (i >> 5) & 7, i % 7)
        table[key] += 1
        total += len(sorted(key)) + hash(key) % 3
    return total


def host_slowness(iterations: int) -> tuple[float, int, int]:
    """Run the kernel; return (slowness, iterations, ns).

    Slowness is the kernel's ns per iteration over REFERENCE_NS_PER_ITER:
    1.0 on a host as fast as the reference host, 2.0 when everything runs
    at half speed.
    """
    start = time.perf_counter_ns()
    reference_kernel(iterations)
    ns = time.perf_counter_ns() - start
    return ns / iterations / REFERENCE_NS_PER_ITER, iterations, ns


class HostSampler:
    """Samples the host's speed with the kernel every SAMPLE_EVERY_NS of ops.

    Each sample runs the kernel for REFERENCE_SHARE of the op time since
    the last one, and for at least REFERENCE_MIN_ITERATIONS so that caches
    the last op left cold cost little of it.  Sampling at even intervals
    of op time weights the estimate the way the ops spent their time.  A
    window's slowness pools the samples from the one just before the
    window to its last one.
    """

    def __init__(self) -> None:
        self._last = self._sample(SAMPLE_EVERY_NS)
        self._pending = 0
        self._window = [0, 0]

    @staticmethod
    def _sample(busy_ns: int) -> tuple[int, int]:
        iterations = max(REFERENCE_MIN_ITERATIONS,
                         int(busy_ns * REFERENCE_SHARE / REFERENCE_NS_PER_ITER))
        return host_slowness(iterations)[1:]

    def begin_window(self) -> None:
        self._window = list(self._last)

    def after_op(self, latency_ns: int) -> None:
        self._pending += latency_ns
        if self._pending >= SAMPLE_EVERY_NS:
            self._last = self._sample(self._pending)
            self._pending = 0
            self._window[0] += self._last[0]
            self._window[1] += self._last[1]

    def window_slowness(self) -> float:
        iterations, ns = self._window
        return ns / iterations / REFERENCE_NS_PER_ITER


def run_window(workload, rounds, failures: list[str], sampler: HostSampler):
    """Run one window of whole rounds; return its latencies and slowness."""
    latencies: list[int] = []
    sampler.begin_window()
    for _ in range(workload.window_rounds):
        for op in next(rounds):
            latencies.append(run_op(op, failures))
            sampler.after_op(latencies[-1])
    return latencies, sampler.window_slowness()


def measure(workload, seconds: float) -> dict:
    """Closed loop in windows of whole rounds, timed at reference speed.

    Each op's latency is divided by its window's host slowness.  The
    kernel reacts to a busy host more strongly than the engine does, so
    only the half of the windows in which the host ran fastest is kept:
    that keeps the correction small.  Throughput and p50 latency are
    medians over those windows of each window's figure, so a window whose
    slowness was misjudged moves them little; p90 is over every op timed
    in them, which puts at least ten ops beyond it.
    """
    failures: list[str] = []
    rounds = workload.rounds()
    attempted = 0
    sampler = HostSampler()
    warm_end = time.perf_counter() + WARMUP_S
    while time.perf_counter() < warm_end:
        attempted += len(run_window(workload, rounds, failures, sampler)[0])
    windows: list[tuple[float, list[int]]] = []
    timed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or timed < MIN_OPS:
        latencies, slowness = run_window(workload, rounds, failures, sampler)
        windows.append((slowness, latencies))
        timed += len(latencies)
    attempted += timed
    kept = sorted(windows, key=lambda window: window[0])[:max(1, len(windows) // 2)]
    summary = {}
    for prefix, scaled in (("", True), ("raw_", False)):
        values = [latency / slowness if scaled else latency
                  for slowness, latencies in kept for latency in latencies]
        rates = [len(latencies) / sum(latencies) * 1e9 * (slowness if scaled else 1)
                 for slowness, latencies in kept]
        medians = [statistics.median(latencies) / (slowness if scaled else 1)
                   for slowness, latencies in kept]
        summary[prefix + "ops_per_s"] = statistics.median(rates)
        summary[prefix + "op_p50_ms"] = statistics.median(medians) / 1e6
        summary[prefix + "op_p90_ms"] = statistics.quantiles(values, n=10)[-1] / 1e6
        if scaled:
            summary["beyond_p50"] = sum(1 for x in values if x > summary["op_p50_ms"] * 1e6)
            summary["beyond_p90"] = sum(1 for x in values if x > summary["op_p90_ms"] * 1e6)
            summary["ops_timed"] = len(values)
    all_slowness = [slowness for slowness, _ in windows]
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:MAX_FAILURES_SHOWN],
        "metrics": {
            name: summary[name] for name in ("ops_per_s", "op_p50_ms", "op_p90_ms")
        } | {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024},
        "samples": {
            "ops_timed": summary["ops_timed"],
            "beyond_p50": summary["beyond_p50"],
            "beyond_p90": summary["beyond_p90"],
            "windows": len(windows),
            "windows_kept": len(kept),
            "measured_s": time.perf_counter() - start,
            "host_slowness": {"median": statistics.median(all_slowness),
                              "kept_max": kept[-1][0],
                              "min": min(all_slowness), "max": max(all_slowness)},
            "raw": {name: value for name, value in summary.items() if name.startswith("raw_")},
        },
    }


def trace(workload, seed: int, write_spans: bool) -> dict:
    """Trace the fixed op list; with ``write_spans``, also time it untraced.

    The untraced and traced runs of each op are adjacent, in alternating
    order, so drifts in host speed cancel out of the tracing overhead.
    """
    import tracing

    failures: list[str] = []
    ops = [op for ops in islice(workload.rounds(), workload.trace_rounds) for op in ops]
    tracer = tracing.Tracer()
    tracer.install()
    untraced_ns = traced_ns = 0
    if write_spans:
        tracer.enable(False)
        run_ops(ops, failures)  # warm-up
    for index, op in enumerate(ops):
        order = (True,) if not write_spans else (False, True) if index % 2 else (True, False)
        for traced in order:
            tracer.enable(traced)
            latency = run_op(op, failures, tracer if traced else None, index)
            if traced:
                traced_ns += latency
            else:
                untraced_ns += latency
    tracer.enable(False)
    stats = tracing.Stats(tracer.spans, [op.tag for op in ops])
    result = {
        "attempted": len(ops) * (3 if write_spans else 1),
        "failed": len(failures),
        "failures": failures[:MAX_FAILURES_SHOWN],
        "counts": stats.exact_counts(),
    }
    if write_spans:
        metrics = workload.layer_metrics(stats)
        metrics["trace.overhead_frac"] = traced_ns / untraced_ns - 1
        result["metrics"] = metrics
        path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.write(path, {"workload": workload.name, "seed": seed,
                            "ops": [[op.kind, op.tag] for op in ops]})
        result["spans_file"] = str(path.relative_to(ROOT))
        result["spans"] = len(tracer.spans)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace", "count"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--t0", type=int, required=True)
    args = parser.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    try:
        setup_s = (time.monotonic_ns() - args.t0) / 1e9
        if args.mode in ("setup", "measure"):
            # Set-up time at reference speed too, by the host's slowness
            # right after set-up ends.
            slowness = host_slowness(SETUP_REFERENCE_ITERATIONS)[0]
            setup = {"setup_s": setup_s / slowness, "setup_raw_s": setup_s}
        if args.mode == "setup":
            result = setup
        elif args.mode == "measure":
            result = measure(workload, args.seconds) | setup
        else:
            result = trace(workload, args.seed, write_spans=args.mode == "trace")
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
