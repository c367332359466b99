"""The benchmark's three workloads: seeded inputs, ops and their checks.

A workload turns a seed into an endless stream of rounds.  A round is a
short list of ops whose composition is fixed; the seed picks the inputs,
never the mix, so runs on different seeds do the same amount of work to
within sampling noise.  An op is one call a user makes, and its check
runs outside the timed region.

Ops reach the library through module attributes (``planner.replay``), so
the tracer's wrappers see them.  Checks use only the functions bound by
from-import below, which the tracer never replaces, so checking adds no
spans to a traced pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

from trisections import cli, core, explorer, planner
from trisections.explorer import MoveGraphNode
from trisections.planner import replay as unwrapped_replay

from tracing import Stats, ratio

TRIVIAL = (0, 0, 0, 1)


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is correct
    tag: str = ""


# ---------------------------------------------------------------------------
# The node space, computed independently of the engine.  A node is
# (g12, g13, g23, b); h_i = g_ij + g_ik + b - 1.


def heights(node: tuple[int, int, int, int]) -> tuple[int, int, int]:
    g12, g13, g23, b = node
    return (g12 + g13 + b - 1, g12 + g23 + b - 1, g13 + g23 + b - 1)


def sum_h(node: tuple[int, int, int, int]) -> int:
    return sum(heights(node))


def nodes(max_sum: int) -> list[tuple[int, int, int, int]]:
    """Every node with h1 + h2 + h3 <= max_sum, in lexicographic order."""
    top = max_sum // 2
    return [
        (g12, g13, g23, b)
        for g12 in range(top + 1)
        for g13 in range(top + 1)
        for g23 in range(top + 1)
        for b in range(1, max_sum // 3 + 2)
        if 2 * (g12 + g13 + g23) + 3 * (b - 1) <= max_sum
    ]


_OPPOSITE = {1: 2, 2: 1, 3: 0}  # index of g_jk in a node, for handlebody i


def node_of(profile: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """Invert the genus formula: g_ij = (h_i + h_j - h_k + 1 - b) / 2."""
    h1, h2, h3, b = profile
    return ((h1 + h2 - h3 + 1 - b) // 2, (h1 + h3 - h2 + 1 - b) // 2,
            (h2 + h3 - h1 + 1 - b) // 2, b)


def reachable(s: tuple, t: tuple) -> bool:
    """The closed-form stabilization order: can ``t`` be reached from ``s``?

    t == s, or s is non-trivial, h(t) >= h(s) componentwise, min h(t) >= 1
    and |b(t) - b(s)| <= sum(h(t) - h(s)).
    """
    if t == s:
        return True
    if s == TRIVIAL:
        return False
    hs, ht = heights(s), heights(t)
    if min(ht) < 1 or any(x < y for x, y in zip(ht, hs)):
        return False
    return abs(t[3] - s[3]) <= sum(ht) - sum(hs)


def _profile_text(h1: int, h2: int, h3: int, b: int) -> str:
    return f"({h1},{h2},{h3};{b})"


# ---------------------------------------------------------------------------
# plan-replay


def _plan_and_replay(a: core.Profile, b: core.Profile, rs_bound: int):
    state_a = core.state_from_profile(a)
    state_b = core.state_from_profile(b)
    report = planner.plan_common_stabilization(state_a, state_b, rs_bound)
    final_a = planner.replay(state_a, report.a.concatenated())
    final_b = planner.replay(state_b, report.b.concatenated())
    return report, final_a, final_b


def _check_plan(result) -> str | None:
    report, final_a, final_b = result
    if not final_a.genera == final_b.genera == report.final_genera:
        return f"replayed genera {final_a.genera} / {final_b.genera} != {report.final_genera}"
    if not final_a.profile == final_b.profile == report.final_profile:
        return f"replayed profiles {final_a.profile} / {final_b.profile} != {report.final_profile}"
    return None


class PlanReplay:
    """Plan a common stabilization of two drawn states and replay both sides.

    Inputs are (a, b) from the 143 non-trivial feasible nodes with
    sum_h <= 12; each round of three ops uses every rs_bound in {0, 1, 2}.
    """

    name = "plan-replay"
    window_rounds = 32
    trace_rounds = 64

    def __init__(self, seed: int, scratch: Path) -> None:
        self._rng = random.Random(seed)
        self._profiles = [
            core.Profile(*heights(node), node[3]) for node in nodes(12) if node != TRIVIAL
        ]

    def rounds(self) -> Iterator[list[Op]]:
        rng = self._rng
        while True:
            yield [
                Op("plan", partial(_plan_and_replay, rng.choice(self._profiles),
                                   rng.choice(self._profiles), rs_bound), _check_plan)
                for rs_bound in rng.sample((0, 1, 2), 3)
            ]

    def close(self) -> None:
        pass

    def layer_metrics(self, stats: Stats) -> dict[str, float]:
        profile_calls, profile_ns, _, _ = stats.get("core.state_from_profile")
        feasible_calls, feasible_ns, _, _ = stats.get("core.is_feasible")
        stab_calls, _, stab_self, _ = stats.get("moves.apply_stabilization")
        balance_calls, _, balance_self, _ = stats.get("moves.balance")
        fake_calls, _, fake_self, _ = stats.get("moves.fake_heegaard_stab")
        plan_calls, _, plan_self, records = stats.get("planner.plan_common_stabilization")
        _, _, replay_self, replayed = stats.get("planner.replay")
        return {
            "core.state_from_profile.us": ratio(profile_ns, profile_calls) / 1e3,
            "core.is_feasible.us": ratio(feasible_ns, feasible_calls) / 1e3,
            "moves.apply_stabilization.calls": stab_calls,
            "moves.apply_stabilization.self_us": ratio(stab_self, stab_calls) / 1e3,
            "moves.balance.self_us": ratio(balance_self, balance_calls) / 1e3,
            "moves.fake_heegaard_stab.self_us": ratio(fake_self, fake_calls) / 1e3,
            "planner.plan_common_stabilization.self_us": ratio(plan_self, plan_calls) / 1e3,
            "planner.records_per_op": ratio(records, plan_calls),
            "planner.replay.self_us_per_record": ratio(replay_self, replayed) / 1e3,
        }


# ---------------------------------------------------------------------------
# search


def _search(a: MoveGraphNode, b: MoveGraphNode, max_sum: int):
    return explorer.common_stabilization_search(a, b, max_sum)


class Search:
    """Minimal common stabilization search between two drawn nodes.

    Inputs are pairs of nodes with sum_h <= 10.  Each round runs six
    searches at each max_sum in {15, 20, 24}; one of the six pairs holds
    the trivial node, the full-BFS-then-None worst case.
    """

    name = "search"
    window_rounds = 3
    trace_rounds = 8
    MAX_SUMS = (15, 20, 24)
    PER_MAX_SUM = 6

    def __init__(self, seed: int, scratch: Path) -> None:
        self._rng = random.Random(seed)
        self._nodes = [MoveGraphNode(*node) for node in nodes(10) if node != TRIVIAL]
        self._trivial = MoveGraphNode(*TRIVIAL)
        self._by_height: dict[int, list[tuple]] = {}

    def rounds(self) -> Iterator[list[Op]]:
        rng = self._rng
        while True:
            ops = []
            for max_sum in self.MAX_SUMS:
                for k in range(self.PER_MAX_SUM):
                    a, b = rng.choice(self._nodes), rng.choice(self._nodes)
                    if k == 0:
                        a, b = rng.choice(((self._trivial, b), (a, self._trivial)))
                    ops.append(Op("search", partial(_search, a, b, max_sum),
                                  partial(self._check, a, b, max_sum)))
            rng.shuffle(ops)
            yield ops

    def close(self) -> None:
        pass

    def _oracle(self, a: tuple, b: tuple, max_sum: int) -> tuple | None:
        # The smallest (sum_h, node) reachable from both sides.
        if max_sum not in self._by_height:
            self._by_height[max_sum] = sorted(nodes(max_sum), key=lambda n: (sum_h(n), n))
        for node in self._by_height[max_sum]:
            if reachable(a, node) and reachable(b, node):
                return node
        return None

    def _check(self, a: MoveGraphNode, b: MoveGraphNode, max_sum: int, found) -> str | None:
        expected = self._oracle((a.g12, a.g13, a.g23, a.b), (b.g12, b.g13, b.g23, b.b), max_sum)
        if found is None:
            return None if expected is None else f"found nothing; the oracle found {expected}"
        node, script_a, script_b = found
        if (node.g12, node.g13, node.g23, node.b) != expected:
            return f"found {node}; the oracle found {expected}"
        for start, script in ((a, script_a), (b, script_b)):
            final = unwrapped_replay(start.to_state(), script)
            if MoveGraphNode.from_state(final) != node:
                return f"witness from {start} replays to {MoveGraphNode.from_state(final)}"
            if len(script) != node.sum_h() - start.sum_h():
                return f"witness from {start} has {len(script)} moves"
        return None

    def layer_metrics(self, stats: Stats) -> dict[str, float]:
        stab_calls, _, _, _ = stats.get("moves.apply_stabilization")
        _, bfs_ns, _, found_nodes = stats.get("explorer.bfs_reachable")
        path_calls, _, path_self, _ = stats.get("explorer.shortest_path")
        realize_calls, _, realize_self, _ = stats.get("explorer.realize_path")
        search_calls, _, search_self, witness = stats.get("explorer.common_stabilization_search")
        return {
            "moves.apply_stabilization.calls": stab_calls,
            "explorer.bfs_reachable.nodes": found_nodes,
            "explorer.bfs_reachable.nodes_per_s": ratio(found_nodes, bfs_ns) * 1e9,
            "explorer.shortest_path.self_ms": ratio(path_self, path_calls) / 1e6,
            "explorer.realize_path.self_us": ratio(realize_self, realize_calls) / 1e3,
            "explorer.common_stabilization_search.self_ms": ratio(search_self, search_calls) / 1e6,
            "explorer.search.useful_ratio": ratio(witness, found_nodes),
        }


# ---------------------------------------------------------------------------
# cli-io


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _expect(ok: bool, message: str) -> str | None:
    return None if ok else message


class CliIO:
    """``trisect`` commands run in-process on files in a scratch directory.

    Each round runs, in a seeded order: the pipeline ``new`` ->
    ``build-heegaard --script`` -> ``replay`` -> ``show`` on four b = 1
    seeds (open-book g) of 400 to 1600 moves and four high-b seeds
    (connect-sum g, b = g + 1) of 200 to 800 moves; two ``explore``
    listings at max_sum 30 and 36; and one ``verify``.  Script lengths are
    log-uniform within one quarter of their range per pipeline (stratum),
    so every round does about the same work while op latencies cover the
    range densely and their percentiles do not jump between sizes.
    """

    name = "cli-io"
    window_rounds = 1
    trace_rounds = 1
    B1_MOVES = (400, 1600)
    BMAX_MOVES = (200, 800)
    STRATA = 4
    EXPLORE_SUMS = (30, 36)
    VERIFY_SUM = 10
    # Small explore starts: (kind, params, profile).
    STARTS = (
        ("koda-ozawa", (), (1, 2, 2, 2)),
        ("tunnel", (1,), (1, 1, 2, 1)),
        ("split-heegaard", (2, 1), (2, 1, 1, 1)),
        ("open-book", (1,), (2, 2, 2, 1)),
        ("connect-sum", (1,), (1, 1, 1, 2)),
    )

    def __init__(self, seed: int, scratch: Path) -> None:
        self._rng = random.Random(seed)
        self._dir = Path(tempfile.mkdtemp(prefix="cli-io-", dir=scratch))
        self._listings: dict[int, list[tuple]] = {}

    def close(self) -> None:
        shutil.rmtree(self._dir, ignore_errors=True)

    def rounds(self) -> Iterator[list[Op]]:
        while True:
            groups = [self._b1(stratum) for stratum in range(self.STRATA)]
            groups += [self._bmax(stratum) for stratum in range(self.STRATA)]
            groups += [self._explore(slot, max_sum) for slot, max_sum in enumerate(self.EXPLORE_SUMS)]
            groups.append([self._verify()])
            self._rng.shuffle(groups)
            yield [op for group in groups for op in group]

    def _draw(self, bounds: tuple[int, int], stratum: int) -> int:
        low, high = bounds
        return round(low * (high / low) ** ((stratum + self._rng.random()) / self.STRATA))

    def _b1(self, stratum: int) -> list[Op]:
        # open-book g is (2g,2g,2g;1); building along any handlebody takes 2g moves.
        g = self._draw(self.B1_MOVES, stratum) // 2
        return self._pipeline(f"b1.{stratum}", "open-book", (g,), (2 * g, 2 * g, 2 * g, 1),
                              self._rng.choice((1, 2, 3)))

    def _bmax(self, stratum: int) -> list[Op]:
        g = self._draw(self.BMAX_MOVES, stratum)
        return self._pipeline(f"bmax.{stratum}", "connect-sum", (g,), (g, g, g, g + 1),
                              self._rng.choice((1, 2, 3)))

    def _pipeline(self, tag: str, kind: str, params: tuple, profile: tuple, i: int) -> list[Op]:
        files = {name: str(self._dir / f"{tag}.{name}.json")
                 for name in ("state", "script", "built", "replayed")}
        h = dict(zip((1, 2, 3), profile[:3]))
        b = profile[3]
        j, k = (n for n in (1, 2, 3) if n != i)
        moves = 2 * node_of(profile)[_OPPOSITE[i]] + b - 1
        final = dict(h)
        final[i] = h[j] + h[k]
        final_text = _profile_text(final[1], final[2], final[3], 1)

        def check_new(result) -> str | None:
            code, _, err = result
            return _expect(code == 0 and f"profile {_profile_text(*profile)}" in err,
                           f"new {kind} {params}: exit {code}, {err.strip()!r}")

        def check_build(result) -> str | None:
            code, _, err = result
            if code != 0:
                return f"build-heegaard: exit {code}, {err.strip()!r}"
            script = json.loads(Path(files["script"]).read_text(encoding="utf-8"))
            return _expect(
                len(script) == moves and f"Heegaard genus {h[j] + h[k]}\n" in err,
                f"build-heegaard H{i} of {kind} {params}: {len(script)} moves "
                f"(expected {moves}), {err.strip()!r}",
            )

        def check_replay(result) -> str | None:
            code, _, err = result
            if code != 0:
                return f"replay: exit {code}, {err.strip()!r}"
            replayed = Path(files["replayed"]).read_bytes()
            return _expect(replayed == Path(files["built"]).read_bytes(),
                           f"replay of {kind} {params} differs from build-heegaard output")

        def check_show(result) -> str | None:
            code, out, err = result
            return _expect(
                code == 0 and f"profile: {final_text}\n" in out and f"history: {moves} moves\n" in out,
                f"show {kind} {params}: exit {code}, {out.strip()!r}",
            )

        argv = [str(n) for n in params]
        return [
            Op("new", partial(_run_cli, ["new", kind, *argv, "-o", files["state"]]), check_new),
            Op("build-heegaard", partial(_run_cli, [
                "build-heegaard", files["state"], "--handlebody", str(i),
                "--script", files["script"], "-o", files["built"]]), check_build, tag),
            Op("replay", partial(_run_cli, [
                "replay", files["state"], files["script"], "-o", files["replayed"]]), check_replay),
            Op("show", partial(_run_cli, ["show", files["built"]]), check_show),
        ]

    def _explore(self, slot: int, max_sum: int) -> list[Op]:
        kind, params, profile = self._rng.choice(self.STARTS)
        start = node_of(profile)
        path = str(self._dir / f"explore.{slot}.json")
        argv = [str(n) for n in params]

        def check_explore(result) -> str | None:
            code, out, err = result
            if code != 0:
                return f"explore: exit {code}, {err.strip()!r}"
            if max_sum not in self._listings:
                self._listings[max_sum] = nodes(max_sum)
            expected = [
                f"({t[0]},{t[1]},{t[2]};b={t[3]}) depth={sum_h(t) - sum_h(start)}"
                for t in self._listings[max_sum]
                if reachable(start, t)
            ]
            return _expect(out.splitlines() == expected,
                           f"explore from {kind} {params} to {max_sum}: listing differs")

        return [
            Op("new", partial(_run_cli, ["new", kind, *argv, "-o", path]),
               lambda result: _expect(result[0] == 0, f"new {kind}: exit {result[0]}")),
            Op("explore", partial(_run_cli, ["explore", "--start", path, "--max-sum", str(max_sum)]),
               check_explore),
        ]

    def _verify(self) -> Op:
        def check_verify(result) -> str | None:
            code, out, err = result
            if code != 0:
                return f"verify: exit {code}, {err.strip()!r}"
            report = json.loads(out)
            return _expect(
                report["max_sum"] == self.VERIFY_SUM and len(report["entries"]) == 5
                and all(entry["pass"] for entry in report["entries"]),
                f"verify report: {out[:200]!r}",
            )

        return Op("verify", partial(_run_cli, ["verify", "--max-sum", str(self.VERIFY_SUM)]),
                  check_verify)

    def layer_metrics(self, stats: Stats) -> dict[str, float]:
        feasible_calls, feasible_ns, _, _ = stats.get("core.is_feasible")
        stab_calls, _, stab_self, _ = stats.get("moves.apply_stabilization")
        _, _, replay_self, replayed = stats.get("planner.replay")
        _, bfs_ns, _, found_nodes = stats.get("explorer.bfs_reachable")
        verify_calls, verify_ns, _, _ = stats.get("explorer.verify_properties")
        main_calls, _, main_self, _ = stats.get("cli.main")
        metrics = {
            "core.is_feasible.us": ratio(feasible_ns, feasible_calls) / 1e3,
            "moves.apply_stabilization.calls": stab_calls,
            "moves.apply_stabilization.self_us": ratio(stab_self, stab_calls) / 1e3,
        }
        for kind in ("b1", "bmax"):
            _, build_ns, _, built = stats.get("moves.build_heegaard", kind + ".")
            per_move = [
                ratio(row[1], row[3])
                for row in (stats.get("moves.build_heegaard", f"{kind}.{stratum}")
                            for stratum in range(self.STRATA))
            ]
            metrics[f"moves.build_heegaard.us_per_move.{kind}"] = ratio(build_ns, built) / 1e3
            metrics[f"moves.build_heegaard.scaling.{kind}"] = ratio(per_move[-1], per_move[0])
        metrics.update({
            "planner.replay.self_us_per_record": ratio(replay_self, replayed) / 1e3,
            "explorer.bfs_reachable.nodes": found_nodes,
            "explorer.bfs_reachable.nodes_per_s": ratio(found_nodes, bfs_ns) * 1e9,
            "explorer.verify_properties.ms": ratio(verify_ns, verify_calls) / 1e6,
        })
        written = read = 0
        for name in ("state_to_text", "script_to_text", "state_from_text", "script_from_text"):
            _, text_ns, _, size = stats.get(f"serialize.{name}")
            metrics[f"serialize.{name}.mb_per_s"] = ratio(size, text_ns) * 1e3
        for name in ("state_to_text", "script_to_text", "verification_report_to_text"):
            written += stats.get(f"serialize.{name}")[3]
        for name in ("state_from_text", "script_from_text"):
            read += stats.get(f"serialize.{name}")[3]
        metrics["serialize.bytes_written"] = written
        metrics["serialize.bytes_read"] = read
        metrics["cli.main.self_ms"] = ratio(main_self, main_calls) / 1e6
        return metrics


WORKLOADS = {cls.name: cls for cls in (PlanReplay, Search, CliIO)}
