"""Acceptance gate: one test per release criterion, with time budgets.

Each criterion prints exactly one PASS/FAIL line (bypassing capture, so
the lines always appear in the run log) and fails its test on any
violation or budget overrun.  Budgets are wall-clock seconds measured
around the whole check.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter

import pytest

from bfs_oracle import bfs_reachable
from trisections.core import (
    Profile,
    connect_sum_equal_genus,
    from_heegaard,
    genera_from_profile,
    is_feasible,
    koda_ozawa,
    open_book,
    split_heegaard,
    state_from_profile,
    surface_bundle,
    trivial,
    tunnel_system,
)
from trisections.explorer import (
    MoveGraphNode,
    common_stabilization_search,
    feasible_nodes,
)
from trisections.moves import (
    DistinctComponents,
    SameComponent,
    StabMove,
    apply_destabilization,
    apply_stabilization,
    balance,
    build_heegaard,
    fake_heegaard_stab,
    inverse_of,
)
from trisections.planner import plan_common_stabilization, replay


@pytest.fixture()
def criterion(capsys):
    @contextmanager
    def gate(number: int, description: str, budget_seconds: float):
        start = perf_counter()
        try:
            yield
        except BaseException:
            elapsed = perf_counter() - start
            with capsys.disabled():
                print(f"ACCEPTANCE {number:2d} {description}: FAIL ({elapsed:.2f}s)")
            raise
        elapsed = perf_counter() - start
        verdict = "PASS" if elapsed < budget_seconds else "FAIL"
        with capsys.disabled():
            print(
                f"ACCEPTANCE {number:2d} {description}: {verdict} "
                f"({elapsed:.2f}s, budget {budget_seconds:g}s)"
            )
        assert elapsed < budget_seconds, (
            f"criterion {number} exceeded its {budget_seconds:g}s budget: {elapsed:.2f}s"
        )

    return gate


def _cli(*args: str, stdin_text: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "trisections.cli", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
    )


def _feasible_profiles(max_sum: int) -> list[Profile]:
    out = []
    for h1 in range(max_sum + 1):
        for h2 in range(max_sum + 1 - h1):
            for h3 in range(max_sum + 1 - h1 - h2):
                for b in range(1, max_sum + 2):
                    profile = Profile(h1, h2, h3, b)
                    if is_feasible(profile):
                        out.append(profile)
    return out


def test_acceptance_01_heegaard_seed_balances_in_two_moves(criterion):
    with criterion(1, "CLI round trip: genus-2 seed balances in 2 moves", 1.0):
        fresh = _cli("new", "from-heegaard", "2")
        assert fresh.returncode == 0
        assert "profile (2,2,0;1)" in fresh.stderr
        balanced = _cli("balance", stdin_text=fresh.stdout)
        assert balanced.returncode == 0
        assert "balance: 2 moves -> profile (2,2,2;1)" in balanced.stderr
        payload = json.loads(balanced.stdout)
        assert len(payload["history"]) == 2
        assert payload["genera"] == {"g12": 1, "g13": 1, "g23": 1}


def test_acceptance_02_balanced_feasibility_parity(criterion):
    with criterion(2, "balanced feasibility parity for h,b <= 12", 1.0):
        literal_exceptions = []
        for h in range(13):
            for b in range(1, 13):
                feasible = is_feasible(Profile(h, h, h, b))
                odd = (h + b) % 2 == 1
                # necessity holds with zero exceptions
                if feasible:
                    assert odd, (h, b)
                # sufficiency holds on the exact domain b <= h+1
                if odd and b <= h + 1:
                    assert feasible, (h, b)
                if feasible != odd:
                    literal_exceptions.append((h, b))
        # parity alone is not sufficient: the common surface genus
        # (h+1-b)/2 goes negative for b > h+1, and nowhere else
        assert literal_exceptions == [
            (h, b)
            for h in range(13)
            for b in range(1, 13)
            if (h + b) % 2 == 1 and b > h + 1
        ]


def test_acceptance_03_balance_postconditions_and_reachability(criterion):
    with criterion(3, "balance postconditions, sums <= 24 + BFS <= 12", 300.0):
        for profile in _feasible_profiles(24):
            state, script = balance(state_from_profile(profile))
            top = max(profile.h1, profile.h2, profile.h3)
            after = state.profile
            assert (after.h1, after.h2, after.h3) == (top, top, top)
            assert after.b <= max(profile.b, 2)
            assert len(script) == 3 * top - profile.sum_h()
        for profile in _feasible_profiles(12):
            start = genera_from_profile(profile)
            state, script = balance(state_from_profile(profile))
            target = MoveGraphNode.from_state(state)
            top = max(profile.h1, profile.h2, profile.h3)
            reached = bfs_reachable(start, 3 * top)
            assert target in reached
            assert reached[target] == len(script)


def test_acceptance_04_built_splitting_counts(criterion):
    with criterion(4, "built-splitting counts and genus, sums <= 24", 300.0):
        for profile in _feasible_profiles(24):
            start = state_from_profile(profile)
            for i in (1, 2, 3):
                j, k = [n for n in (1, 2, 3) if n != i]
                final, genus, script = build_heegaard(start, i)
                assert genus == profile.genus(j) + profile.genus(k)
                assert len(script) == 2 * start.genera.opposite(i) + profile.b - 1
        # balanced inputs: exactly h moves and splitting genus 2h
        for h in range(9):
            for b in range(1, h + 2):
                if (h + b) % 2 == 0:
                    continue
                state = state_from_profile(Profile(h, h, h, b))
                _, genus, script = build_heegaard(state, 1)
                assert len(script) == h
                assert genus == 2 * h


def test_acceptance_05_genus_bounds_both_directions(criterion):
    with criterion(5, "splitting genus sandwich for seeds g <= 8", 1.0):
        for g in range(9):
            balanced, _ = balance(from_heegaard(g))
            after = balanced.profile
            assert (after.h1, after.h2, after.h3) == (g, g, g)
            _, genus, script = build_heegaard(balanced, 1)
            assert genus == 2 * g
            assert len(script) == g


def test_acceptance_06_constructor_catalogue(criterion):
    with criterion(6, "constructor catalogue sweeps g,h,m <= 6", 1.0):
        assert trivial().profile == Profile(0, 0, 0, 1)
        assert koda_ozawa().profile == Profile(1, 2, 2, 2)
        for g in range(7):
            assert from_heegaard(g).profile == Profile(g, g, 0, 1)
            assert open_book(g).profile == Profile(2 * g, 2 * g, 2 * g, 1)
            assert connect_sum_equal_genus(g).profile == Profile(g, g, g, g + 1)
            for h in range(g + 1):
                assert split_heegaard(g, h).profile == Profile(g, h, g - h, 1)
        for m in range(7):
            assert tunnel_system(m).profile == Profile(1, m, m + 1, 1)
        assert connect_sum_equal_genus(1).profile == Profile(1, 1, 1, 2)
        assert surface_bundle(2).profile == Profile(4, 3, 3, 1)
        assert surface_bundle(3).profile == Profile(6, 4, 4, 3)
        for g in range(1, 7):
            expected_b = 1 if g % 2 == 0 else 3
            assert surface_bundle(g).profile == Profile(2 * g, g + 1, g + 1, expected_b)


def test_acceptance_07_pairwise_common_stabilization(criterion):
    with criterion(7, "pairwise planning + search, sums <= 8", 600.0):
        nodes = [n for n in feasible_nodes(8) if not n.is_trivial]
        profiles = [n.profile() for n in nodes]
        assert len(profiles) == 48
        for pa, pb in itertools.product(profiles, profiles):
            for rs_bound in (0, 1, 2):
                a, b = state_from_profile(pa), state_from_profile(pb)
                report = plan_common_stabilization(a, b, rs_bound)
                final_a = replay(a, report.a.concatenated())
                final_b = replay(b, report.b.concatenated())
                assert final_a.genera == final_b.genera == report.final_genera
                assert final_a.profile == final_b.profile == report.final_profile
        for na, nb in itertools.product(nodes, nodes):
            found = common_stabilization_search(na, nb, 15)
            assert found is not None
            node, script_a, script_b = found
            assert len(script_a) == node.sum_h() - na.sum_h()
            assert len(script_b) == node.sum_h() - nb.sum_h()
        start = MoveGraphNode(0, 0, 0, 1)
        for n in nodes:
            assert common_stabilization_search(start, n, 15) is None
            assert common_stabilization_search(n, start, 15) is None


def test_acceptance_08_stab_destab_inverse_law(criterion):
    with criterion(8, "10,000 random stab/destab round trips", 1.0):
        rng = random.Random(20260815)
        pool = [n.to_state() for n in feasible_nodes(10) if not n.is_trivial]
        for _ in range(10_000):
            state = pool[rng.randrange(len(pool))]
            genera, b = state.genera, state.b
            options = []
            if genera.g23:
                options.append((1, "same"))
            if genera.g13:
                options.append((2, "same"))
            if genera.g12:
                options.append((3, "same"))
            if b >= 2:
                options += [(1, "distinct"), (2, "distinct"), (3, "distinct")]
            i, kind = options[rng.randrange(len(options))]
            if kind == "same":
                arc = SameComponent(state.link.components[rng.randrange(b)])
            else:
                arc = DistinctComponents(*rng.sample(state.link.components, 2))
            mid = apply_stabilization(state, StabMove(i, arc))
            back = apply_destabilization(mid, inverse_of(mid.history[-1]))
            assert back.genera == state.genera
            assert back.b == state.b


def test_acceptance_09_fake_stabilization_net_effect(criterion):
    with criterion(9, "1,000 random fake stabilizations", 1.0):
        rng = random.Random(1729)
        pool = [
            n.to_state()
            for n in feasible_nodes(10)
            if n.b >= 2 or n.g13 >= 1
        ]
        for _ in range(1_000):
            state = pool[rng.randrange(len(pool))]
            before = state.profile
            after_state = fake_heegaard_stab(state)
            after = after_state.profile
            assert (after.h1 - before.h1, after.h2 - before.h2, after.h3 - before.h3) == (1, 1, 0)
            assert after.b == before.b
            assert after_state.genera.g12 == state.genera.g12 + 1
            assert after_state.genera.g13 == state.genera.g13
            assert after_state.genera.g23 == state.genera.g23


def test_acceptance_10_infeasible_tuple_guard_and_note(criterion):
    with criterion(10, "odd fiber-genus guard and CLI note", 1.0):
        for g in (1, 3, 5, 7, 9):
            assert not is_feasible(Profile(2 * g, g, g, 3))
            assert is_feasible(Profile(2 * g, g + 1, g + 1, 3))
        state_text = _cli("new", "surface-bundle", "3").stdout
        shown = _cli("show", "-", stdin_text=state_text)
        assert shown.returncode == 0
        assert "note:" in shown.stdout
        assert "(2g,g,g;3)" in shown.stdout and "(2g,g+1,g+1;3)" in shown.stdout
