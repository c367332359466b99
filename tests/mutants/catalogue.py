"""The mutant catalogue: small faults each of which some test must catch.

An entry names a file of the repository, an exact text that occurs in it
once, the text that replaces it and the tests expected to fail on the
result.  ``tests/mutants/run.py`` applies each entry to a copy of the
tree and runs its killers; ``tests/test_mutants.py`` checks in tier-1
that every entry's text is still found, so a refactor that moves the
code must move the entry too.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    killers: tuple[str, ...]


_EXPLORER = "src/trisections/explorer.py"
_LISTING = (
    "tests/test_reachability.py::test_listing_matches_bfs_beyond_sum_15",
    "tests/test_explorer.py::test_listing_count_is_the_listing_length_capped",
    "tests/test_explorer.py::test_feasible_nodes_is_the_genus_enumeration",
)
_COUNTS = (
    "tests/test_explorer.py::test_listing_count_is_the_listing_length_capped",
    "tests/test_explorer.py::test_node_count_is_the_length_of_the_node_range_capped",
    "tests/test_reachability.py::test_listing_count_matches_bfs_beyond_sum_15",
)
_FEASIBILITY = (
    "tests/test_explorer.py::test_verify_fails_rather_than_raises_when_feasibility_lies",
    "tests/test_explorer.py::test_verify_checks_feasibility_on_every_profile_in_range",
)
_REACH = "tests/test_reachability.py"
_WITNESSES = (
    f"{_REACH}::test_witnesses_match_the_successor_walk_on_every_pair_up_to_sum_13",
    f"{_REACH}::test_common_stabilization_matches_the_enumeration_on_every_pair_up_to_sum_13",
)
_TABLE_EDGE = (f"{_REACH}::test_search_witnesses_match_the_successor_walk_across_the_label_table_end",)
_REBUILT = ("tests/test_moves.py::test_the_states_built_without_checks_pass_every_check",)
_MOVES = "src/trisections/moves.py"
_KERNEL = "tests/test_move_kernel.py"
_BUILDS = (f"{_KERNEL}::test_balance_and_build_match_the_fold",)
_CANONICAL = (*_BUILDS, f"{_KERNEL}::test_the_canonical_move_is_a_move_along_the_least_arc")
_CAPPED = "tests/test_moves.py::test_capped_genus_is_where_cap_ends_everywhere"
_DISK_TABLE = (
    f"{_KERNEL}::test_disk_runs_through_the_tables_match_the_fold",
    f"{_KERNEL}::test_plans_across_the_reach_of_the_tables_match_the_fold",
)
_DISK_REPLAY = (
    f"{_KERNEL}::test_replayed_disk_runs_take_the_table_comparison",
    f"{_KERNEL}::test_replayed_plans_read_from_text_take_the_table_comparison",
)
_DISK_MEMORY = (f"{_KERNEL}::test_long_builds_fill_each_table_to_its_reach_and_no_further",)
_STABS_SORT = (
    f"{_KERNEL}::test_realize_path_matches_the_fold",
    f"{_KERNEL}::test_replay_matches_the_fold_on_random_scripts",
    _CANONICAL[1],
)
_PAIR_ORDER = "removed = created if x < y else (y, x)"
_MERGE = "removed = heappop(labels), heapreplace(labels, created[0])\n"
_MUTATED = (
    f"{_KERNEL}::test_mutated_scripts_fail_with_the_same_message",
    f"{_KERNEL}::test_single_moves_fail_with_the_same_message",
)
_FAKES = (
    f"{_KERNEL}::test_replay_matches_the_fold_on_random_scripts",
    "tests/test_planner.py::test_plan_scripts_replay_to_the_reported_endpoint",
)
_GOLDEN = ("tests/test_golden.py::test_the_corpus_outputs_are_unchanged",)
_JUNK = "tests/test_explorer.py::test_constructors_and_search_refuse_arguments_of_the_wrong_type"
_NEGATIVE = "tests/test_explorer.py::test_a_count_argument_refuses_a_negative_int"
_PATH = "tests/test_explorer.py::test_realize_path_refuses_a_path_that_is_no_iterable_of_pairs"
_Z_RANGE = "range(max(0, 3 * p - r), min(r - 3 * a, 4 * r - 3 * q) // 2 + 1)"
_B_LOW = "(q - 2 * z + 3) // 4) + 1"
_B_HIGH = "(r - 2 * z) // 3 + 2)"
_COUNT_CHECK = "    if type(value) is not int or value < 0:"
_SERIALIZE = "src/trisections/serialize.py"
_NEAR_MISSES = (
    "tests/test_serialize.py::test_a_near_miss_of_the_layout_reads_as_the_json_path_reads_it",
    "tests/test_reader_equivalence.py::test_reader_agrees_with_the_reference_parser_on_a_mutated_corpus",
)
_TRAILING = (
    _NEAR_MISSES[0],
    "tests/test_reader_equivalence.py::"
    "test_reader_agrees_with_the_reference_parser_on_bytes_after_a_document",
)
_STORED = (
    "tests/test_reader_equivalence.py::"
    "test_reader_agrees_with_the_reference_parser_on_each_check_of_a_stored_history",
)
_WRITER = (
    "tests/test_serialize.py::test_writers_equal_canonical_dumps_of_their_payloads",
    "tests/test_serialize.py::test_script_round_trips_including_fake_records",
)

CATALOGUE = (
    # The cone walk: each end of the z and b intervals.
    Mutant("cone-z-low-narrowed", _EXPLORER, _Z_RANGE,
           "range(max(0, 3 * p - r + 1), min(r - 3 * a, 4 * r - 3 * q) // 2 + 1)", _LISTING),
    Mutant("cone-z-high-narrowed", _EXPLORER, _Z_RANGE,
           "range(max(0, 3 * p - r), min(r - 3 * a, 4 * r - 3 * q) // 2)", _LISTING),
    Mutant("cone-b-low-narrowed", _EXPLORER, _B_LOW, "(q - 2 * z + 3) // 4) + 2", _LISTING),
    Mutant("cone-b-low-widened", _EXPLORER, _B_LOW, "(q - 2 * z + 3) // 4)", _LISTING),
    Mutant("cone-b-high-narrowed", _EXPLORER, _B_HIGH, "(r - 2 * z) // 3 + 1)", _LISTING),
    Mutant("cone-b-high-widened", _EXPLORER, _B_HIGH, "(r - 2 * z) // 3 + 3)", _LISTING),
    # The listing walk's count: where it stops, and the start outside its
    # own cone; and the depth explore prints from a block.
    Mutant("count-stops-at-the-limit", _EXPLORER,
           "            if limit is not None and total > limit:",
           "            if limit is not None and total >= limit:", _COUNTS),
    Mutant("count-drops-the-start-outside-its-cone", _EXPLORER,
           "    total = int(outside)", "    total = 0", (_COUNTS[0], _COUNTS[2])),
    Mutant("explore-line-depth-off-by-one", "src/trisections/cli.py",
           "depth={depth + 3 * b}", "depth={depth + 3 * b - 1}", _GOLDEN),
    # Verify's feasibility loop: the unchecked profile, and the b it starts at.
    Mutant("feasibility-profile-swaps-h2-and-h3", _EXPLORER,
           "set2(profile, h2)\n                    set3(profile, h3)",
           "set2(profile, h3)\n                    set3(profile, h2)", _FEASIBILITY),
    Mutant("feasibility-skips-b-1", _EXPLORER, "                for b in range(1, max_sum + 3):",
           "                for b in range(2, max_sum + 3):", _FEASIBILITY),
    # is_feasible by arithmetic: its parity test, and the last b it admits.
    Mutant("feasibility-ignores-parity", "src/trisections/core.py",
           "b >= _LEAST_B and (level + b) % 2 == 1 and b <=", "b >= _LEAST_B and b <=", _FEASIBILITY),
    Mutant("feasibility-last-b-two-high", "src/trisections/core.py",
           "    return level + 1 - 2 * top\n", "    return level + 3 - 2 * top\n",
           _FEASIBILITY[1:]),
    # The witness climb: the greedy row's floor and reach tests.
    Mutant("witness-skips-the-floor-test", _EXPLORER,
           "if params[falling] >= least and room[k] > 0", "if room[k] > 0", _WITNESSES),
    Mutant("witness-drops-the-reach-test", _EXPLORER,
           "room[k] > 0 and abs(gap - delta[3]) <= left:", "room[k] > 0:", _WITNESSES),
    # The canonical run, which makes every canonical move's labels off the
    # walk's list as a heap: the pair a merge takes (the third least, when
    # the new label is not less, in place of the second, or the second with
    # no new label put in), the labels it creates past the end of
    # core.LABELS, the order of a split's two and the second of them put in.
    Mutant("witness-merges-the-first-and-third-labels", _MOVES, _MERGE,
           "removed = heappop(labels), heapreplace(labels, heapreplace(labels, created[0]))\n",
           (*_WITNESSES, *_CANONICAL)),
    Mutant("canonical-merge-takes-its-second-label-by-heappop", _MOVES, _MERGE,
           "removed = heappop(labels), heappop(labels)\n", (*_WITNESSES, *_CANONICAL)),
    Mutant("witness-merge-label-off-by-one-past-the-table", _MOVES,
           "if n < _TABLE_END else component_label(n),)",
           "if n < _TABLE_END else component_label(n + 1),)", (*_TABLE_EDGE, *_CANONICAL[1:])),
    Mutant("witness-split-labels-off-by-one-past-the-table", _MOVES,
           "else (component_label(n), component_label(n + 1)))",
           "else (component_label(n + 1), component_label(n + 2)))", (*_TABLE_EDGE, *_CANONICAL[1:])),
    Mutant("canonical-split-labels-swapped", _MOVES,
           "created = ((LABELS[n], LABELS[n + 1]) if n + 2 <= _TABLE_END",
           "created = ((LABELS[n + 1], LABELS[n]) if n + 2 <= _TABLE_END",
           (*_WITNESSES, *_CANONICAL)),
    Mutant("canonical-split-drops-its-second-half", _MOVES, "            heappush(labels, created[1])\n",
           "", (*_WITNESSES, *_CANONICAL)),
    # The walk's list is in string order between runs: each caller of the
    # kernel but to_disk (one label is left there) sorts the heap it leaves.
    Mutant("stabs-skips-its-sort", _MOVES,
           "path, self.records.append)\n        self.labels.sort()\n",
           "path, self.records.append)\n", _STABS_SORT),
    Mutant("cap-skips-its-sort", _MOVES,
           "moves, self.records.append)\n        self.labels.sort()\n",
           "moves, self.records.append)\n", _BUILDS),
    # The one int loop of balance and cap: the b at which it stops merging,
    # and its stop test; and the floor test of a given canonical path.
    Mutant("cap-merges-at-b-2", _MOVES, "i, same = _balance_target(h1, h2, h3), b < 2",
           "i, same = _balance_target(h1, h2, h3), b < 3", (*_BUILDS, _CAPPED)),
    Mutant("cap-stops-one-row-short", _MOVES, "if h1 == h2 == h3 and (genus is None",
           "if 3 * max(h1, h2, h3) - h1 - h2 - h3 <= 1 and (genus is None", (*_BUILDS, _CAPPED)),
    Mutant("stabs-skips-its-floor-test", _MOVES,
           "            if g12 < _LEAST_G12 or g13 < _LEAST_G13 or g23 < _LEAST_G23 or b < _LEAST_B:\n"
           "                raise IllegalMove(message)\n", "",
           (*_CANONICAL[1:],
            "tests/test_explorer.py::test_realize_path_refuses_the_first_faulty_step_first")),
    # A walk's unchecked state: its node must have the link's b.
    Mutant("walk-state-b-from-the-labels", _MOVES,
           "genera = _node(self.g12, self.g13, self.g23, self.b)",
           "genera = _node(self.g12, self.g13, self.g23, len(self.labels) + 1)", _REBUILT),
    # A disk run in closed form: the order of each merged pair, and the
    # number of merges before the pairs.
    Mutant("disk-run-pair-out-of-string-order", _MOVES, _PAIR_ORDER, "removed = created", _BUILDS),
    Mutant("disk-run-one-merge-short", _MOVES,
           "pairs, merges = self.opposite(i), self.b - 1",
           "pairs, merges = self.opposite(i), self.b - 2", _BUILDS),
    # A disk run's pairs, made by _pairs or sliced from H_i's table: the
    # slice's first and last pair, the live label it needs, the pairs the
    # table grows by and the reach it stops at; and the records _pairs makes,
    # with the tuples they share.
    Mutant("disk-table-slice-one-pair-late", _MOVES, "2 * (k // 3)\n", "2 * (k // 3) + 2\n",
           _DISK_TABLE),
    Mutant("disk-table-slice-one-pair-long", _MOVES, "return table[first:first + 2 * pairs]",
           "return table[first:first + 2 * pairs + 2]", _DISK_TABLE),
    Mutant("disk-table-ignores-the-live-label", _MOVES,
           "if stop <= _DISK_REACH and labels[0] == LABELS[k]:", "if stop <= _DISK_REACH:",
           _DISK_TABLE),
    Mutant("disk-table-skips-one-pair-short", _MOVES, "if len(table) < first + 2 * pairs:",
           "if len(table) < first + 2 * pairs - 2:", _DISK_TABLE),
    Mutant("disk-table-reach-test-one-past", _MOVES, "if stop <= _DISK_REACH and",
           "if stop <= _DISK_REACH + 3 and", _DISK_MEMORY),
    Mutant("disk-table-grows-one-pair-past-its-reach", _MOVES, "iter(LABELS[grown + 1:stop])",
           "iter(LABELS[grown + 1:stop + 3])", _DISK_MEMORY),
    Mutant("disk-table-split-labels-swapped", _MOVES, "created = (x, y)\n", "created = (y, x)\n",
           _DISK_TABLE),
    Mutant("disk-table-pair-out-of-string-order", _MOVES, _PAIR_ORDER,
           "removed = (y, x) if x < y else created", _DISK_TABLE),
    Mutant("disk-table-split-removes-the-wrong-label", _MOVES,
           "_tuple(SameComponent, removed), created, removed)))",
           "_tuple(SameComponent, removed), created, created[:1])))",
           _DISK_TABLE),
    # A replayed run of disk pairs, taken whole when it equals the table's
    # slice: the slice it compares with, its cap at g_jk, its least length,
    # the genera and live label it moves on to, and the type test of its
    # records.
    Mutant("disk-replay-slice-one-pair-late", _MOVES, "_disk_run(i, n - 1, p) == list(run)",
           "_disk_run(i, n + 2, p) == list(run)", _DISK_REPLAY),
    Mutant("disk-replay-pairs-past-g-jk", _MOVES,
           "p = min((g23, g13, g12)[i - 1], (len(records) - taken) // 2, (_DISK_REACH - n) // 3)",
           "p = min((len(records) - taken) // 2, (_DISK_REACH - n) // 3)",
           (*_DISK_REPLAY[1:], f"{_KERNEL}::test_a_disk_run_longer_than_g_jk_is_refused_at_its_last_split")),
    Mutant("disk-replay-takes-one-pair", _MOVES, "if p > 1 else ()", "if p > 0 else ()",
           _DISK_REPLAY[:1]),
    Mutant("disk-replay-keeps-the-genera", _MOVES,
           "                        g12, g13 = g12 + p * (s12 + m12), g13 + p * (s13 + m13)\n"
           "                        g23, n = g23 + p * (s23 + m23), n + 3 * p\n",
           "                        n += 3 * p\n", _DISK_REPLAY),
    Mutant("disk-replay-keeps-the-live-label", _MOVES, "                        labels[0] = LABELS[n - 1]\n",
           "", _DISK_REPLAY),
    Mutant("disk-replay-takes-a-plain-tuple", _MOVES,
           "list(run)\n                            and {*map(type, run)} == {MoveRecord}):",
           "list(run)):", (f"{_KERNEL}::test_mutated_disk_runs_fail_with_the_same_message",)),
    # The one-frame given-arc kernel: its floor check, its created-label
    # check, the walk's ints a fake_stab record reads, and the record test.
    Mutant("follow-skips-the-floors", _MOVES,
           "                if g12 < _LEAST_G12 or g13 < _LEAST_G13 or g23 < _LEAST_G23:\n"
           "                    raise IllegalMove(message)\n", "", _MUTATED),
    Mutant("follow-takes-any-created-labels", _MOVES,
           "if created != expected or removed != arc:", "if removed != arc:",
           (f"{_KERNEL}::test_mutated_scripts_fail_with_the_same_message",
            f"{_KERNEL}::test_mutated_records_at_the_table_end_fail_with_the_same_message")),
    Mutant("follow-fakes-from-stale-ints", _MOVES,
           "                    self.g12, self.g13, self.g23, self.b, self.next_id = "
           "g12, g13, g23, b, n\n                    if (applied := self.fake_stab())",
           "                    if (applied := self.fake_stab())", _FAKES),
    Mutant("follow-takes-a-plain-tuple", _MOVES,
           "op = record.op  # by attribute", "op = record[0]  # by attribute",
           ("tests/test_explorer.py::test_replay_names_a_step_that_is_no_record",)),
    # The argument checks of the library's API.
    Mutant("counts-take-a-negative-int", "src/trisections/core.py", _COUNT_CHECK,
           "    if type(value) is not int:", (_NEGATIVE,)),
    Mutant("counts-take-any-number", "src/trisections/core.py", _COUNT_CHECK,
           "    if value < 0:", (_JUNK,)),
    Mutant("limit-unchecked", _EXPLORER, '    _check_count("limit", limit)\n', "", (_JUNK, _NEGATIVE)),
    Mutant("fresh-unchecked", "src/trisections/core.py", '        _check_count("count", count)\n', "",
           (_JUNK, _NEGATIVE)),
    Mutant("inverse_of-unchecked", _MOVES,
           '    _check_type("record", record, MoveRecord)\n', "", (_JUNK,)),
    Mutant("realize_path-unchecked", _EXPLORER,
           "        raise OutOfDomain(f\"path must be an iterable of (handlebody, kind) pairs, "
           "got {path!r}\") from None", "        raise", (_PATH,)),
    # The reader of the writer's own layout: each check it makes in code or
    # pattern, and the writer's test for the two shapes a move makes.
    Mutant("layout-takes-equal-created-labels", _SERIALIZE,
           "            if first == second:\n                return None\n", "", _NEAR_MISSES),
    Mutant("layout-takes-a-pair-out-of-order", _SERIALIZE,
           "            if not low < high:\n                return None\n", "", _NEAR_MISSES),
    Mutant("layout-takes-any-handlebody-digit", _SERIALIZE, '"([123])"', '"([0-9])"', _NEAR_MISSES),
    Mutant("layout-takes-bytes-after-a-script", _SERIALIZE,
           'if read is not None and text[read[1]:] in ("\\n", ""):', "if read is not None:",
           _TRAILING),
    Mutant("layout-takes-bytes-after-a-state", _SERIALIZE,
           '    if text[pos:] not in ("\\n", ""):\n        return None\n', "", _TRAILING),
    Mutant("writer-skips-its-shape-test", _SERIALIZE,
           "        if head is not None and removed == arc and len(created) == 3 - len(arc):\n",
           "        if head is not None:\n", _WRITER[:1]),
    Mutant("writer-skips-its-escape-test", _SERIALIZE,
           "x, (y, z) = arc[0], created\n                if x.isalnum() and y.isalnum() and "
           "z.isalnum():", "x, (y, z) = arc[0], created\n                if True:", _WRITER[:1]),
    Mutant("writer-head-keyed-to-the-wrong-handlebody", _SERIALIZE, "    heads = {(op, i): (",
           "    heads = {(op, 4 - i): (", _WRITER),
    Mutant("layout-takes-any-label-as-the-removed-one", _SERIALIZE,
           '(f"(?P<x>{_ID})", label, label, "(?P=x)")', '(f"(?P<x>{_ID})", label, label, _ID)',
           _NEAR_MISSES),
    # The stored-history check: its walk back, a created label past the end
    # of core.LABELS, the initial count and the components test.
    Mutant("stored-never-walks-back", _MOVES,
           "    if g12 - s12 + low12 < 0 or g13 - s13 + low13 < 0 or g23 - s23 + low23 < 0:\n",
           "    if False:\n", _STORED),
    Mutant("stored-split-label-off-by-one-past-the-table", _MOVES,
           "else (component_label(fresh), component_label(fresh + 1)))",
           "else (component_label(fresh), component_label(fresh + 2)))", _STORED),
    Mutant("stored-initial-count-ignores-removed", _MOVES,
           "    fresh = (len(components) - sum(map(len, map(_CREATED, history)))\n"
           "             + sum(map(len, map(_REMOVED, history))))\n",
           "    fresh = len(components) - sum(map(len, map(_CREATED, history)))\n", _STORED),
    Mutant("stored-components-unchecked", _MOVES, "    if tuple(live) != components:\n",
           "    if False:\n", _STORED),
)
