"""Profile arithmetic, feasibility, the boundary link, and the constructor catalogue.

The genus solver is checked against a brute-force enumeration oracle: for a
given profile we scan all small genus triples and keep those satisfying the
three handlebody-genus equations.  The closed form must agree exactly, and
must reject precisely when the scan finds nothing.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genealogy import genealogy, replay_genealogy
from trisections.core import (
    CONSTRUCTORS,
    Infeasible,
    LinkComponentSet,
    MoveGraphNode,
    OutOfDomain,
    Profile,
    TrisectionState,
    _b_values,
    _genera,
    LABELS,
    are_component_ids,
    component_labels,
    component_number,
    connect_sum_equal_genus,
    construct,
    construct_profile,
    from_heegaard,
    genera_from_profile,
    is_feasible,
    koda_ozawa,
    open_book,
    other_two,
    split_heegaard,
    state_from_profile,
    surface_bundle,
    trivial,
    tunnel_system,
)
from trisections.moves import (
    DestabMove,
    DistinctComponents,
    IllegalMove,
    SameComponent,
    StabMove,
    apply_destabilization,
    apply_stabilization,
)


def _oracle_genera(profile: Profile, search_bound: int = 12) -> list[MoveGraphNode]:
    """All genus triples matching the profile, by exhaustive scan.

    The bound 12 covers every profile with h1+h2+h3 <= 10: each genus is
    at most (h_i + h_j)/2 there.
    """
    h1, h2, h3, b = profile.as_tuple()
    found = []
    for g12, g13, g23 in itertools.product(range(search_bound), repeat=3):
        if (
            g12 + g13 + b - 1 == h1
            and g12 + g23 + b - 1 == h2
            and g13 + g23 + b - 1 == h3
        ):
            found.append(MoveGraphNode(g12, g13, g23, b))
    return found


def _all_profiles(max_sum: int) -> list[Profile]:
    out = []
    for h1 in range(max_sum + 1):
        for h2 in range(max_sum + 1 - h1):
            for h3 in range(max_sum + 1 - h1 - h2):
                for b in range(1, max_sum + 2):
                    out.append(Profile(h1, h2, h3, b))
    return out


# -- profiles and feasibility -------------------------------------------------


def test_profile_str_uses_semicolon_before_link_count():
    assert str(Profile(2, 2, 0, 1)) == "(2,2,0;1)"
    assert str(Profile(4, 10, 6, 1)) == "(4,10,6;1)"


def test_profile_rejects_bad_values():
    for bad in (
        (-1, 0, 0, 1), (0, -1, 0, 1), (0, 0, -1, 1), (0, 0, 0, 0), (0, 0, 0, -1),
        (True, 1, 0, 1), (0, True, 0, 1), (0, 0, False, 1), (1, 1, 0, True),
        (1.0, 0, 0, 1), (0, 0, 1.0, 1), (0, 0, 0, 1.0), (0.5, 0, 0, 1), ("1", 0, 0, 1),
    ):
        with pytest.raises(ValueError):
            Profile(*bad)
    assert Profile(0, 0, 0, 1).as_tuple() == (0, 0, 0, 1)


@pytest.mark.parametrize("index", [0, -1, True, 4], ids=["zero", "minus-one", "true", "four"])
def test_profile_genus_refuses_what_is_no_handlebody(index):
    # These used to read h3, h3 and h1 through negative or bool indexing,
    # and 4 ended in a raw IndexError.
    profile = Profile(1, 2, 3, 2)
    with pytest.raises(ValueError, match=rf"^handlebody index must be 1, 2 or 3, got {index!r}$"):
        profile.genus(index)
    assert [profile.genus(i) for i in (1, 2, 3)] == [1, 2, 3]


def test_node_rejects_bad_values():
    for bad in (
        (-1, 0, 0, 1), (0, -1, 0, 1), (0, 0, -1, 1), (0, 0, 0, 0), (0, 0, 0, -1),
        (True, 0, 0, 1), (0, True, 0, 1), (0, 0, False, 1), (0, 0, 0, True),
        (1.0, 0, 0, 1), (0, 0, 1.0, 1), (0, 0, 0, 1.0), (0.5, 0, 0, 1), ("1", 0, 0, 1),
    ):
        with pytest.raises(ValueError):
            MoveGraphNode(*bad)
    assert MoveGraphNode(0, 0, 0, 1).is_trivial


@pytest.mark.parametrize(
    "profile, expected",
    [
        (Profile(2, 2, 0, 1), MoveGraphNode(2, 0, 0, 1)),
        (Profile(1, 2, 2, 2), MoveGraphNode(0, 0, 1, 2)),
        (Profile(0, 0, 0, 1), MoveGraphNode(0, 0, 0, 1)),
        (Profile(4, 10, 6, 1), MoveGraphNode(4, 0, 6, 1)),
    ],
)
def test_genera_from_profile_frozen_examples(profile, expected):
    assert genera_from_profile(profile) == expected


@pytest.mark.parametrize(
    "profile",
    [
        Profile(1, 1, 1, 1),  # even total
        Profile(6, 3, 3, 3),  # parity fine, one genus negative
        Profile(1, 1, 1, 4),  # balanced with odd total, but b too large
    ],
)
def test_genera_from_profile_rejects_infeasible(profile):
    with pytest.raises(Infeasible):
        genera_from_profile(profile)


def test_b_values_is_the_brute_force_set():
    # The b >= 1 within [least, most] with level + b odd and every
    # g_ij = (level + 1 - b) / 2 - h_k >= 0, i.e. M >= top.
    for level in range(25):
        for top in range(level + 1):
            for least in range(-3, level + 4):
                for most in range(-3, level + 4):
                    expected = [
                        b for b in range(max(least, 1), most + 1)
                        if (level + b) % 2 == 1 and (level + 1 - b) / 2 >= top
                    ]
                    assert list(_b_values(level, top, least, most)) == expected


def test_is_feasible_is_parity_and_nonnegative_genera():
    for profile in _all_profiles(12):
        odd = sum(profile.as_tuple()) % 2 == 1
        assert is_feasible(profile) == (odd and min(_genera(*profile.as_tuple())) >= 0)


def test_genera_solver_matches_enumeration_oracle():
    for profile in _all_profiles(10):
        solutions = _oracle_genera(profile)
        if is_feasible(profile):
            assert solutions == [genera_from_profile(profile)]
        else:
            assert solutions == []


def test_oracle_never_finds_two_solutions():
    # the three defining equations pin the genera, so uniqueness is forced
    for profile in _all_profiles(10):
        assert len(_oracle_genera(profile)) <= 1


def test_feasibility_requires_odd_total():
    for profile in _all_profiles(10):
        if (profile.h1 + profile.h2 + profile.h3 + profile.b) % 2 == 0:
            assert not is_feasible(profile)


def test_balanced_feasibility_boundary():
    # (h,h,h;b) works exactly when h+b is odd and b <= h+1; parity alone
    # is not enough because b > h+1 forces a negative genus
    for h in range(13):
        for b in range(1, 14):
            profile = Profile(h, h, h, b)
            assert is_feasible(profile) == ((h + b) % 2 == 1 and b <= h + 1)
    assert not is_feasible(Profile(1, 1, 1, 4))


def test_state_from_profile_round_trips():
    for profile in _all_profiles(8):
        if not is_feasible(profile):
            continue
        state = state_from_profile(profile)
        assert state.profile == profile
        assert state.b == profile.b
        assert state.link.components == tuple(f"c{i}" for i in range(profile.b))


def test_state_from_profile_rejects_infeasible():
    with pytest.raises(Infeasible):
        state_from_profile(Profile(1, 1, 1, 1))


def test_handlebody_genus_matches_defining_formula():
    state = state_from_profile(Profile(3, 4, 6, 2))
    g = state.genera
    assert state.handlebody_genus(1) == g.g12 + g.g13 + state.b - 1
    assert state.handlebody_genus(2) == g.g12 + g.g23 + state.b - 1
    assert state.handlebody_genus(3) == g.g13 + g.g23 + state.b - 1


# -- link component bookkeeping -----------------------------------------------


def test_link_split_and_merge_generate_fresh_labels():
    # A one-component arc splits its label into two fresh ones, a
    # two-component arc merges its pair into one fresh one.
    state = open_book(1)  # genera (1,1,1), b = 1
    assert state.link.components == ("c0",)
    state = apply_stabilization(state, StabMove(1, SameComponent("c0")))
    assert state.history[-1].created == ("c1", "c2")
    assert state.link.components == ("c1", "c2") and state.link.next_id == 3
    state = apply_stabilization(state, StabMove(1, DistinctComponents("c1", "c2")))
    assert state.history[-1].created == ("c3",)
    assert state.link.components == ("c3",) and state.link.next_id == 4
    # identifiers are never reused even after their component is gone
    state = apply_stabilization(state, StabMove(3, SameComponent("c3")))
    assert state.history[-1].created == ("c4", "c5")
    assert state.link.components == ("c4", "c5") and state.link.next_id == 6


def test_link_operations_validate_their_arguments():
    state = koda_ozawa()  # c0, c1
    with pytest.raises(IllegalMove, match="component 'c9' is not in the boundary link"):
        apply_stabilization(state, StabMove(1, SameComponent("c9")))
    with pytest.raises(IllegalMove, match="component 'c9' is not in the boundary link"):
        apply_stabilization(state, StabMove(1, DistinctComponents("c0", "c9")))
    with pytest.raises(ValueError):
        apply_stabilization(state, StabMove(1, DistinctComponents("c0", "c0")))
    assert state.link.components == ("c0", "c1") and state.history == ()


def test_the_label_table_and_past_it():
    # The table ends at c1023; spans on either side of its end and across
    # it read the same labels that formatting each number gives.
    assert LABELS == tuple(f"c{n}" for n in range(1024))
    for start in (0, 1, 1020, 1022, 1023, 1024, 1025, 2000):
        for stop in range(start, start + 4):
            expected = tuple(f"c{n}" for n in range(start, stop))
            assert component_labels(start, stop) == expected, (start, stop)
    assert component_labels(0, 3000) == tuple(f"c{n}" for n in range(3000))
    assert LinkComponentSet.fresh(1030).components == tuple(f"c{n}" for n in range(1030))


@pytest.mark.parametrize("label", ["c1\n", "c0\n", "c12\n\n", "c1\r", " c1", "c01"])
def test_component_ids_refuse_stray_characters(label):
    with pytest.raises(ValueError, match="component identifiers look like"):
        component_number(label)
    assert not are_component_ids([label])
    assert not are_component_ids(["c0", label])


def test_link_genealogy_records_every_event():
    # The genealogy is the genesis labels plus one event per history record.
    state = koda_ozawa()  # c0, c1
    state = apply_stabilization(state, StabMove(1, SameComponent("c0")))  # c2, c3
    state = apply_stabilization(state, StabMove(1, DistinctComponents("c2", "c1")))  # c4
    assert state.link.components == ("c3", "c4")
    assert genealogy(state) == (
        ((), ("c0", "c1")),
        (("c0",), ("c2", "c3")),
        (("c1", "c2"), ("c4",)),
    )


def test_genealogy_replay_reproduces_components():
    state = construct("connect-sum", (2,))  # c0, c1, c2
    for move in (
        StabMove(1, DistinctComponents("c0", "c2")),  # c1, c3
        StabMove(2, SameComponent("c1")),  # c3, c4, c5
        StabMove(1, DistinctComponents("c3", "c5")),  # c4, c6
        DestabMove(3, DistinctComponents("c4", "c6")),  # c7
    ):
        apply = apply_stabilization if isinstance(move, StabMove) else apply_destabilization
        state = apply(state, move)
        assert replay_genealogy(genealogy(state)) == state.link.components


def test_split_and_merge_keep_the_full_check_invariants():
    # Moves build their links and states without __post_init__'s pass over
    # every label; each result must pass it anyway and equal the objects
    # rebuilt from outside.  The genera are large enough for every move.
    state = MoveGraphNode(1000, 1000, 1000, 4).to_state()
    for step in range(300):
        components = state.link.components
        if step % 3 == 2 or len(components) == 1:
            arc = SameComponent(components[(7 * step) % len(components)])
        else:
            first = components[step % len(components)]
            second = components[(5 * step + 1) % len(components)]
            if first == second:
                second = components[(components.index(first) + 1) % len(components)]
            arc = DistinctComponents(first, second)
        state = apply_stabilization(state, StabMove(1 + step % 3, arc))
        link, g = state.link, state.genera
        rebuilt = LinkComponentSet(link.components, link.next_id)
        assert rebuilt == link
        assert TrisectionState(
            MoveGraphNode(g.g12, g.g13, g.g23, g.b), rebuilt, tuple(state.history), state.label
        ) == state
        numbers = [component_number(label) for label in link.components]
        assert numbers == sorted(numbers) and numbers[-1] < link.next_id


def test_link_components_must_be_in_creation_order():
    with pytest.raises(ValueError, match="creation order"):
        LinkComponentSet(("c5", "c1"), 6)
    with pytest.raises(ValueError, match="unique and in creation order"):
        LinkComponentSet(("c1", "c1"), 6)
    with pytest.raises(ValueError, match="below next_id"):
        LinkComponentSet(("c1", "c5"), 5)
    assert LinkComponentSet(("c1", "c5", "c10"), 11).b == 3


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.sampled_from((9, 99, 999)).flatmap(
        lambda edge: st.lists(
            st.integers(min_value=max(0, edge - 12), max_value=edge * 10 + 12),
            min_size=1,
            max_size=30,
            unique=True,
        )
    )
)
def test_string_order_sorted_by_length_is_creation_order(numbers):
    # Labels crossing the c9/c10, c99/c100 and c999/c1000 boundaries,
    # where string order and number order part.  A walk keeps its labels
    # in string order and restores a link's creation order by one stable
    # sort by length.
    labels = tuple(f"c{n}" for n in sorted(numbers))
    assert tuple(sorted(sorted(labels), key=len)) == labels


# -- constructor catalogue ----------------------------------------------------


def test_trivial_state():
    state = trivial()
    assert state.profile == Profile(0, 0, 0, 1)
    assert state.genera == MoveGraphNode(0, 0, 0, 1)
    assert state.is_trivial


@pytest.mark.parametrize("g", range(7))
def test_from_heegaard_profile(g):
    state = from_heegaard(g)
    assert state.profile == Profile(g, g, 0, 1)
    assert state.genera == MoveGraphNode(g, 0, 0, 1)


@pytest.mark.parametrize("g,h", [(g, h) for g in range(7) for h in range(g + 1)])
def test_split_heegaard_profile(g, h):
    assert split_heegaard(g, h).profile == Profile(g, h, g - h, 1)


def test_split_heegaard_rejects_oversized_split():
    with pytest.raises(OutOfDomain):
        split_heegaard(2, 3)


@pytest.mark.parametrize("g", range(7))
def test_open_book_profile(g):
    state = open_book(g)
    assert state.profile == Profile(2 * g, 2 * g, 2 * g, 1)
    assert state.genera == MoveGraphNode(g, g, g, 1)


@pytest.mark.parametrize("m", range(7))
def test_tunnel_system_profile(m):
    assert tunnel_system(m).profile == Profile(1, m, m + 1, 1)


@pytest.mark.parametrize("g", range(7))
def test_connect_sum_equal_genus_profile(g):
    state = connect_sum_equal_genus(g)
    assert state.profile == Profile(g, g, g, g + 1)
    assert state.genera == MoveGraphNode(0, 0, 0, g + 1)


@pytest.mark.parametrize("g", range(1, 7))
def test_surface_bundle_profile(g):
    state = surface_bundle(g)
    expected_b = 1 if g % 2 == 0 else 3
    assert state.profile == Profile(2 * g, g + 1, g + 1, expected_b)
    assert ("note:" in state.label) == (g % 2 == 1)


def test_surface_bundle_odd_note_explains_the_substitution():
    label = surface_bundle(3).label
    assert "(2g,g,g;3)" in label
    assert "(2g,g+1,g+1;3)" in label


def test_surface_bundle_rejects_zero_fiber_genus():
    with pytest.raises(OutOfDomain):
        surface_bundle(0)


def test_koda_ozawa_profile():
    state = koda_ozawa()
    assert state.profile == Profile(1, 2, 2, 2)
    assert state.genera == MoveGraphNode(0, 0, 1, 2)


def test_construct_dispatch_matches_direct_calls():
    assert construct("trivial") == trivial()
    assert construct("from-heegaard", (3,)) == from_heegaard(3)
    assert construct("split-heegaard", (4, 1)) == split_heegaard(4, 1)
    assert construct("open-book", (2,)) == open_book(2)
    assert construct("tunnel", (5,)) == tunnel_system(5)
    assert construct("connect-sum", (2,)) == connect_sum_equal_genus(2)
    assert construct("surface-bundle", (3,)) == surface_bundle(3)
    assert construct("koda-ozawa") == koda_ozawa()


def test_construct_rejects_unknown_kind_and_bad_arity():
    with pytest.raises(OutOfDomain):
        construct("lens-space")
    with pytest.raises(OutOfDomain):
        construct("from-heegaard")
    with pytest.raises(OutOfDomain):
        construct("trivial", (1,))


def test_constructor_table_covers_every_kind():
    assert sorted(CONSTRUCTORS) == [
        "connect-sum",
        "from-heegaard",
        "koda-ozawa",
        "open-book",
        "split-heegaard",
        "surface-bundle",
        "trivial",
        "tunnel",
    ]


def test_construct_profile_matches_the_constructed_state():
    for kind, (constructor, names) in CONSTRUCTORS.items():
        params = tuple(range(len(names) + 1, 1, -1))  # (), (2,) or (3, 2)
        assert construct_profile(kind, params) == construct(kind, params).profile
    # No link is built, so a huge request is cheap to size.
    assert construct_profile("connect-sum", (10**9,)).b == 10**9 + 1
    with pytest.raises(OutOfDomain):
        construct_profile("connect-sum", (-1,))
    with pytest.raises(OutOfDomain):
        construct_profile("open-book", ())


def test_handlebody_indices_are_exact_integers():
    assert other_two(2) == (1, 3)
    node = MoveGraphNode(1, 2, 3, 1)
    state = node.to_state()
    assert [node.opposite(i) for i in (1, 2, 3)] == [3, 2, 1]
    assert [state.handlebody_genus(i) for i in (1, 2, 3)] == [3, 4, 5]
    for index in (True, 1.0, 0, 4):
        for lookup in (other_two, node.opposite, state.handlebody_genus):
            with pytest.raises(ValueError):
                lookup(index)


def test_constructor_states_are_all_feasible():
    for g in range(7):
        assert is_feasible(from_heegaard(g).profile)
        assert is_feasible(open_book(g).profile)
        assert is_feasible(connect_sum_equal_genus(g).profile)
        assert is_feasible(tunnel_system(g).profile)
        if g >= 1:
            assert is_feasible(surface_bundle(g).profile)


def test_negative_parameters_rejected():
    with pytest.raises(OutOfDomain):
        from_heegaard(-1)
    with pytest.raises(OutOfDomain):
        tunnel_system(-1)
    with pytest.raises(OutOfDomain):
        connect_sum_equal_genus(-1)
    with pytest.raises(OutOfDomain):
        open_book(-1)


def test_states_start_with_empty_history():
    assert from_heegaard(2).history == ()
    assert koda_ozawa().history == ()


def test_state_equality_includes_link():
    a = from_heegaard(2)
    assert a == from_heegaard(2)
    # Same genera and b, other labels: c0 split into c1, c2 and merged back.
    relabeled = LinkComponentSet(("c3",), 4)
    assert relabeled.b == a.b
    moved = TrisectionState(genera=a.genera, link=relabeled, history=(), label=a.label)
    assert a != moved


def test_state_rejects_genera_whose_b_disagrees_with_its_link():
    genera = MoveGraphNode(2, 0, 0, 1)
    with pytest.raises(ValueError, match="b=1"):
        TrisectionState(genera, LinkComponentSet.fresh(2))
    with pytest.raises(ValueError):
        TrisectionState(MoveGraphNode(0, 0, 1, 3), LinkComponentSet.fresh(2))
    assert TrisectionState(genera, LinkComponentSet.fresh(1)).profile == Profile(2, 2, 0, 1)


def test_a_state_refuses_a_label_no_document_can_carry():
    # A lone surrogate used to build a state whose state_to_text(...).encode()
    # raised UnicodeEncodeError.
    state = from_heegaard(2)
    with pytest.raises(ValueError, match=r"^label must encode as UTF-8, got '\\ud800'$"):
        dataclasses.replace(state, label="\ud800")
    with pytest.raises(ValueError, match="^label must encode as UTF-8"):
        TrisectionState(state.genera, state.link, (), "ok \udfff")
    assert dataclasses.replace(state, label="é ∞ 𝔖").label == "é ∞ 𝔖"
