"""Combinatorial states for trisections of closed orientable 3-manifolds.

A trisection cuts a closed orientable 3-manifold into three handlebodies
H1, H2, H3.  Any two of them meet in a connected compact surface (S12,
S13 or S23), and all three meet in a link B common to the boundaries of
the three surfaces.  Writing g12, g13, g23 for the surface genera and b
for the number of components of B, the handlebody genera are determined:

    h_i = g_ij + g_ik + b - 1        ({i, j, k} = {1, 2, 3})

This module keeps only that combinatorial shadow: the three surface
genera, the named components of B, and everything derivable from them.
It does not encode embeddings or attaching maps.  States are immutable;
the move calculus in :mod:`trisections.moves` produces new states.

A state's ``history`` is the tuple of move records that produced it,
and that history is also the whole past of the boundary link.  The move
calculus applies a run of moves to one mutable list of labels and
builds one state at the end (see :mod:`trisections.moves`), so a script
costs one copy of the history however many moves it makes.  What the
engine builds from parts it has proven (a walk's result, a fresh link, a
listed node) skips the checks that every value built from outside gets:
:func:`_setters` sets each field through its slot, without
``__post_init__``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import wraps

_ID_PATTERN = re.compile(r"c(0|[1-9][0-9]*)\Z")


# The identifier c<n> of a label number n >= 0: an f-string, which a call
# and map both run faster than the bound "c{}".format (at c123456, 180
# against 266 ns a call, 189 against 218 in map; timeit, CPython 3.11).
def component_label(number: int) -> str:
    return f"c{number}"


# The identifiers c0 .. c1023, formatted once: moves and the reader take
# fresh labels from here and format only those past it.
_LABEL_COUNT = 1024
LABELS = tuple(map(component_label, range(_LABEL_COUNT)))


class TrisectionError(Exception):
    """Base class for domain errors raised by the engine."""


class Infeasible(TrisectionError):
    """A genus/boundary quadruple admits no consistent surface genera."""


class OutOfDomain(TrisectionError):
    """A constructor parameter lies outside the constructor's domain."""


_OTHER_TWO = {1: (2, 3), 2: (1, 3), 3: (1, 2)}


def other_two(i: int) -> tuple[int, int]:
    """Return the two handlebody indices distinct from ``i``, ascending."""
    # True == 1 and 1.0 == 1 would find a pair too, but are no index.
    pair = _OTHER_TWO.get(i) if type(i) is int else None
    if pair is None:
        raise ValueError(f"handlebody index must be 1, 2 or 3, got {i!r}")
    return pair


def _check_fields(owner, checks) -> None:
    # A ValueError naming the first field of owner whose check fails;
    # checks holds (field name, whether it passed, what it must be).
    for name, passed, kind in checks:
        if not passed:
            raise ValueError(f"{name} must be {kind}, got {getattr(owner, name)!r}")


def _check_type(name: str, value, kind: type) -> None:
    # The one check that an argument is a ``kind``, naming it when it is not.
    if not isinstance(value, kind):
        raise OutOfDomain(f"{name} must be a {kind.__name__}, got {value!r}")


def _check_count(name: str, value: int) -> None:
    # The one check that an argument is a nonnegative int; True is no count.
    if type(value) is not int or value < 0:
        raise OutOfDomain(f"{name} must be a nonnegative integer, got {value!r}")


def _check_label(label: str) -> str:
    # The one check of a state's label: a str that encodes as UTF-8.
    if not isinstance(label, str):
        raise ValueError(f"label must be a str, got {label!r}")
    if not label.isascii():  # an ASCII label encodes, and isascii() costs O(1)
        try:
            label.encode("utf-8")  # a lone surrogate does not, so no document carries it
        except UnicodeEncodeError:
            raise ValueError(f"label must encode as UTF-8, got {label!r}") from None
    return label


_new = object.__new__


def _setters(cls: type) -> tuple:
    """The slot setters of the frozen dataclass ``cls``, in field order.

    A caller that has proven every field builds an instance by
    ``_new(cls)`` and these, one call a field, skipping ``__post_init__``.
    """
    return tuple(cls.__dict__[name].__set__ for name in cls.__dataclass_fields__)


@dataclass(frozen=True, slots=True, order=True)
class Profile:
    """Handlebody genera and boundary-component count ``(h1,h2,h3;b)``."""

    h1: int
    h2: int
    h3: int
    b: int

    def __post_init__(self) -> None:
        h1, h2, h3, b = self.h1, self.h2, self.h3, self.b
        # type() is int rejects bool, an int subclass: True is not a genus.
        if not (type(h1) is type(h2) is type(h3) is type(b) is int
                and h1 >= 0 and h2 >= 0 and h3 >= 0 and b >= _LEAST_B):
            raise ValueError(f"not a valid profile: {self!r}")

    def genus(self, i: int) -> int:
        other_two(i)  # rejects anything but 1, 2 and 3
        return (self.h1, self.h2, self.h3)[i - 1]

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.h1, self.h2, self.h3, self.b)

    def sum_h(self) -> int:
        return self.h1 + self.h2 + self.h3

    @property
    def is_balanced(self) -> bool:
        return self.h1 == self.h2 == self.h3

    def __str__(self) -> str:
        return f"({self.h1},{self.h2},{self.h3};{self.b})"


# Least legal value of each coordinate of (g12, g13, g23, b).
PARAM_FLOORS = (0, 0, 0, 1)
_LEAST_G12, _LEAST_G13, _LEAST_G23, _LEAST_B = PARAM_FLOORS

# (handlebody, arc kind) -> change to (g12, g13, g23, b).  A one-component
# arc in S_jk cuts that surface (g_jk - 1, b + 1); a two-component arc adds
# a handle to both surfaces touching H_i (g_ij + 1, g_ik + 1, b - 1).  The
# row order is the enumeration order of legal moves and of search.
STAB_DELTAS: dict[tuple[int, str], tuple[int, int, int, int]] = {
    (1, "same"): (0, 0, -1, 1),
    (1, "distinct"): (1, 1, 0, -1),
    (2, "same"): (0, -1, 0, 1),
    (2, "distinct"): (1, 0, 1, -1),
    (3, "same"): (-1, 0, 0, 1),
    (3, "distinct"): (0, 1, 1, -1),
}

# A parameter-level move: (handlebody index, "same" | "distinct").
ParamMove = tuple[int, str]

# STAB_DELTAS as search reads it: the move, the row, the one coordinate it
# lowers, that coordinate's least value before it, and the height it raises.
_SUCCESSOR_ROWS = tuple(
    (move, delta, delta.index(-1), PARAM_FLOORS[delta.index(-1)] + 1, move[0] - 1)
    for move, delta in STAB_DELTAS.items()
)


@dataclass(frozen=True, slots=True, order=True)
class MoveGraphNode:
    """The parameters of a trisection: surface genera g12, g13, g23 and b.

    This is a state with its component labels erased, the node of the
    move graph that search walks, and the ``genera`` of every
    :class:`TrisectionState`.  Every field is an exact integer at or
    above :data:`PARAM_FLOORS`.
    """

    g12: int
    g13: int
    g23: int
    b: int

    def __post_init__(self) -> None:
        g12, g13, g23, b = self.g12, self.g13, self.g23, self.b
        # type() is int rejects bool, an int subclass: True is not a genus.
        if not (
            type(g12) is type(g13) is type(g23) is type(b) is int
            and g12 >= _LEAST_G12
            and g13 >= _LEAST_G13
            and g23 >= _LEAST_G23
            and b >= _LEAST_B
        ):
            raise ValueError(f"not a valid parameter node: {self!r}")

    @classmethod
    def from_state(cls, state: TrisectionState) -> MoveGraphNode:
        """The node of ``state``, which is its ``genera``."""
        return state.genera

    def heights(self) -> tuple[int, int, int]:
        """The handlebody genera (h1, h2, h3): h_i = g_ij + g_ik + b - 1."""
        g12, g13, g23, extra = self.g12, self.g13, self.g23, self.b - 1
        return (g12 + g13 + extra, g12 + g23 + extra, g13 + g23 + extra)

    def profile(self) -> Profile:
        return Profile(*self.heights(), self.b)

    def sum_h(self) -> int:
        return sum(self.heights())

    @property
    def is_trivial(self) -> bool:
        """Whether every coordinate is at its floor: the node with no moves."""
        return (self.g12, self.g13, self.g23, self.b) == PARAM_FLOORS

    def opposite(self, i: int) -> int:
        """Genus of S_jk, the surface that does not touch handlebody ``i``."""
        other_two(i)  # rejects anything but 1, 2 and 3
        return (self.g23, self.g13, self.g12)[i - 1]

    def to_state(self, label: str = "") -> TrisectionState:
        """The canonical labeled state for this node: components c0 .. c<b-1>."""
        # The node is checked and its link fresh, so only the label can fail.
        return _state(self, LinkComponentSet.fresh(self.b), (), _check_label(label))

    def successors(self) -> list[tuple[ParamMove, MoveGraphNode]]:
        """Legal parameter moves and their targets, in STAB_DELTAS row order."""
        params = g12, g13, g23, b = self.g12, self.g13, self.g23, self.b
        out: list[tuple[ParamMove, MoveGraphNode]] = []
        for move, (d12, d13, d23, db), falling, least, _ in _SUCCESSOR_ROWS:
            if params[falling] >= least:
                out.append((move, MoveGraphNode(g12 + d12, g13 + d13, g23 + d23, b + db)))
        return out


@dataclass(frozen=True, slots=True)
class LinkComponentSet:
    """The components of the boundary link B.

    Components carry opaque sequential identifiers ``c0``, ``c1``, ...;
    ``next_id`` is the counter for the next fresh label, and labels are
    never reused.  ``components`` is in creation order, which is
    ascending label number, and every label is below ``next_id``.  The
    link's past is the history of the state that holds it.
    """

    components: tuple[str, ...]
    next_id: int

    def __post_init__(self) -> None:
        if not isinstance(self.components, tuple):
            raise ValueError("components must be a tuple of component identifiers, "
                             f"got {self.components!r}")
        if len(self.components) < _LEAST_B:
            raise ValueError("the boundary link must have at least one component")
        if type(self.next_id) is not int:  # True is no counter
            raise ValueError(f"next_id must be an int, got {self.next_id!r}")
        numbers = [component_number(label) for label in self.components]
        if any(m >= n for m, n in zip(numbers, numbers[1:])):
            raise ValueError(
                f"components {list(self.components)} must be unique and in creation "
                "order (ascending label number)"
            )
        if numbers[-1] >= self.next_id:
            last = self.components[-1]
            raise ValueError(f"component {last!r} is not below next_id={self.next_id}")

    @classmethod
    def fresh(cls, count: int) -> LinkComponentSet:
        """A brand new set of ``count`` components ``c0`` .. ``c<count-1>``."""
        _check_count("count", count)
        if count < _LEAST_B:
            raise ValueError("the boundary link must have at least one component")
        # Labels c0 .. c<count-1> are well formed, unique, in creation order
        # and below count, so the set is built without its label check.
        link = _new(cls)
        _SET_COMPONENTS(link, component_labels(0, count))
        _SET_NEXT_ID(link, count)
        return link

    @property
    def b(self) -> int:
        return len(self.components)


def component_labels(start: int, stop: int) -> tuple[str, ...]:
    """The identifiers ``c<start>`` .. ``c<stop-1>``, read from :data:`LABELS` where it reaches."""
    if stop <= _LABEL_COUNT:
        return LABELS[start:stop]
    return LABELS[start:] + tuple(map(component_label, range(max(start, _LABEL_COUNT), stop)))


def component_number(label: str) -> int:
    """The counter value ``n`` of a component identifier ``c<n>``."""
    match = _ID_PATTERN.match(label) if isinstance(label, str) else None
    if match is None:
        raise ValueError(f"component identifiers look like 'c12', got {label!r}")
    return int(match.group(1))


def are_component_ids(labels: list) -> bool:
    """Whether :func:`component_number` reads every item, in one pass over them."""
    try:
        return all(map(_ID_PATTERN.match, labels))
    except TypeError:  # an item that is not a string
        return False


@dataclass(frozen=True, slots=True)
class TrisectionState:
    """A trisection presented by surface genera plus boundary components.

    ``history`` is the move script that produced this state from its
    construction (see :mod:`trisections.moves` for the record type), a
    tuple built from any sequence of records, and
    ``label`` is a free-form description of where the state came from.
    """

    genera: MoveGraphNode
    link: LinkComponentSet
    history: tuple = ()
    label: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.genera, MoveGraphNode):
            raise ValueError(f"genera must be a MoveGraphNode, got {self.genera!r}")
        if not isinstance(self.link, LinkComponentSet):
            raise ValueError(f"link must be a LinkComponentSet, got {self.link!r}")
        _check_label(self.label)
        if self.genera.b != self.link.b:
            raise ValueError(f"genera {self.genera} disagree with the link's b={self.link.b}")
        if type(self.history) is not tuple:
            object.__setattr__(self, "history", tuple(self.history))

    @property
    def b(self) -> int:
        return self.genera.b

    def handlebody_genus(self, i: int) -> int:
        other_two(i)  # rejects anything but 1, 2 and 3
        return self.genera.heights()[i - 1]

    @property
    def profile(self) -> Profile:
        return self.genera.profile()

    @property
    def is_balanced(self) -> bool:
        return self.profile.is_balanced

    @property
    def is_trivial(self) -> bool:
        return self.genera.is_trivial


_SET_G12, _SET_G13, _SET_G23, _SET_B = _setters(MoveGraphNode)
_SET_COMPONENTS, _SET_NEXT_ID = _setters(LinkComponentSet)
_SET_GENERA, _SET_LINK, _SET_HISTORY, _SET_LABEL = _setters(TrisectionState)


def _node(g12: int, g13: int, g23: int, b: int) -> MoveGraphNode:
    # A node from exact ints its caller has proven at or above PARAM_FLOORS.
    node = _new(MoveGraphNode)
    _SET_G12(node, g12)
    _SET_G13(node, g13)
    _SET_G23(node, g23)
    _SET_B(node, b)
    return node


def _state(genera: MoveGraphNode, link: LinkComponentSet, history: tuple,
           label: str) -> TrisectionState:
    # A state from parts its caller has proven: a node and a link of the
    # same b, a tuple of records and a checked label.
    state = _new(TrisectionState)
    _SET_GENERA(state, genera)
    _SET_LINK(state, link)
    _SET_HISTORY(state, history)
    _SET_LABEL(state, label)
    return state


def _last_b(level: int, top: int) -> int:
    """The largest b of a node at ``level`` whose largest height is ``top``: its
    genera g_ij = M - h_k, M = (level + 1 - b) / 2, are nonnegative integers
    exactly when b >= 1, level + b is odd and b <= level + 1 - 2 top."""
    return level + 1 - 2 * top


def _b_values(level: int, top: int, least: int, most: int) -> range:
    """The b in [least, most] of a node at ``level`` whose largest height is
    ``top``: b >= 1, level + b odd and b <= :func:`_last_b`."""
    # Conditionals, not max() and min(): search calls this per level.
    last = _last_b(level, top)
    least = least if least > _LEAST_B else _LEAST_B
    least += 1 - (level + least) % 2
    return range(least, (most if most < last else last) + 1, 2)


def genera_from_profile(profile: Profile) -> MoveGraphNode:
    """Invert the genus formula, recovering the node of (h1,h2,h3;b).

    Adding the defining relations pairwise gives

        g_ij = (h_i + h_j - h_k + 1 - b) / 2

    so the solution is unique when it exists.  Raises :class:`Infeasible`
    exactly when :func:`is_feasible` rejects the profile.
    """
    if not is_feasible(profile):
        raise Infeasible(f"profile {profile} has no genera: it needs sum h + b odd "
                         "and b <= sum h + 1 - 2 max h")
    return MoveGraphNode(*_genera(*profile.as_tuple()))


def _genera(h1: int, h2: int, h3: int, b: int) -> tuple[int, int, int, int]:
    # The genus formula inverted on ints, for h1 + h2 + h3 + b odd: with
    # M = (h1 + h2 + h3 + 1 - b) / 2, g12 = M - h3, g13 = M - h2 and
    # g23 = M - h1.  Returns (g12, g13, g23, b), unchecked.
    half = (h1 + h2 + h3 + 1 - b) // 2
    return (half - h3, half - h2, half - h1, b)


def is_feasible(profile: Profile) -> bool:
    """Whether some trisection state presents this profile: whether b >= 1,
    h1 + h2 + h3 + b is odd and b is at most :func:`_last_b` of its level
    and largest height."""
    try:
        h1, h2, h3, b = profile.h1, profile.h2, profile.h3, profile.b
    except AttributeError:
        # Checked only once the read has failed, so verify's calls cost no more.
        _check_type("profile", profile, Profile)
        raise
    level = h1 + h2 + h3
    return b >= _LEAST_B and (level + b) % 2 == 1 and b <= _last_b(level, max(h1, h2, h3))


def state_from_profile(profile: Profile, label: str = "") -> TrisectionState:
    """A fresh state presenting ``profile``, components ``c0`` .. ``c<b-1>``."""
    return genera_from_profile(profile).to_state(label)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OutOfDomain(message)


# CLI-facing catalogue: kind -> (constructor, parameter names).
CONSTRUCTORS: dict[str, tuple] = {}


def _constructor(kind: str, *names: str):
    """Register a builder of ``(profile, label)`` as the constructor ``kind``.

    The decorated name is the state constructor, and its ``__wrapped__``
    the builder behind one check that every parameter is an exact
    ``int``.  :func:`construct_profile` runs that builder alone, so a
    caller can size a request before its boundary link is allocated.
    """

    def register(build):
        @wraps(build)
        def checked(*args, **kwargs):
            for name, value in (*zip(names, args), *kwargs.items()):
                if type(value) is not int:  # True and 2.0 are no parameter
                    raise OutOfDomain(f"{name} must be an integer, got {value!r}")
            return build(*args, **kwargs)

        @wraps(checked)
        def constructor(*args, **kwargs) -> TrisectionState:
            return state_from_profile(*checked(*args, **kwargs))

        CONSTRUCTORS[kind] = (constructor, names)
        return constructor

    return register


@_constructor("trivial")
def trivial():
    """The trisection of the 3-sphere by three balls: profile (0,0,0;1)."""
    return Profile(0, 0, 0, 1), "trivial"


@_constructor("from-heegaard", "genus")
def from_heegaard(genus: int):
    """Thicken one side of a genus-g Heegaard splitting: profile (g,g,0;1)."""
    _require(genus >= 0, f"Heegaard genus must be >= 0, got {genus}")
    return Profile(genus, genus, 0, 1), f"from-heegaard(genus={genus})"


@_constructor("split-heegaard", "genus", "lower")
def split_heegaard(genus: int, lower: int):
    """Split a genus-g handlebody into genus-h and genus-(g-h) pieces: (g,h,g-h;1)."""
    _require(genus >= 0, f"Heegaard genus must be >= 0, got {genus}")
    _require(0 <= lower <= genus, f"need 0 <= lower <= genus, got lower={lower}")
    return (
        Profile(genus, lower, genus - lower, 1),
        f"split-heegaard(genus={genus},lower={lower})",
    )


@_constructor("open-book", "page_genus")
def open_book(page_genus: int):
    """An open book with genus-g pages and connected binding: (2g,2g,2g;1)."""
    _require(page_genus >= 0, f"page genus must be >= 0, got {page_genus}")
    g = page_genus
    return Profile(2 * g, 2 * g, 2 * g, 1), f"open-book(page-genus={g})"


@_constructor("tunnel", "tunnels")
def tunnel_system(tunnels: int):
    """A knot exterior with an m-tunnel unknotting system: (1,m,m+1;1)."""
    _require(tunnels >= 0, f"tunnel count must be >= 0, got {tunnels}")
    m = tunnels
    return Profile(1, m, m + 1, 1), f"tunnel(tunnels={m})"


@_constructor("connect-sum", "summand_genus")
def connect_sum_equal_genus(summand_genus: int):
    """Connected sum of two genus-g pieces glued along g+1 spheres: (g,g,g;g+1)."""
    _require(summand_genus >= 0, f"summand genus must be >= 0, got {summand_genus}")
    g = summand_genus
    return Profile(g, g, g, g + 1), f"connect-sum(summand-genus={g})"


_SURFACE_BUNDLE_NOTE = (
    "note: for odd fiber genus g the quadruple (2g,g,g;3) is infeasible "
    "(it forces g23 = -1), so this constructor uses the arithmetically "
    "consistent (2g,g+1,g+1;3) instead"
)


@_constructor("surface-bundle", "fiber_genus")
def surface_bundle(fiber_genus: int):
    """A surface bundle over the circle with genus-g fibers.

    Profile (2g, g+1, g+1; 1) for even g and (2g, g+1, g+1; 3) for odd g.
    The odd case carries a note in its label, surfaced by the CLI ``show``
    command: the superficially natural quadruple (2g,g,g;3) fails the genus
    arithmetic, so the feasible (2g,g+1,g+1;3) is used.
    """
    _require(fiber_genus >= 1, f"fiber genus must be >= 1, got {fiber_genus}")
    g = fiber_genus
    label = f"surface-bundle(fiber-genus={g})"
    if g % 2 == 0:
        return Profile(2 * g, g + 1, g + 1, 1), label
    return Profile(2 * g, g + 1, g + 1, 3), f"{label}; {_SURFACE_BUNDLE_NOTE}"


@_constructor("koda-ozawa")
def koda_ozawa():
    """The (1,2,2;2) family whose middle surface is a twice-punctured torus.

    These states are known not to arise by stabilizing anything smaller,
    which makes them useful seeds for move-calculus experiments.
    """
    return Profile(1, 2, 2, 2), "koda-ozawa"


def _builder(kind: str, params: tuple[int, ...]):
    if kind not in CONSTRUCTORS:
        known = ", ".join(sorted(CONSTRUCTORS))
        raise OutOfDomain(f"unknown constructor {kind!r}; known kinds: {known}")
    names = CONSTRUCTORS[kind][1]
    if len(params) != len(names):
        expected = ", ".join(names) if names else "none"
        raise OutOfDomain(
            f"constructor {kind!r} takes parameters ({expected}), got {len(params)}"
        )
    return CONSTRUCTORS[kind][0].__wrapped__


def construct(kind: str, params: tuple[int, ...] = ()) -> TrisectionState:
    """Dispatch to the named constructor.  Raises OutOfDomain for bad input."""
    return state_from_profile(*_builder(kind, params)(*params))


def construct_profile(kind: str, params: tuple[int, ...] = ()) -> Profile:
    """The profile :func:`construct` would present, found without building it."""
    return _builder(kind, params)(*params)[0]
