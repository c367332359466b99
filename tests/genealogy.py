"""The boundary link's genealogy, derived from a state's history.

A state keeps one record per move and no separate genealogy.  The link
starts as ``c0`` .. ``c<n-1>``, where n = b - sum(len(created) -
len(removed)) over the history, and every record replaces its removed
labels by its created ones.  Tests read that view through these helpers.
"""

from __future__ import annotations

Event = tuple[tuple[str, ...], tuple[str, ...]]


def genealogy(state) -> tuple[Event, ...]:
    """(parents, children) per event: the genesis first, then one per record."""
    history = state.history
    count = state.b - sum(len(record.created) - len(record.removed) for record in history)
    genesis = ((), tuple(f"c{n}" for n in range(count)))
    return (genesis,) + tuple((record.removed, record.created) for record in history)


def replay_genealogy(events: tuple[Event, ...]) -> tuple[str, ...]:
    """The components the events leave, in creation order.

    Raises ``ValueError`` when an event removes a missing label or
    creates one that was created before.
    """
    current: list[str] = []
    seen: set[str] = set()
    for parents, children in events:
        for parent in parents:
            if parent not in current:
                raise ValueError(f"genealogy replays a missing parent {parent!r}")
            current.remove(parent)
        for child in children:
            if child in seen:
                raise ValueError(f"genealogy reuses identifier {child!r}")
            seen.add(child)
            current.append(child)
    return tuple(current)
