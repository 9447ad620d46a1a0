"""Vertex sets as Python ints: bit v set means vertex v is in the set.

The solver and the width searches both work on these bitsets, starting
from a graph's neighbor sets (Graph.masks); this module holds the few
helpers they use: bit iteration, component flooding, and the split of a
connected set that lost one vertex, which floods only until it knows
the pieces.
"""

from __future__ import annotations

from typing import Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Members of a bitset in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def components(adj: list[int], within: int, seeds: int | None = None) -> list[int]:
    """Connected components of the subgraph induced by within.

    With seeds (a subset of within) given, only the components that meet
    seeds are flooded.  Components come back ordered by their lowest
    seed vertex.
    """
    if seeds is None:
        seeds = within
    found: list[int] = []
    while seeds:
        frontier = seeds & -seeds
        rest = within ^ frontier
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & rest
            rest ^= frontier
        comp = within ^ rest
        found.append(comp)
        within = rest
        seeds &= rest
    return found


def split_components(adj: list[int], within: int, ends: int) -> list[int]:
    """Components of within, given that every one of them meets ends.

    This holds when within is a connected set less one vertex and ends
    (not empty) are that vertex's neighbors in it.  While two or more
    ends are open, flood from the lowest one: a flood that reaches every
    other open end leaves within whole, and one that runs dry first is a
    component, peeled off.  What is left holds the last open end and is
    the last component.  Components come back ordered by their lowest
    end, as components(adj, within, ends) returns them.
    """
    found: list[int] = []
    while ends & (ends - 1):
        frontier = ends & -ends
        rest = within ^ frontier
        ends ^= frontier
        while frontier and ends:
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & rest
            rest ^= frontier
            ends &= rest
        if not ends:
            break
        found.append(within ^ rest)
        within = rest
    found.append(within)
    return found
