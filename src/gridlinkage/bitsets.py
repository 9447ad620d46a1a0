"""Vertex sets as Python ints: bit v set means vertex v is in the set.

The solver and the width searches both work on these bitsets, starting
from a graph's neighbor sets (Graph.masks); this module holds the few
helpers they use.
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
    (not empty) are that vertex's neighbors in it.  First a local test:
    if the ends are linked through their own closed neighborhoods in
    within (two ends are linked when those overlap), within is still
    connected; a single end always is.  Otherwise flood from the linked
    ends and stop once the flood holds every open end; a flood that runs
    dry first is a whole component, peeled off before the next one,
    which floods from the lowest open end.
    """
    low = ends & -ends
    reach = adj[low.bit_length() - 1] & within | low
    open_ends = ends ^ low
    grew = True
    while open_ends and grew:
        grew = False
        m = open_ends
        while m:
            low = m & -m
            m ^= low
            near = adj[low.bit_length() - 1] & within | low
            if near & reach:
                reach |= near
                open_ends ^= low
                grew = True
    if not open_ends:
        return [within]
    # reach is connected and holds the linked ends: flood on from it.
    found: list[int] = []
    frontier = reach
    rest = within ^ reach
    while True:
        while frontier and open_ends:
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & rest
            rest ^= frontier
            open_ends &= rest
        if not open_ends:
            found.append(within)
            return found
        found.append(within ^ rest)
        within = rest
        if not open_ends & (open_ends - 1):
            found.append(within)
            return found
        frontier = open_ends & -open_ends
        rest = within ^ frontier
        open_ends ^= frontier
