"""Vertex sets as Python ints: bit v set means vertex v is in the set.

The solver and the width searches both work on these bitsets; this
module holds the few helpers they share.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import Graph


def adjacency_masks(graph: Graph) -> list[int]:
    """Neighbor set of every vertex, indexed by vertex id."""
    masks = [0] * graph.vertex_count
    for u, v in graph.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


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
