"""Bitset helpers, checked against plain component flooding."""

import random

from gridlinkage import Graph, build_instance, make_grid
from gridlinkage.bitsets import components, split_components
from oracles import connected_graphs


def _check_every_removal(graph: Graph) -> None:
    # The pieces are the components, ordered by their lowest end.
    adj = graph.masks
    whole = (1 << graph.vertex_count) - 1
    for v in range(graph.vertex_count):
        within = whole ^ (1 << v)
        ends = adj[v] & within
        if ends:
            pieces = split_components(adj, within, ends)
            assert pieces == components(adj, within, ends)
            assert sorted(pieces) == sorted(components(adj, within))


def test_split_matches_components_on_small_connected_graphs():
    for graph in connected_graphs(6):
        _check_every_removal(graph)


def test_split_matches_components_on_sparse_graphs():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 30)
        edges = {(rng.randrange(i), i) for i in range(1, n)}
        for _ in range(rng.randint(0, n // 4)):
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        _check_every_removal(Graph.from_edges(n, sorted(edges)))


def test_split_matches_components_on_grids():
    # Removing a vertex leaves a grid, or the paper's grid with arcs,
    # whole: the flood must reach every other end before it stops.
    for rows in range(3, 6):
        for cols in range(3, 7):
            _check_every_removal(make_grid(rows, cols)[0])
    for k in (1, 2, 3):
        _check_every_removal(build_instance(k).graph)
