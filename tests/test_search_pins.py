"""Pinned search trajectories of solve().

Node counts are deterministic, so they fix exactly which search nodes
the pruning keeps.  Each row records nodes_explored, the number of
solutions and a digest of the solution list for one instance and knob
setting; any change to a prune (or to the neighbor or pair order) shows
up here as a count change, not only as a timing change.
"""

import hashlib
import random

import pytest

from gridlinkage import Graph, Instance, brute_force_oracle, build_instance, solve


def _digest(outcome) -> str:
    text = repr([link.paths for link in outcome.solutions])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# (s0 placement, k, order, pair_order, require_spanning, mode,
#  nodes_explored, solutions, digest)
PINNED = [
    ("top-right", 1, "ascending", "input", False, "decide", 11, 1, "cf8bf5051e2e4f85"),
    ("top-right", 1, "ascending", "input", False, "enumerate_all", 16, 4, "7e2fb66e33969f96"),
    ("top-right", 1, "ascending", "input", True, "decide", 13, 0, "4f53cda18c2baa0c"),
    ("top-right", 1, "ascending", "input", True, "enumerate_all", 13, 0, "4f53cda18c2baa0c"),
    ("top-right", 1, "ascending", "auto", False, "decide", 11, 1, "cf8bf5051e2e4f85"),
    ("top-right", 1, "ascending", "auto", False, "enumerate_all", 16, 4, "7e2fb66e33969f96"),
    ("top-right", 1, "ascending", "auto", True, "decide", 13, 0, "4f53cda18c2baa0c"),
    ("top-right", 1, "ascending", "auto", True, "enumerate_all", 13, 0, "4f53cda18c2baa0c"),
    ("top-right", 1, "min-degree", "input", False, "decide", 10, 1, "cf8bf5051e2e4f85"),
    ("top-right", 1, "min-degree", "input", False, "enumerate_all", 16, 4, "7e2fb66e33969f96"),
    ("top-right", 1, "min-degree", "input", True, "decide", 13, 0, "4f53cda18c2baa0c"),
    ("top-right", 1, "min-degree", "input", True, "enumerate_all", 13, 0, "4f53cda18c2baa0c"),
    ("top-right", 1, "min-degree", "auto", False, "decide", 10, 1, "cf8bf5051e2e4f85"),
    ("top-right", 1, "min-degree", "auto", False, "enumerate_all", 16, 4, "7e2fb66e33969f96"),
    ("top-right", 1, "min-degree", "auto", True, "decide", 13, 0, "4f53cda18c2baa0c"),
    ("top-right", 1, "min-degree", "auto", True, "enumerate_all", 13, 0, "4f53cda18c2baa0c"),
    ("top-right", 2, "ascending", "input", False, "decide", 557, 1, "4f8d37990eec55aa"),
    ("top-right", 2, "ascending", "input", False, "enumerate_all", 765, 21, "56d0a50f88f6f994"),
    ("top-right", 2, "ascending", "input", True, "decide", 379, 0, "4f53cda18c2baa0c"),
    ("top-right", 2, "ascending", "input", True, "enumerate_all", 379, 0, "4f53cda18c2baa0c"),
    ("top-right", 2, "ascending", "auto", False, "decide", 557, 1, "4f8d37990eec55aa"),
    ("top-right", 2, "ascending", "auto", False, "enumerate_all", 765, 21, "56d0a50f88f6f994"),
    ("top-right", 2, "ascending", "auto", True, "decide", 379, 0, "4f53cda18c2baa0c"),
    ("top-right", 2, "ascending", "auto", True, "enumerate_all", 379, 0, "4f53cda18c2baa0c"),
    ("top-right", 2, "min-degree", "input", False, "decide", 377, 1, "a0539ad537b5d30f"),
    ("top-right", 2, "min-degree", "input", False, "enumerate_all", 765, 21, "56d0a50f88f6f994"),
    ("top-right", 2, "min-degree", "input", True, "decide", 379, 0, "4f53cda18c2baa0c"),
    ("top-right", 2, "min-degree", "input", True, "enumerate_all", 379, 0, "4f53cda18c2baa0c"),
    ("top-right", 2, "min-degree", "auto", False, "decide", 377, 1, "a0539ad537b5d30f"),
    ("top-right", 2, "min-degree", "auto", False, "enumerate_all", 765, 21, "56d0a50f88f6f994"),
    ("top-right", 2, "min-degree", "auto", True, "decide", 379, 0, "4f53cda18c2baa0c"),
    ("top-right", 2, "min-degree", "auto", True, "enumerate_all", 379, 0, "4f53cda18c2baa0c"),
    ("bottom-left", 1, "ascending", "input", False, "decide", 8, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "ascending", "input", False, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "ascending", "input", True, "decide", 8, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "ascending", "input", True, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "ascending", "auto", False, "decide", 8, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "ascending", "auto", False, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "ascending", "auto", True, "decide", 8, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "ascending", "auto", True, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "min-degree", "input", False, "decide", 8, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "min-degree", "input", False, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "min-degree", "input", True, "decide", 8, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "min-degree", "input", True, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "min-degree", "auto", False, "decide", 8, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "min-degree", "auto", False, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "min-degree", "auto", True, "decide", 8, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "min-degree", "auto", True, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 2, "ascending", "input", False, "decide", 243, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "ascending", "input", False, "enumerate_all", 671, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "ascending", "input", True, "decide", 175, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "ascending", "input", True, "enumerate_all", 361, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "ascending", "auto", False, "decide", 243, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "ascending", "auto", False, "enumerate_all", 671, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "ascending", "auto", True, "decide", 175, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "ascending", "auto", True, "enumerate_all", 361, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "min-degree", "input", False, "decide", 188, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "min-degree", "input", False, "enumerate_all", 671, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "min-degree", "input", True, "decide", 124, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "min-degree", "input", True, "enumerate_all", 361, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "min-degree", "auto", False, "decide", 188, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "min-degree", "auto", False, "enumerate_all", 671, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "min-degree", "auto", True, "decide", 124, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "min-degree", "auto", True, "enumerate_all", 361, 1, "6e105fb5e878d798"),
]


@pytest.mark.parametrize(
    "placement,k,order,pair_order,spanning,mode,nodes,count,digest", PINNED
)
def test_search_pinned(placement, k, order, pair_order, spanning, mode, nodes, count, digest):
    out = solve(
        build_instance(k, s0_placement=placement),
        mode=mode,
        require_spanning=spanning,
        order=order,
        pair_order=pair_order,
    )
    assert (out.nodes_explored, len(out.solutions), _digest(out)) == (nodes, count, digest)


def test_unique_solutions_pinned():
    assert solve(build_instance(1, s0_placement="bottom-left")).solutions[0].paths == (
        (0, 1, 2, 8, 7, 6), (3, 4, 5),
    )
    assert solve(build_instance(2, s0_placement="bottom-left")).solutions[0].paths == (
        (0, 1, 2, 3, 4, 24, 23, 22, 21, 20),
        (10, 11, 12, 13, 14),
        (5, 6, 7, 8, 9, 19, 18, 17, 16, 15),
    )


# The k = 3 instance's one solution, which is spanning.
K3_SOLUTION = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 80, 79, 78, 77, 76, 75, 74, 73, 72),
    (36, 37, 38, 39, 40, 41, 42, 43, 44),
    (18, 19, 20, 21, 22, 23, 24, 25, 26, 62, 61, 60, 59, 58, 57, 56, 55, 54),
    (9, 10, 11, 12, 13, 14, 15, 16, 17, 71, 70, 69, 68, 67, 66, 65, 64, 63,
     45, 46, 47, 48, 49, 50, 51, 52, 53, 35, 34, 33, 32, 31, 30, 29, 28, 27),
)


def test_k3_spanning_search_pinned():
    out = solve(
        build_instance(3, s0_placement="bottom-left"),
        require_spanning=True,
        order="min-degree",
        pair_order="auto",
    )
    assert out.nodes_explored == 70685
    assert tuple(link.paths for link in out.solutions) == (K3_SOLUTION,)


def test_k3_decide_search_pinned():
    out = solve(
        build_instance(3, s0_placement="bottom-left"),
        order="min-degree",
        pair_order="auto",
    )
    assert out.nodes_explored == 376823
    assert tuple(link.paths for link in out.solutions) == (K3_SOLUTION,)


# Sparse graphs with cut vertices, where removing the vertex a path
# moves to often splits a free component: this is what drives the
# split branch of the labels a search node inherits, which the grid
# instances above rarely reach.


def _tree_with_chords(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    n = rng.randint(14, 26)
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    for _ in range(rng.randint(n // 4, n // 3)):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return n, sorted(edges)


def _grid_with_holes(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    rows, cols = rng.randint(4, 5), rng.randint(4, 6)
    holes = set(rng.sample(range(rows * cols), rng.randint(1, 4)))
    ids: dict[int, int] = {}
    for v in range(rows * cols):
        if v not in holes:
            ids[v] = len(ids)
    edges = []
    for v in ids:
        r, c = divmod(v, cols)
        if c + 1 < cols and v + 1 in ids:
            edges.append((ids[v], ids[v + 1]))
        if r + 1 < rows and v + cols in ids:
            edges.append((ids[v], ids[v + cols]))
    return len(ids), edges


def _split_batch(family: str) -> list[tuple[Instance, str, str]]:
    """100 seeded instances of one family, each with an order setting.

    Terminals go to vertices of degree at most one first, so that more
    instances are solvable.
    """
    make = _tree_with_chords if family == "tree" else _grid_with_holes
    rng = random.Random(f"split/{family}")
    batch = []
    for i in range(100):
        n, edges = make(rng)
        k = rng.randint(2, 3)
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        leaves = [v for v in range(n) if degree[v] <= 1]
        inner = [v for v in range(n) if degree[v] > 1]
        rng.shuffle(leaves)
        rng.shuffle(inner)
        terminals = (leaves + inner)[:2 * k]
        rng.shuffle(terminals)
        pairs = [(terminals[2 * j], terminals[2 * j + 1]) for j in range(k)]
        order = ("ascending", "min-degree")[i % 2]
        pair_order = ("input", "auto")[i // 2 % 2]
        batch.append((Instance.make(Graph.from_edges(n, edges), pairs), order, pair_order))
    return batch


# (family, require_spanning, mode, total nodes_explored, digest of the
#  per-instance (nodes_explored, solution digest) list)
SPLIT_PINNED = [
    ("tree", False, "decide", 1725, "56be01dd0c16ecda"),
    ("tree", False, "enumerate_all", 3349, "41fec1d71e13e826"),
    ("tree", True, "decide", 330, "2822a4c43dcc2066"),
    ("tree", True, "enumerate_all", 330, "2822a4c43dcc2066"),
    ("grid", False, "decide", 1402, "ec245fcf94420ca7"),
    ("grid", False, "enumerate_all", 105532, "e2386517d57b70c9"),
    ("grid", True, "decide", 2885, "51eded59daf875cd"),
    ("grid", True, "enumerate_all", 3605, "dbcaede5d40aa0ac"),
]


@pytest.mark.parametrize("family,spanning,mode,nodes,digest", SPLIT_PINNED)
def test_split_batch_pinned(family, spanning, mode, nodes, digest):
    rows = []
    for instance, order, pair_order in _split_batch(family):
        out = solve(instance, mode=mode, require_spanning=spanning,
                    order=order, pair_order=pair_order)
        rows.append((out.nodes_explored, _digest(out)))
    got = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    assert (sum(nodes for nodes, _ in rows), got) == (nodes, digest)


@pytest.mark.parametrize("family", ["tree", "grid"])
def test_split_batch_matches_oracle(family):
    for instance, order, pair_order in _split_batch(family):
        for spanning in (False, True):
            want = [link.paths for link in brute_force_oracle(instance, spanning).solutions]
            every = solve(instance, mode="enumerate_all", require_spanning=spanning,
                          order=order, pair_order=pair_order)
            assert [link.paths for link in every.solutions] == want
            first = solve(instance, require_spanning=spanning,
                          order=order, pair_order=pair_order)
            assert len(first.solutions) == min(1, len(want))
            assert all(link.paths in want for link in first.solutions)
