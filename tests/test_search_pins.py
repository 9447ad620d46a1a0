"""Pinned search trajectories of solve().

Node counts are deterministic, so they fix exactly which search nodes
the pruning keeps.  Each row records nodes_explored, the number of
solutions and a digest of the solution list for one instance and knob
setting; any change to a prune (or to the neighbor or pair order) shows
up here as a count change, not only as a timing change.  The paper's
instances are pinned twice: on every edge (without their grid layout)
and on the edges the frontier DP leaves (with it).
"""

import hashlib
import random

import pytest

from gridlinkage import Graph, Instance, brute_force_oracle, build_instance, solve


def _digest(outcome) -> str:
    text = repr([link.paths for link in outcome.solutions])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# (s0 placement, k, order, pair_order, require_spanning, mode,
#  nodes_explored without the layout, solutions, digest,
#  nodes_explored with the layout).  With the layout solve() first
# counts the linkages by the frontier DP and then searches only the
# edges some linkage uses: its nodes are the DP's expansions plus the
# search nodes, and its solutions must be the same.
PINNED = [
    ("top-right", 1, "ascending", "input", False, "decide", 11, 1, "cf8bf5051e2e4f85", 41),
    ("top-right", 1, "ascending", "input", False, "enumerate_all", 16, 4, "7e2fb66e33969f96", 46),
    ("top-right", 1, "ascending", "input", True, "decide", 13, 0, "4f53cda18c2baa0c", 21),
    ("top-right", 1, "ascending", "input", True, "enumerate_all", 13, 0, "4f53cda18c2baa0c", 21),
    ("top-right", 1, "ascending", "auto", False, "decide", 11, 1, "cf8bf5051e2e4f85", 41),
    ("top-right", 1, "ascending", "auto", False, "enumerate_all", 16, 4, "7e2fb66e33969f96", 46),
    ("top-right", 1, "ascending", "auto", True, "decide", 13, 0, "4f53cda18c2baa0c", 21),
    ("top-right", 1, "ascending", "auto", True, "enumerate_all", 13, 0, "4f53cda18c2baa0c", 21),
    ("top-right", 1, "min-degree", "input", False, "decide", 10, 1, "cf8bf5051e2e4f85", 41),
    ("top-right", 1, "min-degree", "input", False, "enumerate_all", 16, 4, "7e2fb66e33969f96", 46),
    ("top-right", 1, "min-degree", "input", True, "decide", 13, 0, "4f53cda18c2baa0c", 21),
    ("top-right", 1, "min-degree", "input", True, "enumerate_all", 13, 0, "4f53cda18c2baa0c", 21),
    ("top-right", 1, "min-degree", "auto", False, "decide", 10, 1, "cf8bf5051e2e4f85", 41),
    ("top-right", 1, "min-degree", "auto", False, "enumerate_all", 16, 4, "7e2fb66e33969f96", 46),
    ("top-right", 1, "min-degree", "auto", True, "decide", 13, 0, "4f53cda18c2baa0c", 21),
    ("top-right", 1, "min-degree", "auto", True, "enumerate_all", 13, 0, "4f53cda18c2baa0c", 21),
    ("top-right", 2, "ascending", "input", False, "decide", 557, 1, "4f8d37990eec55aa", 236),
    ("top-right", 2, "ascending", "input", False, "enumerate_all", 765, 21, "56d0a50f88f6f994",
     429),
    ("top-right", 2, "ascending", "input", True, "decide", 379, 0, "4f53cda18c2baa0c", 125),
    ("top-right", 2, "ascending", "input", True, "enumerate_all", 379, 0, "4f53cda18c2baa0c", 125),
    ("top-right", 2, "ascending", "auto", False, "decide", 557, 1, "4f8d37990eec55aa", 236),
    ("top-right", 2, "ascending", "auto", False, "enumerate_all", 765, 21, "56d0a50f88f6f994",
     429),
    ("top-right", 2, "ascending", "auto", True, "decide", 379, 0, "4f53cda18c2baa0c", 125),
    ("top-right", 2, "ascending", "auto", True, "enumerate_all", 379, 0, "4f53cda18c2baa0c", 125),
    ("top-right", 2, "min-degree", "input", False, "decide", 377, 1, "a0539ad537b5d30f", 235),
    ("top-right", 2, "min-degree", "input", False, "enumerate_all", 765, 21, "56d0a50f88f6f994",
     429),
    ("top-right", 2, "min-degree", "input", True, "decide", 379, 0, "4f53cda18c2baa0c", 125),
    ("top-right", 2, "min-degree", "input", True, "enumerate_all", 379, 0, "4f53cda18c2baa0c",
     125),
    ("top-right", 2, "min-degree", "auto", False, "decide", 377, 1, "a0539ad537b5d30f", 235),
    ("top-right", 2, "min-degree", "auto", False, "enumerate_all", 765, 21, "56d0a50f88f6f994",
     429),
    ("top-right", 2, "min-degree", "auto", True, "decide", 379, 0, "4f53cda18c2baa0c", 125),
    ("top-right", 2, "min-degree", "auto", True, "enumerate_all", 379, 0, "4f53cda18c2baa0c", 125),
    ("bottom-left", 1, "ascending", "input", False, "decide", 8, 1, "6c6d3ee8eafd8e1c", 20),
    ("bottom-left", 1, "ascending", "input", False, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c", 20),
    ("bottom-left", 1, "ascending", "input", True, "decide", 8, 1, "6c6d3ee8eafd8e1c", 20),
    ("bottom-left", 1, "ascending", "input", True, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c", 20),
    ("bottom-left", 1, "ascending", "auto", False, "decide", 8, 1, "6c6d3ee8eafd8e1c", 20),
    ("bottom-left", 1, "ascending", "auto", False, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c", 20),
    ("bottom-left", 1, "ascending", "auto", True, "decide", 8, 1, "6c6d3ee8eafd8e1c", 20),
    ("bottom-left", 1, "ascending", "auto", True, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c", 20),
    ("bottom-left", 1, "min-degree", "input", False, "decide", 8, 1, "6c6d3ee8eafd8e1c", 20),
    ("bottom-left", 1, "min-degree", "input", False, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c",
     20),
    ("bottom-left", 1, "min-degree", "input", True, "decide", 8, 1, "6c6d3ee8eafd8e1c", 20),
    ("bottom-left", 1, "min-degree", "input", True, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c", 20),
    ("bottom-left", 1, "min-degree", "auto", False, "decide", 8, 1, "6c6d3ee8eafd8e1c", 20),
    ("bottom-left", 1, "min-degree", "auto", False, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c", 20),
    ("bottom-left", 1, "min-degree", "auto", True, "decide", 8, 1, "6c6d3ee8eafd8e1c", 20),
    ("bottom-left", 1, "min-degree", "auto", True, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c", 20),
    ("bottom-left", 2, "ascending", "input", False, "decide", 243, 1, "6e105fb5e878d798", 65),
    ("bottom-left", 2, "ascending", "input", False, "enumerate_all", 671, 1, "6e105fb5e878d798",
     65),
    ("bottom-left", 2, "ascending", "input", True, "decide", 175, 1, "6e105fb5e878d798", 65),
    ("bottom-left", 2, "ascending", "input", True, "enumerate_all", 361, 1, "6e105fb5e878d798",
     65),
    ("bottom-left", 2, "ascending", "auto", False, "decide", 243, 1, "6e105fb5e878d798", 65),
    ("bottom-left", 2, "ascending", "auto", False, "enumerate_all", 671, 1, "6e105fb5e878d798",
     65),
    ("bottom-left", 2, "ascending", "auto", True, "decide", 175, 1, "6e105fb5e878d798", 65),
    ("bottom-left", 2, "ascending", "auto", True, "enumerate_all", 361, 1, "6e105fb5e878d798", 65),
    ("bottom-left", 2, "min-degree", "input", False, "decide", 188, 1, "6e105fb5e878d798", 65),
    ("bottom-left", 2, "min-degree", "input", False, "enumerate_all", 671, 1, "6e105fb5e878d798",
     65),
    ("bottom-left", 2, "min-degree", "input", True, "decide", 124, 1, "6e105fb5e878d798", 65),
    ("bottom-left", 2, "min-degree", "input", True, "enumerate_all", 361, 1, "6e105fb5e878d798",
     65),
    ("bottom-left", 2, "min-degree", "auto", False, "decide", 188, 1, "6e105fb5e878d798", 65),
    ("bottom-left", 2, "min-degree", "auto", False, "enumerate_all", 671, 1, "6e105fb5e878d798",
     65),
    ("bottom-left", 2, "min-degree", "auto", True, "decide", 124, 1, "6e105fb5e878d798", 65),
    ("bottom-left", 2, "min-degree", "auto", True, "enumerate_all", 361, 1, "6e105fb5e878d798",
     65),
]


@pytest.mark.parametrize(
    "placement,k,order,pair_order,spanning,mode,nodes,count,digest,filtered_nodes", PINNED,
    # Ids leave out filtered_nodes, so that re-pinning it keeps the row's name.
    ids=["-".join(map(str, row[:-1])) for row in PINNED],
)
def test_search_pinned(placement, k, order, pair_order, spanning, mode, nodes, count, digest,
                       filtered_nodes):
    instance = build_instance(k, s0_placement=placement)
    for searched, want in ((Instance.make(instance.graph, instance.pairs), nodes),
                           (instance, filtered_nodes)):
        out = solve(
            searched,
            mode=mode,
            require_spanning=spanning,
            order=order,
            pair_order=pair_order,
        )
        assert (out.nodes_explored, len(out.solutions), _digest(out)) == (want, count, digest)


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
    assert out.nodes_explored == 19680
    assert tuple(link.paths for link in out.solutions) == (K3_SOLUTION,)


def test_k3_decide_search_pinned():
    out = solve(
        build_instance(3, s0_placement="bottom-left"),
        order="min-degree",
        pair_order="auto",
    )
    assert out.nodes_explored == 31125
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


# Three and four pairs, so that most nodes have pending pairs whose
# joinability a move may or may not change: a move re-tests a pending
# pair only when it enters a neighbor of that pair's terminals, splits
# its component or enters a component not labelled yet.  With blocked,
# one to three random non-terminals are blocked.


def _sparse_graph(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    n = rng.randint(12, 18)
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    for _ in range(rng.randint(n // 2, n)):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return n, sorted(edges)


def _pending_batch(family: str) -> list[tuple[Instance, tuple[int, ...], str, str]]:
    """60 seeded instances of one family, each with a blocked set and an
    order setting.  Grid terminals sit on the border."""
    rng = random.Random(f"pending/{family}")
    batch = []
    for i in range(60):
        if family == "grid":
            rows, cols = rng.randint(4, 5), rng.randint(4, 6)
            n, edges = rows * cols, []
            for v in range(n):
                r, c = divmod(v, cols)
                if c + 1 < cols:
                    edges.append((v, v + 1))
                if r + 1 < rows:
                    edges.append((v, v + cols))
            ends = [v for v in range(n)
                    if v // cols in (0, rows - 1) or v % cols in (0, cols - 1)]
        else:
            n, edges = _sparse_graph(rng)
            ends = list(range(n))
        k = rng.randint(3, 4)
        terminals = rng.sample(ends, 2 * k)
        pairs = [(terminals[2 * j], terminals[2 * j + 1]) for j in range(k)]
        others = sorted(set(range(n)) - set(terminals))
        blocked = tuple(sorted(rng.sample(others, rng.randint(1, 3))))
        order = ("ascending", "min-degree")[i % 2]
        pair_order = ("input", "auto")[i // 2 % 2]
        batch.append(
            (Instance.make(Graph.from_edges(n, edges), pairs), blocked, order, pair_order)
        )
    return batch


# (family, require_spanning, with blocked, mode, total nodes_explored,
#  digest of the per-instance (nodes_explored, solution digest) list)
PENDING_PINNED = [
    ("grid", False, False, "decide", 6012, "21fd8ef5efa13c6f"),
    ("grid", False, False, "enumerate_all", 23804, "abd2c34f037a3c08"),
    ("grid", False, True, "decide", 924, "f611e4c669f345a7"),
    ("grid", False, True, "enumerate_all", 2871, "9621a82f779e851c"),
    ("grid", True, False, "decide", 2540, "3f6725bb19962f29"),
    ("grid", True, False, "enumerate_all", 3227, "e10cd0ac198ca7c3"),
    ("grid", True, True, "decide", 414, "8d62ee5a43e1193c"),
    ("grid", True, True, "enumerate_all", 414, "8d62ee5a43e1193c"),
    ("sparse", False, False, "decide", 288, "b0ed5723ddc3059f"),
    ("sparse", False, False, "enumerate_all", 876, "c1f1176e83813862"),
    ("sparse", False, True, "decide", 135, "8241fd10ca94721e"),
    ("sparse", False, True, "enumerate_all", 271, "7c589943bc140a97"),
    ("sparse", True, False, "decide", 151, "f9feaffc5950d86c"),
    ("sparse", True, False, "enumerate_all", 159, "2bc26e1749fbfd1e"),
    ("sparse", True, True, "decide", 110, "b037610b21144565"),
    ("sparse", True, True, "enumerate_all", 110, "b037610b21144565"),
]


@pytest.mark.parametrize("family,spanning,with_blocked,mode,nodes,digest", PENDING_PINNED)
def test_pending_batch_pinned(family, spanning, with_blocked, mode, nodes, digest):
    rows = []
    for instance, blocked, order, pair_order in _pending_batch(family):
        out = solve(instance, mode=mode, require_spanning=spanning,
                    blocked=blocked if with_blocked else (),
                    order=order, pair_order=pair_order)
        rows.append((out.nodes_explored, _digest(out)))
    got = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    assert (sum(nodes for nodes, _ in rows), got) == (nodes, digest)
