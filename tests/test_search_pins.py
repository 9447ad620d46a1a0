"""Pinned search trajectories of solve().

Node counts are deterministic, so they fix exactly which search nodes
the pruning keeps.  Each row records nodes_explored, the number of
solutions and a digest of the solution list for one instance and knob
setting; any change to a prune (or to the neighbor or pair order) shows
up here as a count change, not only as a timing change.  The paper's
instances are pinned twice: on every edge (without their grid layout)
and on the edges the frontier DP leaves (with it).  A batch row pins
the batch's node total and a digest of its solutions apart, so a drop
in nodes cannot hide a change of solutions behind a new digest.
"""

import dataclasses
import hashlib
import random

import pytest

from gridlinkage import Graph, Instance, brute_force_oracle, build_instance, solve


def _digest(outcome) -> str:
    text = repr([link.paths for link in outcome.solutions])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _batch_digest(digests: list[str]) -> str:
    return hashlib.sha256(repr(digests).encode()).hexdigest()[:16]


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
    ("bottom-left", 2, "ascending", "input", False, "decide", 241, 1, "6e105fb5e878d798", 65),
    ("bottom-left", 2, "ascending", "input", False, "enumerate_all", 636, 1, "6e105fb5e878d798",
     65),
    ("bottom-left", 2, "ascending", "input", True, "decide", 175, 1, "6e105fb5e878d798", 65),
    ("bottom-left", 2, "ascending", "input", True, "enumerate_all", 361, 1, "6e105fb5e878d798",
     65),
    ("bottom-left", 2, "ascending", "auto", False, "decide", 241, 1, "6e105fb5e878d798", 65),
    ("bottom-left", 2, "ascending", "auto", False, "enumerate_all", 636, 1, "6e105fb5e878d798",
     65),
    ("bottom-left", 2, "ascending", "auto", True, "decide", 175, 1, "6e105fb5e878d798", 65),
    ("bottom-left", 2, "ascending", "auto", True, "enumerate_all", 361, 1, "6e105fb5e878d798", 65),
    ("bottom-left", 2, "min-degree", "input", False, "decide", 188, 1, "6e105fb5e878d798", 65),
    ("bottom-left", 2, "min-degree", "input", False, "enumerate_all", 636, 1, "6e105fb5e878d798",
     65),
    ("bottom-left", 2, "min-degree", "input", True, "decide", 124, 1, "6e105fb5e878d798", 65),
    ("bottom-left", 2, "min-degree", "input", True, "enumerate_all", 361, 1, "6e105fb5e878d798",
     65),
    ("bottom-left", 2, "min-degree", "auto", False, "decide", 188, 1, "6e105fb5e878d798", 65),
    ("bottom-left", 2, "min-degree", "auto", False, "enumerate_all", 636, 1, "6e105fb5e878d798",
     65),
    ("bottom-left", 2, "min-degree", "auto", True, "decide", 124, 1, "6e105fb5e878d798", 65),
    ("bottom-left", 2, "min-degree", "auto", True, "enumerate_all", 361, 1, "6e105fb5e878d798",
     65),
]


def _pin_name(row: tuple) -> str:
    # Names leave out filtered_nodes.
    return "-".join(map(str, row[:9]))


@pytest.mark.parametrize(
    "placement,k,order,pair_order,spanning,mode,nodes,count,digest,filtered_nodes", PINNED,
    ids=[_pin_name(row) for row in PINNED],
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
    assert out.nodes_explored == 241
    assert tuple(link.paths for link in out.solutions) == (K3_SOLUTION,)


def test_k3_decide_search_pinned():
    out = solve(
        build_instance(3, s0_placement="bottom-left"),
        order="min-degree",
        pair_order="auto",
    )
    assert out.nodes_explored == 244
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


# name: (family, require_spanning, mode, total nodes_explored, digest
#  of the per-instance solution digests).  The node total and the
#  solutions are pinned apart, so that a drop in nodes leaves the
#  solution digest as it was.
SPLIT_PINNED = {
    "tree-nospan-decide":
        ("tree", False, "decide", 1713, "7658865df3d1e00b"),
    "tree-nospan-enumerate":
        ("tree", False, "enumerate_all", 3223, "67e141ff46c82423"),
    "tree-span-decide":
        ("tree", True, "decide", 330, "92894dc3f181e67d"),
    "tree-span-enumerate":
        ("tree", True, "enumerate_all", 330, "92894dc3f181e67d"),
    "grid-nospan-decide":
        ("grid", False, "decide", 1402, "659c196faf04c372"),
    "grid-nospan-enumerate":
        ("grid", False, "enumerate_all", 25530, "c997584519b747d8"),
    "grid-span-decide":
        ("grid", True, "decide", 2885, "a9510df6f2314697"),
    "grid-span-enumerate":
        ("grid", True, "enumerate_all", 3605, "e84a346c257d7090"),
}


@pytest.mark.parametrize("family,spanning,mode,nodes,digest", list(SPLIT_PINNED.values()),
                         ids=list(SPLIT_PINNED))
def test_split_batch_pinned(family, spanning, mode, nodes, digest):
    total, digests = 0, []
    for instance, order, pair_order in _split_batch(family):
        out = solve(instance, mode=mode, require_spanning=spanning,
                    order=order, pair_order=pair_order)
        total += out.nodes_explored
        digests.append(_digest(out))
    assert (total, _batch_digest(digests)) == (nodes, digest)


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
# its component or enters a component not labelled yet.  A cut run
# deletes the edges of one to three random non-terminals.


def _sparse_graph(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    n = rng.randint(12, 18)
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    for _ in range(rng.randint(n // 2, n)):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return n, sorted(edges)


def _pending_batch(family: str) -> list[tuple[Instance, tuple[int, ...], str, str]]:
    """60 seeded instances of one family, each with a set of vertices to
    cut and an order setting.  Grid terminals sit on the border."""
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
        cut = tuple(sorted(rng.sample(others, rng.randint(1, 3))))
        order = ("ascending", "min-degree")[i % 2]
        pair_order = ("input", "auto")[i // 2 % 2]
        batch.append(
            (Instance.make(Graph.from_edges(n, edges), pairs), cut, order, pair_order)
        )
    return batch


def _cut(instance: Instance, vertices: tuple[int, ...]) -> Instance:
    """instance with the edges of vertices deleted."""
    graph = instance.graph
    edges = frozenset(e for e in graph.edges if set(vertices).isdisjoint(e))
    return dataclasses.replace(instance, graph=dataclasses.replace(graph, edges=edges))


# name: (family, require_spanning, cut, mode, total nodes_explored,
#  digest of the per-instance solution digests).  A spanning run cuts
#  nothing: a vertex without edges leaves no spanning solution.
PENDING_PINNED = {
    "grid-nospan-decide": ("grid", False, False, "decide", 5996, "fc8ff442f141c323"),
    "grid-nospan-enumerate": ("grid", False, False, "enumerate_all", 12257, "4c41aac8b0e2da23"),
    "grid-nospan-cut-decide": ("grid", False, True, "decide", 924, "8211c407b3cf1c21"),
    "grid-nospan-cut-enumerate": ("grid", False, True, "enumerate_all", 2056, "728b315e032ccf0a"),
    "grid-span-decide": ("grid", True, False, "decide", 2540, "8e11ce1360b587ef"),
    "grid-span-enumerate": ("grid", True, False, "enumerate_all", 3227, "7e894fcb37f773e2"),
    "sparse-nospan-decide": ("sparse", False, False, "decide", 288, "db81b8598b6234da"),
    "sparse-nospan-enumerate": ("sparse", False, False, "enumerate_all", 698, "ebe7be66c8340570"),
    "sparse-nospan-cut-decide": ("sparse", False, True, "decide", 135, "0555c5cfc2fdd50d"),
    "sparse-nospan-cut-enumerate":
        ("sparse", False, True, "enumerate_all", 216, "718251baeaf290d7"),
    "sparse-span-decide": ("sparse", True, False, "decide", 151, "46c247916e72fe48"),
    "sparse-span-enumerate": ("sparse", True, False, "enumerate_all", 159, "46c247916e72fe48"),
}


@pytest.mark.parametrize("family,spanning,cut,mode,nodes,digest",
                         list(PENDING_PINNED.values()), ids=list(PENDING_PINNED))
def test_pending_batch_pinned(family, spanning, cut, mode, nodes, digest):
    total, digests = 0, []
    for instance, vertices, order, pair_order in _pending_batch(family):
        out = solve(_cut(instance, vertices) if cut else instance, mode=mode,
                    require_spanning=spanning, order=order, pair_order=pair_order)
        total += out.nodes_explored
        digests.append(_digest(out))
    assert (total, _batch_digest(digests)) == (nodes, digest)
