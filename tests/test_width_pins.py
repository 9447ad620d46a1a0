"""Pinned search trajectories of the exact width searches.

Node counts are deterministic, so they fix exactly which states the
searches visit: move order, absorption, splitting, the order of the
widths tried and the failed-set memo they share.  Each row records the
width, nodes_explored and the certificate for one graph; any change to
a search decision shows up here as a count or certificate change, not
only as a timing change.

The descent stops at the contraction degeneracy lower bound, which
meets the answer on most of these graphs, so no refuting search runs
there.  PINNED therefore sets that bound to 0, which keeps the descent
running down to its failing search, and SHIPPED_NODES pins what the
shipped bound leaves of each count.
"""

import pytest

from gridlinkage import width as width_module
from gridlinkage import (
    Graph,
    build_instance,
    make_grid,
    pathwidth_exact,
    treewidth_exact,
)

GRAPHS = {
    "k1": lambda: build_instance(1).graph,
    "k2": lambda: build_instance(2).graph,
    "grid3": lambda: make_grid(3, 3)[0],
    "grid4": lambda: make_grid(4, 4)[0],
    "tree31": lambda: Graph.from_edges(31, [((i - 1) // 2, i) for i in range(1, 31)]),
    "sparse16": lambda: Graph.from_edges(16, [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 10), (1, 9), (1, 14), (2, 5),
        (2, 12), (3, 4), (3, 12), (4, 7), (4, 15), (5, 6), (6, 8), (6, 9),
        (6, 11), (7, 10), (7, 11), (9, 10), (9, 15), (10, 15), (11, 13),
        (12, 14), (12, 15)]),
}

# (search, graph, value, nodes_explored, certificate), lower bound 0
PINNED = [
    (pathwidth_exact, "k1", 3, 48, (0, 1, 3, 2, 4, 6, 7, 5, 8)),
    (pathwidth_exact, "k2", 5, 15872,
     (15, 0, 1, 5, 2, 6, 10, 3, 7, 11, 20, 16, 12, 8, 4, 21, 17, 13, 9, 22,
      18, 14, 19, 23, 24)),
    (pathwidth_exact, "grid3", 3, 49, tuple(range(9))),
    (pathwidth_exact, "grid4", 4, 755, tuple(range(16))),
    # On the graphs above the greedy layout is optimal: the one search,
    # one below its width, fails.  Here the greedy layout has width 4 and
    # the search finds width 2, so the count and the layout also fix the
    # move order and the absorptions.  Widths 3 and 2 succeed and 1 fails,
    # all on one memo; the search at 3 finds a layout that a climb from
    # the lower bound would never have looked for.
    (pathwidth_exact, "tree31", 2, 168,
     (1, 7, 15, 16, 3, 8, 17, 18, 9, 19, 20, 4, 0, 2, 10, 21, 22, 11, 23, 24,
      5, 6, 12, 25, 26, 13, 27, 28, 14, 29, 30)),
    (treewidth_exact, "k1", 3, 4, (0, 6, 3, 1, 4, 2, 5, 7, 8)),
    (treewidth_exact, "grid4", 4, 1296,
     (0, 3, 12, 15, 1, 4, 7, 13, 2, 5, 6, 8, 9, 10, 11, 14)),
    # Treewidth 4 under a min-fill bound of 5: the search succeeds, so
    # the count and the order also fix the (degree, vertex) candidate
    # order, which the two rows above do not.
    (treewidth_exact, "sparse16", 4, 215,
     (8, 13, 5, 11, 14, 1, 2, 3, 4, 6, 10, 0, 7, 9, 12, 15)),
]


# nodes_explored with the shipped lower bound.  Where the bound meets
# the value and the greedy bound is optimal, no search runs at all.  On
# k2 the bound (4) sits one below the value and the refuting search
# runs as before; on tree31 the greedy bound is 4 and the value 2, with
# bound 1.  On sparse16 the search at width 4 still runs, and the one
# at 3 goes.  Value and certificate are as in PINNED.
SHIPPED_NODES = {
    (pathwidth_exact, "k1"): 0,
    (pathwidth_exact, "k2"): 15872,
    (pathwidth_exact, "grid3"): 0,
    (pathwidth_exact, "grid4"): 0,
    (pathwidth_exact, "tree31"): 168,
    (treewidth_exact, "k1"): 0,
    (treewidth_exact, "grid4"): 0,
    (treewidth_exact, "sparse16"): 14,
}

IDS = [f"{row[0].__name__}-{row[1]}" for row in PINNED]


def check_row(search, name, value, nodes, certificate):
    result = search(GRAPHS[name]())
    assert result.exact
    assert result.value == result.lower_bound == value
    assert result.nodes_explored == nodes
    assert result.certificate == certificate


@pytest.mark.parametrize("search, name, value, nodes, certificate", PINNED, ids=IDS)
def test_pinned_search(monkeypatch, search, name, value, nodes, certificate):
    monkeypatch.setattr(width_module, "_contraction_degeneracy", lambda *args: 0)
    check_row(search, name, value, nodes, certificate)


@pytest.mark.parametrize("search, name, value, nodes, certificate", PINNED, ids=IDS)
def test_shipped_bound(search, name, value, nodes, certificate):
    check_row(search, name, value, SHIPPED_NODES[search, name], certificate)
