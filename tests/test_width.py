"""Exact treewidth and pathwidth with verifiable certificates."""

import random
import time

import pytest

from gridlinkage import (
    Graph,
    Instance,
    KIND_PATHWIDTH,
    KIND_TREEWIDTH,
    build_instance,
    make_grid,
    pathwidth_exact,
    treewidth_exact,
    verify_width_lower_bound,
    width_of_elimination_order,
    width_of_layout,
)
from gridlinkage.bitsets import adjacency_masks, components, iter_bits
from gridlinkage.construction import S0_BOTTOM_LEFT
from gridlinkage.width import _closure_neighbors, _eliminate, widths_within_budget
from oracles import brute_pathwidth, brute_treewidth, connected_graphs


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


KNOWN = [
    (path_graph(5), 1, 1),
    (cycle_graph(5), 2, 2),
    (complete_graph(4), 3, 3),
    (star_graph(4), 1, 1),
    (Graph(1, frozenset()), 0, 0),
    (Graph(3, frozenset()), 0, 0),
]


class TestKnownValues:
    @pytest.mark.parametrize("graph,tw,pw", KNOWN)
    def test_treewidth(self, graph, tw, pw):
        result = treewidth_exact(graph)
        assert result.exact and result.value == tw
        assert result.kind == KIND_TREEWIDTH

    @pytest.mark.parametrize("graph,tw,pw", KNOWN)
    def test_pathwidth(self, graph, tw, pw):
        result = pathwidth_exact(graph)
        assert result.exact and result.value == pw
        assert result.kind == KIND_PATHWIDTH

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_square_grids(self, n):
        graph, _ = make_grid(n, n)
        assert treewidth_exact(graph).value == n
        assert pathwidth_exact(graph).value == n

    def test_disconnected_takes_max(self):
        g = Graph.from_edges(
            7, [(0, 1), (1, 2)] + [(i, j) for i in range(3, 7) for j in range(i + 1, 7)]
        )
        assert treewidth_exact(g).value == 3
        assert pathwidth_exact(g).value == 3

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            treewidth_exact(Graph(0, frozenset()))
        with pytest.raises(ValueError):
            pathwidth_exact(Graph(0, frozenset()))


class TestCertificates:
    @pytest.mark.parametrize("graph,tw,pw", KNOWN)
    def test_elimination_order_reproduces_value(self, graph, tw, pw):
        result = treewidth_exact(graph)
        assert width_of_elimination_order(graph, result.certificate) == result.value

    @pytest.mark.parametrize("graph,tw,pw", KNOWN)
    def test_layout_reproduces_value(self, graph, tw, pw):
        result = pathwidth_exact(graph)
        assert width_of_layout(graph, result.certificate) == result.value

    def test_checker_rejects_non_permutation(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            width_of_elimination_order(g, (0, 1, 2))
        with pytest.raises(ValueError):
            width_of_elimination_order(g, (0, 1, 2, 2))
        with pytest.raises(ValueError):
            width_of_layout(g, (0, 1, 2, 4))

    def test_checker_scores_any_order(self):
        # a bad order is a valid certificate for a worse bound
        g = cycle_graph(6)
        assert width_of_elimination_order(g, (0, 3, 1, 4, 2, 5)) >= 2
        assert width_of_layout(g, (0, 3, 1, 4, 2, 5)) >= 2


class TestBruteAgreement:
    """Match a direct order-enumeration oracle on every small connected graph."""

    def test_all_connected_graphs_up_to_five(self):
        family = connected_graphs(5)
        assert len(family) == 1 + 1 + 2 + 6 + 21
        for g in family:
            assert treewidth_exact(g).value == brute_treewidth(g)
            assert pathwidth_exact(g).value == brute_pathwidth(g)

    def test_sample_of_six_vertex_graphs(self):
        family = [g for g in connected_graphs(6) if g.vertex_count == 6]
        assert len(family) == 112
        for g in family[::7]:
            assert treewidth_exact(g).value == brute_treewidth(g)
            assert pathwidth_exact(g).value == brute_pathwidth(g)


class TestOrderings:
    def test_treewidth_at_most_pathwidth(self):
        for g in connected_graphs(5):
            assert treewidth_exact(g).value <= pathwidth_exact(g).value

    def test_subgraph_monotone(self):
        # dropping an edge never raises either width
        g = complete_graph(5)
        for edge in sorted(g.edges):
            smaller = Graph.from_edges(5, g.edges - {edge})
            assert treewidth_exact(smaller).value <= treewidth_exact(g).value
            assert pathwidth_exact(smaller).value <= pathwidth_exact(g).value


class TestBudgets:
    def test_budget_degrades_to_upper_bound(self):
        graph, _ = make_grid(5, 5)
        result = treewidth_exact(graph, max_nodes=10)
        assert not result.exact
        assert result.value >= 5
        assert width_of_elimination_order(graph, result.certificate) == result.value

    def test_pathwidth_budget(self):
        graph, _ = make_grid(5, 5)
        result = pathwidth_exact(graph, max_nodes=10)
        assert not result.exact
        assert result.value >= 5
        assert width_of_layout(graph, result.certificate) == result.value


    def test_pathwidth_greedy_bound_keeps_the_deadline(self):
        # 289 vertices: sweeping the greedy layout from every start
        # vertex alone takes several seconds, longer than the budget.
        graph = build_instance(4).graph
        start = time.monotonic()
        result = pathwidth_exact(graph, max_seconds=0.5)
        assert time.monotonic() - start < 4.0
        assert not result.exact
        assert width_of_layout(graph, result.certificate) == result.value


class TestIncrementalElimination:
    """The masks the treewidth search carries equal a fresh closure walk."""

    def test_eliminate_matches_closure(self):
        rng = random.Random(5)
        seen = {True: 0, False: 0}
        for _ in range(300):
            n = rng.randint(1, 14)
            p = rng.choice((0.1, 0.25, 0.5, 0.8))
            g = Graph.from_edges(
                n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
            )
            adj = adjacency_masks(g)
            remaining = (1 << n) - 1
            connected = len(components(adj, remaining)) == 1
            seen[connected] += 1
            order = list(range(n))
            rng.shuffle(order)
            nbrs = adj
            for v in order:
                before = list(nbrs)
                nbrs, parent = _eliminate(nbrs, v), nbrs
                assert parent == before
                remaining &= ~(1 << v)
                for u in iter_bits(remaining):
                    assert nbrs[u] == _closure_neighbors(adj, remaining, u)
                # eliminating a vertex never disconnects the survivors
                if connected and remaining:
                    assert components(nbrs, remaining) == [remaining]
        assert seen[True] > 50 and seen[False] > 50


class TestBoundReport:
    def test_k1(self):
        inst = build_instance(1, s0_placement=S0_BOTTOM_LEFT)
        report = verify_width_lower_bound(inst)
        assert report.k == 1
        assert report.bound == 3
        assert report.treewidth.value == 3 and report.treewidth.exact
        assert report.pathwidth.value == 3 and report.pathwidth.exact
        assert report.linkage_components == 2
        assert report.satisfied is True

    def test_requires_generator_metadata(self):
        from gridlinkage import Instance

        graph, layout = make_grid(3, 3)
        inst = Instance.make(graph, [(0, 8)], layout)
        with pytest.raises(ValueError):
            verify_width_lower_bound(inst)

    @pytest.mark.parametrize("k", [None, [1], True, "1", -1])
    def test_rejects_malformed_k(self, k):
        inst = build_instance(1, s0_placement=S0_BOTTOM_LEFT)
        bad = Instance.make(inst.graph, inst.pairs, inst.layout, {**inst.meta_map, "k": k})
        with pytest.raises(ValueError, match="meta k"):
            bad.construction_k()
        with pytest.raises(ValueError, match="meta k"):
            verify_width_lower_bound(bad)

    def test_indeterminate_under_budget(self):
        inst = build_instance(1, s0_placement=S0_BOTTOM_LEFT)
        report = verify_width_lower_bound(inst, max_nodes=1)
        assert report.satisfied is None

    def test_one_time_budget_for_both_searches(self):
        start = time.monotonic()
        report = verify_width_lower_bound(build_instance(3), max_seconds=1.0)
        assert time.monotonic() - start < 1.5
        assert report.satisfied is None

    def test_greedy_bounds_keep_the_deadline(self):
        # The min-fill bound alone takes seconds on k = 5's 1,089
        # vertices; past the deadline it finishes in ascending order.
        graph = build_instance(5).graph
        start = time.monotonic()
        result = treewidth_exact(graph, max_seconds=0.5)
        assert time.monotonic() - start < 1.5
        assert not result.exact
        assert width_of_elimination_order(graph, result.certificate) == result.value

    def test_one_node_budget_for_both_searches(self):
        graph, _ = make_grid(5, 5)
        tw, pw = widths_within_budget(graph, (treewidth_exact, pathwidth_exact), 100)
        # The search that runs out counts the node it refused, so the
        # pathwidth search starts one node over and stops at its first.
        assert (tw.nodes_explored, pw.nodes_explored) == (101, 1)
        assert not tw.exact and not pw.exact
