"""Exact treewidth and pathwidth with verifiable certificates."""

import functools
import gc
import random
import time
import types

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
    width_checks,
    width_of_elimination_order,
    width_of_layout,
)
from gridlinkage.bitsets import components, iter_bits
from gridlinkage.construction import S0_BOTTOM_LEFT
from gridlinkage import width as width_module
from gridlinkage.width import (
    _closure_neighbors,
    _contraction_bound,
    _contraction_degeneracy,
    _eliminate,
    _greedy_layout,
    _min_fill_order,
    _moves,
    _pw_decide,
    _still_open,
    _tw_decide,
    _Budget,
)
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
        # vertex takes about half a second, near the whole budget, and
        # the search below its bound takes far longer.
        graph = build_instance(4).graph
        start = time.monotonic()
        result = pathwidth_exact(graph, max_seconds=0.5)
        assert time.monotonic() - start < 4.0
        assert not result.exact
        assert width_of_layout(graph, result.certificate) == result.value


    def test_greedy_layout_stops_mid_sweep(self, monkeypatch):
        # A path with shuffled labels: ascending order is a wide layout,
        # and each greedy sweep runs the path's length at width <= 2, so
        # only the deadline can stop the first sweep.  The clock passes
        # the deadline once the sweep has placed 100 vertices.
        rng = random.Random(8)
        labels = list(range(200))
        rng.shuffle(labels)
        graph = Graph.from_edges(200, [(labels[i], labels[i + 1]) for i in range(199)])
        placed = 0

        def counting_moves(*args):
            nonlocal placed
            placed += 1
            return _moves(*args)

        monkeypatch.setattr(width_module, "_moves", counting_moves)
        monkeypatch.setattr(
            width_module.time, "monotonic", lambda: 0.0 if placed < 100 else 10.0
        )
        result = pathwidth_exact(graph, max_seconds=1.0)
        assert 100 <= placed < 100 + 64
        assert not result.exact
        # The unfinished sweep is dropped: the ascending layout stands.
        assert result.certificate == tuple(range(200))
        assert width_of_layout(graph, result.certificate) == result.value

    @pytest.mark.parametrize("search, recheck", [
        (treewidth_exact, width_of_elimination_order),
        (pathwidth_exact, width_of_layout),
    ])
    def test_dense_graph_keeps_the_deadline(self, search, recheck):
        # G(160, 0.7): every lower bound step must read the clock, or a
        # 0.3 s budget overruns by tens of seconds.
        rng = random.Random(1)
        graph = Graph.from_edges(160, [
            (u, v) for u in range(160) for v in range(u + 1, 160) if rng.random() < 0.7
        ])
        start = time.monotonic()
        result = search(graph, max_seconds=0.3)
        assert time.monotonic() - start < 1.5
        assert not result.exact
        assert recheck(graph, result.certificate) == result.value

    def test_large_clique_does_not_recurse(self):
        # K_1100: no step of either search may recurse once per vertex.
        n = 1100
        graph = complete_graph(n)
        for search in (treewidth_exact, pathwidth_exact):
            result = search(graph, max_seconds=0.2)
            assert not result.exact
            assert result.value == n - 1

    @pytest.mark.parametrize("search", [treewidth_exact, pathwidth_exact])
    @pytest.mark.parametrize("max_nodes", [50, 10**6])
    def test_searches_leave_no_cyclic_garbage(self, search, max_nodes):
        # A memo kept alive by a reference cycle lingers until the next
        # cyclic GC pass; with the collector off, none may be left.
        graph, _ = make_grid(4, 4)
        gc.collect()
        gc.disable()
        try:
            search(graph, max_nodes=max_nodes)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestIncrementalMoves:
    """_moves, scoring only near at a full boundary, lists the same moves
    as a scorer that recounts every candidate's boundary."""

    @staticmethod
    def recounted_moves(nb, placed, rest, limit):
        moves = []
        for v in iter_bits(rest):
            left = rest & ~(1 << v)
            grown = 0
            for u in iter_bits(placed | 1 << v):
                if nb[u] & left:
                    grown |= 1 << u
            if grown.bit_count() <= limit:
                moves.append((grown.bit_count(), v, grown))
        return moves

    def test_moves_match_recount_on_search_states(self, monkeypatch):
        calls = []

        def recording_moves(nb, boundary, rest, limit):
            out = _moves(nb, boundary, rest, limit)
            calls.append((nb, boundary, rest, limit, out))
            return out

        monkeypatch.setattr(width_module, "_moves", recording_moves)
        rng = random.Random(13)
        full = {True: 0, False: 0}
        for _ in range(60):
            n = rng.randint(6, 13)
            edges = {(rng.randrange(i), i) for i in range(1, n)}
            for _ in range(rng.randint(0, 2 * n)):
                a, b = sorted(rng.sample(range(n), 2))
                edges.add((a, b))
            adj = Graph.from_edges(n, edges).masks
            comp = (1 << n) - 1
            for limit in range(1, 7):
                calls.clear()
                _pw_decide(adj, comp, limit, _Budget(200_000, 60.0), set())
                for nb, boundary, rest, w, out in calls:
                    placed = comp & ~rest
                    assert boundary == sum(
                        1 << u for u in iter_bits(placed) if nb[u] & rest
                    )
                    assert out == self.recounted_moves(nb, placed, rest, w)
                    full[boundary.bit_count() == w] += 1
        assert full[True] > 1000 and full[False] > 1000


def scored_greedy_layout(adj, comp):
    """The greedy sweep scoring every unplaced vertex at each placement,
    with no deadline: the smallest boundary wins, the lowest vertex
    among equals."""
    nb = [a & comp for a in adj]
    best_order = sorted(iter_bits(comp))
    best_width = 0
    boundary = 0
    rest = comp
    for v in best_order:
        rest ^= 1 << v
        boundary = _still_open(nb, boundary | (1 << v), rest)
        best_width = max(best_width, boundary.bit_count())
    for start in iter_bits(comp):
        order = [start]
        rest = comp ^ (1 << start)
        boundary = _still_open(nb, 1 << start, rest)
        width = boundary.bit_count()
        while rest and width < best_width:
            size, v, boundary = min(_moves(nb, boundary, rest, comp.bit_count()))
            width = max(width, size)
            rest ^= 1 << v
            order.append(v)
        if not rest and width < best_width:
            best_width = width
            best_order = order
    return best_width, best_order


class TestGreedyLayout:
    """_greedy_layout scores only the moves that can win, and returns the
    width and order of the sweep that scores every unplaced vertex."""

    def test_matches_the_sweep_that_scores_every_vertex(self):
        rng = random.Random(22)
        graphs = [build_instance(k).graph for k in (1, 2, 3)]
        graphs += [gnp(rng, rng.randint(2, 30), rng.uniform(0.05, 0.5)) for _ in range(300)]
        compared = disconnected = 0
        for graph in graphs:
            adj = graph.masks
            comps = components(adj, (1 << graph.vertex_count) - 1)
            disconnected += len(comps) > 1
            for comp in comps:
                assert _greedy_layout(adj, comp, float("inf")) == scored_greedy_layout(adj, comp)
                compared += 1
        assert (disconnected, compared) == (121, 670)


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
            adj = list(g.masks)
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


def tree_like(kind, seed):
    """A seeded random tree, each vertex of degree at most 3, randomly
    labelled; kind "chords" is smaller and adds 2 to 5 random edges."""
    rng = random.Random(f"width-gap/{kind}/{seed}")
    n = rng.randint(20, 40) if kind == "tree" else rng.randint(16, 28)
    labels = list(range(n))
    rng.shuffle(labels)
    degree = [0] * n
    edges = set()
    for i in range(1, n):
        parent = rng.choice([u for u in range(i) if degree[u] < 3])
        degree[parent] += 1
        degree[i] += 1
        edges.add(tuple(sorted((labels[parent], labels[i]))))
    if kind == "chords":
        for _ in range(rng.randint(2, 5)):
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph.from_edges(n, sorted(edges))


def gnp(rng, n, p):
    return Graph.from_edges(
        n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    )


def dense_random(p, seed):
    """A seeded G(n, p) with 10 to 15 vertices."""
    rng = random.Random(f"gap/tw/{seed}")
    return gnp(rng, rng.randint(10, 15), p)


def small_family():
    """Every connected graph on up to 6 vertices and 40 seeded ones on 7
    or 8."""
    rng = random.Random(21)
    family = list(connected_graphs(6))
    for _ in range(40):
        n = rng.randint(7, 8)
        edges = {(rng.randrange(i), i) for i in range(1, n)}
        for _ in range(rng.randint(0, 2 * n)):
            a, b = sorted(rng.sample(range(n), 2))
            edges.add((a, b))
        family.append(Graph.from_edges(n, edges))
    return family


def trivial_bound(adj, comp, deadline):
    # Any order of n vertices has width at most n - 1.
    return comp.bit_count() - 1, sorted(iter_bits(comp))


def layout_completes(adj, comp, w):
    """Whether some order of the rest of comp after a placed set keeps
    every later prefix's boundary within w."""

    @functools.cache
    def completes(placed):
        if placed == comp:
            return True
        for v in iter_bits(comp & ~placed):
            grown = placed | 1 << v
            boundary = sum(1 for u in iter_bits(grown) if adj[u] & comp & ~grown)
            if boundary <= w and completes(grown):
                return True
        return False

    return completes


def elimination_completes(adj, comp, w):
    """Whether, the rest of comp eliminated, some order of a remaining
    set gives each vertex at most w residual neighbours."""

    def residual_degree(left, v):
        # survivors reachable from v through eliminated vertices
        seen, stack, found = {v}, [v], 0
        while stack:
            for u in iter_bits(adj[stack.pop()] & comp):
                if u not in seen:
                    seen.add(u)
                    if left >> u & 1:
                        found += 1
                    else:
                        stack.append(u)
        return found

    @functools.cache
    def completes(left):
        if left.bit_count() <= w + 1:
            return True
        return any(
            residual_degree(left, v) <= w and completes(left ^ 1 << v)
            for v in iter_bits(left)
        )

    return completes


class NoMemo(set):
    """A failed set that never answers: the search becomes a plain
    depth-first search."""

    def __contains__(self, key):
        return False


def fresh_order(decide, graph, w):
    """The order a depth-first search at width w alone finds, without
    any memo."""
    adj = graph.masks
    comp = (1 << graph.vertex_count) - 1
    return tuple(decide(adj, comp, w, _Budget(10**7, 60.0), NoMemo()))


class TestCarriedMemo:
    """One memo of refuted states serves every width a component's
    search descends through.  The graphs here sit at least 2 below their
    greedy bound, or descend from the trivial bound n - 1, so a search
    that succeeds meets the refutations of a wider one.  The value must
    match the brute-force oracle, and the certificate must be the one a
    search at that width alone finds: the memo may only cut subtrees
    without a solution."""

    # Trees: widths 3 and 2 succeed (and 4 too below a bound of 5), 1
    # fails.  Chorded trees: widths 4 and 3 succeed, 2 fails.
    PATHWIDTH_GRAPHS = [("tree", seed) for seed in (5, 24, 52, 58, 74)] + [
        ("chords", seed) for seed in (340, 749, 791, 1289)
    ]
    TREEWIDTH_GRAPHS = [
        (0.35, 935), (0.35, 55343), (0.5, 2440), (0.5, 17406), (0.5, 55812), (0.5, 74251)
    ]

    @pytest.mark.parametrize("kind, seed", PATHWIDTH_GRAPHS)
    def test_pathwidth_far_below_the_greedy_bound(self, kind, seed):
        graph = tree_like(kind, seed)
        adj = graph.masks
        greedy, _ = _greedy_layout(adj, (1 << graph.vertex_count) - 1, float("inf"))
        result = pathwidth_exact(graph)
        assert result.exact
        assert result.value == brute_pathwidth(graph) <= greedy - 2
        assert width_of_layout(graph, result.certificate) == result.value
        assert result.certificate == fresh_order(_pw_decide, graph, result.value)

    @pytest.mark.parametrize("p, seed", TREEWIDTH_GRAPHS)
    def test_treewidth_far_below_the_greedy_bound(self, p, seed):
        graph = dense_random(p, seed)
        adj = graph.masks
        greedy, _ = _min_fill_order(adj, (1 << graph.vertex_count) - 1, float("inf"))
        result = treewidth_exact(graph)
        assert result.exact
        assert result.value == brute_treewidth(graph) <= greedy - 2
        assert width_of_elimination_order(graph, result.certificate) == result.value
        assert result.certificate == fresh_order(_tw_decide, graph, result.value)

    @pytest.mark.parametrize("search, decide, upper, recheck, brute", [
        (treewidth_exact, _tw_decide, "_min_fill_order", width_of_elimination_order,
         brute_treewidth),
        (pathwidth_exact, _pw_decide, "_greedy_layout", width_of_layout, brute_pathwidth),
    ], ids=["treewidth", "pathwidth"])
    def test_descent_from_the_trivial_bound(
        self, monkeypatch, search, decide, upper, recheck, brute
    ):
        # With every greedy bound replaced by the trivial one, one memo
        # serves every width from n - 2 down.
        monkeypatch.setattr(width_module, upper, trivial_bound)
        successes = set()
        for graph in small_family():
            result = search(graph)
            assert result.exact
            assert result.value == brute(graph)
            assert recheck(graph, result.certificate) == result.value
            if result.value < graph.vertex_count - 1:
                successes.add(graph.vertex_count - 1 - result.value)
                assert result.certificate == fresh_order(decide, graph, result.value)
        # widths from n - 2 down to the value all succeed on one memo
        assert max(successes) >= 5

    @pytest.mark.parametrize("search, decide, upper, recheck, count", [
        (treewidth_exact, _tw_decide, "_min_fill_order", width_of_elimination_order, 600),
        (pathwidth_exact, _pw_decide, "_greedy_layout", width_of_layout, 150),
    ], ids=["treewidth", "pathwidth"])
    def test_certificates_match_a_search_without_memo(
        self, monkeypatch, search, decide, upper, recheck, count
    ):
        # Larger graphs than the oracles reach, each descending from the
        # trivial bound: the certificate is the order a depth-first
        # search at that width finds without any memo, and one width
        # lower a search with a fresh memo fails.
        monkeypatch.setattr(width_module, upper, trivial_bound)
        rng = random.Random(5)
        for _ in range(count):
            n = rng.randint(9, 12)
            graph = gnp(rng, n, rng.choice((0.3, 0.5)))
            adj = graph.masks
            whole = (1 << n) - 1
            if components(adj, whole) != [whole]:
                continue
            result = search(graph)
            assert result.exact
            assert recheck(graph, result.certificate) == result.value
            if result.value < n - 1:
                assert result.certificate == fresh_order(decide, graph, result.value)
            assert decide(adj, whole, result.value - 1, _Budget(10**7, 60.0), set()) is None

    @pytest.mark.parametrize("search, decide, upper, completes, least", [
        (treewidth_exact, "_tw_decide", "_min_fill_order", elimination_completes, 300),
        (pathwidth_exact, "_pw_decide", "_greedy_layout", layout_completes, 10000),
    ], ids=["treewidth", "pathwidth"])
    def test_every_recorded_state_is_refuted(
        self, monkeypatch, search, decide, upper, completes, least
    ):
        # After each width's search, successful or not, every state in
        # the memo lies in the component and has no completion within
        # that width, so it has none within any lower width either.
        # _tw_decide recurses through its module name, hence the depth.
        real = getattr(width_module, decide)
        depth = 0
        checked = 0

        def checking_decide(adj, comp, w, budget, failed, *rest):
            nonlocal depth, checked
            depth += 1
            try:
                return real(adj, comp, w, budget, failed, *rest)
            finally:
                depth -= 1
                if not depth:
                    within = completes(adj, comp, w)
                    for key in failed:
                        assert not key & ~comp
                        assert not within(key)
                    checked += len(failed)

        monkeypatch.setattr(width_module, decide, checking_decide)
        monkeypatch.setattr(width_module, upper, trivial_bound)
        # With the lower bound at 0 too, every descent runs down to its
        # refuting search, as with the trivial bound above.
        monkeypatch.setattr(width_module, "_contraction_degeneracy", lambda *args: 0)
        rng = random.Random(34)
        dense = [gnp(rng, n, 0.5) for n in [9, 10, 11] * 15]
        for graph in small_family() + dense:
            assert search(graph).exact
        assert checked >= least

    def test_each_component_starts_a_fresh_memo(self):
        # Two copies of one tree.  The first copy's search at width 1
        # refutes the empty placed set, which is where the second copy's
        # search starts too: each component needs a memo of its own.
        tree = tree_like("tree", 5)
        n = tree.vertex_count
        edges = tree.sorted_edges()
        twice = Graph.from_edges(2 * n, edges + [(u + n, v + n) for u, v in edges])
        result = pathwidth_exact(twice)
        assert result.exact and result.value == 2
        assert width_of_layout(twice, result.certificate) == 2


def degeneracy(graph):
    """Largest minimum degree met while removing a minimum-degree vertex
    at a time."""
    rest = set(range(graph.vertex_count))
    best = 0
    while rest:
        v = min(rest, key=lambda u: len(rest.intersection(graph.adjacency[u])))
        best = max(best, len(rest.intersection(graph.adjacency[v])))
        rest.discard(v)
    return best


def whole(graph):
    return graph.masks, (1 << graph.vertex_count) - 1


class TestContractionDegeneracy:
    """The descent's lower bound: at most the treewidth, at least the
    degeneracy, and within its deadline."""

    @staticmethod
    def oracle_graphs():
        rng = random.Random(7)
        sample = []
        while len(sample) < 40:
            graph = gnp(rng, 7, rng.choice((0.3, 0.5, 0.7)))
            if components(*whole(graph)) == [whole(graph)[1]]:
                sample.append(graph)
        return list(connected_graphs(6)) + sample

    def test_each_rule_between_degeneracy_and_treewidth(self):
        met = 0
        for graph in self.oracle_graphs():
            adj, comp = whole(graph)
            rules = [_contraction_bound(adj, comp, float("inf"), rule) for rule in (False, True)]
            bound = _contraction_degeneracy(adj, comp, float("inf"))
            assert bound == max(rules)
            assert degeneracy(graph) <= min(rules)
            assert bound <= brute_treewidth(graph)
            met += bound == brute_treewidth(graph)
        assert met > 0

    @pytest.mark.parametrize("name", ["grid3x3", "grid4x6", "grid6x6", "k1", "k2", "k3"]
                             + [f"gnp{seed}" for seed in range(6)])
    def test_at_least_the_degeneracy_on_larger_graphs(self, name):
        if name.startswith("grid"):
            graph = make_grid(*map(int, name[4:].split("x")))[0]
        elif name.startswith("k"):
            graph = build_instance(int(name[1:])).graph
        else:
            graph = dense_random(0.35, int(name[3:]))
        adj, comp = whole(graph)
        for rule in (False, True):
            assert _contraction_bound(adj, comp, float("inf"), rule) >= degeneracy(graph)

    @pytest.mark.parametrize("p, seed, min_d, least_c", [(0.35, 12, 4, 5), (0.5, 21, 8, 7)])
    def test_neither_rule_dominates(self, p, seed, min_d, least_c):
        graph = dense_random(p, seed)
        adj, comp = whole(graph)
        rules = [_contraction_bound(adj, comp, float("inf"), rule) for rule in (False, True)]
        assert rules == [min_d, least_c]
        assert _contraction_degeneracy(adj, comp, float("inf")) == max(rules)
        assert max(rules) <= treewidth_exact(graph).value

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_square_grids(self, n):
        # tw = n, but every n x n grid past 4 x 4 reads 4.
        assert _contraction_degeneracy(*whole(make_grid(n, n)[0]), float("inf")) == 4

    def test_paper_instances(self):
        # tw = 2^k + 1 = 3, 5, 9, 17, 33; the bound meets it at k = 1 only.
        bounds = [_contraction_degeneracy(*whole(build_instance(k).graph), float("inf"))
                  for k in range(1, 6)]
        assert bounds == [3, 4, 5, 5, 5]

    def test_deadline_keeps_the_bound_so_far(self, monkeypatch):
        graph = build_instance(2).graph
        adj, comp = whole(graph)
        full = _contraction_degeneracy(adj, comp, float("inf"))
        assert _contraction_degeneracy(adj, comp, time.monotonic() - 1) <= full
        # A clock that ticks once per reading: deadline d allows d + 1
        # contractions in all, first under min-d and then under least-c.
        bounds = []
        for deadline in range(-1, 2 * graph.vertex_count):
            clock = iter(range(10**6))
            monkeypatch.setattr(width_module, "time", types.SimpleNamespace(
                monotonic=lambda: next(clock)))
            bounds.append(_contraction_degeneracy(adj, comp, deadline))
        assert bounds[0] == 0
        assert bounds == sorted(bounds) and bounds[-1] == full


class TestLowerBound:
    """WidthResult.lower_bound: the value when exact, otherwise what
    each component proved."""

    @pytest.mark.parametrize("search", [treewidth_exact, pathwidth_exact])
    def test_exact_results_report_the_value(self, search):
        for graph in [g for g, _, _ in KNOWN] + [make_grid(4, 4)[0]]:
            result = search(graph)
            assert result.exact and result.lower_bound == result.value

    def test_unfinished_descent_reports_its_bound(self):
        graph, _ = make_grid(5, 5)
        result = pathwidth_exact(graph, max_nodes=10)
        assert not result.exact
        assert (result.value, result.lower_bound) == (5, 4)

    def test_finished_component_reports_its_value(self):
        # Two 5x5 grids (pathwidth 5, bound 4; 16,499 nodes each): the
        # first descent finishes, the second runs out.
        graph, _ = make_grid(5, 5)
        edges = graph.sorted_edges()
        twice = Graph.from_edges(50, edges + [(u + 25, v + 25) for u, v in edges])
        result = pathwidth_exact(twice, max_nodes=20_000)
        assert not result.exact
        assert result.lower_bound == 5 <= result.value


class TestBoundReport:
    def test_k1(self):
        inst = build_instance(1, s0_placement=S0_BOTTOM_LEFT)
        bound, checks = width_checks(inst.graph, inst.construction_k())
        assert bound == 3
        assert [(r.kind, r.value, r.exact, verdict) for r, verdict in checks] == [
            (KIND_TREEWIDTH, 3, True, "PASS"),
            (KIND_PATHWIDTH, 3, True, "PASS"),
        ]

    def test_requires_generator_metadata(self):
        # Without k there is no bound: an exact width passes, an
        # inexact one stays indeterminate, and neither can fail.  The
        # 5x5 grid has width 5 and lower bound 4, so its descent must
        # search.
        graph, _ = make_grid(3, 3)
        bound, checks = width_checks(graph)
        assert bound is None
        assert [verdict for _, verdict in checks] == ["PASS", "PASS"]
        graph, _ = make_grid(5, 5)
        bound, checks = width_checks(graph, max_nodes=1)
        assert [verdict for _, verdict in checks] == ["INDETERMINATE"] * 2

    def test_below_the_bound_fails(self):
        graph, _ = make_grid(3, 3)
        _, checks = width_checks(graph, 2, (treewidth_exact,))
        assert [(r.value, verdict) for r, verdict in checks] == [(3, "FAIL")]

    @pytest.mark.parametrize("k", [None, [1], True, "1", -1])
    def test_rejects_malformed_k(self, k):
        # construction_k() is where a document's k comes from.
        inst = build_instance(1, s0_placement=S0_BOTTOM_LEFT)
        bad = Instance.make(inst.graph, inst.pairs, inst.layout, {**inst.meta_map, "k": k})
        with pytest.raises(ValueError, match="meta k"):
            bad.construction_k()

    def test_indeterminate_under_budget(self):
        # k = 2 has width 5 and lower bound 4, so its descent must search.
        inst = build_instance(2, s0_placement=S0_BOTTOM_LEFT)
        _, checks = width_checks(inst.graph, 2, max_nodes=1)
        assert [verdict for _, verdict in checks] == ["INDETERMINATE"] * 2

    def test_one_time_budget_for_both_searches(self):
        start = time.monotonic()
        _, checks = width_checks(build_instance(3).graph, 3, max_seconds=1.0)
        assert time.monotonic() - start < 1.5
        assert [verdict for _, verdict in checks] == ["INDETERMINATE"] * 2

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
        _, ((tw, _), (pw, _)) = width_checks(graph, max_nodes=100)
        # The search that runs out counts the node it refused, so the
        # pathwidth search starts one node over and stops at its first.
        assert (tw.nodes_explored, pw.nodes_explored) == (101, 1)
        assert not tw.exact and not pw.exact
