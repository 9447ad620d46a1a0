"""Exact solver for vertex-disjoint path systems.

Small fixed instances with frozen answers, plus the behavioral
contracts: canonical output order, budget handling, and the vitality
and irrelevance checks built on top of the solver.
"""

import gc
import hashlib
import random
import sys
import time
import types

import pytest

from gridlinkage import (
    Graph,
    Instance,
    Linkage,
    STATUS_ABORTED,
    STATUS_SOLVABLE,
    STATUS_UNSOLVABLE,
    SearchAborted,
    brute_force_oracle,
    build_instance,
    check_linkage,
    irrelevant_vertices,
    is_vital_linkage,
    make_grid,
    random_batch,
    solve,
    spans_all_vertices,
)
from gridlinkage import solver as solver_module
from gridlinkage.construction import S0_BOTTOM_LEFT
from gridlinkage.solver import _check_closed


@pytest.fixture
def grid3():
    graph, layout = make_grid(3, 3)
    return graph, layout


@pytest.fixture
def two_pair(grid3):
    """3x3 with corner pairs along the top and bottom rows; 7 solutions."""
    graph, layout = grid3
    return Instance.make(graph, [(0, 2), (6, 8)], layout)


SEVEN = (
    ((0, 1, 2), (6, 3, 4, 5, 8)),
    ((0, 1, 2), (6, 3, 4, 7, 8)),
    ((0, 1, 2), (6, 7, 4, 5, 8)),
    ((0, 1, 2), (6, 7, 8)),
    ((0, 1, 4, 5, 2), (6, 7, 8)),
    ((0, 3, 4, 1, 2), (6, 7, 8)),
    ((0, 3, 4, 5, 2), (6, 7, 8)),
)


class TestSolveBasics:
    def test_single_pair_decide(self, grid3):
        graph, layout = grid3
        out = solve(Instance.make(graph, [(0, 8)], layout))
        assert out.status == STATUS_SOLVABLE
        assert len(out.solutions) == 1
        assert out.nodes_explored > 0

    def test_enumeration_frozen(self, two_pair):
        out = solve(two_pair, mode="enumerate_all")
        assert out.status == STATUS_SOLVABLE
        assert tuple(s.paths for s in out.solutions) == SEVEN

    def test_crossing_diagonals_unsolvable(self, grid3):
        # both pairs need the center; they cannot both have it
        graph, layout = grid3
        out = solve(Instance.make(graph, [(0, 8), (2, 6)], layout), mode="enumerate_all")
        assert out.status == STATUS_UNSOLVABLE
        assert out.solutions == ()

    def test_paths_follow_input_pair_order(self, two_pair):
        out = solve(two_pair, mode="enumerate_all")
        for sol in out.solutions:
            assert sol.paths[0][0] == 0 and sol.paths[0][-1] == 2
            assert sol.paths[1][0] == 6 and sol.paths[1][-1] == 8

    def test_solutions_sorted_and_distinct(self, two_pair):
        out = solve(two_pair, mode="enumerate_all")
        paths = [s.paths for s in out.solutions]
        assert paths == sorted(paths)
        assert len(set(paths)) == len(paths)

    def test_count_up_to_cap(self, two_pair):
        out = solve(two_pair, mode="count_up_to", cap=1)
        assert out.status == STATUS_SOLVABLE
        assert len(out.solutions) == 1
        out3 = solve(two_pair, mode="count_up_to", cap=3)
        assert len(out3.solutions) == 3

    def test_unknown_mode(self, two_pair):
        with pytest.raises(ValueError):
            solve(two_pair, mode="enumerate")

    def test_decide_stops_early(self, two_pair):
        decide = solve(two_pair, mode="decide")
        full = solve(two_pair, mode="enumerate_all")
        assert len(decide.solutions) == 1
        assert decide.nodes_explored <= full.nodes_explored


class TestVacuousCases:
    def test_empty_pairs_one_empty_solution(self, grid3):
        graph, layout = grid3
        out = solve(Instance.make(graph, [], layout), mode="enumerate_all")
        assert out.status == STATUS_SOLVABLE
        assert len(out.solutions) == 1
        assert out.solutions[0].paths == ()

    def test_empty_pairs_spanning_needs_empty_graph(self, grid3):
        graph, layout = grid3
        out = solve(Instance.make(graph, [], layout), require_spanning=True)
        assert out.status == STATUS_UNSOLVABLE
        empty = Instance.make(Graph(0, frozenset()), [])
        assert solve(empty, require_spanning=True).status == STATUS_SOLVABLE


class TestSpanning:
    def test_spanning_restricts(self, two_pair):
        # every solution leaves one vertex uncovered, so none spans
        plain = solve(two_pair, mode="enumerate_all")
        for sol in plain.solutions:
            assert not spans_all_vertices(sol)
        spanning = solve(two_pair, mode="enumerate_all", require_spanning=True)
        assert spanning.status == STATUS_UNSOLVABLE

    def test_spanning_matches_filter(self, grid3):
        graph, layout = grid3
        inst = Instance.make(graph, [(0, 2), (3, 5), (6, 8)], layout)
        plain = solve(inst, mode="enumerate_all")
        spanning = solve(inst, mode="enumerate_all", require_spanning=True)
        want = [s.paths for s in plain.solutions if spans_all_vertices(s)]
        assert [s.paths for s in spanning.solutions] == want
        assert len(spanning.solutions) >= 1


class TestKnobNeutrality:
    """Vertex order, pair order, and pruning change the walk, not the answer."""

    CASES = [
        [(0, 2), (6, 8)],
        [(0, 8), (2, 6)],
        [(0, 2), (3, 5), (6, 8)],
        [(1, 7)],
    ]

    @pytest.mark.parametrize("pairs", CASES)
    def test_min_degree_order(self, grid3, pairs):
        graph, layout = grid3
        inst = Instance.make(graph, pairs, layout)
        base = solve(inst, mode="enumerate_all")
        reordered = solve(inst, mode="enumerate_all", order="min-degree")
        assert {s.paths for s in reordered.solutions} == {
            s.paths for s in base.solutions
        }

    @pytest.mark.parametrize("pairs", CASES)
    def test_auto_pair_order(self, grid3, pairs):
        graph, layout = grid3
        inst = Instance.make(graph, pairs, layout)
        base = solve(inst, mode="enumerate_all")
        auto = solve(inst, mode="enumerate_all", pair_order="auto")
        assert {s.paths for s in auto.solutions} == {s.paths for s in base.solutions}

    @pytest.mark.parametrize("pairs", CASES)
    def test_pruning_off(self, grid3, pairs):
        graph, layout = grid3
        inst = Instance.make(graph, pairs, layout)
        base = solve(inst, mode="enumerate_all", require_spanning=True)
        blunt = brute_force_oracle(inst, require_spanning=True)
        assert [s.paths for s in blunt.solutions] == [s.paths for s in base.solutions]

    def test_bad_knob_values(self, two_pair):
        with pytest.raises(ValueError):
            solve(two_pair, order="random")
        with pytest.raises(ValueError):
            solve(two_pair, pair_order="longest")


class TestBudgets:
    def test_abort_status_is_honest(self, two_pair):
        out = solve(two_pair, mode="enumerate_all", max_nodes=3)
        assert out.status == STATUS_ABORTED
        assert out.nodes_explored <= 4

    def test_abort_on_time(self):
        # the clock is polled every few thousand nodes, so the search
        # must be large enough to reach a poll: k = 3 enumeration runs
        # well past 4096 nodes
        inst = build_instance(3, s0_placement=S0_BOTTOM_LEFT)
        out = solve(inst, mode="enumerate_all", max_seconds=0.0)
        assert out.status == STATUS_ABORTED

    def test_found_solutions_kept_on_abort(self, two_pair):
        # enough nodes to find something, not enough to finish
        for cap in range(5, 60, 5):
            out = solve(two_pair, mode="enumerate_all", max_nodes=cap)
            if out.status == STATUS_ABORTED and out.solutions:
                for sol in out.solutions:
                    check_linkage(two_pair, sol.paths)
                return
        pytest.fail("no budget produced a partial result")


class TestLongPaths:
    def test_path_longer_than_the_recursion_limit(self):
        n = 1500
        g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        for spanning in (False, True):
            out = solve(Instance.make(g, [(0, n - 1)]), require_spanning=spanning)
            assert out.status == STATUS_SOLVABLE
            assert [s.paths for s in out.solutions] == [(tuple(range(n)),)]
            assert out.nodes_explored == n - 1
            ref = brute_force_oracle(Instance.make(g, [(0, n - 1)]), spanning)
            assert ref.solutions == out.solutions
            assert ref.nodes_explored == n - 1


class TestInstanceValidation:
    def test_duplicate_terminal(self, grid3):
        graph, layout = grid3
        with pytest.raises(ValueError):
            Instance.make(graph, [(0, 2), (2, 6)], layout)

    def test_terminal_out_of_range(self, grid3):
        graph, layout = grid3
        with pytest.raises(ValueError):
            Instance.make(graph, [(0, 99)], layout)

    def test_pair_of_equal_ends(self, grid3):
        graph, layout = grid3
        with pytest.raises(ValueError):
            Instance.make(graph, [(4, 4)], layout)

    def test_terminal_on_an_inner_cell(self, grid3):
        graph, layout = grid3
        with pytest.raises(ValueError, match="terminal 4 must sit on the grid border"):
            Instance.make(graph, [(4, 0)], layout)


class TestCheckLinkage:
    def test_accepts_valid(self, two_pair):
        check_linkage(two_pair, SEVEN[0])

    def test_rejects_shared_vertex(self, two_pair):
        with pytest.raises(ValueError):
            check_linkage(two_pair, ((0, 1, 2), (6, 3, 4, 1, 2)))

    def test_rejects_wrong_endpoints(self, two_pair):
        with pytest.raises(ValueError):
            check_linkage(two_pair, ((2, 1, 0), (6, 7, 8)))

    def test_rejects_wrong_count(self, two_pair):
        with pytest.raises(ValueError):
            check_linkage(two_pair, ((0, 1, 2),))

    def test_rejects_non_spanning_when_required(self, two_pair):
        with pytest.raises(ValueError):
            check_linkage(two_pair, SEVEN[0], require_spanning=True)


def search_check(instance, paths, require_spanning=False):
    """Run solve()'s own linkage check in the order the search runs it:
    each path as its pair closes, the whole linkage at emission."""
    adj = instance.graph.masks
    closed, used = [], 0
    for path in paths[:-1]:
        closed.append(path)
        used = _check_closed(adj, instance.pairs, closed, used)
    cover = (1 << instance.graph.vertex_count) - 1 if require_spanning else 0
    _check_closed(adj, instance.pairs, list(paths), used, cover)


# (linkage, require_spanning) for two_pair, each wrong in one way.
BAD_LINKAGES = {
    "non-edge step": (((0, 1, 2), (6, 7, 5, 8)), False),
    "repeated vertex": (((0, 1, 4, 1, 2), (6, 7, 8)), False),
    "shared with an earlier path": (((0, 1, 4, 5, 2), (6, 3, 4, 7, 8)), False),
    "swapped ends": (((2, 1, 0), (6, 7, 8)), False),
    "wrong end": (((0, 1, 2), (6, 7, 4)), False),
    "empty path": (((0, 1, 2), ()), False),
    "missing path": (((0, 1, 2),), False),
    "extra path": (((0, 1, 2), (6, 7, 8), (3, 4, 5)), False),
    "not spanning": (SEVEN[0], True),
}


class TestCheckerMutations:
    """check_linkage and solve()'s in-search check reject the same bad
    linkages with the same message."""

    @pytest.mark.parametrize("case", sorted(BAD_LINKAGES))
    def test_both_checkers_reject(self, two_pair, case):
        paths, spanning = BAD_LINKAGES[case]
        with pytest.raises(ValueError) as independent:
            check_linkage(two_pair, paths, spanning)
        with pytest.raises(ValueError) as in_search:
            search_check(two_pair, paths, spanning)
        assert str(in_search.value) == str(independent.value)

    def test_both_checkers_accept(self, grid3, two_pair):
        for paths in SEVEN:
            check_linkage(two_pair, paths)
            search_check(two_pair, paths)
        graph, layout = grid3
        inst = Instance.make(graph, [(0, 2), (3, 5), (6, 8)], layout)
        spanning = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
        check_linkage(inst, spanning, require_spanning=True)
        search_check(inst, spanning, require_spanning=True)


class TestBruteOracle:
    @pytest.mark.parametrize(
        "pairs", [[(0, 2), (6, 8)], [(0, 8), (2, 6)], [(1, 7)], []]
    )
    def test_agrees_on_3x3(self, grid3, pairs):
        graph, layout = grid3
        inst = Instance.make(graph, pairs, layout)
        fast = solve(inst, mode="enumerate_all")
        slow = brute_force_oracle(inst)
        assert fast.status == slow.status
        assert [s.paths for s in fast.solutions] == [s.paths for s in slow.solutions]

    def test_agrees_on_spanning(self, grid3):
        graph, layout = grid3
        inst = Instance.make(graph, [(0, 2), (3, 5), (6, 8)], layout)
        fast = solve(inst, mode="enumerate_all", require_spanning=True)
        slow = brute_force_oracle(inst, require_spanning=True)
        assert [s.paths for s in fast.solutions] == [s.paths for s in slow.solutions]

    def test_leaves_no_cyclic_garbage(self):
        # Like the width searches: with the collector off, neither the
        # oracle's nested closures nor anything solve() builds may be
        # left for a cyclic GC pass.
        instances = [build_instance(1), *random_batch(3, 20, 10, 3)]
        gc.collect()
        gc.disable()
        try:
            for inst in instances:
                brute_force_oracle(inst)
                assert gc.collect() == 0
                solve(inst, mode="enumerate_all")
                assert gc.collect() == 0
        finally:
            gc.enable()


def is_unique(instance, require_spanning=False):
    outcome = solve(instance, mode="count_up_to", cap=2, require_spanning=require_spanning)
    assert outcome.status != STATUS_ABORTED
    return len(outcome.solutions) == 1


class TestUniqueness:
    def test_seven_not_unique(self, two_pair):
        assert not is_unique(two_pair)

    def test_unsolvable_not_unique(self, grid3):
        graph, layout = grid3
        assert not is_unique(Instance.make(graph, [(0, 8), (2, 6)], layout))

    def test_k1_unique_spanning(self):
        inst = build_instance(1, s0_placement=S0_BOTTOM_LEFT)
        assert is_unique(inst, require_spanning=True)


class TestCanonicalKey:
    def test_canonical_key(self, two_pair):
        # Reversing a path or permuting the paths keeps the key, and
        # the seven distinct linkages of two_pair get seven keys.
        keys = set()
        for paths in SEVEN:
            key = Linkage(paths, two_pair.graph).canonical_key()
            first, second = paths
            for same in ((first[::-1], second), (second, first), (second[::-1], first[::-1])):
                assert Linkage(same, two_pair.graph).canonical_key() == key
            keys.add(key)
        assert len(keys) == len(SEVEN)


class TestVitalLinkage:
    def test_cycle_paths_vital(self):
        # C4 split into two opposite edges: the only linkage, spanning
        # or not, that joins 0 to 1 and 3 to 2.  Joining the same four
        # endpoints as (0,3),(1,2) spans too, but it joins other pairs.
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        link = Linkage(((0, 1), (3, 2)), c4)
        assert is_vital_linkage(c4, link)

    def test_hamiltonian_path_in_k4_not_vital(self):
        k4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        ham = Linkage(((0, 1, 2, 3),), k4)
        # 0,2,1,3 spans with the same endpoints
        assert not is_vital_linkage(k4, ham)

    def test_non_spanning_linkage_rejected(self):
        k4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        with pytest.raises(ValueError):
            is_vital_linkage(k4, Linkage(((0, 1),), k4))

    def test_rival_with_another_pairing_does_not_count(self):
        """The generated 3x3 instance's unique solution is vital.

        Joining its four endpoints as (s0,s1) and (t0,t1) admits a
        different spanning linkage, but only a linkage that joins the
        same endpoint pairs, spanning or not, is a rival.
        """
        inst = build_instance(1, s0_placement=S0_BOTTOM_LEFT)
        out = solve(inst, mode="count_up_to", cap=2, require_spanning=True)
        sol = out.solutions[0]
        assert sol.paths == ((0, 1, 2, 8, 7, 6), (3, 4, 5))
        assert is_vital_linkage(inst.graph, sol)
        rival = Linkage(((0, 3), (6, 7, 4, 1, 2, 8, 5)), inst.graph)
        assert spans_all_vertices(rival)
        def ends(linkage):
            return {frozenset((path[0], path[-1])) for path in linkage.paths}
        assert ends(rival) != ends(sol)

    def test_non_spanning_rival_counts(self):
        # The edge (0, 2) links the same pair without vertex 1.
        triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert not is_vital_linkage(triangle, Linkage(((0, 1, 2),), triangle))

    def test_matches_the_reference(self):
        # Vital means the only linkage of its own endpoint pairs, so the
        # unpruned reference on those pairs must list it alone.
        checked = 0
        for inst in random_batch(5, 300, 9, 3):
            for link in brute_force_oracle(inst, require_spanning=True).solutions:
                own = Instance(inst.graph, tuple((p[0], p[-1]) for p in link.paths))
                assert is_vital_linkage(inst.graph, link) == (
                    brute_force_oracle(own).solutions == (link,)
                ), link.paths
                checked += 1
        assert checked == 86

    def test_exhausted_budget_raises(self):
        inst = build_instance(2, s0_placement=S0_BOTTOM_LEFT)
        sol = solve(inst, mode="count_up_to", cap=1, require_spanning=True).solutions[0]
        with pytest.raises(SearchAborted):
            is_vital_linkage(inst.graph, sol, max_nodes=10)


class TestIrrelevantVertices:
    def test_pendant_is_irrelevant(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
        rep = irrelevant_vertices(Instance.make(g, [(0, 2)]))
        assert rep.baseline_status == STATUS_SOLVABLE
        assert rep.irrelevant == frozenset({3})
        assert rep.relevant == frozenset({1})
        assert rep.indeterminate == frozenset()

    def test_unsolvable_instance(self):
        # deleting anything keeps an unsolvable instance unsolvable
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        rep = irrelevant_vertices(Instance.make(g, [(0, 2)]))
        assert rep.baseline_status == STATUS_UNSOLVABLE
        assert rep.irrelevant == frozenset({1, 3})

    def test_time_budget_is_shared_by_the_sweep(self, two_pair):
        # The baseline solve finishes before its first clock check, after
        # which the one deadline has passed: no vertex may be classified.
        rep = irrelevant_vertices(two_pair, max_seconds=0.0)
        assert rep.baseline_status == STATUS_SOLVABLE
        assert rep.indeterminate == frozenset({1, 3, 4, 5, 7})
        assert rep.irrelevant == rep.relevant == frozenset()

    def test_sweep_stops_at_the_deadline(self, monkeypatch):
        # The baseline solve answers but returns only after the one
        # deadline has passed, so the sweep classifies no vertex.
        real = solver_module.solve

        def slow_solve(*args, **kwargs):
            outcome = real(*args, **kwargs)
            time.sleep(0.06)
            return outcome

        monkeypatch.setattr(solver_module, "solve", slow_solve)
        inst = build_instance(1, s0_placement=S0_BOTTOM_LEFT)
        rep = irrelevant_vertices(inst, max_seconds=0.05)
        terminals = {v for pair in inst.pairs for v in pair}
        assert rep.baseline_status == STATUS_SOLVABLE
        assert rep.indeterminate == frozenset(range(inst.graph.vertex_count)) - terminals
        assert rep.irrelevant == rep.relevant == frozenset()

    def test_one_aborted_deletion_is_indeterminate(self):
        # The baseline decides inside four nodes, the solves without
        # vertex 1 or 2 do not: those two alone are indeterminate, and
        # the sweep classifies the rest.
        inst = list(random_batch(3, 300, 12, 3))[68]
        assert (inst.graph.vertex_count, inst.pairs) == (8, ((5, 4),))
        rep = irrelevant_vertices(inst, max_nodes=4)
        assert rep.baseline_status == STATUS_SOLVABLE
        assert rep.indeterminate == frozenset({1, 2})
        assert rep.irrelevant == frozenset({0, 3, 6, 7})
        assert rep.relevant == frozenset()

    def test_tiny_budget_reports_indeterminate(self, two_pair):
        rep = irrelevant_vertices(two_pair, max_nodes=2)
        assert rep.baseline_status == STATUS_ABORTED
        assert rep.indeterminate == frozenset({1, 3, 4, 5, 7})
        assert rep.irrelevant == rep.relevant == frozenset()


# The region memo: what the subtree of a search node emits depends only
# on its pair, its head and the free region the rest of its paths can
# use, so solve() replays what an earlier subtree with the same key
# emitted.  Pair starts are keyed from the first node on, the other
# nodes once the search has entered MEMO_MIN_NODES nodes.


def _raw_5x6() -> Instance:
    graph, _ = make_grid(5, 6)
    return Instance.make(graph, [(12, 26), (3, 17), (29, 23)])


def _border_cycle(rows: int, cols: int) -> list[int]:
    return ([c for c in range(cols)]
            + [r * cols + cols - 1 for r in range(1, rows)]
            + [(rows - 1) * cols + c for c in range(cols - 2, -1, -1)]
            + [r * cols for r in range(rows - 2, 0, -1)])


def _non_interleaving_pairs(rng: random.Random, rows: int, cols: int,
                            k: int) -> list[tuple[int, int]]:
    """k pairs on the border of a rows x cols grid that do not interleave
    around it: spots in cyclic order, matched like the brackets of a
    random balanced word."""
    cycle = _border_cycle(rows, cols)
    spots = sorted(rng.sample(range(len(cycle)), 2 * k))
    while True:
        word = [1] * k + [-1] * k
        rng.shuffle(word)
        depth = 0
        for w in word:
            depth += w
            if depth < 0:
                break
        else:
            break
    open_ends, pairs = [], []
    for spot, w in zip(spots, word):
        if w == 1:
            open_ends.append(cycle[spot])
        else:
            pairs.append((open_ends.pop(), cycle[spot]))
    rng.shuffle(pairs)
    return pairs


def _capped_batch() -> list[Instance]:
    """Eight seeded 5x5 and 5x6 grids with 2-3 border pairs, each with
    its layout (searched on the DP's edges) and without (every edge),
    and the three k = 2 corner instances."""
    rng = random.Random("suffix-memo")
    batch = []
    for i in range(8):
        rows, cols = 5, (5, 6)[i % 2]
        graph, layout = make_grid(rows, cols)
        pairs = _non_interleaving_pairs(rng, rows, cols, rng.randint(2, 3))
        batch.append(Instance.make(graph, pairs, layout))
        batch.append(Instance.make(graph, pairs))
    for placement in ("top-right", "bottom-right", "bottom-left"):
        batch.append(build_instance(2, s0_placement=placement))
    return batch


ORDERS = [(order, pair_order) for order in ("ascending", "min-degree")
          for pair_order in ("input", "auto")]


def _paths_digest(outcome) -> str:
    text = repr([link.paths for link in outcome.solutions])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestSuffixMemo:
    # nodes_explored per (order, pair_order).  The search without the
    # memo took 69,114 (input) and 56,403 (auto); with keys at pair
    # starts only, 18,587 / 26,487 / 18,586 / 26,489.
    RAW_5X6_NODES = {
        ("ascending", "input"): 3339,
        ("ascending", "auto"): 3776,
        ("min-degree", "input"): 3333,
        ("min-degree", "auto"): 3762,
    }

    def test_raw_5x6_enumeration_matches_oracle(self):
        inst = _raw_5x6()
        want = [link.paths for link in brute_force_oracle(inst).solutions]
        assert len(want) == 14884
        for order, pair_order in ORDERS:
            out = solve(inst, mode="enumerate_all", order=order, pair_order=pair_order)
            assert [link.paths for link in out.solutions] == want
            assert out.nodes_explored == self.RAW_5X6_NODES[order, pair_order]

    def test_capped_counts_keep_their_solutions(self):
        # The digest was recorded by the search without the memo: a cap
        # keeps the solutions the search meets first, so replays must
        # emit in the order the search would, and capped min-degree
        # searches keep no memo.  That search took 648,876 nodes, and
        # the search with keys at pair starts only 630,800.
        total, digests = 0, []
        for inst in _capped_batch():
            for order, pair_order in ORDERS:
                for cap in (1, 2, 3, 7, 50, 400):
                    out = solve(inst, mode="count_up_to", cap=cap,
                                order=order, pair_order=pair_order)
                    total += out.nodes_explored
                    digests.append(_paths_digest(out))
        got = hashlib.sha256(repr(digests).encode()).hexdigest()[:16]
        assert (total, got) == (624612, "114082095792f879")

    @pytest.mark.parametrize("pair_order", ["input", "auto"])
    def test_min_degree_rank_outside_the_region(self, pair_order):
        # Min-degree ranks t by its free neighbors, and two prefixes that
        # leave pair 1 the same region differ in t's free neighbors
        # outside it; a replay keyed on the region would emit in the
        # wrong order and the cap would keep other solutions.
        edges = [(0, 1), (0, 6), (0, 12), (1, 2), (1, 7), (2, 3), (2, 4), (3, 8), (4, 5),
                 (4, 9), (5, 6), (5, 10), (6, 9), (7, 12), (8, 9), (8, 12), (9, 11), (10, 12)]
        inst = Instance.make(Graph.from_edges(13, edges), [(3, 5), (2, 0)])
        out = solve(inst, mode="count_up_to", cap=5, order="min-degree", pair_order=pair_order)
        assert [link.paths for link in out.solutions] == [
            ((3, 8, 9, 4, 5), (2, 1, 0)),
            ((3, 8, 9, 4, 5), (2, 1, 7, 12, 0)),
            ((3, 8, 9, 6, 5), (2, 1, 0)),
            ((3, 8, 12, 10, 5), (2, 1, 0)),
            ((3, 8, 12, 10, 5), (2, 4, 9, 6, 0)),
        ]

    def test_min_degree_rank_across_a_dropped_edge(self):
        # With the layout the search moves on the DP's edges, but
        # min-degree still ranks a vertex by all its free neighbors,
        # some of them outside the region across an edge the DP dropped,
        # so a region-keyed replay would again emit in another order.
        graph, layout = make_grid(3, 5)
        inst = Instance.make(graph, [(13, 3), (10, 1), (12, 2)], layout)
        out = solve(inst, mode="count_up_to", cap=8, order="min-degree")
        assert [link.paths for link in out.solutions] == [
            ((13, 14, 9, 4, 3), (10, 5, 0, 1), (12, 7, 2)),
            ((13, 14, 9, 4, 3), (10, 5, 0, 1), (12, 11, 6, 7, 2)),
            ((13, 14, 9, 4, 3), (10, 5, 6, 1), (12, 7, 2)),
            ((13, 14, 9, 4, 3), (10, 11, 6, 1), (12, 7, 2)),
            ((13, 14, 9, 4, 3), (10, 11, 6, 5, 0, 1), (12, 7, 2)),
            ((13, 14, 9, 8, 3), (10, 5, 0, 1), (12, 7, 2)),
            ((13, 14, 9, 8, 3), (10, 11, 6, 1), (12, 7, 2)),
            ((13, 14, 9, 8, 3), (10, 11, 6, 5, 0, 1), (12, 7, 2)),
        ]

    def test_deadline_inside_a_replay(self, monkeypatch):
        # Replays read the clock from complete() at every 4096th suffix
        # they emit; this enumeration replays over 12,288 (and searches
        # fewer than 4,096 nodes, so the search never polls the clock),
        # so let two polls pass, then put the deadline behind the third.
        replays = []

        def monotonic() -> float:
            if sys._getframe(1).f_code.co_name == "complete":
                replays.append(None)
                return 1e9 if len(replays) > 2 else 0.0
            return 0.0

        monkeypatch.setattr(solver_module, "time", types.SimpleNamespace(monotonic=monotonic))
        out = solve(_raw_5x6(), mode="enumerate_all", max_seconds=60.0)
        assert len(replays) == 3
        assert out.status == STATUS_ABORTED
        assert 0 < len(out.solutions) < 14884

    def test_replay_checks_the_closed_paths(self, monkeypatch):
        # A key that confuses regions of the same size replays suffixes
        # that meet the closed paths; the replay's check reports it as
        # check_linkage() would.
        def coarse_key(adj, search_pairs, idx, head, free, labels):
            return (idx, head, free.bit_count()), labels

        monkeypatch.setattr(solver_module, "_region_key", coarse_key)
        with pytest.raises(ValueError, match="paths share vertices"):
            solve(_raw_5x6(), mode="enumerate_all")

    def test_hit_checks_the_current_path(self, monkeypatch):
        # Hand the search on the DP's edges a non-edge (3, 7) of the 3x3
        # grid.  With every node keyed, the paths through it reach keys
        # that other paths stored, so they are only ever emitted by
        # replays; the check of the current path at each hit must
        # report the non-edge as check_linkage() would.
        monkeypatch.setattr(solver_module, "MEMO_MIN_NODES", 0)
        calls = []

        built = Graph.masks.func

        def masks(graph):
            adj = list(built(graph))
            calls.append(graph)
            if len(calls) == 2:  # the DP's edges, after the full graph
                adj[3] |= 1 << 7
                adj[7] |= 1 << 3
            return adj

        monkeypatch.setattr(Graph, "masks", property(masks))
        graph, layout = make_grid(3, 3)
        with pytest.raises(ValueError, match=r"\(3, 7\) is not an edge"):
            solve(Instance.make(graph, [(0, 1)], layout), mode="enumerate_all")

    @staticmethod
    def _memo_free(monkeypatch) -> None:
        # A fresh key for every lookup never hits: the search then runs
        # without reuse, as a reference for the order it emits in.
        fresh = iter(range(sys.maxsize))

        def unique_key(adj, search_pairs, idx, head, free, labels):
            return (next(fresh), idx, 0), labels

        monkeypatch.setattr(solver_module, "_region_key", unique_key)

    @pytest.mark.parametrize("min_nodes", [0, solver_module.MEMO_MIN_NODES])
    def test_matches_the_reference(self, monkeypatch, min_nodes):
        # Grids from 4x4 to 5x6 with border pairs, whose searches pass
        # the activation constant, and sparse graphs of 8-14 vertices,
        # whose searches mostly stay below it; with min_nodes 0 every
        # node of either is keyed.  enumerate_all must return what the
        # unpruned reference returns, and a capped search what the same
        # search without reuse keeps.
        monkeypatch.setattr(solver_module, "MEMO_MIN_NODES", min_nodes)
        batch = _border_grid_batch() + _sparse_batch()
        memo_runs = []
        for inst in batch:
            want = [link.paths for link in brute_force_oracle(inst).solutions]
            for order, pair_order in ORDERS:
                out = solve(inst, mode="enumerate_all", order=order, pair_order=pair_order)
                assert [link.paths for link in out.solutions] == want
                memo_runs.append([
                    [link.paths for link in solve(inst, mode="count_up_to", cap=cap, order=order,
                                                  pair_order=pair_order).solutions]
                    for cap in (1, 2, 3, 7, 50)
                ])
        self._memo_free(monkeypatch)
        free_runs = [
            [[link.paths for link in solve(inst, mode="count_up_to", cap=cap, order=order,
                                           pair_order=pair_order).solutions]
             for cap in (1, 2, 3, 7, 50)]
            for inst in batch for order, pair_order in ORDERS
        ]
        assert memo_runs == free_runs

    @pytest.mark.parametrize("min_nodes", [0, solver_module.MEMO_MIN_NODES])
    def test_every_entry_is_what_its_node_emits(self, monkeypatch, min_nodes):
        # Read the memo of each search as solve() returns, and check
        # each entry against a memo-free enumeration from its key alone:
        # the rest of pair idx from head, then the later pairs, all
        # inside the region, in ascending order.
        monkeypatch.setattr(solver_module, "MEMO_MIN_NODES", min_nodes)
        seen = []

        def grab(frame, event, arg):
            if event == "return" and frame.f_code is solver_module.solve.__code__:
                seen.append({name: frame.f_locals[name] for name in ("memo", "found", "found_masks")})

        checked = 0
        for inst in [_raw_5x6()] + _border_grid_batch()[:4] + _sparse_batch():
            adj = inst.graph.masks
            seen.clear()
            sys.setprofile(grab)
            try:
                solve(inst, mode="enumerate_all")
            finally:
                sys.setprofile(None)
            (memo, found, found_masks), = [tuple(d.values()) for d in seen]
            for (idx, head, region), entry in memo.items():
                want = _suffixes(adj, inst.pairs, idx, head, region)
                if not entry:
                    assert want == []
                    continue
                first, end, prefix, length = entry
                got = [(found[i][idx][length:],) + found[i][idx + 1:] for i in range(first, end)]
                assert got == want
                for i, suffix in zip(range(first, end), got):
                    mask = 0
                    for v in (v for path in suffix for v in path):
                        mask |= 1 << v
                    assert found_masks[i] ^ prefix == mask
                checked += 1
        assert checked > 1000

    def test_a_full_memo_keeps_the_answers(self, monkeypatch):
        # Once the memo holds MEMO_MAX_KEYS keys it stores no more and
        # still looks up the stored ones; a key left out only means its
        # subtree is searched again, so every status and solution list
        # must be the oracle's.  With every node keyed the 5x6
        # enumeration fills the memo to the bound and no further.
        monkeypatch.setattr(solver_module, "MEMO_MIN_NODES", 0)
        sizes = []

        def grab(frame, event, arg):
            if event == "return" and frame.f_code is solver_module.solve.__code__:
                sizes.append(len(frame.f_locals["memo"]))

        batch = [_raw_5x6()] + _border_grid_batch()[:4] + list(random_batch(27, 60))
        wants = [(out.status, [link.paths for link in out.solutions])
                 for out in map(brute_force_oracle, batch)]
        for bound in (1, 60):
            monkeypatch.setattr(solver_module, "MEMO_MAX_KEYS", bound)
            sizes.clear()
            sys.setprofile(grab)
            try:
                solve(batch[0], mode="enumerate_all")
            finally:
                sys.setprofile(None)
            assert sizes == [bound]
            for inst, (status, want) in zip(batch, wants):
                for order, pair_order in (("ascending", "input"), ("min-degree", "auto")):
                    out = solve(inst, mode="enumerate_all", order=order, pair_order=pair_order)
                    assert out.status == status
                    assert [link.paths for link in out.solutions] == want
                # A capped search keeps a memo in ascending order only.
                for pair_order in ("input", "auto"):
                    out = solve(inst, mode="count_up_to", cap=2, pair_order=pair_order)
                    assert out.status == status
                    assert len(out.solutions) == min(2, len(want))
                    assert all(link.paths in want for link in out.solutions)


def _border_grid_batch() -> list[Instance]:
    """Eight seeded grids from 4x4 to 5x6 with 2-3 border pairs that do
    not interleave, searched on every edge."""
    rng = random.Random("region-memo")
    batch = []
    for rows, cols in ((4, 4), (4, 5), (5, 5), (5, 6)) * 2:
        graph, _ = make_grid(rows, cols)
        batch.append(Instance.make(graph, _non_interleaving_pairs(rng, rows, cols,
                                                                  rng.randint(2, 3))))
    return batch


def _sparse_batch() -> list[Instance]:
    """Twelve seeded sparse connected graphs of 8-14 vertices (a random
    tree plus chords) with 1-3 pairs."""
    rng = random.Random("region-memo/sparse")
    batch = []
    for _ in range(12):
        n = rng.randint(8, 14)
        edges = {(rng.randrange(i), i) for i in range(1, n)}
        for _ in range(rng.randint(n // 3, n // 2)):
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        k = rng.randint(1, 3)
        ends = rng.sample(range(n), 2 * k)
        batch.append(Instance.make(Graph.from_edges(n, sorted(edges)),
                                   [(ends[2 * j], ends[2 * j + 1]) for j in range(k)]))
    return batch


def _suffixes(adj: list[int], pairs, idx: int, head: int,
              region: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every way to finish pair idx from head and then link the later
    pairs, with every inner vertex in region, as (rest of pair idx's
    path after head, later paths...), in the order of a search that
    tries neighbors by ascending id."""
    out = []

    def walk(j: int, v: int, path: tuple[int, ...], free: int,
             done: tuple[tuple[int, ...], ...]) -> None:
        t = pairs[j][1]
        step = adj[v] & (free | 1 << t)
        while step:
            low = step & -step
            step ^= low
            w = low.bit_length() - 1
            if w != t:
                walk(j, w, path + (w,), free ^ low, done)
            elif j + 1 == len(pairs):
                out.append(done + (path + (t,),))
            else:
                s = pairs[j + 1][0]
                walk(j + 1, s, (s,), free, done + (path + (t,),))

    walk(idx, head, (), region, ())
    return out
