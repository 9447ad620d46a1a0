"""Exact solver for vertex-disjoint path systems.

Small fixed instances with frozen answers, plus the behavioral
contracts: canonical output order, budget handling, and the vitality
and irrelevance checks built on top of the solver.
"""

import random

import pytest

from gridlinkage import (
    Graph,
    Instance,
    Linkage,
    PATTERN_ENDPOINT_SET,
    PATTERN_PAIRING,
    STATUS_ABORTED,
    STATUS_SOLVABLE,
    STATUS_UNSOLVABLE,
    brute_force_oracle,
    build_instance,
    check_linkage,
    irrelevant_vertices,
    is_unique_solution,
    is_vital_linkage,
    make_grid,
    pairing_of,
    pattern_of,
    random_batch,
    solve,
    spans_all_vertices,
)
from gridlinkage.bitsets import adjacency_masks
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
        blunt = solve(inst, mode="enumerate_all", require_spanning=True, pruning=False)
        assert {s.paths for s in blunt.solutions} == {s.paths for s in base.solutions}

    def test_bad_knob_values(self, two_pair):
        with pytest.raises(ValueError):
            solve(two_pair, order="random")
        with pytest.raises(ValueError):
            solve(two_pair, pair_order="longest")


class TestBlockedVertices:
    def test_blocking_preserves_unsolvability(self, grid3):
        graph, layout = grid3
        inst = Instance.make(graph, [(0, 8), (2, 6)], layout)
        assert solve(inst).status == STATUS_UNSOLVABLE
        for v in (1, 3, 4, 5, 7):
            assert solve(inst, blocked=[v]).status == STATUS_UNSOLVABLE

    def test_blocking_can_break_solvability(self, grid3):
        graph, layout = grid3
        inst = Instance.make(graph, [(3, 5)], layout)
        assert solve(inst).status == STATUS_SOLVABLE
        # cutting the middle row and the detours through rows 1 and 3
        assert solve(inst, blocked=[4, 1, 7]).status == STATUS_UNSOLVABLE

    def test_blocked_terminal_rejected(self, two_pair):
        with pytest.raises(ValueError):
            solve(two_pair, blocked=[0])

    def test_blocked_solutions_avoid_vertex(self, two_pair):
        # only the pure border routing survives without the center
        out = solve(two_pair, mode="enumerate_all", blocked=[4])
        assert tuple(s.paths for s in out.solutions) == (((0, 1, 2), (6, 7, 8)),)

    def test_spanning_covers_what_is_not_blocked(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        out = solve(Instance.make(g, [(0, 2)]), require_spanning=True, blocked=(3,))
        assert [s.paths for s in out.solutions] == [((0, 1, 2),)]

    def test_spanning_with_blocked_matches_oracle_on_the_rest(self):
        # Blocking B must act as deleting it: compare with the oracle on
        # G - B, relabelled in ascending order so solution order carries.
        rng = random.Random(7)
        solvable = 0
        for inst in random_batch(20261018, 300, max_vertices=9):
            n = inst.graph.vertex_count
            terminals = {v for pair in inst.pairs for v in pair}
            others = [v for v in range(n) if v not in terminals]
            blocked = rng.sample(others, rng.randint(0, min(2, len(others))))
            keep = [v for v in range(n) if v not in blocked]
            new_id = {v: i for i, v in enumerate(keep)}
            rest = Instance.make(
                Graph.from_edges(len(keep), [
                    (new_id[u], new_id[v]) for u, v in inst.graph.edges
                    if u in new_id and v in new_id
                ]),
                [(new_id[s], new_id[t]) for s, t in inst.pairs],
            )
            got = solve(inst, mode="enumerate_all", require_spanning=True, blocked=blocked)
            want = brute_force_oracle(rest, require_spanning=True)
            assert got.status == want.status
            assert [s.paths for s in got.solutions] == [
                tuple(tuple(keep[v] for v in p) for p in s.paths) for s in want.solutions
            ]
            solvable += blocked != [] and got.status == STATUS_SOLVABLE
        assert solvable >= 10


class TestBudgets:
    def test_abort_status_is_honest(self, two_pair):
        out = solve(two_pair, mode="enumerate_all", max_nodes=3)
        assert out.status == STATUS_ABORTED
        assert out.nodes_explored <= 4

    def test_abort_on_time(self):
        # the clock is polled every few thousand nodes, so the search
        # must be large enough to reach a poll; pruning off gets it there
        inst = build_instance(2, s0_placement=S0_BOTTOM_LEFT)
        out = solve(inst, mode="enumerate_all", pruning=False, max_seconds=0.0)
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
    adj = adjacency_masks(instance.graph)
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


class TestUniqueness:
    def test_seven_not_unique(self, two_pair):
        assert not is_unique_solution(two_pair)

    def test_unsolvable_not_unique(self, grid3):
        graph, layout = grid3
        assert not is_unique_solution(Instance.make(graph, [(0, 8), (2, 6)], layout))

    def test_k1_unique_spanning(self):
        inst = build_instance(1, s0_placement=S0_BOTTOM_LEFT)
        assert is_unique_solution(inst, require_spanning=True)


class TestPatternAndPairing:
    def test_examples(self):
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        link = Linkage(((0, 1), (3, 2)), c4)
        assert pattern_of(link) == frozenset({0, 1, 2, 3})
        assert pairing_of(link) == frozenset({(0, 1), (2, 3)})

    def test_empty_linkage(self, grid3):
        graph, _ = grid3
        link = Linkage((), graph)
        assert pattern_of(link) == frozenset()
        assert pairing_of(link) == frozenset()


class TestVitalLinkage:
    def test_cycle_paths_vital(self):
        # C4 split into two opposite edges: the only spanning linkage
        # with this pairing.  Re-pairing the same endpoints as
        # (0,3),(1,2) spans too, so the endpoint-set reading says no.
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        link = Linkage(((0, 1), (3, 2)), c4)
        assert is_vital_linkage(c4, link)
        assert not is_vital_linkage(c4, link, match=PATTERN_ENDPOINT_SET)

    def test_hamiltonian_path_in_k4_not_vital(self):
        k4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        ham = Linkage(((0, 1, 2, 3),), k4)
        # 0,2,1,3 spans with the same endpoints
        assert not is_vital_linkage(k4, ham)

    def test_non_spanning_linkage_rejected(self):
        k4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        with pytest.raises(ValueError):
            is_vital_linkage(k4, Linkage(((0, 1),), k4))

    def test_matching_rule_changes_the_answer(self):
        """The generated 3x3 instance separates the two semantics.

        Its unique solution is vital when rival linkages must reuse the
        same pairing.  Re-pairing the same four endpoints as (s0,s1) and
        (t0,t1) admits a different spanning linkage, so the endpoint-set
        reading says no.
        """
        inst = build_instance(1, s0_placement=S0_BOTTOM_LEFT)
        out = solve(inst, mode="count_up_to", cap=2, require_spanning=True)
        sol = out.solutions[0]
        assert sol.paths == ((0, 1, 2, 8, 7, 6), (3, 4, 5))
        assert is_vital_linkage(inst.graph, sol, match=PATTERN_PAIRING)
        assert not is_vital_linkage(inst.graph, sol, match=PATTERN_ENDPOINT_SET)
        rival = Linkage(((0, 3), (6, 7, 4, 1, 2, 8, 5)), inst.graph)
        assert spans_all_vertices(rival)
        assert pattern_of(rival) == pattern_of(sol)
        assert pairing_of(rival) != pairing_of(sol)

    def test_bad_match_value(self):
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        link = Linkage(((0, 1), (3, 2)), c4)
        with pytest.raises(ValueError):
            is_vital_linkage(c4, link, match="loose")


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

    def test_tiny_budget_reports_indeterminate(self, two_pair):
        rep = irrelevant_vertices(two_pair, max_nodes=2)
        assert rep.baseline_status == STATUS_ABORTED
        assert rep.indeterminate == frozenset({1, 3, 4, 5, 7})
        assert rep.irrelevant == rep.relevant == frozenset()
