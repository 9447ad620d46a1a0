"""Frontier-DP linkage counts against exhaustive enumeration.

count_linkages() must count exactly what solve(enumerate_all) lists,
whatever order its vertices enter in, with or without require_spanning
and blocked vertices.  Its witness must be one of those linkages, the
vertices it says every linkage uses must be exactly those, and the edges
it says some linkage uses must be exactly the union of their edges.  A
budget or the state cap ends a run as aborted, never as a count.

solve() on an instance with a grid layout searches only the edges the
count says some linkage uses; it must return what the search on the
same graph without the layout returns, in the same order.
"""

import pytest

from gridlinkage import (
    S0_BOTTOM_LEFT,
    S0_PLACEMENTS,
    STATUS_ABORTED,
    STATUS_SOLVABLE,
    STATUS_UNSOLVABLE,
    Graph,
    Instance,
    build_instance,
    candidate_arc_rules,
    check_linkage,
    count_linkages,
    irrelevant_vertices,
    random_batch,
    solve,
    verify_instance,
)
from gridlinkage import frontier
from gridlinkage.construction import linkage_checks


def candidates():
    """Every buildable arc rule x s0 placement instance for k <= 2."""
    for k in (1, 2):
        for placement in S0_PLACEMENTS:
            for rule in candidate_arc_rules():
                try:
                    yield build_instance(k, rule, placement)
                except ValueError:
                    continue  # the rule pushes an arc past the border


def stripped(instance):
    """The same graph and pairs without the layout, which solve() then
    searches on every edge."""
    return Instance.make(instance.graph, instance.pairs)


def blockings(instance):
    """No blocked vertex, then each non-terminal blocked alone."""
    terminals = {v for pair in instance.pairs for v in pair}
    yield ()
    for v in range(instance.graph.vertex_count):
        if v not in terminals:
            yield (v,)


def edges_of(linkage):
    return {(min(u, v), max(u, v)) for path in linkage.paths for u, v in zip(path, path[1:])}


def assert_matches_enumeration(instance, require_spanning=False, blocked=()):
    result = count_linkages(instance, require_spanning=require_spanning, blocked=blocked)
    every = solve(stripped(instance), mode="enumerate_all",
                  require_spanning=require_spanning, blocked=blocked)
    assert result.count == len(every.solutions)
    assert result.used_by_some == set().union(*map(edges_of, every.solutions))
    if result.count:
        assert result.status == STATUS_SOLVABLE
        check_linkage(instance, result.witness.paths)
        assert result.witness in every.solutions
        assert result.used_by_all == frozenset.intersection(
            *(link.vertices() for link in every.solutions))
    else:
        assert (result.status, result.witness, result.used_by_all) == (
            STATUS_UNSOLVABLE, None, None)
    return result


class TestCounts:
    def test_every_candidate_at_k_up_to_2(self):
        built = list(candidates())
        assert len(built) == 12
        counts = set()
        for instance in built:
            for spanning in (False, True):
                for blocked in blockings(instance):
                    counts.add(assert_matches_enumeration(instance, spanning, blocked).count)
            # Without a layout the vertices enter in a greedy order: the
            # order sets the frontier, never the count.
            assert_matches_enumeration(stripped(instance))
        assert {0, 1} < counts

    def test_random_batch(self):
        for instance in random_batch(11, 400):
            for spanning in (False, True):
                for blocked in blockings(instance):
                    assert_matches_enumeration(instance, spanning, blocked)

    def test_vertices_without_edges(self):
        graph = Graph.from_edges(3, [(0, 1)])
        for pairs in ([(0, 1)], [(0, 2)], []):
            for spanning in (False, True):
                assert_matches_enumeration(Instance.make(graph, pairs), spanning)

    def test_blocked_is_validated(self):
        instance = build_instance(1, s0_placement=S0_BOTTOM_LEFT)
        with pytest.raises(ValueError, match="terminals cannot be blocked"):
            count_linkages(instance, blocked=instance.pairs[0])
        with pytest.raises(ValueError, match="out of range"):
            count_linkages(instance, blocked=(instance.graph.vertex_count,))

    def test_k3_has_one_linkage(self):
        instance = build_instance(3, s0_placement=S0_BOTTOM_LEFT)
        result = count_linkages(instance)
        assert (result.count, result.nodes, result.peak_states) == (1, 31048, 448)
        check_linkage(instance, result.witness.paths, require_spanning=True)
        assert result.used_by_all == result.witness.vertices()
        assert result.used_by_some == edges_of(result.witness)


class TestBudgets:
    def assert_aborted(self, result, limit):
        assert (result.status, result.count, result.witness, result.used_by_all,
                result.used_by_some, result.limit) == (
                    STATUS_ABORTED, None, None, None, None, limit)

    def test_node_budget(self):
        result = count_linkages(build_instance(2, s0_placement=S0_BOTTOM_LEFT), max_nodes=2)
        self.assert_aborted(result, "nodes")
        assert result.nodes <= 2

    def test_deadline(self):
        instance = build_instance(2, s0_placement=S0_BOTTOM_LEFT)
        self.assert_aborted(count_linkages(instance, max_seconds=0), "seconds")

    def test_state_cap_bounds_memory(self, monkeypatch):
        # A step at most doubles the live states, so a run never holds
        # more than twice the cap.
        monkeypatch.setattr(frontier, "MAX_STATES", 100)
        instance = build_instance(3, s0_placement=S0_BOTTOM_LEFT)
        result = count_linkages(instance)
        self.assert_aborted(result, "states")
        assert 100 < result.peak_states <= 200
        assert {verdict for _, verdict, _ in linkage_checks(instance)} == {"INDETERMINATE"}


def answers(outcome):
    return outcome.status, [link.paths for link in outcome.solutions]


# Every mode, and the canonical and the heuristic search orders.
MODES = (("decide", None), ("count_up_to", 2), ("enumerate_all", None))
ORDERS = (("ascending", "input"), ("min-degree", "auto"))


class TestEdgeFilter:
    def test_same_solutions_as_the_full_search(self):
        compared = 0
        for instance in candidates():
            for blocked in blockings(instance):
                for spanning in (False, True):
                    for order, pair_order in ORDERS:
                        for mode, cap in MODES:
                            settings = dict(mode=mode, cap=cap, require_spanning=spanning,
                                            blocked=blocked, order=order,
                                            pair_order=pair_order)
                            assert answers(solve(instance, **settings)) == answers(
                                solve(stripped(instance), **settings))
                            compared += 1
        assert compared == 1872

    def test_state_cap_falls_back_to_the_full_search(self, monkeypatch):
        monkeypatch.setattr(frontier, "MAX_STATES", 2)
        stopped = 0
        for instance in candidates():
            for spanning in (False, True):
                stopped += count_linkages(instance, require_spanning=spanning).limit == "states"
                for mode, cap in MODES:
                    out = solve(instance, mode, cap, spanning)
                    assert out.status != STATUS_ABORTED
                    assert answers(out) == answers(
                        solve(stripped(instance), mode, cap, spanning))
        # Every edge of the bottom-left instances is forced: their counts
        # never hold more than one state, so the cap cannot stop them.
        assert stopped == 16

    def test_node_budget_is_shared_with_the_count(self):
        # The count alone needs 31,048 nodes at k = 3 and the full search
        # 376,823: the search after a count stopped by the node budget
        # gets only what is left of it.  (test_io_cli checks the same for
        # the deadline at k = 4.)
        out = solve(build_instance(3, s0_placement=S0_BOTTOM_LEFT), max_nodes=20_000)
        assert (out.status, out.solutions, out.nodes_explored) == (STATUS_ABORTED, (), 20_001)


def test_irrelevant_row_equals_the_sweep():
    # The count decides the row without deleting anything; it must say
    # what the deletion sweep says, at every count seen.
    counts = set()
    for instance in candidates():
        counts.add(count_linkages(instance).count)
        report = irrelevant_vertices(instance)
        assert verify_instance(instance)[-1] == (
            "no irrelevant vertices",
            "FAIL" if report.irrelevant else "PASS",
            f"irrelevant: {sorted(report.irrelevant)}",
        )
    assert {0, 1} < counts
