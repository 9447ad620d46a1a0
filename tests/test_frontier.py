"""Frontier-DP linkage counts against exhaustive enumeration.

count_linkages() must count exactly what solve(enumerate_all) lists,
whatever order its vertices enter in, its witness must be one of those
linkages, and the vertices it says every linkage uses must be exactly
those.  A budget or the state cap ends a run as aborted, never as a
count.
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


def assert_matches_enumeration(instance):
    result = count_linkages(instance)
    every = solve(instance, mode="enumerate_all")
    assert result.count == len(every.solutions)
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
            counts.add(assert_matches_enumeration(instance).count)
            # Without a layout the vertices enter by number: the order
            # sets the frontier, never the count.
            assert_matches_enumeration(Instance.make(instance.graph, instance.pairs))
        assert {0, 1} < counts

    def test_random_batch(self):
        for instance in random_batch(11, 400):
            assert_matches_enumeration(instance)

    def test_vertices_without_edges(self):
        graph = Graph.from_edges(3, [(0, 1)])
        for pairs in ([(0, 1)], [(0, 2)], []):
            assert_matches_enumeration(Instance.make(graph, pairs))

    def test_k3_has_one_linkage(self):
        instance = build_instance(3, s0_placement=S0_BOTTOM_LEFT)
        result = count_linkages(instance)
        assert (result.count, result.nodes, result.peak_states) == (1, 31048, 448)
        check_linkage(instance, result.witness.paths, require_spanning=True)
        assert result.used_by_all == result.witness.vertices()


class TestBudgets:
    def assert_aborted(self, result, limit):
        assert (result.status, result.count, result.witness, result.used_by_all,
                result.limit) == (STATUS_ABORTED, None, None, None, limit)

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
