"""Frontier-DP linkage counts against exhaustive enumeration.

count_linkages() must count exactly what solve(enumerate_all) lists,
whatever order its vertices enter in, with or without require_spanning,
and with each non-terminal deleted in turn.  Its witness must be the
one linkage when there is one and None otherwise, the vertices it says
every linkage uses must be exactly those, and the edges it says some
linkage uses must be exactly the union of their edges.  A budget or
the state cap ends a run as aborted, never as a count.

solve() on an instance with a grid layout searches only the edges the
count says some linkage uses; it must return what the search on the
same graph without the layout returns, in the same order.

On a layout the count prunes states that no completion reaches; with
the prunes run on every layout it must return exactly what it returns
with none, and the layout-stripped count stays the independent
reference.
"""

import dataclasses
import math
import random
import sys
import types

import pytest

from gridlinkage import (
    S0_BOTTOM_LEFT,
    S0_BOTTOM_RIGHT,
    S0_PLACEMENTS,
    S0_TOP_RIGHT,
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
    make_grid,
    random_batch,
    rule_by_identifier,
    solve,
    verify_instance,
)
from gridlinkage import frontier
from gridlinkage.graphs import grid_vertex_id


def candidates(ks=(1, 2)):
    """Every buildable arc rule x s0 placement instance for k in ks."""
    for k in ks:
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


def deletions(instance):
    """The instance, then the instance with each non-terminal's edges
    deleted in turn.  Only counts without require_spanning delete: a
    spanning count of an instance with an isolated vertex is 0."""
    terminals = {v for pair in instance.pairs for v in pair}
    yield instance
    graph = instance.graph
    for v in range(graph.vertex_count):
        if v not in terminals:
            edges = frozenset(e for e in graph.edges if v not in e)
            yield dataclasses.replace(instance, graph=dataclasses.replace(graph, edges=edges))


def edges_of(linkage):
    return {(min(u, v), max(u, v)) for path in linkage.paths for u, v in zip(path, path[1:])}


def assert_matches_enumeration(instance, require_spanning=False):
    result = count_linkages(instance, require_spanning=require_spanning)
    every = solve(stripped(instance), mode="enumerate_all", require_spanning=require_spanning)
    assert result.count == len(every.solutions)
    assert result.used_by_some == set().union(*map(edges_of, every.solutions))
    if result.count == 1:
        check_linkage(instance, result.witness.paths)
        assert every.solutions == (result.witness,)
    else:
        assert result.witness is None
    if result.count:
        assert result.status == STATUS_SOLVABLE
        assert result.used_by_all == frozenset.intersection(
            *(link.vertices() for link in every.solutions))
    else:
        assert (result.status, result.used_by_all) == (STATUS_UNSOLVABLE, None)
    return result


# (count, nodes, peak_states) of every k = 3 and k = 4 candidate that
# builds, by (k, arc rule, s0 placement, require_spanning).  Only
# pow2 / bottom-left has one linkage, and the two k = 4 top-right
# counts of 2,356,779 linkages are the largest here.
CANDIDATE_COUNTS = {
    (3, "pow2-minus-1", "top-right", False): (835, 1221, 17),
    (3, "pow2-minus-1", "top-right", True): (0, 404, 5),
    (3, "pow2", "top-right", False): (835, 1414, 18),
    (3, "pow2", "top-right", True): (0, 471, 7),
    (3, "pow2-minus-1", "bottom-right", False): (0, 1175, 17),
    (3, "pow2-minus-1", "bottom-right", True): (0, 398, 5),
    (3, "pow2", "bottom-right", False): (323, 1223, 18),
    (3, "pow2", "bottom-right", True): (14, 428, 7),
    (3, "pow2-minus-1", "bottom-left", False): (0, 134, 3),
    (3, "pow2-minus-1", "bottom-left", True): (0, 134, 3),
    (3, "pow2", "bottom-left", False): (1, 167, 9),
    (3, "pow2", "bottom-left", True): (1, 164, 7),
    (4, "pow2-minus-1", "top-right", False): (2_356_779, 9566, 270),
    (4, "pow2-minus-1", "top-right", True): (0, 2834, 73),
    (4, "pow2", "top-right", False): (2_356_779, 33_196, 9602),
    (4, "pow2", "top-right", True): (0, 6445, 1030),
    (4, "pow2-minus-1", "bottom-right", False): (0, 9411, 270),
    (4, "pow2-minus-1", "bottom-right", True): (0, 2820, 73),
    (4, "pow2", "bottom-right", False): (853_467, 30_912, 9602),
    (4, "pow2", "bottom-right", True): (1430, 5869, 1030),
    (4, "pow2-minus-1", "bottom-left", False): (0, 822, 135),
    (4, "pow2-minus-1", "bottom-left", True): (0, 724, 73),
    (4, "pow2", "bottom-left", False): (1, 11_620, 4801),
    (4, "pow2", "bottom-left", True): (1, 3773, 1030),
}


class TestCounts:
    def test_every_candidate_at_k_up_to_2(self):
        built = list(candidates())
        assert len(built) == 12
        counts = set()
        for instance in built:
            for each in deletions(instance):
                counts.add(assert_matches_enumeration(each).count)
            counts.add(assert_matches_enumeration(instance, True).count)
            # Without a layout the vertices enter in each component's
            # greedy pathwidth layout: the order sets the frontier, never
            # the count.
            assert_matches_enumeration(stripped(instance))
        assert {0, 1} < counts

    def test_random_batch(self):
        for instance in random_batch(11, 400):
            for each in deletions(instance):
                assert_matches_enumeration(each)
            assert_matches_enumeration(instance, True)

    def test_vertices_without_edges(self):
        graph = Graph.from_edges(3, [(0, 1)])
        for pairs in ([(0, 1)], [(0, 2)], []):
            for spanning in (False, True):
                assert_matches_enumeration(Instance.make(graph, pairs), spanning)

    def test_every_candidate_at_k3_and_k4_pinned(self):
        got = {}
        for instance in candidates((3, 4)):
            meta = dict(instance.meta)
            for spanning in (False, True):
                result = count_linkages(instance, require_spanning=spanning)
                key = (meta["k"], meta["arc_rule"], meta["s0_placement"], spanning)
                got[key] = (result.count, result.nodes, result.peak_states)
        assert got == CANDIDATE_COUNTS

    def test_k3_has_one_linkage(self):
        instance = build_instance(3, s0_placement=S0_BOTTOM_LEFT)
        result = count_linkages(instance)
        assert (result.count, result.nodes, result.peak_states) == (1, 167, 9)
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
        # Without a layout the greedy layout reads the same deadline, and
        # the count stops at its first step.
        instance = build_instance(2, s0_placement=S0_BOTTOM_LEFT)
        for each in (instance, stripped(instance)):
            self.assert_aborted(count_linkages(each, max_seconds=0), "seconds")

    def test_state_cap_bounds_memory(self, monkeypatch):
        # A step at most doubles the live states, so a run never holds
        # more than twice the cap.  The k = 4 count peaks at 4,801 states.
        monkeypatch.setattr(frontier, "MAX_STATES", 100)
        instance = build_instance(4, s0_placement=S0_BOTTOM_LEFT)
        result = count_linkages(instance)
        self.assert_aborted(result, "states")
        assert 100 < result.peak_states <= 200
        assert {verdict for _, verdict, _ in verify_instance(instance)} == {"INDETERMINATE"}

    def test_state_cap_inside_a_step(self, monkeypatch):
        # The cap is also read every 4,096 expansions inside a step: the
        # k = 4 top-right count passes 5,750 states inside the step in
        # which it expands its 12,288th state.
        monkeypatch.setattr(frontier, "MAX_STATES", 5750)
        result = count_linkages(build_instance(4, s0_placement=S0_TOP_RIGHT))
        self.assert_aborted(result, "states")
        assert (result.nodes, result.peak_states) == (12_288, 9_325)

    def test_deadline_inside_a_step(self, monkeypatch):
        # The clock is also read every 4,096 expansions inside a step.
        # This one reads past the deadline only there, so the k = 4 count
        # stops at its 4,096th expansion, in the middle of a step.
        def clock():
            nodes = sys._getframe(1).f_locals.get("nodes", 0)
            return math.inf if nodes and not nodes % 4096 else 0.0

        monkeypatch.setattr(frontier, "time", types.SimpleNamespace(monotonic=clock))
        result = count_linkages(build_instance(4))
        self.assert_aborted(result, "seconds")
        assert result.nodes == 4096


def answer(result):
    return (result.status, result.count, result.witness, result.used_by_all,
            result.used_by_some)


def plain_and_pruned(monkeypatch, instance, **settings):
    """The count with no prune and with the prunes on every layout; both
    sweep the layout column by column."""
    monkeypatch.setattr(frontier, "PRUNE_MIN_ROWS", sys.maxsize)
    plain = count_linkages(instance, **settings)
    monkeypatch.setattr(frontier, "PRUNE_MIN_ROWS", 1)
    pruned = count_linkages(instance, **settings)
    monkeypatch.undo()
    assert plain.status != STATUS_ABORTED
    return plain, pruned


def random_grid_rows(seed, count):
    """Grids of 2x3 to 6x7 with nested bypass arcs in the first and last
    columns and one to four pairs of border terminals."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(2, 6), rng.randint(3, 7)
        graph, layout = make_grid(rows, cols)
        edges = set(graph.edges)
        for col in (1, cols):
            spans = []
            for _ in range(rng.randint(0, 3)):
                a, b = sorted(rng.sample(range(1, rows + 1), 2))
                if b - a > 1 and not any(a < c < b < d or c < a < d < b for c, d in spans):
                    spans.append((a, b))
                    edges.add((grid_vertex_id(a, col, cols), grid_vertex_id(b, col, cols)))
        border = [v for v in range(rows * cols) if not layout.is_inner(v)]
        ends = rng.sample(border, 2 * rng.randint(1, min(4, len(border) // 2)))
        pairs = list(zip(ends[::2], ends[1::2]))
        yield Instance.make(Graph.from_edges(rows * cols, edges), pairs, layout)


def motzkin(n):
    """The Motzkin number M_n, from its recurrence."""
    m = [1, 1]
    for i in range(2, n + 1):
        m.append(((2 * i + 1) * m[i - 1] + (3 * i - 3) * m[i - 2]) // (i + 2))
    return m[n]


class TestPrunes:
    """The degree prune and the non-crossing test drop only states with
    no completion: every answer equals the count without them."""

    def test_every_candidate_at_k_up_to_3(self, monkeypatch):
        plain_nodes = pruned_nodes = compared = 0
        for instance in candidates((1, 2, 3)):
            for spanning in (False, True):
                plain, pruned = plain_and_pruned(monkeypatch, instance,
                                                 require_spanning=spanning)
                assert answer(pruned) == answer(plain)
                assert pruned.peak_states <= plain.peak_states
                plain_nodes += plain.nodes
                pruned_nodes += pruned.nodes
                # The greedy layout finishes every k <= 2 graph and the
                # pow2-minus-1 graphs at k = 3 inside this budget; the
                # pow2 graphs at k = 3 rest on the plain count alone.
                reference = count_linkages(stripped(instance), max_nodes=150_000,
                                           require_spanning=spanning)
                if reference.status != STATUS_ABORTED:
                    compared += 1
                    assert answer(pruned) == answer(reference)
        assert (plain_nodes, pruned_nodes) == (1_031_057, 8_719)
        assert compared == 24 + 6

    def test_deleted_vertices(self, monkeypatch):
        for instance in candidates():
            for each in deletions(instance):
                plain, pruned = plain_and_pruned(monkeypatch, each)
                assert answer(pruned) == answer(plain)

    def test_random_grid_rows(self, monkeypatch):
        plain_nodes = pruned_nodes = compared = 0
        for instance in random_grid_rows(16, 200):
            for spanning in (False, True):
                plain, pruned = plain_and_pruned(monkeypatch, instance,
                                                 require_spanning=spanning)
                assert answer(pruned) == answer(plain)
                plain_nodes += plain.nodes
                pruned_nodes += pruned.nodes
                # The layout-stripped count is the independent reference,
                # and its greedy layout finishes every row inside this
                # budget.
                reference = count_linkages(stripped(instance), max_nodes=100_000,
                                           require_spanning=spanning)
                if reference.status != STATUS_ABORTED:
                    compared += 1
                    assert answer(pruned) == answer(reference)
        assert compared == 400
        assert (plain_nodes, pruned_nodes) == (478_464, 367_024)

    def test_motzkin_counts(self):
        # Top-right counts M_(2^k+1) and bottom-right counts M_(2^k)
        # linkages.  No count reaches k = 4 without the prunes.
        pow2 = rule_by_identifier("pow2")
        for k in (1, 2, 3, 4):
            for placement, n in ((S0_TOP_RIGHT, 2**k + 1), (S0_BOTTOM_RIGHT, 2**k)):
                assert count_linkages(build_instance(k, pow2, placement)).count == motzkin(n)
        assert [motzkin(n) for n in (16, 17)] == [853467, 2356779]

    def test_a_free_terminal_is_an_end(self):
        # A terminal still at degree 0 is an end with its own pair label;
        # read as no end, it leaves its partner's end unmatched and the one
        # linkage is pruned.
        assert count_linkages(build_instance(3, s0_placement=S0_BOTTOM_LEFT)).count == 1

    def test_a_free_non_terminal_is_no_end(self, monkeypatch):
        # A label is tested with < _FREE.  _FREE (0) lies below _DONE (1),
        # so a test written < _DONE, like one that reads every free slot as
        # an end, takes each unused non-terminal for an end and prunes all
        # four linkages.
        monkeypatch.setattr(frontier, "PRUNE_MIN_ROWS", 1)
        assert count_linkages(build_instance(1, s0_placement=S0_TOP_RIGHT)).count == 4

    @pytest.mark.parametrize("ends,wild,verdict", [
        ((), (), True),
        ((-1, -2), (), False),  # two pairs, no terminal to come
        ((-1, -2), ((-1, 1), (-2, 1)), True),
        ((-1, -2, -1, -2), (), False),  # the joins would cross
        ((-1, -2, -2, -1), (), True),
        ((1, 0), (), False),  # a fragment without terminals closes on itself
        ((1, 0), ((-1, 2),), True),  # it runs between pair 1's two terminals
        ((1, 0), ((-1, 1),), False),  # one terminal to come takes one end
        ((-1, 2, 1, -1), (), True),  # pair 1 joined through the fragment
        ((-1, 2, 1, -2), (), False),  # the fragment would join two pairs
    ])
    def test_completion_verdicts(self, ends, wild, verdict):
        # An end is a pair label, or the index of its fragment's other end.
        assert frontier._completable(ends, wild) is verdict

    def test_crossing_arcs_turn_the_test_off(self, monkeypatch):
        # The arcs 2-8 and 5-11 of this 4x3 grid interleave beside its
        # last column, so no disc holds the undecided part: the one
        # linkage crosses from row 1 to row 3 and from row 2 to row 4.
        graph, layout = make_grid(4, 3)
        instance = Instance.make(Graph.from_edges(12, set(graph.edges) | {(2, 8), (5, 11)}),
                                 [(9, 1), (10, 0)], layout)
        for spanning in (False, True):
            plain, pruned = plain_and_pruned(monkeypatch, instance, require_spanning=spanning)
            assert answer(pruned) == answer(plain)
            assert pruned.count == 1


def answers(outcome):
    return outcome.status, [link.paths for link in outcome.solutions]


# Every mode, and the canonical and the heuristic search orders.
MODES = (("decide", None), ("count_up_to", 2), ("enumerate_all", None))
ORDERS = (("ascending", "input"), ("min-degree", "auto"))


class TestEdgeFilter:
    def test_same_solutions_as_the_full_search(self):
        compared = 0
        for instance in candidates():
            runs = [(each, False) for each in deletions(instance)] + [(instance, True)]
            for each, spanning in runs:
                for order, pair_order in ORDERS:
                    for mode, cap in MODES:
                        settings = dict(mode=mode, cap=cap, require_spanning=spanning,
                                        order=order, pair_order=pair_order)
                        assert answers(solve(each, **settings)) == answers(
                            solve(stripped(each), **settings))
                        compared += 1
        assert compared == 1008

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
        # The count alone needs 11,620 nodes at k = 4: the search after a
        # count stopped by the node budget gets only what is left of it.
        # (test_io_cli checks the same for the deadline at k = 5.)
        out = solve(build_instance(4, s0_placement=S0_BOTTOM_LEFT), max_nodes=5_000)
        assert (out.status, out.solutions, out.nodes_explored) == (STATUS_ABORTED, (), 5_001)


def test_irrelevant_row_equals_the_sweep():
    # The count decides the row without deleting anything; it must say
    # what the deletion sweep says, at every count seen and on the
    # calibrated k = 3 instance.
    counts = set()
    for instance in [*candidates(), build_instance(3)]:
        counts.add(count_linkages(instance).count)
        report = irrelevant_vertices(instance)
        assert verify_instance(instance)[-1] == (
            "no irrelevant vertices",
            "FAIL" if report.irrelevant else "PASS",
            f"irrelevant: {sorted(report.irrelevant)}",
        )
    assert {0, 1} < counts
