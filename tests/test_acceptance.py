"""Release gate for the package: seven checks, each printed as one
PASS line (run with -s to see them; -v shows the same via test names).

Every tolerance here is exact.  Budgets are pinned large enough that a
clean build passes with wide margin on ordinary hardware; the one
open-ended search (the 9x9 smoke test) skips rather than fails when its
budget runs out.
"""

import itertools

import pytest

from gridlinkage import (
    CALIBRATED_ARC_RULE_ID,
    CALIBRATED_S0_PLACEMENT,
    CalibrationError,
    Instance,
    STATUS_ABORTED,
    STATUS_SOLVABLE,
    brute_force_oracle,
    build_instance,
    calibrate_arc_rule,
    check_linkage,
    crossing_count,
    crossing_report,
    expected_crossing_profile,
    irrelevant_vertices,
    is_vital_linkage,
    make_grid,
    pathwidth_exact,
    random_batch,
    solve,
    spans_all_vertices,
    treewidth_exact,
    width_of_elimination_order,
    width_of_layout,
)
from oracles import (
    all_simple_paths_with_border_ends,
    connected_graphs,
    split_crossing_oracle,
)

RANDOM_SEED = 20260819
RANDOM_COUNT = 200
SMOKE_NODE_BUDGET = 2_000_000
SMOKE_TIME_BUDGET = 120.0


def pair_placements(n):
    """All one- and two-pair terminal placements on n vertices, one per
    unordered choice: singles are the 2-subsets, doubles the 4-subsets
    under their three perfect matchings."""
    for s, t in itertools.combinations(range(n), 2):
        yield [(s, t)]
    for a, b, c, d in itertools.combinations(range(n), 4):
        yield [(a, b), (c, d)]
        yield [(a, c), (b, d)]
        yield [(a, d), (b, c)]


def test_criterion_1_solver_matches_oracle():
    instances = 0
    for graph in connected_graphs(7):
        for pairs in pair_placements(graph.vertex_count):
            inst = Instance.make(graph, pairs)
            fast = solve(inst, mode="enumerate_all")
            slow = brute_force_oracle(inst)
            assert fast.status == slow.status, (graph, pairs)
            assert [s.paths for s in fast.solutions] == [
                s.paths for s in slow.solutions
            ], (graph, pairs)
            instances += 1
    randoms = 0
    for inst in random_batch(RANDOM_SEED, RANDOM_COUNT, max_vertices=12, max_pairs=3):
        fast = solve(inst, mode="enumerate_all")
        slow = brute_force_oracle(inst)
        assert fast.status == slow.status, inst
        assert [s.paths for s in fast.solutions] == [s.paths for s in slow.solutions]
        randoms += 1
    assert randoms >= 200
    print(f"criterion 1: PASS exhaustive {instances} + random {randoms} "
          f"instances, solver == oracle")


def test_criterion_2_unique_spanning_solution_with_doubling_crossings():
    try:
        result = calibrate_arc_rule(2)
    except CalibrationError as exc:
        lines = "\n".join(
            f"  {r.rule_id} / {r.s0_placement}: {'; '.join(r.violations)}"
            for r in exc.reports
        )
        pytest.fail(f"no arc rule candidate passes:\n{lines}")
    assert result.rule.identifier == CALIBRATED_ARC_RULE_ID
    assert result.s0_placement == CALIBRATED_S0_PLACEMENT
    for k in (1, 2):
        inst = build_instance(k, result.rule, result.s0_placement)
        out = solve(inst, mode="count_up_to", cap=2)
        assert out.status == STATUS_SOLVABLE
        assert len(out.solutions) == 1, f"k={k}: solution not unique"
        sol = out.solutions[0]
        assert spans_all_vertices(sol), f"k={k}: solution not spanning"
        report = crossing_report(sol.paths, inst.layout)
        assert report.total == 2**k - 1
        assert report.per_path == expected_crossing_profile(k)
    print(f"criterion 2: PASS calibrated rule {result.rule.identifier!r} "
          f"(s0 {result.s0_placement}); k=1,2 unique spanning, "
          f"crossings double per pair")


def test_criterion_3_no_vertex_is_irrelevant_at_k2():
    inst = build_instance(2, s0_placement=CALIBRATED_S0_PLACEMENT)
    report = irrelevant_vertices(inst)
    assert report.baseline_status == STATUS_SOLVABLE
    assert report.indeterminate == frozenset()
    assert report.irrelevant == frozenset()
    terminals = {v for pair in inst.pairs for v in pair}
    assert report.relevant == frozenset(range(25)) - terminals
    print(f"criterion 3: PASS k=2: deleting any of the "
          f"{len(report.relevant)} non-terminals breaks solvability")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_criterion_4_square_grid_widths(n):
    graph, _ = make_grid(n, n)
    tw = treewidth_exact(graph)
    pw = pathwidth_exact(graph)
    assert tw.exact and tw.value == n
    assert pw.exact and pw.value == n
    assert width_of_elimination_order(graph, tw.certificate) == n
    assert width_of_layout(graph, pw.certificate) == n
    print(f"criterion 4: PASS {n}x{n} grid treewidth = pathwidth = {n}, "
          f"certificates re-verify")


@pytest.mark.parametrize("k", [1, 2])
def test_criterion_5_width_bound_and_vital_solution(k, run_long):
    inst = build_instance(k, s0_placement=CALIBRATED_S0_PLACEMENT)
    bound = 2**k + 1
    tw = treewidth_exact(inst.graph)
    pw = pathwidth_exact(inst.graph)
    assert tw.exact and pw.exact
    assert tw.value >= bound and pw.value >= bound
    sol = solve(inst, mode="count_up_to", cap=1, require_spanning=True).solutions[0]
    budget = 10_000_000_000 if run_long else 50_000_000
    vital = is_vital_linkage(inst.graph, sol, max_nodes=budget)
    assert vital, f"k={k}: another linkage shares the pattern"
    print(f"criterion 5: PASS k={k}: treewidth {tw.value} and pathwidth "
          f"{pw.value} >= {bound}; unique solution is vital")


@pytest.mark.parametrize("side", [4, 5])
def test_criterion_6_crossing_equals_best_split(side):
    graph, layout = make_grid(side, side)
    paths = 0
    for path in all_simple_paths_with_border_ends(graph, layout, 11):
        assert crossing_count(path, layout) == split_crossing_oracle(path, layout)
        paths += 1
    print(f"criterion 6: PASS {side}x{side}: maximal-run count == best "
          f"split count on all {paths} border-ended paths")


def test_criterion_7_smoke_9x9():
    inst = build_instance(3, s0_placement=CALIBRATED_S0_PLACEMENT)
    out = solve(
        inst,
        mode="decide",
        order="min-degree",
        pair_order="auto",
        max_nodes=SMOKE_NODE_BUDGET,
        max_seconds=SMOKE_TIME_BUDGET,
    )
    if out.status == STATUS_ABORTED:
        pytest.skip(f"9x9 search budget exhausted ({out.nodes_explored} nodes)")
    assert out.status == STATUS_SOLVABLE
    sol = out.solutions[0]
    check_linkage(inst, sol.paths)
    report = crossing_report(sol.paths, inst.layout)
    print(f"criterion 7: PASS 9x9 decide in {out.nodes_explored} nodes; "
          f"crossing profile {report.per_path}, total {report.total}, "
          f"spanning {spans_all_vertices(sol)}")
