"""Instance generator: terminal placement, arcs, calibration."""

import time

import pytest

from gridlinkage import (
    CALIBRATED_ARC_RULE_ID,
    CALIBRATED_S0_PLACEMENT,
    CalibrationError,
    Instance,
    S0_BOTTOM_LEFT,
    S0_PLACEMENTS,
    S0_TOP_RIGHT,
    build_instance,
    calibrate_arc_rule,
    calibrated_rule,
    candidate_arc_rules,
    expected_crossing_profile,
    instance_digest,
    is_planar_certificate,
    make_grid,
    rule_by_identifier,
    serialize_instance,
    verify_instance,
)
from gridlinkage.construction import linkage_checks


def arc_edges(instance):
    side = 2 ** instance.meta_map["k"] + 1
    lattice = set(make_grid(side, side)[0].edges)
    return sorted(e for e in instance.graph.edges if e not in lattice)


class TestTerminalPlacement:
    def test_k1_default_corner(self):
        inst = build_instance(1)
        # pair 0 first, then pair i in index order; s before t
        assert inst.pairs == ((8, 6), (3, 5))

    def test_k1_calibrated_corner(self):
        inst = build_instance(1, s0_placement=S0_BOTTOM_LEFT)
        assert inst.pairs == ((0, 6), (3, 5))

    def test_k2_ids(self):
        inst = build_instance(2, s0_placement=S0_BOTTOM_LEFT)
        assert inst.pairs == ((0, 20), (10, 14), (5, 15))

    def test_k2_default_s0(self):
        inst = build_instance(2, s0_placement=S0_TOP_RIGHT)
        assert inst.pairs[0] == (24, 20)
        assert inst.pairs[1:] == ((10, 14), (5, 15))

    def test_terminal_labels(self):
        inst = build_instance(2, s0_placement=S0_BOTTOM_LEFT)
        assert inst.graph.label_map == {
            0: "s0",
            5: "s2",
            10: "s1",
            14: "t1",
            15: "t2",
            20: "t0",
        }

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_terminals_distinct(self, k):
        for placement in S0_PLACEMENTS:
            inst = build_instance(k, s0_placement=placement)
            terms = [v for pair in inst.pairs for v in pair]
            assert len(terms) == len(set(terms)) == 2 * (k + 1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sizes(self, k):
        inst = build_instance(k)
        side = 2**k + 1
        assert inst.graph.vertex_count == side * side
        assert len(inst.pairs) == k + 1

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            build_instance(0)

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError):
            build_instance(1, s0_placement="center")


class TestArcs:
    def test_k1_single_arc(self):
        inst = build_instance(1, s0_placement=S0_BOTTOM_LEFT)
        assert arc_edges(inst) == [(2, 8)]
        assert len(inst.graph.edges) == 13

    def test_k2_arcs(self):
        inst = build_instance(2, s0_placement=S0_BOTTOM_LEFT)
        # one left-border arc around t2, two nested right-border arcs
        assert arc_edges(inst) == [(4, 24), (9, 19), (10, 20)]
        assert len(inst.graph.edges) == 43

    def test_arc_count_formula(self):
        rule = calibrated_rule()
        for k in (1, 2, 3):
            inst = build_instance(k, rule=rule)
            want = sum(rule.arcs_for_terminal(k, i) for i in range(1, k + 1))
            assert len(arc_edges(inst)) == want

    def test_arcs_for_terminal_examples(self):
        assert rule_by_identifier("pow2").arcs_for_terminal(3, 2) == 2
        assert rule_by_identifier("pow2-minus-1").arcs_for_terminal(2, 2) == 0
        assert rule_by_identifier("pow2-plus-1").arcs_for_terminal(2, 2) == 2

    def test_arcs_for_terminal_range_check(self):
        rule = calibrated_rule()
        with pytest.raises(ValueError):
            rule.arcs_for_terminal(2, 0)
        with pytest.raises(ValueError):
            rule.arcs_for_terminal(2, 3)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_planar_under_every_candidate(self, k):
        built = 0
        for rule in candidate_arc_rules():
            try:
                inst = build_instance(k, rule=rule)
            except ValueError:
                # pow2-plus-1 pushes arcs past the border for small k;
                # an instance that cannot be built is not generated
                continue
            built += 1
            assert is_planar_certificate(inst.graph, inst.layout)
        assert built >= 2


class TestCalibration:
    def test_candidate_rules(self):
        idents = [r.identifier for r in candidate_arc_rules()]
        assert idents == ["pow2-minus-1", "pow2", "pow2-plus-1"]

    def test_unknown_identifier(self):
        with pytest.raises(ValueError):
            rule_by_identifier("pow3")

    def test_profile(self):
        assert expected_crossing_profile(1) == (0, 1)
        assert expected_crossing_profile(2) == (0, 1, 2)
        assert expected_crossing_profile(3) == (0, 1, 2, 4)

    def test_k1_calibration_passes(self):
        result = calibrate_arc_rule(1)
        assert result.rule.identifier == CALIBRATED_ARC_RULE_ID
        assert result.s0_placement == CALIBRATED_S0_PLACEMENT
        assert any(r.passed for r in result.reports)

    def test_losing_candidates_fail_alone(self):
        bad = rule_by_identifier("pow2-minus-1")
        with pytest.raises(CalibrationError) as exc:
            calibrate_arc_rule(1, rules=[bad])
        # one report per placement tried, each carrying violations
        assert len(exc.value.reports) == 3
        assert all(r.violations for r in exc.value.reports)

    def test_empty_candidate_set(self):
        with pytest.raises(ValueError):
            calibrate_arc_rule(1, rules=[])

    def test_bad_k_max(self):
        with pytest.raises(ValueError):
            calibrate_arc_rule(0)

    def test_meta_records_choice(self):
        inst = build_instance(2, s0_placement=S0_BOTTOM_LEFT)
        assert inst.meta_map["arc_rule"] == CALIBRATED_ARC_RULE_ID
        assert inst.meta_map["k"] == 2
        assert inst.meta_map["s0_placement"] == S0_BOTTOM_LEFT


class TestCheckBattery:
    def test_calibrated_instance_passes_every_check(self):
        rows = verify_instance(build_instance(2, s0_placement=S0_BOTTOM_LEFT))
        assert [name for name, _, _ in rows] == [
            "uniqueness", "spanning", "crossing profile", "crossing total",
            "no irrelevant vertices",
        ]
        assert {verdict for _, verdict, _ in rows} == {"PASS"}

    def test_calibration_reports_the_failing_rows(self):
        report = calibrate_arc_rule(1).reports[1]
        assert (report.rule_id, report.s0_placement) == ("pow2", S0_TOP_RIGHT)
        assert report.violations == (
            "k=1: uniqueness: solutions found: 2 (cap 2)",
            "k=1: spanning: covers 8/9 vertices",
            "k=1: crossing profile: got [0, 0], want [0, 1]",
            "k=1: crossing total: got 0, want 1",
        )

    def test_exhausted_budget_is_indeterminate(self):
        rows = linkage_checks(build_instance(2, s0_placement=S0_BOTTOM_LEFT), max_nodes=2)
        assert [verdict for _, verdict, _ in rows] == ["INDETERMINATE"] * 4

    def test_one_deadline_for_the_whole_battery(self):
        # The k = 3 count search cannot finish in a second; the sweep
        # then gets what is left of the same second, not a second own.
        instance = build_instance(3)
        start = time.monotonic()
        rows = verify_instance(instance, max_seconds=1.0)
        assert time.monotonic() - start < 1.5
        assert [verdict for _, verdict, _ in rows] == ["INDETERMINATE"] * 5

    def test_requires_k_and_layout(self):
        inst = build_instance(1, s0_placement=S0_BOTTOM_LEFT)
        for bare in (Instance.make(inst.graph, inst.pairs, inst.layout),
                     Instance.make(inst.graph, inst.pairs, None, inst.meta_map)):
            with pytest.raises(ValueError):
                verify_instance(bare)


class TestDeterminism:
    def test_identical_builds_serialize_identically(self):
        a = build_instance(2, s0_placement=S0_BOTTOM_LEFT)
        b = build_instance(2, s0_placement=S0_BOTTOM_LEFT)
        assert serialize_instance(a) == serialize_instance(b)
        assert instance_digest(a) == instance_digest(b)

    def test_placements_differ(self):
        a = build_instance(2, s0_placement=S0_BOTTOM_LEFT)
        b = build_instance(2, s0_placement=S0_TOP_RIGHT)
        assert instance_digest(a) != instance_digest(b)
