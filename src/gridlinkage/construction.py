"""Hard instances on square grids.

build_instance() places k+1 terminal pairs on the border of a
(2^k+1) x (2^k+1) grid and adds bypass arcs around the interior border
terminals, producing a family whose intended solution is unique, covers
every vertex, and crosses the grid interior a controlled number of
times (path i crossing 2^(i-1) times, 3, 7, ... in total).

verify_instance() is the package's one check battery, read off a
single exact count of the linkages (frontier.count_linkages): the count
decides uniqueness, the one linkage of a count of 1 the spanning and
crossing rows, and the vertices that every linkage uses the
no-irrelevant-vertex row.  The exact arc count per terminal and the
corner for s_0 are not forced by first principles, so both are kept as
enumerable candidates and pinned by calibrate_arc_rule(), which runs
verify_instance() on the small instances and keeps the unique candidate
passing every row.  The result of that calibration is frozen in
CALIBRATED_ARC_RULE_ID and CALIBRATED_S0_PLACEMENT, build_instance()'s
defaults; the test suite re-derives it from scratch, for k <= 4.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .frontier import count_linkages
from .graphs import (
    Graph,
    GridLayout,
    crossing_report,
    grid_vertex_id,
    make_grid,
    normalize_edge,
)
from .solver import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_TIME_BUDGET,
    Instance,
    STATUS_ABORTED,
    spans_all_vertices,
)

S0_TOP_RIGHT = "top-right"
S0_BOTTOM_RIGHT = "bottom-right"
S0_BOTTOM_LEFT = "bottom-left"
S0_PLACEMENTS = (S0_TOP_RIGHT, S0_BOTTOM_RIGHT, S0_BOTTOM_LEFT)


@dataclass(frozen=True)
class ArcRule:
    """How many nested bypass arcs to draw around border terminal i.

    Arc a of terminal i joins the border vertices a steps below and
    above it; the rule fixes the count as 2^(k-i) + offset.
    """

    identifier: str
    offset: int

    def arcs_for_terminal(self, k: int, i: int) -> int:
        if not 1 <= i <= k:
            raise ValueError(f"terminal index {i} outside 1..{k}")
        count = 2 ** (k - i) + self.offset
        if count < 0:
            raise ValueError(f"rule {self.identifier} yields negative arc count at i={i}")
        return count


def candidate_arc_rules() -> tuple[ArcRule, ...]:
    return (
        ArcRule("pow2-minus-1", -1),
        ArcRule("pow2", 0),
        ArcRule("pow2-plus-1", 1),
    )


# Pinned by calibrate_arc_rule(4); regenerated and asserted by the test
# suite, and used as defaults by build_instance() and the command line
# front end.
CALIBRATED_ARC_RULE_ID = "pow2"
CALIBRATED_S0_PLACEMENT = S0_BOTTOM_LEFT


def calibrated_rule() -> ArcRule:
    return rule_by_identifier(CALIBRATED_ARC_RULE_ID)


def rule_by_identifier(identifier: str) -> ArcRule:
    for rule in candidate_arc_rules():
        if rule.identifier == identifier:
            return rule
    raise ValueError(f"unknown arc rule {identifier!r}")


def build_instance(
    k: int,
    rule: ArcRule | None = None,
    s0_placement: str = CALIBRATED_S0_PLACEMENT,
) -> Instance:
    """Build the k-th grid instance: k+1 pairs, side length 2^k + 1.

    Left-border vertices are indexed bottom to top as n_0 .. n_{2^k};
    t_0 is the topmost one, pair i >= 2 sits at (n_{2^(k-i)},
    n_{3*2^(k-i)}), pair 1 runs to the middle of the right border, and
    s_0 occupies the corner named by s0_placement.  The defaults, the
    calibrated arc rule (rule=None) and corner, give the instance that
    `gridlinkage generate -k K` writes.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if s0_placement not in S0_PLACEMENTS:
        raise ValueError(f"unknown s0 placement {s0_placement!r}")
    if rule is None:
        rule = calibrated_rule()
    side = 2**k + 1
    graph, layout = make_grid(side, side)

    def left(j: int) -> int:
        if not 0 <= j < side:
            raise ValueError(f"left border index {j} out of range")
        return grid_vertex_id(j + 1, 1, side)

    def right(j: int) -> int:
        if not 0 <= j < side:
            raise ValueError(f"right border index {j} out of range")
        return grid_vertex_id(j + 1, side, side)

    t0 = left(2**k)
    s0 = {
        S0_TOP_RIGHT: right(2**k),
        S0_BOTTOM_RIGHT: right(0),
        S0_BOTTOM_LEFT: left(0),
    }[s0_placement]
    pairs: list[tuple[int, int]] = [(s0, t0), (left(2 ** (k - 1)), right(2 ** (k - 1)))]
    for i in range(2, k + 1):
        pairs.append((left(2 ** (k - i)), left(3 * 2 ** (k - i))))

    arcs: set[tuple[int, int]] = set()

    def add_arc(u: int, v: int) -> None:
        edge = normalize_edge(u, v)
        if edge in graph.edges or edge in arcs:
            raise ValueError(f"arc {edge} collides with an existing edge")
        arcs.add(edge)

    for a in range(1, rule.arcs_for_terminal(k, 1) + 1):
        add_arc(right(2 ** (k - 1) - a), right(2 ** (k - 1) + a))
    for i in range(2, k + 1):
        j = 3 * 2 ** (k - i)
        for a in range(1, rule.arcs_for_terminal(k, i) + 1):
            add_arc(left(j - a), left(j + a))

    labels: dict[int, str] = {}
    for idx, (s, t) in enumerate(pairs):
        labels[s] = f"s{idx}"
        labels[t] = f"t{idx}"
    full_graph = Graph.from_edges(side * side, set(graph.edges) | arcs, labels)
    meta = {
        "k": k,
        "arc_rule": rule.identifier,
        "s0_placement": s0_placement,
    }
    return Instance.make(full_graph, pairs, layout, meta)


def expected_crossing_profile(k: int) -> tuple[int, ...]:
    """Per-path grid crossing counts the construction is built to force."""
    return (0,) + tuple(2 ** (i - 1) for i in range(1, k + 1))


@dataclass(frozen=True)
class CandidateReport:
    rule_id: str
    s0_placement: str
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class CalibrationResult:
    rule: ArcRule
    s0_placement: str
    k_max: int
    reports: tuple[CandidateReport, ...]


class CalibrationError(RuntimeError):
    """No candidate combination survived the behavioral checks."""

    def __init__(self, k_max: int, reports: tuple[CandidateReport, ...]) -> None:
        lines = [f"no arc rule / s0 placement combination passes for k <= {k_max}:"]
        for report in reports:
            lines.append(f"  {report.rule_id} / {report.s0_placement}:")
            for violation in report.violations:
                lines.append(f"    - {violation}")
        super().__init__("\n".join(lines))
        self.reports = reports


def verify_instance(
    instance: Instance,
    max_nodes: int = DEFAULT_NODE_BUDGET,
    max_seconds: float = DEFAULT_TIME_BUDGET,
) -> list[tuple[str, str, str]]:
    """(name, verdict, detail) rows for uniqueness, spanning, crossing
    profile, crossing total and no irrelevant vertices, all read off one
    exact count (frontier.count_linkages).

    The spanning and crossing rows inspect the linkage, so they pass only
    when the count is 1.  A non-terminal v is irrelevant when deleting it
    leaves solvability as it was.  The count decides that without
    deleting anything: at count 0 every non-terminal is irrelevant, and
    otherwise exactly the non-terminals that some linkage avoids are (a
    linkage of G - v is a linkage of G that avoids v).  verdict is PASS,
    FAIL or INDETERMINATE (the count ran out of nodes, states or time;
    max_nodes bounds the states it expands).  Raises ValueError when the
    instance has no meta k or no grid layout.
    """
    k = instance.construction_k()
    if k is None:
        raise ValueError("instance has no construction parameter k to verify against")
    if instance.layout is None:
        raise ValueError("instance has no grid layout to count crossings against")
    result = count_linkages(instance, max_nodes=max_nodes, max_seconds=max_seconds)
    linkage_rows = ("spanning", "crossing profile", "crossing total")
    if result.status == STATUS_ABORTED:
        return [("uniqueness", "INDETERMINATE",
                 f"count exhausted its {result.limit} budget ({result.nodes} nodes, "
                 f"peak {result.peak_states} states)")] + [
            (name, "INDETERMINATE", "no verified solution") for name in linkage_rows
        ] + [("no irrelevant vertices", "INDETERMINATE", "no exact count")]
    checks = [("uniqueness", "PASS" if result.count == 1 else "FAIL",
               f"linkages: {result.count} (exact count)")]
    link = result.witness
    if link is None:
        detail = "no solution" if result.count == 0 else "no unique linkage"
        checks += [(name, "FAIL", detail) for name in linkage_rows]
    else:
        # Instance rejects inner terminals under a layout, so every
        # path's crossing count is defined.
        report = crossing_report(link.paths, instance.layout)
        want_profile = expected_crossing_profile(k)
        want_total = 2**k - 1
        checks += [
            ("spanning", "PASS" if spans_all_vertices(link) else "FAIL",
             f"covers {len(link.vertices())}/{instance.graph.vertex_count} vertices"),
            ("crossing profile", "PASS" if report.per_path == want_profile else "FAIL",
             f"got {list(report.per_path)}, want {list(want_profile)}"),
            ("crossing total", "PASS" if report.total == want_total else "FAIL",
             f"got {report.total}, want {want_total}"),
        ]
    terminals = {v for pair in instance.pairs for v in pair}
    used = result.used_by_all or frozenset()
    irrelevant = [v for v in range(instance.graph.vertex_count)
                  if v not in terminals and v not in used]
    checks.append(("no irrelevant vertices", "FAIL" if irrelevant else "PASS",
                   f"irrelevant: {irrelevant}"))
    return checks


def _check_candidate(
    rule: ArcRule,
    s0_placement: str,
    k: int,
    max_nodes: int,
    max_seconds: float,
) -> list[str]:
    try:
        instance = build_instance(k, rule, s0_placement)
    except ValueError as exc:
        return [f"k={k}: build failed: {exc}"]
    return [
        f"k={k}: {name}: {detail}"
        for name, verdict, detail in verify_instance(instance, max_nodes, max_seconds)
        if verdict != "PASS"
    ]


def calibrate_arc_rule(
    k_max: int = 2,
    max_nodes: int = DEFAULT_NODE_BUDGET,
    max_seconds: float = DEFAULT_TIME_BUDGET,
) -> CalibrationResult:
    """Find the arc rule (and s_0 corner) that realizes the intended
    behavior for every k <= k_max: a unique solution that spans all
    vertices with crossing profile 0, 1, 2, 4, ...

    Placements are tried in S0_PLACEMENTS order; within a placement
    every rule is checked against every verify_instance() row and the
    passing one is returned.
    Raises CalibrationError with the full per-candidate violation report
    when nothing passes.  max_nodes bounds each search; max_seconds is
    one deadline for the whole call, so each check gets what the ones
    before it left.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    deadline = time.monotonic() + max_seconds
    all_reports: list[CandidateReport] = []
    for placement in S0_PLACEMENTS:
        passing: list[ArcRule] = []
        for rule in candidate_arc_rules():
            violations: list[str] = []
            for k in range(1, k_max + 1):
                violations.extend(_check_candidate(
                    rule, placement, k, max_nodes, deadline - time.monotonic()
                ))
            all_reports.append(
                CandidateReport(rule.identifier, placement, tuple(violations))
            )
            if not violations:
                passing.append(rule)
        if passing:
            return CalibrationResult(passing[0], placement, k_max, tuple(all_reports))
    raise CalibrationError(k_max, tuple(all_reports))
