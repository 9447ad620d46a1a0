"""SVG and DOT output: deterministic text, structure reflects the instance."""

import hashlib

import pytest

from gridlinkage import (
    Graph,
    Instance,
    build_instance,
    make_grid,
    render_dot,
    render_svg,
    serialize_instance,
    solve,
)
from gridlinkage.construction import S0_BOTTOM_LEFT, S0_TOP_RIGHT


@pytest.fixture(scope="module")
def k2():
    inst = build_instance(2, s0_placement=S0_BOTTOM_LEFT)
    out = solve(inst, mode="count_up_to", cap=1, require_spanning=True)
    return inst, out.solutions[0]


class TestSvg:
    def test_deterministic(self, k2):
        inst, sol = k2
        assert render_svg(inst) == render_svg(inst)
        assert render_svg(inst, sol) == render_svg(inst, sol)

    def test_one_circle_per_vertex(self, k2):
        inst, _ = k2
        assert render_svg(inst).count("<circle") == inst.graph.vertex_count

    def test_terminal_labels(self, k2):
        inst, _ = k2
        svg = render_svg(inst)
        for name in ("s0", "t0", "s1", "t1", "s2", "t2"):
            assert f">{name}<" in svg

    def test_arcs_drawn_curved(self, k2):
        # 3 arc edges at k=2; lattice edges stay straight
        inst, _ = k2
        svg = render_svg(inst)
        assert svg.count("Q ") == 3

    def test_solution_overlay_adds_strokes(self, k2):
        inst, sol = k2
        bare = render_svg(inst)
        overlaid = render_svg(inst, sol)
        assert len(overlaid) > len(bare)
        # one colored pass per pair
        assert overlaid.count('stroke="#') - bare.count('stroke="#') == 3

    def test_requires_layout(self):
        from gridlinkage import Graph

        inst = Instance.make(Graph.from_edges(2, [(0, 1)]), [(0, 1)])
        with pytest.raises(ValueError):
            render_svg(inst)


class TestDot:
    def test_deterministic(self, k2):
        inst, sol = k2
        assert render_dot(inst, sol) == render_dot(inst, sol)

    def test_nodes_carry_roles_and_positions(self, k2):
        inst, _ = k2
        dot = render_dot(inst)
        assert dot.startswith("graph")
        assert dot.count("pos=") == inst.graph.vertex_count
        assert 'role="grid-inner"' in dot
        assert 'role="grid-border"' in dot

    def test_edge_kinds(self, k2):
        inst, _ = k2
        dot = render_dot(inst)
        assert dot.count('kind="arc"') == 3
        assert dot.count('kind="lattice"') == 40

    def test_solution_paints_edges(self, k2):
        inst, sol = k2
        dot = render_dot(inst, sol)
        assert dot.count("penwidth") == sum(len(p) - 1 for p in sol.paths)

    def test_requires_layout(self):
        from gridlinkage import Graph

        inst = Instance.make(Graph.from_edges(2, [(0, 1)]), [(0, 1)])
        with pytest.raises(ValueError):
            render_dot(inst)


# sha256[:16] of the instance document, and of its SVG and DOT with
# decide's first solution overlaid: everything the layout feeds.
BYTE_PINS = {
    (1, S0_BOTTOM_LEFT): ("966c645f140bc74a", "d73d2447c08c80f1", "c8fb17f09b1049ad"),
    (1, S0_TOP_RIGHT): ("f6d2bef19c9fc8f8", "db9ac607fe294634", "e942e60b62923b0f"),
    (2, S0_BOTTOM_LEFT): ("7ac84d7895bccfbe", "63185e5486e9fa8f", "b412b283fd438f42"),
    (2, S0_TOP_RIGHT): ("5e13c8280636df0b", "796cef88de263abe", "0f1658e56e0b29c1"),
    (3, S0_BOTTOM_LEFT): ("e51cdd1604d8e022", "f5bc5353f06278c2", "8de82388901b9772"),
    (3, S0_TOP_RIGHT): ("4e8a5e79f7abe068", "a4fb76e60731268b", "6915bb2b414de00a"),
}


@pytest.mark.parametrize("k, corner", sorted(BYTE_PINS))
def test_output_bytes_are_pinned(k, corner):
    inst = build_instance(k, s0_placement=corner)
    sol = solve(inst, mode="decide").solutions[0]
    texts = (serialize_instance(inst), render_svg(inst, sol), render_dot(inst, sol))
    assert tuple(hashlib.sha256(t.encode()).hexdigest()[:16] for t in texts) == BYTE_PINS[k, corner]


# sha256[:12] of DOT + SVG for the 3x3 grid with one extra edge: an arc
# around each side, and two edges whose cells share no border side,
# which draw as straight segments of kind "lattice".
EXTRA_EDGE_PINS = {
    (0, 4): "ec8d509d2cf6",
    (0, 2): "9858d17cb66b",
    (0, 6): "c1463c9c9d80",
    (2, 8): "3b8edfdb6273",
    (6, 8): "e9fb78c4f4f3",
    (0, 8): "1af54c814a9f",
}


@pytest.mark.parametrize("edge", sorted(EXTRA_EDGE_PINS))
def test_extra_edge_drawing_is_pinned(edge):
    graph, layout = make_grid(3, 3)
    inst = Instance.make(Graph.from_edges(9, set(graph.edges) | {edge}), [], layout)
    text = render_dot(inst) + render_svg(inst)
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == EXTRA_EDGE_PINS[edge]
