"""Grid construction and crossing counts."""

import itertools

import pytest

from gridlinkage import (
    Graph,
    GridLayout,
    ROLE_BORDER,
    ROLE_INNER,
    crossing_count,
    crossing_report,
    grid_vertex_id,
    inner_vertices,
    is_planar_certificate,
    make_grid,
    validate_path,
)
from oracles import (
    all_simple_paths_with_border_ends,
    split_crossing_exhaustive,
    split_crossing_oracle,
)


def grid_degrees(graph):
    deg = [0] * graph.vertex_count
    for u, v in graph.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


class TestMakeGrid:
    def test_single_vertex(self):
        graph, layout = make_grid(1, 1)
        assert graph.vertex_count == 1
        assert len(graph.edges) == 0
        assert layout.rows == 1 and layout.cols == 1

    def test_3x3_counts(self):
        graph, _ = make_grid(3, 3)
        assert graph.vertex_count == 9
        assert len(graph.edges) == 12

    def test_5x5_counts(self):
        graph, layout = make_grid(5, 5)
        assert graph.vertex_count == 25
        assert len(graph.edges) == 40
        assert len(inner_vertices(layout)) == 9

    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 7), (3, 3), (4, 6), (5, 5)])
    def test_degrees_grid(self, rows, cols):
        # Corner 2, edge 3, interior 4.  Holds once both dimensions
        # are at least 2; a single row or column has degree-1 ends.
        graph, _ = make_grid(rows, cols)
        assert set(grid_degrees(graph)) <= {2, 3, 4}

    def test_degree_claim_fails_below_2(self):
        graph, _ = make_grid(1, 4)
        assert 1 in grid_degrees(graph)

    def test_edge_count_formula(self):
        for rows, cols in [(1, 1), (1, 5), (2, 2), (3, 4), (6, 6)]:
            graph, _ = make_grid(rows, cols)
            assert len(graph.edges) == rows * (cols - 1) + cols * (rows - 1)

    def test_vertex_ids_row_major_from_bottom(self):
        assert grid_vertex_id(1, 1, 5) == 0
        assert grid_vertex_id(1, 5, 5) == 4
        assert grid_vertex_id(3, 3, 5) == 12
        assert grid_vertex_id(5, 1, 5) == 20

    def test_layout_cells_match_ids(self):
        _, layout = make_grid(4, 3)
        for v, (r, c) in layout.cells.items():
            assert grid_vertex_id(r, c, layout.cols) == v

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            make_grid(0, 3)
        with pytest.raises(ValueError):
            make_grid(3, -1)


class TestInnerVertices:
    def test_3x3(self):
        _, layout = make_grid(3, 3)
        assert inner_vertices(layout) == frozenset({4})

    def test_2x5_has_none(self):
        _, layout = make_grid(2, 5)
        assert inner_vertices(layout) == frozenset()

    def test_5x5_coordinates(self):
        _, layout = make_grid(5, 5)
        want = {
            grid_vertex_id(r, c, 5)
            for r in (2, 3, 4)
            for c in (2, 3, 4)
        }
        assert inner_vertices(layout) == frozenset(want)

    def test_roles_agree(self):
        _, layout = make_grid(4, 4)
        inner = inner_vertices(layout)
        for v, role in layout.roles.items():
            if v in inner:
                assert role == ROLE_INNER
            else:
                assert role == ROLE_BORDER


class TestValidatePath:
    def test_accepts_simple_path(self):
        graph, _ = make_grid(3, 3)
        validate_path(graph, (0, 1, 2, 5))

    def test_rejects_repeat(self):
        graph, _ = make_grid(3, 3)
        with pytest.raises(ValueError):
            validate_path(graph, (0, 1, 0))

    def test_rejects_non_edge_step(self):
        graph, _ = make_grid(3, 3)
        with pytest.raises(ValueError):
            validate_path(graph, (0, 4))

    def test_rejects_unknown_vertex(self):
        graph, _ = make_grid(3, 3)
        with pytest.raises(ValueError):
            validate_path(graph, (0, 1, 99))

    def test_rejects_empty(self):
        graph, _ = make_grid(3, 3)
        with pytest.raises(ValueError):
            validate_path(graph, ())

    def test_single_vertex_ok(self):
        graph, _ = make_grid(3, 3)
        validate_path(graph, (4,))


class TestCrossingCount:
    def test_middle_row_crosses_once(self):
        _, layout = make_grid(3, 3)
        assert crossing_count((3, 4, 5), layout) == 1

    def test_boundary_path_never_crosses(self):
        _, layout = make_grid(3, 3)
        assert crossing_count((0, 1, 2, 5, 8), layout) == 0

    def test_inner_endpoint_undefined(self):
        _, layout = make_grid(3, 3)
        assert crossing_count((4, 5), layout) is None
        assert crossing_count((3, 4), layout) is None

    def test_two_separate_runs(self):
        # Dips into the interior twice with a border stop between.
        _, layout = make_grid(5, 5)
        path = (1, 6, 11, 10, 15, 16, 17, 22)
        assert crossing_count(path, layout) == 2

    def test_reversal_invariant(self):
        _, layout = make_grid(5, 5)
        path = (1, 6, 11, 10, 15, 16, 17, 22)
        assert crossing_count(path[::-1], layout) == crossing_count(path, layout)

    def test_single_border_vertex(self):
        _, layout = make_grid(3, 3)
        assert crossing_count((0,), layout) == 0

    def test_report_totals(self):
        _, layout = make_grid(3, 3)
        report = crossing_report([(0, 1, 2), (3, 4, 5)], layout)
        assert report.per_path == (0, 1)
        assert report.total == 1
        assert report.undefined_paths == frozenset()
        assert report.all_defined()

    def test_report_flags_undefined(self):
        _, layout = make_grid(3, 3)
        report = crossing_report([(4, 5)], layout)
        assert report.per_path == (None,)
        assert report.undefined_paths == frozenset({0})
        assert not report.all_defined()


class TestCrossingOracle:
    """crossing_count must equal the best split into border-to-border
    subpaths that each contain an inner vertex."""

    def test_matches_dp_oracle_3x3(self):
        graph, layout = make_grid(3, 3)
        for path in all_simple_paths_with_border_ends(graph, layout, 9):
            assert crossing_count(path, layout) == split_crossing_oracle(path, layout)

    def test_dp_oracle_matches_exhaustive(self):
        # The exhaustive splitter is tiny but slow; check it agrees
        # with the DP on short 4x4 paths, then trust the DP elsewhere.
        graph, layout = make_grid(4, 4)
        for path in all_simple_paths_with_border_ends(graph, layout, 7):
            assert split_crossing_oracle(path, layout) == split_crossing_exhaustive(
                path, layout
            )


class TestPlanarCertificate:
    def test_plain_grid(self):
        graph, layout = make_grid(5, 5)
        assert is_planar_certificate(graph, layout)

    def test_nested_arcs_pass(self):
        graph, layout = make_grid(5, 5)
        left = [grid_vertex_id(r, 1, 5) for r in range(1, 6)]
        edges = set(graph.edges)
        edges.add((left[1], left[3]))
        edges.add((left[0], left[4]))
        arced = Graph.from_edges(graph.vertex_count, edges)
        assert is_planar_certificate(arced, layout)

    def test_interleaved_arcs_fail(self):
        graph, layout = make_grid(5, 5)
        left = [grid_vertex_id(r, 1, 5) for r in range(1, 6)]
        edges = set(graph.edges)
        edges.add((left[0], left[2]))
        edges.add((left[1], left[3]))
        crossed = Graph.from_edges(graph.vertex_count, edges)
        assert not is_planar_certificate(crossed, layout)

    def test_shared_cell_is_refused(self):
        # An edge between two vertices on one cell has lattice distance
        # 0; the layout refuses the shared cell before any check sees it.
        with pytest.raises(ValueError, match="share a layout cell"):
            is_planar_certificate(
                Graph.from_edges(2, [(0, 1)]),
                GridLayout(1, 1, ((0, (1, 1)), (1, (1, 1)))),
            )

    def test_vertex_on_two_cells_is_refused(self):
        with pytest.raises(ValueError, match="a vertex sits on two layout cells"):
            is_planar_certificate(
                Graph.from_edges(1, []),
                GridLayout(1, 2, ((0, (1, 1)), (0, (1, 2)))),
            )

    def test_edge_with_no_border_side_fails(self):
        graph, layout = make_grid(3, 3)
        corner_to_centre = Graph.from_edges(9, set(graph.edges) | {(0, 4)})
        assert not is_planar_certificate(corner_to_centre, layout)

    def test_vertex_without_a_cell_fails(self):
        graph, _ = make_grid(2, 2)
        assert not is_planar_certificate(
            graph, GridLayout(2, 2, ((0, (1, 1)), (1, (1, 2)), (2, (2, 1))))
        )


class TestGridLayout:
    def test_cell_outside_the_lattice_is_refused(self):
        with pytest.raises(ValueError, match=r"vertex 1 sits at \(1, 3\), outside the 2 x 2"):
            GridLayout(2, 2, ((0, (1, 1)), (1, (1, 3))))

    # On the 3x3 grid: ids 0, 2, 6, 8 are the corners (bottom-left,
    # bottom-right, top-left, top-right) and 4 is the centre.
    @pytest.mark.parametrize("u, v, side", [
        (0, 1, None),
        (4, 7, None),
        (0, 2, "bottom"),
        (0, 6, "left"),
        (2, 8, "right"),
        (6, 8, "top"),
        (0, 4, ""),
        (0, 8, ""),
    ])
    def test_arc_side(self, u, v, side):
        _, layout = make_grid(3, 3)
        assert layout.arc_side(u, v) == side
        assert layout.arc_side(v, u) == side


def test_path_enumerator_is_complete():
    """Guard the test helper itself: compare against raw permutation search."""
    graph, layout = make_grid(3, 3)
    found = set(all_simple_paths_with_border_ends(graph, layout, 4))
    edges = set(graph.edges)
    inner = inner_vertices(layout)
    slow = set()
    for n in range(1, 5):
        for combo in itertools.permutations(range(9), n):
            if any(v in inner for v in (combo[0], combo[-1])):
                continue
            if any(
                tuple(sorted(e)) not in edges for e in zip(combo, combo[1:])
            ):
                continue
            if combo[0] <= combo[-1]:
                slow.add(combo)
    assert found == slow
