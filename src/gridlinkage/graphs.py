"""Undirected graphs with grid drawings.

The graph type is a frozen value object: a vertex count plus a set of
undirected edges over dense integer ids.  Grids carry a separate layout
that puts every vertex on a lattice cell of its own, checked when it is
built; a vertex's role is read off its cell, and how an edge is drawn,
lattice segment or border arc, off its two cells (GridLayout.arc_side).
Everything downstream (solver, width checks, rendering) works against
these two types.

Roles:
    grid-border   vertex on a cell of the outer boundary
    grid-inner    vertex on any other cell
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

ROLE_BORDER = "grid-border"
ROLE_INNER = "grid-inner"

Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    """Return the unordered edge (u, v) as a sorted tuple."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertex ids 0..vertex_count-1."""

    vertex_count: int
    edges: frozenset[Edge]
    labels: tuple[tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self loop at vertex {u}")
            if not (0 <= u < v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range or not normalized")
        for v, _ in self.labels:
            if not 0 <= v < self.vertex_count:
                raise ValueError(f"label on unknown vertex {v}")

    @classmethod
    def from_edges(
        cls,
        vertex_count: int,
        edges: Iterable[tuple[int, int]],
        labels: Mapping[int, str] | None = None,
    ) -> "Graph":
        normalized = frozenset(normalize_edge(u, v) for u, v in edges)
        label_items = tuple(sorted((labels or {}).items()))
        return cls(vertex_count, normalized, label_items)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor lists in ascending id order."""
        nbrs: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in nbrs)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Neighbor sets as bitsets (bit w set when w is a neighbor), by vertex id."""
        masks = [0] * self.vertex_count
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


@dataclass(frozen=True)
class GridLayout:
    """Drawing data for a graph on an m x n lattice.

    rows/cols count lattice rows and columns; row 1 is the bottom row,
    column 1 the leftmost column.  cell_of puts every vertex on one cell
    of its own inside the lattice, which __post_init__ checks
    (solver.Instance checks that the cells cover its graph).  A vertex's
    role follows from its cell: grid-inner when 1 < r < rows and
    1 < c < cols, grid-border otherwise.
    """

    rows: int
    cols: int
    cell_of: tuple[tuple[int, tuple[int, int]], ...]

    def __post_init__(self) -> None:
        if len({cell for _, cell in self.cell_of}) != len(self.cell_of):
            raise ValueError("two vertices share a layout cell")
        if len(self.cells) != len(self.cell_of):
            raise ValueError("a vertex sits on two layout cells")
        for v, (r, c) in self.cell_of:
            if not (1 <= r <= self.rows and 1 <= c <= self.cols):
                raise ValueError(f"vertex {v} sits at ({r}, {c}), outside the "
                                 f"{self.rows} x {self.cols} lattice")

    def arc_side(self, u: int, v: int) -> str | None:
        """None when u and v sit on lattice neighbours; else the border
        side both cells lie on, the first of "left", "right", "bottom",
        "top", outside which their edge is drawn as an arc, or "" when
        the cells share no border side."""
        (r, c), (q, d) = self.cells[u], self.cells[v]
        if abs(r - q) + abs(c - d) == 1:
            return None
        if c == d == 1:
            return "left"
        if c == d == self.cols:
            return "right"
        if r == q == 1:
            return "bottom"
        if r == q == self.rows:
            return "top"
        return ""

    @cached_property
    def cells(self) -> dict[int, tuple[int, int]]:
        return dict(self.cell_of)

    @cached_property
    def roles(self) -> dict[int, str]:
        return {v: ROLE_INNER if 1 < r < self.rows and 1 < c < self.cols else ROLE_BORDER
                for v, (r, c) in self.cell_of}

    def is_inner(self, v: int) -> bool:
        return self.roles[v] == ROLE_INNER


def grid_vertex_id(row: int, col: int, cols: int) -> int:
    """Dense id of the lattice vertex at (row, col), both 1-based."""
    return (row - 1) * cols + (col - 1)


def make_grid(rows: int, cols: int) -> tuple[Graph, GridLayout]:
    """Build the rows x cols grid graph with its lattice layout.

    Vertex at (r, c) gets id (r-1)*cols + (c-1).  Inner vertices are
    exactly those with 1 < r < rows and 1 < c < cols.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be at least 1x1")
    edges: list[Edge] = []
    cell_items: list[tuple[int, tuple[int, int]]] = []
    for r in range(1, rows + 1):
        for c in range(1, cols + 1):
            v = grid_vertex_id(r, c, cols)
            cell_items.append((v, (r, c)))
            if c < cols:
                edges.append((v, grid_vertex_id(r, c + 1, cols)))
            if r < rows:
                edges.append((v, grid_vertex_id(r + 1, c, cols)))
    graph = Graph.from_edges(rows * cols, edges)
    return graph, GridLayout(rows, cols, tuple(cell_items))


def inner_vertices(layout: GridLayout) -> frozenset[int]:
    """Ids of all vertices classified grid-inner."""
    return frozenset(v for v, role in layout.roles.items() if role == ROLE_INNER)


def validate_path(graph: Graph, path: tuple[int, ...]) -> None:
    """Raise ValueError unless path is a nonempty simple path in graph."""
    if not path:
        raise ValueError("empty vertex sequence is not a path")
    if len(set(path)) != len(path):
        raise ValueError("path repeats a vertex")
    edges = graph.edges
    for a, b in zip(path, path[1:]):
        if ((a, b) if a < b else (b, a)) not in edges:
            raise ValueError(f"({a}, {b}) is not an edge")


def crossing_count(path: tuple[int, ...], layout: GridLayout) -> int | None:
    """Maximum number of grid crossings along path, or None if undefined.

    A crossing is a maximal run of consecutive inner vertices; the count
    is defined only when both endpoints are non-inner.  Callers must pass
    a valid path of the host graph.
    """
    if not path:
        raise ValueError("empty vertex sequence is not a path")
    if layout.is_inner(path[0]) or layout.is_inner(path[-1]):
        return None
    runs = 0
    in_run = False
    for v in path:
        if layout.is_inner(v):
            if not in_run:
                runs += 1
                in_run = True
        else:
            in_run = False
    return runs


@dataclass(frozen=True)
class CrossingReport:
    """Per-path maximum crossing counts for a linkage.

    per_path holds one entry per path, None where the count is undefined
    (an endpoint is inner).  total sums the defined entries only;
    undefined_paths lists the indices of undefined ones.
    """

    per_path: tuple[int | None, ...]
    total: int
    undefined_paths: frozenset[int] = field(default=frozenset())


def crossing_report(paths: Iterable[tuple[int, ...]], layout: GridLayout) -> CrossingReport:
    """Crossing counts for each path of a linkage, plus their sum."""
    per_path: list[int | None] = []
    undefined: set[int] = set()
    total = 0
    for i, path in enumerate(paths):
        count = crossing_count(tuple(path), layout)
        per_path.append(count)
        if count is None:
            undefined.add(i)
        else:
            total += count
    return CrossingReport(tuple(per_path), total, frozenset(undefined))


def is_planar_certificate(graph: Graph, layout: GridLayout) -> bool:
    """Certify that the layout induces a crossing-free drawing.

    Every vertex must have a cell, and every edge that does not join
    lattice neighbours must have a border side (GridLayout.arc_side),
    with no two arcs around the same side interleaving.  False means
    not certified, not a proof of non-planarity.
    """
    cells = layout.cells
    if any(v not in cells for v in range(graph.vertex_count)):
        return False

    side_arcs: dict[str, list[tuple[int, int]]] = {}
    for u, v in graph.edges:
        side = layout.arc_side(u, v)
        if side is None:
            continue  # lattice edge
        if not side:
            return False
        # An arc's ends along its side: rows on left/right, columns on bottom/top.
        axis = 0 if side in ("left", "right") else 1
        a, b = cells[u][axis], cells[v][axis]
        side_arcs.setdefault(side, []).append((min(a, b), max(a, b)))

    for arcs in side_arcs.values():
        arcs.sort()
        for i, (a1, b1) in enumerate(arcs):
            for a2, b2 in arcs[i + 1 :]:
                if a1 < a2 < b1 < b2:
                    return False
    return True
