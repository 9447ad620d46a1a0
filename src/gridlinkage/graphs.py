"""Undirected graphs with grid drawings.

The graph type is a frozen value object: a vertex count plus a set of
undirected edges over dense integer ids.  Grids carry a separate layout
describing where each vertex sits in the drawing (lattice cell, role,
host edge for subdivision vertices).  Everything downstream (solver,
width checks, rendering) works against these two types.

Roles:
    grid-border   original lattice vertex on the outer boundary
    grid-inner    vertex not on the outer boundary (originals, and
                  subdivision vertices whose host edge joins two inner
                  endpoints)
    subdivision   subdivision vertex that is not inner
    arc-exterior  vertex drawn outside the lattice; carries no cell
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

ROLE_BORDER = "grid-border"
ROLE_INNER = "grid-inner"
ROLE_SUBDIVISION = "subdivision"
ROLE_EXTERIOR = "arc-exterior"

ROLES = (ROLE_BORDER, ROLE_INNER, ROLE_SUBDIVISION, ROLE_EXTERIOR)

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
    def label_map(self) -> dict[int, str]:
        return dict(self.labels)

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.edges

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


@dataclass(frozen=True)
class GridLayout:
    """Drawing data for a graph derived from an m x n lattice.

    rows/cols count lattice rows and columns; row 1 is the bottom row,
    column 1 the leftmost column.  cell_of places every original lattice
    vertex; host_edge records, for each subdivision vertex, the original
    edge whose drawing segment it sits on.
    """

    rows: int
    cols: int
    cell_of: tuple[tuple[int, tuple[int, int]], ...]
    role_of: tuple[tuple[int, str], ...]
    host_edge: tuple[tuple[int, Edge], ...] = ()

    @cached_property
    def cells(self) -> dict[int, tuple[int, int]]:
        return dict(self.cell_of)

    @cached_property
    def roles(self) -> dict[int, str]:
        return dict(self.role_of)

    @cached_property
    def hosts(self) -> dict[int, Edge]:
        return dict(self.host_edge)

    def role(self, v: int) -> str:
        return self.roles[v]

    def is_inner(self, v: int) -> bool:
        return self.roles.get(v) == ROLE_INNER


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
    role_items: list[tuple[int, str]] = []
    for r in range(1, rows + 1):
        for c in range(1, cols + 1):
            v = grid_vertex_id(r, c, cols)
            cell_items.append((v, (r, c)))
            inner = 1 < r < rows and 1 < c < cols
            role_items.append((v, ROLE_INNER if inner else ROLE_BORDER))
            if c < cols:
                edges.append((v, grid_vertex_id(r, c + 1, cols)))
            if r < rows:
                edges.append((v, grid_vertex_id(r + 1, c, cols)))
    graph = Graph.from_edges(rows * cols, edges)
    layout = GridLayout(rows, cols, tuple(cell_items), tuple(role_items))
    return graph, layout


def subdivide_edges(
    graph: Graph, layout: GridLayout, plan: Mapping[tuple[int, int], int]
) -> tuple[Graph, GridLayout]:
    """Replace planned grid edges by paths through fresh vertices.

    plan maps an edge to the number of extra vertices placed on it.  Every
    planned edge must currently exist and join two original lattice
    vertices that are adjacent cells; arcs and already-subdivided chain
    edges are rejected.  New ids are appended after the existing ones, in
    sorted edge order.  A subdivision vertex is classified grid-inner
    exactly when both endpoints of its host edge are inner.
    """
    cells = layout.cells
    normalized: list[tuple[Edge, int]] = []
    seen: set[Edge] = set()
    for (u, v), count in plan.items():
        e = normalize_edge(u, v)
        if count < 0:
            raise ValueError(f"negative subdivision count for edge {e}")
        if e in seen:
            raise ValueError(f"edge {e} planned twice")
        seen.add(e)
        if e not in graph.edges:
            raise ValueError(f"unknown edge {e}")
        if e[0] not in cells or e[1] not in cells:
            raise ValueError(f"edge {e} does not join original grid vertices")
        (r1, c1), (r2, c2) = cells[e[0]], cells[e[1]]
        if abs(r1 - r2) + abs(c1 - c2) != 1:
            raise ValueError(f"edge {e} is not a grid edge")
        normalized.append((e, count))

    edges = set(graph.edges)
    role_items = list(layout.role_of)
    host_items = list(layout.host_edge)
    roles = layout.roles
    next_id = graph.vertex_count
    for e, count in sorted(normalized):
        if count == 0:
            continue
        edges.discard(e)
        inner = roles[e[0]] == ROLE_INNER and roles[e[1]] == ROLE_INNER
        chain = [e[0]] + list(range(next_id, next_id + count)) + [e[1]]
        for w in chain[1:-1]:
            role_items.append((w, ROLE_INNER if inner else ROLE_SUBDIVISION))
            host_items.append((w, e))
        next_id += count
        for a, b in zip(chain, chain[1:]):
            edges.add(normalize_edge(a, b))

    new_graph = Graph(next_id, frozenset(edges), graph.labels)
    new_layout = GridLayout(
        layout.rows,
        layout.cols,
        layout.cell_of,
        tuple(role_items),
        tuple(host_items),
    )
    return new_graph, new_layout


def inner_vertices(layout: GridLayout) -> frozenset[int]:
    """Ids of all vertices classified grid-inner."""
    return frozenset(v for v, role in layout.role_of if role == ROLE_INNER)


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

    def all_defined(self) -> bool:
        return not self.undefined_paths


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


_SIDES = ("left", "right", "bottom", "top")


def _sides_of(cell: tuple[int, int], rows: int, cols: int) -> set[str]:
    r, c = cell
    sides = set()
    if c == 1:
        sides.add("left")
    if c == cols:
        sides.add("right")
    if r == 1:
        sides.add("bottom")
    if r == rows:
        sides.add("top")
    return sides


def _side_position(cell: tuple[int, int], side: str) -> int:
    return cell[0] if side in ("left", "right") else cell[1]


def is_planar_certificate(graph: Graph, layout: GridLayout) -> bool:
    """Certify that the layout induces a crossing-free drawing.

    Grid edges must join lattice-adjacent cells, subdivision chains must
    run along their host edge, and every remaining edge must be drawable
    as an arc outside one border side with no two arcs around the same
    side interleaving.  Anything the certificate cannot place returns
    False; False means not certified, not a proof of non-planarity.
    """
    cells = layout.cells
    roles = layout.roles
    hosts = layout.hosts
    for v in range(graph.vertex_count):
        if v not in roles:
            return False
        if roles[v] == ROLE_EXTERIOR:
            return False

    chain_edges: dict[Edge, set[Edge]] = {}
    side_arcs: dict[str, list[tuple[int, int]]] = {side: [] for side in _SIDES}
    for u, v in graph.sorted_edges():
        u_cell, v_cell = cells.get(u), cells.get(v)
        if u_cell is not None and v_cell is not None:
            dr = abs(u_cell[0] - v_cell[0])
            dc = abs(u_cell[1] - v_cell[1])
            if dr + dc == 1:
                continue  # lattice edge
            common = _sides_of(u_cell, layout.rows, layout.cols) & _sides_of(
                v_cell, layout.rows, layout.cols
            )
            if not common:
                return False
            for side in common:
                a = _side_position(u_cell, side)
                b = _side_position(v_cell, side)
                side_arcs[side].append((min(a, b), max(a, b)))
            continue
        # at least one endpoint is a subdivision vertex
        host = hosts.get(u) or hosts.get(v)
        if host is None:
            return False
        for w in (u, v):
            if w in hosts:
                if hosts[w] != host:
                    return False
            elif w not in host:
                return False
        chain_edges.setdefault(host, set()).add((u, v))

    for host, members in chain_edges.items():
        if host in graph.edges:
            return False  # chain next to a surviving copy of its host edge
        subs = [w for w in hosts if hosts[w] == host]
        if len(members) != len(subs) + 1:
            return False
        degree: dict[int, int] = {}
        for a, b in members:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        for w in subs:
            if degree.get(w) != 2:
                return False
        if degree.get(host[0]) != 1 or degree.get(host[1]) != 1:
            return False
        # degree pattern on a connected vertex set forces a single path;
        # check connectivity by walking from one host endpoint
        adj: dict[int, list[int]] = {}
        for a, b in members:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        seen = {host[0]}
        stack = [host[0]]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != len(subs) + 2:
            return False

    for arcs in side_arcs.values():
        arcs.sort()
        for i, (a1, b1) in enumerate(arcs):
            for a2, b2 in arcs[i + 1 :]:
                if a1 < a2 < b1 < b2:
                    return False
    return True
