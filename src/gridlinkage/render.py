"""Static SVG and DOT figures for grid instances.

Pure string builders over sorted structures: the same instance and
solution always produce the same bytes.  The layout decides how each
edge is drawn (GridLayout.arc_side): border arcs bow outward around
their side with a bulge that grows with their span, so nested arcs stay
separated; every other edge, a lattice edge or one whose cells share no
border side, draws as a straight segment.  Solution paths overlay the
structure in distinct strokes, one per terminal pair.
"""

from __future__ import annotations

from .graphs import GridLayout, normalize_edge
from .solver import Instance, Linkage

CELL = 48.0
PALETTE = (
    "#d62728", "#1f77b4", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#e377c2",
)


def _positions(instance: Instance) -> dict[int, tuple[float, float]]:
    # Every vertex sits on its cell, row 1 at the bottom.
    layout = instance.layout
    if layout is None:
        raise ValueError("rendering needs a grid layout")
    return {v: ((c - 1) * CELL, (layout.rows - r) * CELL) for v, (r, c) in layout.cell_of}


def _edge_d(
    layout: GridLayout,
    pos: dict[int, tuple[float, float]],
    u: int,
    v: int,
) -> str:
    """SVG path data from u to v, bowed outward for border arcs."""
    x1, y1 = pos[u]
    x2, y2 = pos[v]
    side = layout.arc_side(u, v)
    if not side:
        return f"M {x1:.1f} {y1:.1f} L {x2:.1f} {y2:.1f}"
    span = (abs(x1 - x2) + abs(y1 - y2)) / CELL
    bulge = CELL * 0.3 + CELL * 0.22 * span
    mx, my = (x1 + x2) / 2, (y1 + y2) / 2
    if side == "left":
        mx -= bulge
    elif side == "right":
        mx += bulge
    elif side == "bottom":
        my += bulge
    else:
        my -= bulge
    return f"M {x1:.1f} {y1:.1f} Q {mx:.1f} {my:.1f} {x2:.1f} {y2:.1f}"


def render_svg(instance: Instance, solution: Linkage | None = None) -> str:
    """Figure of the instance, optionally with one solution overlaid."""
    layout = instance.layout
    pos = _positions(instance)
    graph = instance.graph

    margin = CELL * 0.55 + CELL * 0.22 * max(
        [
            (abs(pos[u][0] - pos[v][0]) + abs(pos[u][1] - pos[v][1])) / CELL
            for u, v in graph.sorted_edges()
            if layout.arc_side(u, v)
        ]
        or [0.0],
    ) + CELL * 0.45
    width = (layout.cols - 1) * CELL + 2 * margin
    height = (layout.rows - 1) * CELL + 2 * margin

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="{-margin:.1f} {-margin:.1f} '
        f'{width:.1f} {height:.1f}">',
        f'<rect x="{-margin:.1f}" y="{-margin:.1f}" width="{width:.1f}" '
        f'height="{height:.1f}" fill="white"/>',
        '<g stroke="#999" stroke-width="1.6" fill="none">',
    ]
    for u, v in graph.sorted_edges():
        parts.append(f'<path d="{_edge_d(layout, pos, u, v)}"/>')
    parts.append("</g>")

    if solution is not None:
        parts.append('<g fill="none" stroke-width="4" stroke-opacity="0.8" '
                     'stroke-linecap="round">')
        for i, path in enumerate(solution.paths):
            color = PALETTE[i % len(PALETTE)]
            pieces = [
                _edge_d(layout, pos, a, b) for a, b in zip(path, path[1:])
            ]
            parts.append(f'<path stroke="{color}" d="{" ".join(pieces)}"/>')
        parts.append("</g>")

    terminal_name = {}
    for i, (s, t) in enumerate(instance.pairs):
        terminal_name[s] = f"s{i}"
        terminal_name[t] = f"t{i}"
    parts.append('<g font-family="monospace" font-size="13">')
    for v in range(graph.vertex_count):
        x, y = pos[v]
        if v in terminal_name:
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="6" fill="#111"/>'
            )
            parts.append(
                f'<text x="{x + 8:.1f}" y="{y - 8:.1f}">{terminal_name[v]}</text>'
            )
        else:
            fill = "#fff" if layout.is_inner(v) else "#555"
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="{fill}" '
                'stroke="#555" stroke-width="1.2"/>'
            )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_dot(instance: Instance, solution: Linkage | None = None) -> str:
    """Structural export: roles and positions as attributes, paths colored."""
    layout = instance.layout
    pos = _positions(instance)
    graph = instance.graph

    terminal_name = {}
    for i, (s, t) in enumerate(instance.pairs):
        terminal_name[s] = f"s{i}"
        terminal_name[t] = f"t{i}"

    edge_path: dict[tuple[int, int], int] = {}
    if solution is not None:
        for i, path in enumerate(solution.paths):
            for a, b in zip(path, path[1:]):
                edge_path[normalize_edge(a, b)] = i

    lines = [
        "graph instance {",
        '  node [shape=circle, fontsize=10, width=0.25, fixedsize=true];',
    ]
    for v in range(graph.vertex_count):
        x, y = pos[v]
        flipped = (layout.rows - 1) * CELL - y
        attrs = [
            f'label="{terminal_name.get(v, v)}"',
            f'role="{layout.roles[v]}"',
            f'pos="{x / CELL:.3f},{flipped / CELL:.3f}!"',
        ]
        if v in terminal_name:
            attrs.append("style=filled, fillcolor=black, fontcolor=white")
        lines.append(f"  {v} [{', '.join(attrs)}];")
    for u, v in graph.sorted_edges():
        attrs = []
        kind = "arc" if layout.arc_side(u, v) else "lattice"
        attrs.append(f'kind="{kind}"')
        if (u, v) in edge_path:
            i = edge_path[(u, v)]
            attrs.append(f'color="{PALETTE[i % len(PALETTE)]}", penwidth=3')
        lines.append(f"  {u} -- {v} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
