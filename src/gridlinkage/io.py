"""Reading and writing instances, solutions, and plain edge lists.

Everything round-trips through versioned JSON documents with sorted
keys, so serialized bytes are canonical: equal objects serialize
identically and a digest pins a solution to the exact instance it was
solved from.  A bare edge-list format (`p edge N M` header, `e u v`
lines, 1-based) is accepted for graphs coming from outside.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from .graphs import Graph, GridLayout, crossing_report
from .solver import (
    Instance,
    Linkage,
    SolveOutcome,
    check_linkage,
    spans_all_vertices,
)

FORMAT_VERSION = 1


def _check_header(doc: dict, kind: str) -> None:
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {doc.get('format_version')!r}")
    if doc.get("kind") != kind:
        raise ValueError(f"expected a {kind} document, got {doc.get('kind')!r}")


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def instance_to_document(instance: Instance) -> dict:
    """Plain-data form of an instance, ready for JSON."""
    graph = instance.graph
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "kind": "instance",
        "vertex_count": graph.vertex_count,
        "edges": [list(e) for e in graph.sorted_edges()],
        "pairs": [list(p) for p in instance.pairs],
        "labels": {str(v): name for v, name in graph.labels},
        "meta": dict(instance.meta),
    }
    if instance.layout is None:
        doc["layout"] = None
    else:
        layout = instance.layout
        doc["layout"] = {
            "rows": layout.rows,
            "cols": layout.cols,
            "cells": {str(v): list(cell) for v, cell in layout.cell_of},
            # Derived from the cells; kept, with "hosts", for format 1.
            "roles": {str(v): role for v, role in layout.roles.items()},
            "hosts": {},
        }
    return doc


def document_to_instance(doc: dict) -> Instance:
    """Inverse of instance_to_document; ValueError on a malformed document."""
    _check_header(doc, "instance")
    try:
        labels = {int(v): str(name) for v, name in doc.get("labels", {}).items()}
        graph = Graph.from_edges(
            int(doc["vertex_count"]),
            [(int(a), int(b)) for a, b in doc["edges"]],
            labels,
        )
        block = doc.get("layout")
        layout = None
        if block is not None:
            if block["hosts"] != {}:
                raise ValueError("layout places vertices on host edges, "
                                 "which this version does not support")
            layout = GridLayout(
                int(block["rows"]),
                int(block["cols"]),
                tuple(sorted(
                    (int(v), (int(r), int(c)))
                    for v, (r, c) in block["cells"].items()
                )),
            )
        instance = Instance.make(
            graph,
            [(int(s), int(t)) for s, t in doc["pairs"]],
            layout,
            doc.get("meta", {}),
        )
        if layout is not None and layout.roles != {int(v): r for v, r in block["roles"].items()}:
            raise ValueError("layout roles disagree with the roles of their cells")
        return instance
    except KeyError as exc:
        raise ValueError(f"instance document lacks field {exc.args[0]!r}") from None
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed instance document: {exc}") from None


def serialize_instance(instance: Instance) -> str:
    return _dump(instance_to_document(instance))


def parse_instance(text: str) -> Instance:
    return document_to_instance(json.loads(text))


def instance_digest(instance: Instance) -> str:
    """sha256 of the canonical serialization."""
    return hashlib.sha256(serialize_instance(instance).encode()).hexdigest()


def solution_to_document(
    instance: Instance,
    outcome: SolveOutcome,
    mode: str,
    unique: bool | None = None,
) -> dict:
    """Plain-data record of a solve run against a pinned instance.

    unique stays None unless the caller ran a mode that can actually
    settle uniqueness; wall time is deliberately left out so repeated
    runs serialize byte-identically.
    """
    first = outcome.solutions[0] if outcome.solutions else None
    crossing = None
    if first is not None and instance.layout is not None:
        report = crossing_report(first.paths, instance.layout)
        crossing = {
            "per_path": [c for c in report.per_path],
            "total": report.total,
            "undefined_paths": list(report.undefined_paths),
        }
    return {
        "format_version": FORMAT_VERSION,
        "kind": "solution",
        "instance_digest": instance_digest(instance),
        "mode": mode,
        "status": outcome.status,
        "nodes_explored": outcome.nodes_explored,
        "solutions": [
            [list(path) for path in link.paths] for link in outcome.solutions
        ],
        "crossing": crossing,
        "flags": {
            "unique": unique,
            "spanning": None if first is None else spans_all_vertices(first),
        },
    }


def serialize_solution(
    instance: Instance,
    outcome: SolveOutcome,
    mode: str,
    unique: bool | None = None,
) -> str:
    return _dump(solution_to_document(instance, outcome, mode, unique))


def parse_solution(text: str) -> dict:
    doc = json.loads(text)
    _check_header(doc, "solution")
    return doc


def solution_paths(instance: Instance, doc: dict, index: int = 0) -> Linkage:
    """Extract one recorded solution as a Linkage over the instance graph.

    Raises ValueError when the document holds no solution list or the
    chosen entry is not a valid linkage of the instance.
    """
    recorded = doc.get("solutions")
    if not isinstance(recorded, list):
        raise ValueError("solution document has no 'solutions' list")
    if not 0 <= index < len(recorded):
        raise ValueError(
            f"document records {len(recorded)} solutions, index {index} out of range"
        )
    entry = recorded[index]
    if not isinstance(entry, list) or not all(
        isinstance(path, list) and all(type(v) is int for v in path)
        for path in entry
    ):
        raise ValueError(f"solution {index} is not a list of vertex lists")
    paths = tuple(tuple(path) for path in entry)
    try:
        check_linkage(instance, paths)
    except ValueError as exc:
        raise ValueError(f"solution {index}: {exc}") from exc
    return Linkage(paths, instance.graph)


def check_solution_matches(instance: Instance, doc: dict) -> None:
    """Raise ValueError when a solution document names another instance."""
    want = instance_digest(instance)
    got = doc.get("instance_digest")
    if got != want:
        raise ValueError(f"solution digest {got!r} does not match instance {want!r}")


def read_edge_list(text: str) -> Graph:
    """Parse a plain 1-based edge list (`p edge N M`, `e u v` lines)."""
    vertex_count = None
    declared_edges = 0
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if vertex_count is not None:
                raise ValueError(f"line {lineno}: second problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise ValueError(f"line {lineno}: expected 'p edge N M'")
            vertex_count, declared_edges = int(parts[2]), int(parts[3])
        elif parts[0] == "e":
            if vertex_count is None:
                raise ValueError(f"line {lineno}: edge before the problem line")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'e u v'")
            u, v = int(parts[1]), int(parts[2])
            if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                raise ValueError(
                    f"line {lineno}: vertex outside 1..{vertex_count}"
                )
            edges.append((u - 1, v - 1))
        else:
            raise ValueError(f"line {lineno}: unknown record {parts[0]!r}")
    if vertex_count is None:
        raise ValueError("missing 'p edge N M' line")
    if len(edges) != declared_edges:
        raise ValueError(
            f"problem line declares {declared_edges} edges, found {len(edges)}"
        )
    return Graph.from_edges(vertex_count, edges)


def write_edge_list(graph: Graph) -> str:
    """Inverse of read_edge_list, canonical edge order."""
    lines = [f"p edge {graph.vertex_count} {len(graph.edges)}"]
    lines.extend(f"e {a + 1} {b + 1}" for a, b in graph.sorted_edges())
    return "\n".join(lines) + "\n"
