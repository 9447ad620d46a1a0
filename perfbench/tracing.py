"""Spans around calls into the package's public functions.

`Tracer.install()` wraps each function in TRACED and rebinds the wrapper
in every gridlinkage module (and the package namespace) that holds the
original, so nested calls such as irrelevant_vertices -> solve ->
check_linkage record their parent links.  Spans stay in memory as
[name, parent index, op id, start ns, end ns, info] until `write()`.

A span's self time is its duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path


def _search_info(out):
    return (out.nodes_explored, len(out.solutions), out.status == "aborted")


def _width_info(out):
    return (out.nodes_explored, out.exact)


def _text_bytes(out):
    return len(out.encode())


# (module, function, extractor of per-call counts from the return value)
TRACED = (
    ("cli", "main", None),
    ("io", "parse_instance", None),
    ("io", "serialize_instance", _text_bytes),
    ("io", "serialize_solution", _text_bytes),
    ("render", "render_svg", _text_bytes),
    ("graphs", "crossing_report", None),
    ("construction", "build_instance", None),
    ("construction", "calibrate_arc_rule", None),
    ("solver", "solve", _search_info),
    ("solver", "check_linkage", None),
    ("solver", "irrelevant_vertices", None),
    ("solver", "is_vital_linkage", None),
    ("solver", "brute_force_oracle", _search_info),
    ("width", "treewidth_exact", _width_info),
    ("width", "pathwidth_exact", _width_info),
    ("width", "width_of_elimination_order", None),
    ("width", "width_of_layout", None),
)

NAME, PARENT, OP, START, END, INFO = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, self.op, clock(), 0, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if info is not None:
                record[INFO] = info(result)
            return result

        return traced

    def install(self) -> None:
        homes = {module: importlib.import_module(f"gridlinkage.{module}")
                 for module, _, _ in TRACED}
        modules = [m for key, m in sys.modules.items()
                   if key == "gridlinkage" or key.startswith("gridlinkage.")]
        for module, function, info in TRACED:
            original = getattr(homes[module], function)
            wrapper = self._wrap(f"{module}.{function}", original, info)
            for m in modules:
                if m.__dict__.get(function) is original:
                    self._undo.append((m, function, original))
                    setattr(m, function, wrapper)

    def uninstall(self) -> None:
        for m, function, original in reversed(self._undo):
            setattr(m, function, original)
        self._undo.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function: calls, inclusive ns, self ns, and summed counts."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, span in enumerate(self.spans):
            row = out[span[NAME]]
            duration = span[END] - span[START]
            row["calls"] += 1
            row["ns"] += duration
            row["self_ns"] += duration - child_ns[i]
            info = span[INFO]
            if info is None:
                continue
            if span[NAME] in ("solver.solve", "solver.brute_force_oracle"):
                row["nodes"] += info[0]
                row["solutions"] += info[1]
                row["aborted"] += info[2]
            elif span[NAME].startswith("width."):
                row["nodes"] += info[0]
                row["exact"] += info[1]
            elif span[PARENT] < 0 or not self.spans[span[PARENT]][NAME].startswith("io."):
                # Serializations nested in another io call (the digest
                # inside serialize_solution) are not output.
                row["bytes"] += info
        return out

    def write(self, path: Path) -> None:
        """Gzipped, one tab-separated line per span: index, parent, op, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tparent\top\tname\tstart_ns\tend_ns\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[PARENT]}\t{s[OP]}\t{s[NAME]}\t{s[START]}\t{s[END]}\n")


# Per-layer metrics of the traced run: (name, unit).  Times and counts
# are per traced pass.  ".ms" is inclusive time, ".self_ms" excludes
# traced child spans.
LAYER_METRICS = (
    ("solver.solve.calls", "count"),
    ("solver.solve.self_ms", "ms"),
    ("solver.solve.nodes", "count"),
    ("solver.solve.ns_per_node", "ns"),
    ("solver.solve.us_per_call", "us"),
    ("solver.solve.solutions", "count"),
    ("solver.solutions_per_knode", "1/knode"),
    ("solver.solve.aborted", "count"),
    ("solver.check_linkage.calls", "count"),
    ("solver.check_linkage.ms", "ms"),
    ("solver.irrelevant_vertices.ms", "ms"),
    ("solver.is_vital_linkage.ms", "ms"),
    ("solver.brute_force_oracle.ms", "ms"),
    ("solver.brute_force_oracle.nodes", "count"),
    ("width.treewidth_exact.ms", "ms"),
    ("width.treewidth_exact.nodes", "count"),
    ("width.pathwidth_exact.ms", "ms"),
    ("width.pathwidth_exact.nodes", "count"),
    ("width.ns_per_node", "ns"),
    ("width.recheck.ms", "ms"),
    ("width.exact_ratio", "ratio"),
    ("cli.main.calls", "count"),
    ("cli.main.self_ms", "ms"),
    ("io.parse_instance.ms", "ms"),
    ("io.serialize_instance.ms", "ms"),
    ("io.serialize_solution.ms", "ms"),
    ("io.bytes_out", "bytes"),
    ("render.render_svg.ms", "ms"),
    ("render.bytes", "bytes"),
    ("graphs.crossing_report.ms", "ms"),
    ("construction.build_instance.ms", "ms"),
    ("construction.calibrate_arc_rule.ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(totals: dict, passes: int, overhead_ratio: float) -> dict[str, float]:
    """Per-pass values of LAYER_METRICS from Tracer.totals()."""
    def get(name: str, key: str) -> float:
        row = totals.get(name)
        return row[key] if row else 0.0

    def per_pass(value: float) -> float:
        return value / passes

    ms = 1e-6
    solve_self = get("solver.solve", "self_ns")
    solve_nodes = get("solver.solve", "nodes")
    tw_ns, pw_ns = get("width.treewidth_exact", "ns"), get("width.pathwidth_exact", "ns")
    tw_nodes, pw_nodes = get("width.treewidth_exact", "nodes"), get("width.pathwidth_exact", "nodes")
    width_calls = get("width.treewidth_exact", "calls") + get("width.pathwidth_exact", "calls")
    width_exact = get("width.treewidth_exact", "exact") + get("width.pathwidth_exact", "exact")
    values = {
        "solver.solve.calls": per_pass(get("solver.solve", "calls")),
        "solver.solve.self_ms": per_pass(solve_self) * ms,
        "solver.solve.nodes": per_pass(solve_nodes),
        "solver.solve.ns_per_node": _ratio(solve_self, solve_nodes),
        "solver.solve.us_per_call": _ratio(solve_self, get("solver.solve", "calls")) * 1e-3,
        "solver.solve.solutions": per_pass(get("solver.solve", "solutions")),
        "solver.solutions_per_knode": _ratio(get("solver.solve", "solutions"), solve_nodes / 1000),
        "solver.solve.aborted": per_pass(get("solver.solve", "aborted")),
        "solver.check_linkage.calls": per_pass(get("solver.check_linkage", "calls")),
        "solver.check_linkage.ms": per_pass(get("solver.check_linkage", "ns")) * ms,
        "solver.irrelevant_vertices.ms": per_pass(get("solver.irrelevant_vertices", "ns")) * ms,
        "solver.is_vital_linkage.ms": per_pass(get("solver.is_vital_linkage", "ns")) * ms,
        "solver.brute_force_oracle.ms": per_pass(get("solver.brute_force_oracle", "ns")) * ms,
        "solver.brute_force_oracle.nodes": per_pass(get("solver.brute_force_oracle", "nodes")),
        "width.treewidth_exact.ms": per_pass(tw_ns) * ms,
        "width.treewidth_exact.nodes": per_pass(tw_nodes),
        "width.pathwidth_exact.ms": per_pass(pw_ns) * ms,
        "width.pathwidth_exact.nodes": per_pass(pw_nodes),
        "width.ns_per_node": _ratio(tw_ns + pw_ns, tw_nodes + pw_nodes),
        "width.recheck.ms": per_pass(get("width.width_of_elimination_order", "ns")
                                     + get("width.width_of_layout", "ns")) * ms,
        "width.exact_ratio": _ratio(width_exact, width_calls),
        "cli.main.calls": per_pass(get("cli.main", "calls")),
        "cli.main.self_ms": per_pass(get("cli.main", "self_ns")) * ms,
        "io.parse_instance.ms": per_pass(get("io.parse_instance", "ns")) * ms,
        "io.serialize_instance.ms": per_pass(get("io.serialize_instance", "ns")) * ms,
        "io.serialize_solution.ms": per_pass(get("io.serialize_solution", "ns")) * ms,
        "io.bytes_out": per_pass(get("io.serialize_instance", "bytes")
                                 + get("io.serialize_solution", "bytes")),
        "render.render_svg.ms": per_pass(get("render.render_svg", "ns")) * ms,
        "render.bytes": per_pass(get("render.render_svg", "bytes")),
        "graphs.crossing_report.ms": per_pass(get("graphs.crossing_report", "ns")) * ms,
        "construction.build_instance.ms": per_pass(get("construction.build_instance", "ns")) * ms,
        "construction.calibrate_arc_rule.ms":
            per_pass(get("construction.calibrate_arc_rule", "ns")) * ms,
        "trace.overhead_ratio": overhead_ratio,
    }
    return values
