"""Command line front end.

Subcommands: generate, solve, verify, width, render, oracle.  Exit
codes are a stable contract: 0 success or solvable, 1 unsolvable,
2 usage error, 3 budget aborted, 4 check failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from pathlib import Path

from .construction import (
    CALIBRATED_S0_PLACEMENT,
    S0_PLACEMENTS,
    build_instance,
    calibrated_rule,
    candidate_arc_rules,
    rule_by_identifier,
    verify_instance,
)
from .graphs import crossing_report
from .io import (
    check_solution_matches,
    parse_instance,
    parse_solution,
    read_edge_list,
    serialize_instance,
    serialize_solution,
    solution_paths,
)
from .render import render_dot, render_svg
from .sampling import random_batch
from .solver import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_TIME_BUDGET,
    ORDER_ASCENDING,
    ORDER_MIN_DEGREE,
    PAIR_ORDER_AUTO,
    PAIR_ORDER_INPUT,
    STATUS_ABORTED,
    STATUS_SOLVABLE,
    STATUS_UNSOLVABLE,
    brute_force_oracle,
    solve,
    spans_all_vertices,
)
from .width import (
    DEFAULT_WIDTH_NODE_BUDGET,
    DEFAULT_WIDTH_TIME_BUDGET,
    pathwidth_exact,
    treewidth_exact,
    width_checks,
)

EXIT_OK = 0
EXIT_UNSOLVABLE = 1
EXIT_USAGE = 2
EXIT_ABORTED = 3
EXIT_CHECK_FAILED = 4


def _emit(text: str, out: str | None, summary: list[str]) -> None:
    # Document to the file (or stdout); summary to whichever stream the
    # document is not using, so piping the document stays clean.
    if out:
        Path(out).write_text(text)
        for line in summary:
            print(line)
    else:
        sys.stdout.write(text)
        for line in summary:
            print(line, file=sys.stderr)


def _cmd_generate(args: argparse.Namespace) -> int:
    rule = rule_by_identifier(args.arc_rule)
    instance = build_instance(args.k, rule, args.s0)
    graph = instance.graph
    terminals = ", ".join(
        f"s{i}={s} t{i}={t}" for i, (s, t) in enumerate(instance.pairs)
    )
    # The digest is the sha256 of these very bytes (io.instance_digest),
    # so the instance is serialized once.
    text = serialize_instance(instance)
    summary = [
        f"vertices: {graph.vertex_count}",
        f"edges: {len(graph.edges)}",
        f"pairs: {len(instance.pairs)}",
        f"terminals: {terminals}",
        f"digest: {hashlib.sha256(text.encode()).hexdigest()}",
    ]
    _emit(text, args.out, summary)
    return EXIT_OK


def _status_exit(status: str) -> int:
    if status == STATUS_SOLVABLE:
        return EXIT_OK
    if status == STATUS_UNSOLVABLE:
        return EXIT_UNSOLVABLE
    return EXIT_ABORTED


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = parse_instance(Path(args.instance).read_text())
    mode = {"decide": "decide", "count": "count_up_to", "enumerate": "enumerate_all"}[
        args.mode
    ]
    outcome = solve(
        instance,
        mode=mode,
        cap=args.cap if mode == "count_up_to" else None,
        require_spanning=args.spanning,
        max_nodes=args.budget_nodes,
        max_seconds=args.budget_seconds,
        order=args.order,
        pair_order=args.pair_order,
    )
    unique: bool | None = None
    if outcome.status == STATUS_SOLVABLE:
        if mode == "enumerate_all":
            unique = len(outcome.solutions) == 1
        elif mode == "count_up_to" and args.cap >= 2:
            unique = len(outcome.solutions) == 1

    summary = [
        f"status: {outcome.status}",
        f"solutions: {len(outcome.solutions)}",
        f"nodes_explored: {outcome.nodes_explored}",
    ]
    if unique is not None:
        summary.append(f"unique: {str(unique).lower()}")
    if outcome.solutions:
        first = outcome.solutions[0]
        summary.append(f"spanning: {str(spans_all_vertices(first)).lower()}")
        if instance.layout is not None:
            report = crossing_report(first.paths, instance.layout)
            summary.append(f"per_path_crossings: {list(report.per_path)}")
            summary.append(f"total_crossings: {report.total}")
    _emit(serialize_solution(instance, outcome, mode, unique), args.out, summary)
    return _status_exit(outcome.status)


def _verdict_exit(verdicts: list[str]) -> int:
    if "FAIL" in verdicts:
        return EXIT_CHECK_FAILED
    if "INDETERMINATE" in verdicts:
        return EXIT_ABORTED
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    instance = parse_instance(Path(args.instance).read_text())
    checks = verify_instance(instance, args.budget_nodes, args.budget_seconds)
    for name, verdict, detail in checks:
        print(f"{verdict} {name}: {detail}")
    return _verdict_exit([verdict for _, verdict, _ in checks])


def _cmd_width(args: argparse.Namespace) -> int:
    text = Path(args.graph).read_text()
    k = None
    if text.lstrip().startswith("{"):
        instance = parse_instance(text)
        graph = instance.graph
        k = instance.construction_k()
    else:
        graph = read_edge_list(text)

    searches = []
    if args.tw or not (args.tw or args.pw):
        searches.append(treewidth_exact)
    if args.pw or not (args.tw or args.pw):
        searches.append(pathwidth_exact)

    bound, checks = width_checks(
        graph, k, searches, args.budget_nodes, args.budget_seconds
    )
    for result, verdict in checks:
        name = result.kind
        exact = "exact" if result.exact else "upper bound (budget exhausted)"
        print(f"{name}: {result.value} ({exact})")
        if not result.exact:
            print(f"{name} lower bound: {result.lower_bound}")
        print(f"{name} certificate: {' '.join(str(v) for v in result.certificate)}")
        if bound is not None:
            print(f"{name} >= {bound}: {verdict}")
    code = _verdict_exit([verdict for _, verdict in checks])
    if bound is not None and code == EXIT_OK:
        print(f"width bound met with {k + 1} spanning paths (grid side {bound})")
    return code


def _cmd_render(args: argparse.Namespace) -> int:
    instance = parse_instance(Path(args.instance).read_text())
    solution = None
    if args.solution:
        doc = parse_solution(Path(args.solution).read_text())
        try:
            check_solution_matches(instance, doc)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        solution = solution_paths(instance, doc)
    fmt = args.format
    if fmt is None:
        fmt = "dot" if args.out and args.out.endswith(".dot") else "svg"
    text = render_svg(instance, solution) if fmt == "svg" else render_dot(
        instance, solution
    )
    _emit(text, args.out, [f"format: {fmt}"])
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    mismatches = 0
    total = 0
    for instance in random_batch(
        args.seed, args.count, args.max_vertices, args.max_pairs
    ):
        total += 1
        fast = solve(
            instance,
            mode="enumerate_all",
            max_nodes=args.budget_nodes,
            max_seconds=args.budget_seconds,
        )
        if fast.status == STATUS_ABORTED:
            # The reference has no budget: it runs only where the solve
            # gave an answer to compare with.
            print(f"instance {total}: aborted, skipping comparison", file=sys.stderr)
            continue
        slow = brute_force_oracle(instance)
        if fast.solutions != slow.solutions:
            mismatches += 1
            print(
                f"instance {total}: solver found {len(fast.solutions)}, "
                f"reference found {len(slow.solutions)}",
                file=sys.stderr,
            )
    print(f"oracle agreement: {total - mismatches}/{total} instances "
          f"(seed {args.seed})")
    return EXIT_OK if mismatches == 0 else EXIT_CHECK_FAILED


# Built on the first main() call rather than at import, then shared by
# every later call in the process, so no caller may change it.  Parsing
# leaves the parser as it was, and a help formatter (which reads the
# terminal width) is made each time help or usage is printed.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridlinkage",
        description="Grid disjoint-paths instances: build, solve, verify, "
        "measure width, draw.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rule_ids = [rule.identifier for rule in candidate_arc_rules()]

    p = sub.add_parser("generate", help="build a hard grid instance")
    p.add_argument("-k", type=int, required=True, help="grid scale, side 2^k+1")
    p.add_argument("--arc-rule", choices=rule_ids,
                   default=calibrated_rule().identifier)
    p.add_argument("--s0", choices=list(S0_PLACEMENTS),
                   default=CALIBRATED_S0_PLACEMENT)
    p.add_argument("--out", help="instance file (default stdout)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="run the exact solver on an instance file")
    p.add_argument("instance")
    p.add_argument("--mode", choices=["decide", "count", "enumerate"],
                   default="decide")
    p.add_argument("--cap", type=int, default=2,
                   help="solution cap for --mode count")
    p.add_argument("--spanning", action="store_true",
                   help="only accept solutions covering every vertex")
    p.add_argument("--order", choices=[ORDER_ASCENDING, ORDER_MIN_DEGREE],
                   default=ORDER_ASCENDING)
    p.add_argument("--pair-order", choices=[PAIR_ORDER_INPUT, PAIR_ORDER_AUTO],
                   default=PAIR_ORDER_INPUT)
    p.add_argument("--budget-nodes", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--budget-seconds", type=float, default=DEFAULT_TIME_BUDGET)
    p.add_argument("--out", help="solution file (default stdout)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="run the full check battery on an instance")
    p.add_argument("instance")
    p.add_argument("--budget-nodes", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--budget-seconds", type=float, default=DEFAULT_TIME_BUDGET)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("width", help="exact treewidth/pathwidth of a graph")
    p.add_argument("graph", help="instance document or plain edge list")
    p.add_argument("--tw", action="store_true", help="treewidth only")
    p.add_argument("--pw", action="store_true", help="pathwidth only")
    p.add_argument("--budget-nodes", type=int, default=DEFAULT_WIDTH_NODE_BUDGET)
    p.add_argument("--budget-seconds", type=float,
                   default=DEFAULT_WIDTH_TIME_BUDGET)
    p.set_defaults(func=_cmd_width)

    p = sub.add_parser("render", help="draw an instance, optionally a solution")
    p.add_argument("instance")
    p.add_argument("solution", nargs="?")
    p.add_argument("--format", choices=["svg", "dot"])
    p.add_argument("--out", help="figure file (default stdout)")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("oracle", help="cross-check solver against the "
                       "unpruned reference on random instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--max-vertices", type=int, default=10)
    p.add_argument("--max-pairs", type=int, default=3)
    p.add_argument("--budget-nodes", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--budget-seconds", type=float, default=DEFAULT_TIME_BUDGET)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse turns `--opt=--` into an empty list without calling the
        # type.  `not >= 0` also refuses nan, which no deadline test trips.
        for dest, value in vars(args).items():
            if isinstance(value, list):
                parser.error(f"argument {dest}: expected one value, got '--'")
            if dest.startswith("budget_") and not value >= 0:
                parser.error(f"argument {dest}: expected a non-negative "
                             f"number, got {value}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
