"""The four benchmark workloads: fixed job lists of ops with correctness gates.

An op is one item of a workload's job list.  `run` is the timed call
into the package; `check` is the correctness gate, run untimed
afterwards, returning a failure reason or None; `fingerprint` gives the
exact counts and digests that must repeat in every pass and every run
of the same code.  Ops call the package through module attributes
looked up at call time, so the tracer's rebinding reaches them.

The gates use references to the package functions taken before any
tracing is installed, so checking never shows up in the per-layer spans.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import inputs

WORKLOADS = ("family", "oracle", "enumerate", "width")
SIZES = ("full", "tiny")
DEFAULT_SEED = 1
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


@dataclass
class Op:
    id: str
    kind: str
    options: dict
    input_digest: str
    run: Callable[[], Any]
    check: Callable[["Op", Any], str | None]
    fingerprint: Callable[[Any], list]
    expected: Any = None
    # The part of the result that expected/<workload>.json records.
    answer: Callable[[Any], Any] | None = None


@dataclass
class Workload:
    name: str
    seed: int
    size: str
    ops: list[Op]
    inputs: dict = field(default_factory=dict)
    # Called before every pass, untimed: clears files an earlier pass wrote.
    reset: Callable[[], None] | None = None

    def manifest(self) -> dict:
        return {
            "workload": self.name,
            "seed": self.seed,
            "size": self.size,
            "inputs": self.inputs,
            "job_list": [
                {"id": op.id, "kind": op.kind, "options": op.options, "input": op.input_digest}
                for op in self.ops
            ],
        }


def _pkg():
    return sys.modules["gridlinkage"]


def _mod(name: str):
    return importlib.import_module(f"gridlinkage.{name}")


class _Reference:
    """Untraced package functions used by the gates."""

    def __init__(self) -> None:
        pkg = _pkg()
        self.check_linkage = pkg.check_linkage
        self.parse_instance = pkg.parse_instance


def _solutions_digest(solutions) -> str:
    return hashlib.sha256(repr([s.paths for s in solutions]).encode()).hexdigest()


def _expected_answers(workload: str, size: str) -> dict:
    """Known answers per op id, the same for every seed (see make_expected.py)."""
    path = EXPECTED_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text()).get(size, {})


def _base_digest(solutions, perm: list[int]) -> str:
    """Digest of a solution set in the population's own vertex names."""
    inverse = {new: old for old, new in enumerate(perm)}
    keys = []
    for link in solutions:
        paths = [tuple(inverse[v] for v in path) for path in link.paths]
        keys.append(sorted(p if p[0] <= p[-1] else p[::-1] for p in paths))
    return inputs.digest(sorted(keys))


# -- family ---------------------------------------------------------------

# 16 rounds put the tail percentile (p95 of 227 ops) inside the group of
# calibrate_arc_rule ops instead of on the edge between two op groups.
FAMILY_ROUNDS = {"full": 16, "tiny": 1}


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def _crossing_profile(k: int) -> list[int]:
    # The paper's doubling profile: path 0 never enters the interior,
    # path i >= 1 crosses it 2^(i-1) times.
    return [0] + [2 ** (i - 1) for i in range(1, k + 1)]


def _family(seed: int, size: str, workdir: Path) -> Workload:
    ref = _Reference()
    pkg = _pkg()
    cli = _mod("cli")
    solver = _mod("solver")
    construction = _mod("construction")
    ops: list[Op] = []
    graphs = {k: construction.build_instance(k, s0_placement="bottom-left").graph for k in (1, 2)}

    def cli_run(argv: list[str]) -> Callable[[], CliResult]:
        def run() -> CliResult:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            return CliResult(code, out.getvalue(), err.getvalue())
        return run

    def read(path: Path) -> str:
        return path.read_text() if path.is_file() else ""

    def add_cli(op_id: str, argv: list[str], check, fingerprint, expected=0) -> None:
        # Paths in the manifest are relative to the per-run work directory.
        shown = [a.replace(str(workdir), "$WORK") for a in argv]
        ops.append(Op(op_id, "cli", {"argv": shown}, inputs.digest(shown),
                      cli_run(argv), check, fingerprint, expected))

    def exit_reason(op: Op, res: CliResult) -> str | None:
        if res.code != op.expected:
            return f"exit code {res.code}, want {op.expected}: {res.stderr.strip()[:200]}"
        return None

    def solution_doc(path: Path) -> dict:
        return json.loads(path.read_text())

    def pipeline(k: int, r: int) -> None:
        d = workdir / f"r{r}"
        inst, count_sol, span_sol, svg = (d / f"k{k}.json", d / f"k{k}.count.json",
                                          d / f"k{k}.span.json", d / f"k{k}.svg")
        side = 2 ** k + 1

        def check_generate(op, res):
            want = [f"vertices: {side * side}", f"pairs: {k + 1}"]
            return exit_reason(op, res) or next(
                (f"missing '{w}'" for w in want if w not in res.stdout.splitlines()), None)

        def check_count(op, res):
            if (reason := exit_reason(op, res)):
                return reason
            doc = solution_doc(count_sol)
            if doc["status"] != "solvable" or len(doc["solutions"]) != 1:
                return f"count cap 2: {doc['status']}, {len(doc['solutions'])} solutions"
            if doc["flags"]["unique"] is not True:
                return "uniqueness flag not set"
            return None

        def check_span(op, res):
            if (reason := exit_reason(op, res)):
                return reason
            doc = solution_doc(span_sol)
            if len(doc["solutions"]) != 1 or doc["flags"]["spanning"] is not True:
                return f"{len(doc['solutions'])} spanning solutions, want exactly 1"
            crossing = doc["crossing"]
            if crossing["per_path"] != _crossing_profile(k):
                return f"crossing profile {crossing['per_path']}, want {_crossing_profile(k)}"
            if crossing["total"] != 2 ** k - 1:
                return f"crossing total {crossing['total']}, want {2 ** k - 1}"
            return None

        def check_verify(op, res):
            want = ["uniqueness", "spanning", "crossing profile", "crossing total",
                    "no irrelevant vertices"]
            lines = res.stdout.splitlines()
            return exit_reason(op, res) or next(
                (f"verify did not PASS {w}" for w in want
                 if not any(line.startswith(f"PASS {w}:") for line in lines)), None)

        def check_render(op, res):
            text = read(svg)
            if (reason := exit_reason(op, res)):
                return reason
            if not text.startswith("<svg") or 'stroke-linecap="round"' not in text:
                return "figure lacks the svg root or the solution overlay"
            return None

        def check_width(op, res):
            want = [f"treewidth: {side} (exact)", f"pathwidth: {side} (exact)",
                    f"treewidth >= {side}: PASS", f"pathwidth >= {side}: PASS"]
            lines = res.stdout.splitlines()
            return exit_reason(op, res) or next(
                (f"missing '{w}'" for w in want if w not in lines), None)

        def fp_stdout(res):
            return [res.code, inputs.digest(res.stdout)]

        def fp_file(path):
            return lambda res: [res.code, inputs.digest(read(path))]

        def fp_solution(path):
            def fp(res):
                doc = solution_doc(path) if path.is_file() else {}
                return [res.code, doc.get("nodes_explored"), inputs.digest(doc.get("solutions"))]
            return fp

        tag = f"r{r}/k{k}"
        add_cli(f"{tag}/generate", ["generate", "-k", str(k), "--out", str(inst)],
                check_generate, fp_file(inst))
        add_cli(f"{tag}/solve-count", ["solve", str(inst), "--mode", "count", "--cap", "2",
                                       "--out", str(count_sol)], check_count, fp_solution(count_sol))
        add_cli(f"{tag}/solve-enumerate-spanning",
                ["solve", str(inst), "--mode", "enumerate", "--spanning", "--out", str(span_sol)],
                check_span, fp_solution(span_sol))
        add_cli(f"{tag}/verify", ["verify", str(inst)], check_verify, fp_stdout)
        add_cli(f"{tag}/render", ["render", str(inst), str(span_sol), "--out", str(svg)],
                check_render, fp_file(svg))
        if k == 1:
            add_cli(f"{tag}/width", ["width", str(inst)], check_width, fp_stdout)

        # Library call with no CLI command: vitality of the solution the
        # spanning enumeration just wrote.
        graph = graphs[k]

        def run_vital():
            paths = tuple(tuple(p) for p in solution_doc(span_sol)["solutions"][0])
            return solver.is_vital_linkage(graph, pkg.Linkage(paths, graph))

        ops.append(Op(f"{tag}/is_vital_linkage", "library", {"k": k, "match": "pairing"},
                      inputs.digest({"k": k}), run_vital,
                      lambda op, res: None if res is True else f"is_vital_linkage returned {res}",
                      lambda res: [res]))

    def calibrate_op(r: int) -> Op:
        def check(op, res):
            got = [res.rule.identifier, res.s0_placement]
            return None if got == op.expected else f"calibrated {got}, want {op.expected}"
        return Op(f"r{r}/calibrate_arc_rule", "library", {"k_max": 2}, inputs.digest({"k_max": 2}),
                  lambda: construction.calibrate_arc_rule(2), check,
                  lambda res: [res.rule.identifier, res.s0_placement,
                               [list(rep.violations) for rep in res.reports]],
                  ["pow2", "bottom-left"])

    def k3_block() -> None:
        d = workdir / "k3"
        inst = d / "k3.json"
        add_cli("k3/generate", ["generate", "-k", "3", "--out", str(inst)], exit_reason,
                lambda res: [res.code, inputs.digest(read(inst))])
        for spanning in (True, False):
            sol = d / ("k3.span.json" if spanning else "k3.decide.json")
            argv = ["solve", str(inst), "--order", "min-degree", "--pair-order", "auto", "--out", str(sol)]
            if spanning:
                argv.insert(2, "--spanning")

            def check(op, res, sol=sol, spanning=spanning):
                if (reason := exit_reason(op, res)):
                    return reason
                doc = solution_doc(sol)
                if doc["status"] != "solvable" or len(doc["solutions"]) != 1:
                    return f"decide: {doc['status']}, {len(doc['solutions'])} solutions"
                instance = ref.parse_instance(inst.read_text())
                try:
                    ref.check_linkage(instance, [tuple(p) for p in doc["solutions"][0]], spanning)
                except ValueError as exc:
                    return f"check_linkage rejects the solution: {exc}"
                return None

            def fp(res, sol=sol):
                doc = solution_doc(sol) if sol.is_file() else {}
                return [res.code, doc.get("nodes_explored"), inputs.digest(doc.get("solutions"))]

            add_cli(f"k3/solve-decide{'-spanning' if spanning else ''}", argv, check, fp)

    # Blocks keep their internal order (generate before solve before
    # render); the seed shuffles the blocks, and k = 3 is skipped at the
    # tiny size because it alone takes over ten seconds.
    blocks: list[Callable[[], None]] = []
    for r in range(FAMILY_ROUNDS[size]):
        (workdir / f"r{r}").mkdir(parents=True, exist_ok=True)
        blocks.append(lambda r=r: pipeline(1, r))
        blocks.append(lambda r=r: pipeline(2, r))
        blocks.append(lambda r=r: ops.append(calibrate_op(r)))
    if size == "full":
        (workdir / "k3").mkdir(parents=True, exist_ok=True)
        blocks.append(k3_block)
    random.Random(f"family/{seed}").shuffle(blocks)
    for block in blocks:
        block()

    def reset() -> None:
        for path in workdir.glob("*/*"):
            path.unlink()

    return Workload("family", seed, size, ops,
                    {"rounds": FAMILY_ROUNDS[size], "k3": size == "full"}, reset)


# -- oracle ---------------------------------------------------------------

ORACLE_COUNT = {"full": 6000, "tiny": 60}


def _oracle(seed: int, size: str, workdir: Path) -> Workload:
    pkg = _pkg()
    solver = _mod("solver")
    ops = []
    population = inputs.oracle_population(ORACLE_COUNT[size])
    for i, data in enumerate(inputs.relabeled(population, "oracle", seed)):
        instance = pkg.Instance.make(pkg.Graph.from_edges(data["n"], data["edges"]), data["pairs"])

        def run(instance=instance):
            return (solver.solve(instance, mode="enumerate_all"),
                    solver.brute_force_oracle(instance))

        def check(op, res):
            fast, slow = res
            if fast.status != slow.status:
                return f"status {fast.status}, oracle {slow.status}"
            if [s.paths for s in fast.solutions] != [s.paths for s in slow.solutions]:
                return f"{len(fast.solutions)} solutions, oracle {len(slow.solutions)}"
            return None

        ops.append(Op(f"{i}", "solve+oracle", {"mode": "enumerate_all"}, inputs.digest(data),
                      run, check,
                      lambda res: [res[0].nodes_explored, res[1].nodes_explored,
                                   len(res[0].solutions), _solutions_digest(res[0].solutions)]))
    return Workload("oracle", seed, size, ops,
                    {"count": ORACLE_COUNT[size], "strata": len(inputs.ORACLE_STRATA),
                     "population_seed": inputs.POPULATION_SEED})


# -- enumerate ------------------------------------------------------------

ENUMERATE_PER_STRATUM = {"full": 18, "tiny": 3}


def _enumerate(seed: int, size: str, workdir: Path) -> Workload:
    ref = _Reference()
    pkg = _pkg()
    solver = _mod("solver")
    expected = _expected_answers("enumerate", size)
    spanning_keys: dict[int, set] = {}
    ops = []
    population = inputs.enumerate_population(ENUMERATE_PER_STRATUM[size])
    for i, data in enumerate(inputs.relabeled(population, "enumerate", seed)):
        instance = pkg.Instance.make(pkg.Graph.from_edges(data["n"], data["edges"]), data["pairs"])
        for spanning in (False, True):
            op_id = f"{i}/{'spanning' if spanning else 'all'}"

            def run(instance=instance, spanning=spanning):
                return solver.solve(instance, mode="enumerate_all", require_spanning=spanning)

            def check(op, out, i=i, instance=instance, spanning=spanning):
                if out.status == "aborted":
                    return "search aborted"
                keys = set()
                for link in out.solutions:
                    try:
                        ref.check_linkage(instance, link.paths, spanning)
                    except ValueError as exc:
                        return f"invalid linkage: {exc}"
                    keys.add(link.canonical_key())
                if len(keys) != len(out.solutions):
                    return f"{len(out.solutions) - len(keys)} duplicate solutions"
                n = instance.graph.vertex_count
                covering = {key for key in keys if sum(map(len, key)) == n}
                if not spanning:
                    spanning_keys[i] = covering
                elif keys != spanning_keys.get(i):
                    return "spanning solutions differ from the spanning subset of all solutions"
                if op.expected is not None:
                    got = op.answer(out)
                    if got != op.expected:
                        return f"{got[0]} solutions (digest {got[1][:12]}), want {op.expected[0]}"
                return None

            ops.append(Op(op_id, "solve", {"mode": "enumerate_all", "require_spanning": spanning,
                                           "grid": [data["rows"], data["cols"]]},
                          inputs.digest(data), run, check,
                          lambda out: [out.nodes_explored, len(out.solutions),
                                       _solutions_digest(out.solutions)],
                          expected.get(op_id),
                          lambda out, perm=data["perm"]: [len(out.solutions),
                                                          _base_digest(out.solutions, perm)]))
    return Workload("enumerate", seed, size, ops,
                    {"per_stratum": ENUMERATE_PER_STRATUM[size],
                     "strata": [list(s) for s in inputs.ENUMERATE_STRATA],
                     "population_seed": inputs.POPULATION_SEED})


# -- width ----------------------------------------------------------------

WIDTH_RANDOM_PER_SIZE = {"full": 5, "tiny": 1}


def _width(seed: int, size: str, workdir: Path) -> Workload:
    pkg = _pkg()
    width = _mod("width")
    construction = _mod("construction")
    expected = _expected_answers("width", size)
    treewidths: dict[str, int] = {}
    ops = []

    # (name, graph, plain data, known width, kinds).  Treewidth of the
    # k = 2 graph (1.9 M nodes, 26 s on a shared 2-vCPU Xeon) and of the 5x5 grid (does not
    # finish) are left out: either alone outlasts a run.
    # Every graph is relabeled by the seed; widths do not depend on names.
    population = []
    for k in ((1, 2) if size == "full" else (1,)):
        g = construction.build_instance(k, s0_placement="bottom-left").graph
        kinds = ("treewidth", "pathwidth") if k == 1 else ("pathwidth",)
        population.append((f"k{k}", {"n": g.vertex_count, "edges": g.sorted_edges()},
                           2 ** k + 1, kinds))
    for n in (2, 3, 4, 5) if size == "full" else (2, 3):
        kinds = ("treewidth", "pathwidth") if n < 5 else ("pathwidth",)
        population.append((f"grid{n}", {"n": n * n, "edges": inputs.grid_edges(n, n)}, n, kinds))
    for i, data in enumerate(inputs.width_random_graphs(WIDTH_RANDOM_PER_SIZE[size])):
        population.append((f"random{i}", data, None, ("treewidth", "pathwidth")))
    graphs = [
        (name, pkg.Graph.from_edges(data["n"], data["edges"]), data, known, kinds)
        for (name, _, known, kinds), data in zip(
            population, inputs.relabeled([p[1] for p in population], "width", seed))
    ]

    for name, graph, data, known, kinds in graphs:
        for kind in kinds:
            op_id = f"{name}/{kind}"
            if kind == "treewidth":
                def run(graph=graph):
                    result = width.treewidth_exact(graph)
                    return result, width.width_of_elimination_order(graph, result.certificate)
            else:
                def run(graph=graph):
                    result = width.pathwidth_exact(graph)
                    return result, width.width_of_layout(graph, result.certificate)

            def check(op, res, name=name, kind=kind):
                result, rechecked = res
                if not result.exact:
                    return "budget exhausted, value is only an upper bound"
                if rechecked != result.value:
                    return f"certificate re-checks to {rechecked}, result says {result.value}"
                if op.expected is not None and op.answer(res) != op.expected:
                    return f"{kind} {result.value}, want {op.expected}"
                if kind == "treewidth":
                    treewidths[name] = result.value
                elif name in treewidths and treewidths[name] > result.value:
                    return f"treewidth {treewidths[name]} exceeds pathwidth {result.value}"
                return None

            want = known if known is not None else expected.get(op_id)
            ops.append(Op(op_id, kind, {"graph": name}, inputs.digest(data), run, check,
                          lambda res: [res[0].value, res[0].nodes_explored,
                                       inputs.digest(res[0].certificate)],
                          want, lambda res: res[0].value))
    return Workload("width", seed, size, ops,
                    {"random_per_size": WIDTH_RANDOM_PER_SIZE[size],
                     "random_sizes": list(inputs.WIDTH_RANDOM_SIZES),
                     "population_seed": inputs.POPULATION_SEED})


BUILDERS = {"family": _family, "oracle": _oracle, "enumerate": _enumerate, "width": _width}


def build(name: str, seed: int, size: str, workdir: Path) -> Workload:
    """Generate the inputs of one workload and its job list."""
    return BUILDERS[name](seed, size, workdir)
