"""Self-tests of the benchmark, at the tiny job-list size.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    units = {m["name"]: m["unit"] for m in wanted}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines)
    assert any(line.startswith("fail_ratio ") for line in lines)


def test_metrics_of_the_benchmark_spec_are_what_the_runner_reports():
    from tracing import LAYER_METRICS

    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(LAYER_METRICS)


def test_wrong_expected_answer_counts_as_failure_without_crashing(tmp_path):
    run.import_package()
    import workloads

    workload = workloads.build("width", 1, "tiny", tmp_path)
    op = next(op for op in workload.ops if op.id == "grid3/treewidth")
    assert op.expected == 3
    op.expected = 4
    answers = run.Answers()
    for _ in range(2):
        [record] = run.run_passes(workload, answers, seconds=0)
        assert len(record["op_ns"]) == len(record["op_rel"]) == len(workload.ops)
        assert record["failures"] == {"grid3/treewidth": "treewidth 3, want 4"}
    assert answers.errors == []


def test_wrong_expected_answer_reaches_the_result_line(monkeypatch, capsys):
    run.import_package()
    import workloads

    build = workloads.BUILDERS["oracle"]

    def broken(seed, size, workdir):
        workload = build(seed, size, workdir)
        first = workload.ops[0]
        check = first.check
        first.check = lambda op, res: check(op, res) or "deliberately wrong expected answer"
        return workload

    monkeypatch.setitem(workloads.BUILDERS, "oracle", broken)
    code = run.main(["--workload", "oracle", "--seed", "2", "--seconds", "0.2",
                     "--trace", "0", "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] is False
    passes = result["attempted"] // len(workloads.build("oracle", 2, "tiny", Path(".")).ops)
    assert result["failed"] == passes >= 1


def test_spans_nest_through_rebound_functions():
    package = run.import_package()
    from tracing import NAME, PARENT, Tracer

    instance = package.build_instance(1, s0_placement="bottom-left")
    tracer = Tracer()
    tracer.install()
    try:
        package.irrelevant_vertices(instance)
    finally:
        tracer.uninstall()
    names = [span[NAME] for span in tracer.spans]
    assert names[0] == "solver.irrelevant_vertices"
    assert names.count("solver.solve") == 1 + instance.graph.vertex_count - 4
    for span in tracer.spans[1:]:
        parent = tracer.spans[span[PARENT]][NAME]
        want = "solver.solve" if span[NAME] == "solver.check_linkage" else "solver.irrelevant_vertices"
        assert parent == want
    assert package.solve.__name__ == "solve" and not hasattr(package.solve, "__wrapped__")


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    import inputs

    for population in (inputs.oracle_population(50), inputs.enumerate_population(2),
                       inputs.width_random_graphs(1)):
        five, again, six = (inputs.relabeled(population, "test", s) for s in (5, 5, 6))
        assert inputs.digest(five) == inputs.digest(again) != inputs.digest(six)


def test_without_the_package_source_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "family", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
