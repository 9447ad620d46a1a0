"""Benchmark of the gridlinkage package: four closed-loop workloads.

Run from the repository root, one workload per invocation:

    python3 perfbench/run.py --workload family --seed 1 --seconds 25 --trace 0

`--workload all` runs the four in turn, each in a fresh interpreter.
The benchmark's own tests: `python3 -m pytest perfbench/tests -q`.

Workloads (see workloads.py): `family` (the paper's certification
pipeline through the CLI, k = 1..3), `oracle` (tiny random instances,
solver against the brute-force reference), `enumerate` (exhaustive
enumeration on small grids) and `width` (exact treewidth/pathwidth).
One client in one process runs each workload's fixed job list, starting
each op only after the previous one returned, and repeats the pass
while another one fits in --seconds (always at least one pass).

Each op's latency is its median over the passes of the run, both in
milliseconds and relative to the machine's speed (speed.py).  run_* is
the sum of these over the job list, op_p50_* their median and
op_tail_* the highest percentile in TAIL_LADDER with at least ten ops
above it.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 measures untraced passes for half the time and traced passes
for the other half, and prints the per-layer metrics of tracing.py.

Every op's answer is checked; failures count into `failed`, and
fail_ratio = failed / attempted is printed with the metrics.  Node
counts, solution counts and digests must repeat exactly across passes,
between traced and untraced passes, and across runs of the same code
and seed (kept under .bench_out/ledger); a mismatch is a benchmark
error and makes the run exit 1.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# setup_s is the median of this many fresh interpreters.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# The tail percentile is the highest of these that leaves at least
# TAIL_BEYOND of the job list's ops above it; it is fixed per workload.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

# Op times are reported relative to the machine's speed at the time (see
# speed.py); the raw times in seconds and milliseconds are printed next
# to them.
END_TO_END = (
    ("setup_s", "s"),
    ("run_ref", "ref"),
    ("op_p50_ref", "ref"),
    ("op_tail_ref", "ref"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from workloads import DEFAULT_SEED, SIZES, WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="'all' runs each workload in turn, each in a fresh interpreter")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full",
                   help="'tiny' shrinks every job list, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="import the package, generate the inputs and exit (times setup_s)")
    return p.parse_args(argv)


def import_package():
    """Import gridlinkage from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "gridlinkage" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src / 'gridlinkage'}")
    sys.path.insert(0, str(src))
    import gridlinkage

    if Path(gridlinkage.__file__).resolve().parent != (src / "gridlinkage").resolve():
        raise SystemExit(f"error: imported gridlinkage from {gridlinkage.__file__}")
    return gridlinkage


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gridlinkage").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_and_code(package) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "source_sha256": code_digest(),
        "gridlinkage": package.__version__,
    }


def measure_setup(args: argparse.Namespace) -> float:
    """Median time from spawning a fresh interpreter to the end of its setup.

    The child prints the wall-clock time at which it finished importing
    and generating; timing the child's exit instead would add teardown
    and the 50 ms polling step of a subprocess wait with a timeout.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.time()
        done = subprocess.run(cmd, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
                              capture_output=True, text=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times)


class Answers:
    """First-seen fingerprint and gate verdict of every op, shared by all passes.

    An op whose fingerprint equals the one already checked gets the same
    verdict without re-running its gate; a different fingerprint is a
    repeatability error and is checked afresh.
    """

    def __init__(self) -> None:
        self.known: dict[str, tuple[list, str | None]] = {}
        self.errors: list[str] = []

    def verdict(self, op, result) -> str | None:
        fingerprint = op.fingerprint(result)
        known = self.known.get(op.id)
        if known is not None and known[0] == fingerprint:
            return known[1]
        reason = op.check(op, result)
        if known is None:
            self.known[op.id] = (fingerprint, reason)
        else:
            self.errors.append(f"op {op.id} gave {fingerprint}, earlier {known[0]}")
        return reason


def run_pass(workload, answers: Answers, tracer=None) -> dict:
    """One pass over the job list: when each op ran, and which failed."""
    op_start, op_end, failures = array("q"), array("q"), {}
    if workload.reset is not None:
        workload.reset()
    gc.collect()
    start = time.perf_counter()
    for op in workload.ops:
        if tracer is not None:
            tracer.op = op.id
        op_start.append(time.perf_counter_ns())
        try:
            result, error = op.run(), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        op_end.append(time.perf_counter_ns())
        if tracer is not None:
            tracer.op = None
        if error is None:
            try:
                error = answers.verdict(op, result)
            except Exception as exc:  # a gate that cannot read the answer fails the op
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures[op.id] = error
    return {"op_start": op_start, "op_end": op_end, "failures": failures,
            "wall_s": time.perf_counter() - start}


def run_passes(workload, answers: Answers, seconds: float, tracer=None) -> list[dict]:
    """Repeat passes while the next one is expected to end within `seconds`,
    then add each op's net time (`op_ns`) and relative time (`op_rel`)."""
    passes = []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        while True:
            passes.append(run_pass(workload, answers, tracer))
            if time.perf_counter() - start + passes[-1]["wall_s"] > seconds:
                break
    for record in passes:
        measured = [probe.measure(t0, t1) for t0, t1 in zip(record["op_start"], record["op_end"])]
        record["op_ns"] = array("q", (ns for ns, _ in measured))
        record["op_rel"] = array("d", (rel for _, rel in measured))
    return passes


def ledger_errors(workload, answers: Answers, stamp: dict) -> list[str]:
    """Compare with an earlier run of the same code and seed, or record this one."""
    fingerprints = json.loads(json.dumps({op_id: fp for op_id, (fp, _) in answers.known.items()}))
    path = OUT / "ledger" / (f"{workload.name}-{workload.seed}-{workload.size}-"
                             f"{stamp['source_sha256'][:16]}.json")
    if path.is_file():
        earlier = json.loads(path.read_text())
        return [f"op {op_id} gave {fp}, an earlier run gave {earlier[op_id]}"
                for op_id, fp in fingerprints.items() if op_id in earlier and earlier[op_id] != fp]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(fingerprints, sort_keys=True))
    return []


def tail_percentile(ops_per_pass: int) -> float:
    return next((p for p in TAIL_LADDER if ops_per_pass * (100 - p) / 100 >= TAIL_BEYOND),
                TAIL_LADDER[-1])


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # nearest rank, 1-based
    return ordered[int(rank) - 1]


def per_op(passes: list[dict], key: str) -> list[float]:
    """Each op's median over the passes of a run."""
    return [statistics.median(times) for times in zip(*(record[key] for record in passes))]


def end_to_end(passes: list[dict], setup_s: float, op_ids: list[str]) -> tuple[dict, dict]:
    """End-to-end metrics, plus the same timings in milliseconds as `detail`."""
    rel = per_op(passes, "op_rel")
    ms = [ns / 1e6 for ns in per_op(passes, "op_ns")]
    tail_p = tail_percentile(len(rel))
    values = {
        "setup_s": setup_s,
        "run_ref": sum(rel),
        "op_p50_ref": statistics.median(rel),
        "op_tail_ref": percentile(rel, tail_p),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"tail_percentile": tail_p, "op_samples": len(rel), "passes": len(passes),
              "run_s": sum(ms) / 1e3, "op_p50_ms": statistics.median(ms),
              "op_tail_ms": percentile(ms, tail_p), "ms_per_ref": sum(ms) / sum(rel),
              "per_op_ms_ref": dict(zip(op_ids, zip(ms, rel)))}
    return values, detail


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own interpreter, one at a time."""
    import workloads

    code = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    package = import_package()
    import workloads
    from tracing import LAYER_METRICS, Tracer, layer_metrics

    name = f"{args.workload}-{args.seed}-{args.size}"
    workdir = OUT / f"work-{name}-{os.getpid()}"
    try:
        if args.setup_only:
            workloads.build(args.workload, args.seed, args.size, workdir)
            print(repr(time.time()))
            return 0
        setup_s = measure_setup(args) if args.trace == 0 else None
        workload = workloads.build(args.workload, args.seed, args.size, workdir)
        stamp = machine_and_code(package)
        manifest_path = OUT / f"manifest-{name}.json"
        OUT.mkdir(exist_ok=True)
        manifest_path.write_text(json.dumps(workload.manifest(), indent=1, sort_keys=True) + "\n")

        answers = Answers()
        if args.trace == 0:
            passes = run_passes(workload, answers, args.seconds)
            traced, tracer = [], None
        else:
            passes = run_passes(workload, answers, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_passes(workload, answers, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = passes + traced
    errors = answers.errors + ledger_errors(workload, answers, stamp)
    attempted = sum(len(r["op_ns"]) for r in everything)
    failures = [(op_id, reason) for r in everything for op_id, reason in r["failures"].items()]

    if args.trace == 0:
        values, detail = end_to_end(passes, setup_s, [op.id for op in workload.ops])
        units = dict(END_TO_END)
    else:
        untraced = sum(per_op(passes, "op_rel"))
        traced_rel = sum(per_op(traced, "op_rel"))
        totals = tracer.totals()
        values = layer_metrics(totals, len(traced), traced_rel / untraced)
        units = dict(LAYER_METRICS)
        spans_path = OUT / f"spans-{name}.tsv.gz"
        tracer.write(spans_path)
        detail = {"untraced_passes": len(passes), "traced_passes": len(traced),
                  "untraced_run_ref": untraced, "traced_run_ref": traced_rel,
                  "spans": len(tracer.spans), "spans_file": spans_path.relative_to(ROOT).as_posix(),
                  "self_ms_per_pass": {fn: row["self_ns"] / 1e6 / len(traced)
                                       for fn, row in sorted(totals.items())}}
    metrics = {key: {"value": values[key], "unit": units[key]} for key in units}

    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "machine_and_code": stamp,
        "manifest": manifest_path.relative_to(ROOT).as_posix(),
        "manifest_sha256": hashlib.sha256(manifest_path.read_bytes()).hexdigest(),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "errors": errors[:20],
        **detail,
        "metrics": metrics,
    }
    (OUT / f"result-{name}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"# gridlinkage benchmark: workload={args.workload} seed={args.seed} "
          f"size={args.size} trace={args.trace}")
    print(f"# machine and code: {json.dumps(stamp, sort_keys=True)}")
    print(f"# manifest: {report['manifest']} sha256={report['manifest_sha256']}")
    print(f"# {json.dumps({k: v for k, v in detail.items() if k != 'per_op_ms_ref'}, sort_keys=True)}")
    for key, metric in metrics.items():
        print(f"{key:40s} {metric['value']:>16.6f} {metric['unit']}")
    if args.trace == 0:
        for key, unit in (("run_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms")):
            print(f"{key:40s} {detail[key]:>16.6f} {unit} (raw time, not probe-relative)")
    print(f"{'fail_ratio':40s} {report['fail_ratio']:>16.6f} ratio "
          f"({len(failures)}/{attempted})")
    for op_id, reason in failures[:20]:
        print(f"# FAILED {op_id}: {reason}", file=sys.stderr)
    for error in errors[:20]:
        print(f"# BENCHMARK ERROR (not noise): {error}", file=sys.stderr)
    correct = not failures and not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
