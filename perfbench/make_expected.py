"""Regenerate expected/<workload>.json, the known answers of the fixed populations.

Run from the repository root after changing a population (inputs.py or
the job lists in workloads.py), never to make a failing gate pass:

    python3 perfbench/make_expected.py

Answers come from one pass at the default seed.  Each must first pass
its op's independent gate (linkage re-validation, distinct solutions,
certificate re-checks, known grid widths), and each holds for every
seed, because seeds only relabel vertices.
"""

import json
import sys

import run
import workloads


def main() -> int:
    run.import_package()
    for name in ("enumerate", "width"):
        doc = {}
        for size in workloads.SIZES:
            workload = workloads.build(name, workloads.DEFAULT_SEED, size, run.OUT / "unused")
            doc[size] = {}
            for op in workload.ops:
                if op.id.startswith("random") or name == "enumerate":
                    op.expected = None
                result = op.run()
                reason = op.check(op, result)
                if reason is not None:
                    raise SystemExit(f"{name}/{size} op {op.id} fails its gate: {reason}")
                doc[size][op.id] = op.answer(result)
        workloads.EXPECTED_DIR.mkdir(exist_ok=True)
        path = workloads.EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
