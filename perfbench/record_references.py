#!/usr/bin/env python3
"""Record the default-seed reference artifacts that run.py compares against.

    python3 perfbench/record_references.py

Runs one traced iteration of every workload at both sizes with the default
seed and writes the artifacts its checks return (digests of report.json,
selection.json, the tree JSON and the oracle partition indices; scores and
losses as floats) and its invariant layer counts to references.json. Record only from a commit whose
outputs are known good: later runs treat any difference as a failure.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import spans
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    refs: dict = {}
    work = run.ROOT / ".perfbench_work" / "references"
    try:
        for size in ("full", "smoke"):
            for name, cls in WORKLOADS.items():
                sr = run.import_program()
                workload = cls(sr, DEFAULT_SEED, size, work, run.worker_args(sr))
                workload.prepare()
                runner = run.Runner(workload, None)
                tracer = spans.Tracer()
                restore = spans.install(tracer, sr)
                try:
                    runner.iteration(tracer)
                finally:
                    restore()
                runner.check_counts(spans.run_metrics(tracer.spans, tracer.counts[0]))
                if runner.failed:
                    print(f"{size}/{name}: checks failed, nothing written", file=sys.stderr)
                    return 1
                refs.setdefault(size, {})[name] = {
                    k: v for op in runner.first.values() for k, v in op.items()}
                refs[size][name]["counts"] = runner.first_counts
                print(f"{size}/{name}: {len(refs[size][name])} artifacts")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
