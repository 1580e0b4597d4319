#!/usr/bin/env python3
"""Steadiness report: N untraced runs per workload, one seed each.

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 5 --workloads large-n --first-seed 100

Runs ``run.py`` one process at a time for BENCHMARK.json's ``run_seconds``,
by default on every workload of BENCHMARK.json (name others, such as
large-n, with --workloads). Then prints
for every end-to-end metric of every workload the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median.
A metric is flagged when its spread exceeds a tenth of its median, or a
third of its bound in BENCHMARK.json, so the bounds rest on measured spread.
``error_rate`` is failed / attempted over all runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    flagged = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        attempted = failed = 0
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit code {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.4f}" for n, v in values.items()), flush=True)
        print(f"\n{workload}: error_rate {failed / max(attempted, 1):.4f} ratio "
              f"({failed} failed of {attempted} attempted over {args.runs} runs)")
        print(f"  {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            spread = (q3 - q1) / med
            flags = []
            if spread > 0.1:
                flags.append("spread > median/10")
            if spread > bounds[name] / 3:
                flags.append("spread > bound/3")
            flagged += bool(flags)
            print(f"  {name:<12} {med:10.4f} {q1:10.4f} {q3:10.4f} {spread:8.2%} "
                  f"{bounds[name]:6.2f}  {'; '.join(flags)}")
        print(flush=True)
    print(f"{flagged} metric(s) flagged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
