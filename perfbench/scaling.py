#!/usr/bin/env python3
"""Scaling sweep of each layer over n and q. Diagnostic, never a gate.

    python3 perfbench/scaling.py

Times one call of each layer at n in {10^2, 10^3, 10^4, 10^5} on the
three-input signal, and, for the layers that see the feature matrix, at the
q that the bu (24) and ub (42) architectures produce. Each point runs in its
own process, killed after TIMEOUT_S seconds and recorded as a timeout.

The O(n^2) scorers build n x n temporaries per column: t0 about four float64
matrices (32 n^2 bytes), kendall about five (40 n^2 bytes). A point whose
estimate exceeds MEM_BUDGET_MB is never launched and is recorded as skipped;
t0 at n=10^4 alone would need about 3.2 GB.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

NS = (100, 1000, 10000, 100000)
TIMEOUT_S = 30
MEM_BUDGET_MB = 512
ARCHS = ("bu", "ub")
QUADRATIC_BYTES_PER_N2 = {"score.t0": 32, "score.kendall": 40}
FEATURE_LAYERS = ("symgen.generate_report", "score.t0", "score.pearson", "score.spearman",
                  "score.kendall", "score.chatterjee", "score.tree-importance",
                  "tree.grow_tree", "tree.predict_rows")
DATA_LAYERS = ("core.load_csv", "partition.oracle_fixed_size",
               "partition.oracle_varying_size")


def measure(layer: str, n: int, arch: str) -> float:
    """Seconds for one call of ``layer`` on generated inputs of size n."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from symrank import core, evalsel, partition, symgen, tree

    rng = np.random.default_rng([n, 7])
    x = rng.uniform(size=(n, 3))
    y = 2.0 * x[:, 0] ** 3 + 5.0 * x[:, 2] + 10.0 + np.sqrt(0.1) * rng.standard_normal(n)
    ds = core.build_dataset(x, y)
    if layer == "core.load_csv":
        path = ROOT / ".perfbench_work" / f"scaling-{n}.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savetxt(path, np.column_stack([x, y]), delimiter=",", header="x1,x2,x3,y",
                   comments="", fmt="%.17g")
        try:
            start = time.perf_counter()
            core.load_csv(path, "y")
            return time.perf_counter() - start
        finally:
            path.unlink()
    if layer in DATA_LAYERS:
        fn = {"partition.oracle_fixed_size": lambda: partition.oracle_fixed_size(y, n // 3),
              "partition.oracle_varying_size": lambda: partition.oracle_varying_size(y)}[layer]
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    ops = symgen.build_operator_set(("id", "cube"), ("+", "*"))
    start = time.perf_counter()
    fm = symgen.generate_report(ds, symgen.Architecture(arch), ops).features
    if layer == "symgen.generate_report":
        return time.perf_counter() - start
    if layer.startswith("score."):
        start = time.perf_counter()
        evalsel.score_features(fm, y, layer.split(".", 1)[1], seed=n)
        return time.perf_counter() - start
    start = time.perf_counter()
    grown = tree.grow_tree(fm.z, y, 3)
    if layer == "tree.grow_tree":
        return time.perf_counter() - start
    start = time.perf_counter()
    tree.predict_rows(grown, fm.z)
    return time.perf_counter() - start


def sweep_point(layer: str, n: int, arch: str) -> str:
    """Seconds of one point, run in a child process, or why it has none."""
    need_mb = QUADRATIC_BYTES_PER_N2.get(layer, 0) * n * n / 2**20
    if need_mb > MEM_BUDGET_MB:
        return f"skipped: n x n temporaries ~{need_mb:.0f} MB > budget {MEM_BUDGET_MB} MB"
    cmd = [sys.executable, __file__, "--point", f"{layer},{n},{arch}"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timeout after {TIMEOUT_S} s"
    if proc.returncode != 0:
        return f"failed: {proc.stderr.strip().splitlines()[-1]}"
    return f"{json.loads(proc.stdout)['seconds']:.4f} s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--point", help=argparse.SUPPRESS)  # layer,n,arch in a child
    args = parser.parse_args(argv)

    if args.point:
        layer, n, arch = args.point.split(",")
        print(json.dumps({"seconds": measure(layer, int(n), arch)}))
        return 0

    if not (ROOT / "src" / "symrank" / "__init__.py").is_file():
        print("error: no symrank package under src/", file=sys.stderr)
        return 2
    for n in NS:
        plan = [(layer, "-") for layer in DATA_LAYERS]
        plan += [(layer, arch) for arch in ARCHS for layer in FEATURE_LAYERS]
        for layer, arch in plan:
            print(f"{layer:<32} n={n:<7} arch={arch:<3} {sweep_point(layer, n, arch)}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
