#!/usr/bin/env python3
"""Time the bootstrap forests of a benchmark workload, or digest the grower's outputs.

    python3 tools/forest_replay.py --workload signal-forest --reps 12
    python3 tools/forest_replay.py --workload csv-experiment --reps 12
    python3 tools/forest_replay.py --digest

A replay runs the ``experiment`` operation of a ``perfbench`` workload (full
size, ``--seed``) once, the way the benchmark does, and sums the wall time
and the minor page faults (``resource.getrusage``) spent inside
``tree.ensemble_importance``: signal-forest grows 36 forests of 20 trees on
(100, 24) and (100, 42) matrices, csv-experiment one forest on (2000, 24).
One warm-up replay is not counted. The last stdout line is one JSON object
with the median and every replay's numbers.

``--digest`` prints one SHA-256 of the outputs of random trees (tied
columns, depth 1-7, min_leaf 1-3), forests, larger forests and deep trees,
and oracle partitions: two versions of the grower that print the same
digest give the same bits on all of them.

``--src`` imports symrank from another checkout's ``src/``, so that one
script measures two versions with the same code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def replay(sr, workload: str, seed: int, reps: int) -> dict:
    """Forest seconds and minor faults per replay of the workload's experiment."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    spent = {"s": 0.0, "faults": 0, "forests": 0}
    grow = sr.tree.ensemble_importance

    def timed(*args, **kwargs):
        faults, start = minor_faults(), time.perf_counter()
        try:
            return grow(*args, **kwargs)
        finally:
            spent["s"] += time.perf_counter() - start
            spent["faults"] += minor_faults() - faults
            spent["forests"] += 1

    sr.tree.ensemble_importance = timed
    runs = []
    with tempfile.TemporaryDirectory() as root:
        w = WORKLOADS[workload](sr, seed, "full", Path(root), [])
        w.prepare()
        (op,) = [op for op in w.ops() if op.name == "experiment"]
        for _ in range(reps + 1):
            spent.update(s=0.0, faults=0, forests=0)
            op.check(op.call())
            runs.append(dict(spent))
    runs = runs[1:]
    return {
        "workload": workload, "seed": seed, "forests": runs[0]["forests"],
        "forest_s_median": round(statistics.median(r["s"] for r in runs), 4),
        "minor_faults_median": statistics.median(r["faults"] for r in runs),
        "forest_s": [round(r["s"], 4) for r in runs],
        "minor_faults": [r["faults"] for r in runs],
    }


def digest(sr) -> str:
    """One SHA-256 over trees, forests and oracle partitions of fixed random inputs."""
    h = hashlib.sha256()

    def add(*arrays) -> None:
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())

    def add_tree(t) -> None:
        add(t.coordinate, t.threshold, t.right, t.mean)

    rng = np.random.default_rng(20261022)
    for trial in range(300):
        n, q = int(rng.integers(2, 300)), int(rng.integers(1, 8))
        levels = int(rng.integers(2, 12))  # few distinct values: many ties
        z = rng.integers(0, levels, size=(n, q)) * rng.normal(size=q)
        if q > 1:
            z[:, -1] = z[:, 0]  # one rank class of two columns
        y = rng.normal(size=n).round(int(rng.integers(0, 3)))
        add_tree(sr.tree.grow_tree(z, y, int(rng.integers(1, 8)), int(rng.integers(1, 4))))
        if trial % 3 == 0:
            add(sr.tree.ensemble_importance(z, y, int(rng.integers(1, 30)),
                                            int(rng.integers(1, 6)), trial))
        if trial % 5 == 0 and n > 4:
            i_star, part = sr.partition.oracle_varying_size(rng.normal(size=n))
            add(np.array([i_star]), np.array(part.left), np.array(part.right),
                np.array([part.mean_left, part.mean_right, part.sse_left, part.sse_right]))
    for n in (2000, 5000):
        z = rng.normal(size=(n, 6)).round(1)
        y = z[:, 0] ** 3 + z[:, 2] + rng.normal(size=n)
        add(sr.tree.ensemble_importance(z, y, 20, 3, n))
        add_tree(sr.tree.grow_tree(z, y, 10))
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("signal-forest", "csv-experiment"))
    parser.add_argument("--digest", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=12)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args()
    if args.digest == (args.workload is not None):
        parser.error("give exactly one of --workload and --digest")
    sys.path.insert(0, str(args.src.resolve()))
    import symrank.cli  # noqa: F401  (loads the package as the CLI does)
    import symrank as sr

    if args.digest:
        print(json.dumps({"digest": digest(sr), "src": str(args.src)}))
    else:
        print(json.dumps(replay(sr, args.workload, args.seed, args.reps)))


if __name__ == "__main__":
    main()
