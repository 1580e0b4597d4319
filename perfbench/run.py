#!/usr/bin/env python3
"""Run one symrank benchmark workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload signal-forest --seed 0 --seconds 30 --trace 0

Run from a checkout: the package is imported from ``src/`` next to this
directory, and the run exits with code 2 when that is missing. Scratch files
go to ``.perfbench_work/`` and traces to ``.perfbench_traces/`` in the
checkout.

A set-up is a fresh import of symrank, input generation, file writing and
a smoke-size warm-up pass. The run sets up a few times, then repeats the
workload's operations for ``--seconds``. ``--trace 0`` reports end-to-end
metrics: the median per iteration of the wall and CPU time spent inside
program calls (checks are not timed), the process's peak RSS, and as
``setup_s`` the median of all set-ups. It sets up once more after every
iteration, so that the set-ups sample the host over the whole run as the
iterations do and each iteration runs on a fresh set-up. ``--trace 1``
alternates untraced and traced iterations and reports the per-layer metrics
of :mod:`spans`, medians over the traced iterations, and
``trace.overhead_s``. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans
from checks import CheckFailed, compare_artifacts, expect
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 3  # before the first iteration
REFERENCES = HERE / "references.json"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# workload -> (layers whose summed share should reach one half, prediction)
PREDICTIONS = {
    "signal-forest": (("tree",), "tree growth dominates"),
    "candidates-table": (("score.t0", "score.kendall"), "t0 + kendall dominate"),
    "csv-experiment": (("score.t0", "score.kendall"), "t0 + kendall dominate"),
    "large-n": (("partition",), "partition dominates"),
}


def import_program():
    """Import symrank afresh from the checkout's src/ and return the package."""
    for name in [m for m in sys.modules if m == "symrank" or m.startswith("symrank.")]:
        del sys.modules[name]
    importlib.import_module("symrank.cli")
    sr = importlib.import_module("symrank")
    if not Path(sr.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported symrank from {sr.__file__}, not {SRC}")
    return sr


def worker_args(sr) -> list[str]:
    """Experiments run at the program's default worker count, capped at the
    CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    default = getattr(sr.evalsel, "worker_count", lambda: 1)()
    return [] if default <= nproc else ["--workers", str(nproc)]


def path_bytes(path: Path | None) -> int:
    """Bytes of the outputs under ``path``, leaving out timings.json, whose
    wall-clock figures change from run to run."""
    if path is None or not path.exists():
        return 0
    files = [path] if path.is_file() else [p for p in path.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files if p.name != "timings.json")


def set_up(cls, seed: int, size: str, root: Path):
    """One set-up; returns the workload ready to run and the seconds taken."""
    gc.collect()  # frees the modules of earlier set-ups, so they do not add to peak RSS
    start = time.perf_counter()
    sr = import_program()
    workers = worker_args(sr)
    workload = cls(sr, seed, size, root / "main", workers)
    workload.prepare()
    warm = cls(sr, seed, "smoke", root / "warmup", workers)
    warm.prepare()
    for op in warm.ops():
        try:
            op.call()
        except Exception:  # the timed operations report the failure
            traceback.print_exc()
    return workload, time.perf_counter() - start


class Runner:
    """Runs iterations of one workload and keeps the tallies."""

    def __init__(self, workload, references: dict | None):
        self.workload = workload
        self.references = references
        self.first: dict[str, dict] = {}
        self.first_counts: dict | None = None
        self.attempted = 0
        self.failed = 0

    def fail(self, name: str, message: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {self.workload.name}/{name}: {message}", file=sys.stderr)

    def iteration(self, tracer=None) -> tuple[float, float]:
        """One pass over the operations; returns (wall, cpu) inside calls."""
        shutil.rmtree(self.workload.out, ignore_errors=True)
        self.workload.out.mkdir(parents=True)
        wall = cpu = 0.0
        for op in self.workload.ops():
            self.attempted += 1
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                result = op.call()
            except Exception:  # a crash of the program is a failed operation
                wall += time.perf_counter() - w0
                cpu += time.process_time() - c0
                self.fail(op.name, traceback.format_exc())
                continue
            wall += time.perf_counter() - w0
            cpu += time.process_time() - c0
            if tracer is not None:
                tracer.count("cli.bytes_written", path_bytes(op.out))
            try:
                artifacts = op.check(result)
                if op.name in self.first:
                    compare_artifacts(artifacts, self.first[op.name], "repeat iteration")
                else:
                    self.first[op.name] = artifacts
                if self.references is not None:
                    expected = {k: v for k, v in self.references.items()
                                if k in artifacts}
                    compare_artifacts(artifacts, expected, "reference")
            except Exception as exc:  # CheckFailed, or output too malformed to check
                self.fail(op.name, f"{type(exc).__name__}: {exc}")
        return wall, cpu

    def check_counts(self, metrics: dict) -> None:
        """One check per traced iteration: the counts of work done must equal
        the first traced iteration's and, for the default seed, the
        references; the repeat pool must use no more threads than CPUs."""
        self.attempted += 1
        counts = {name: metrics[name] for name in spans.INVARIANT_COUNTS}
        try:
            workers = metrics["evalsel.runner.workers"]
            nproc = len(os.sched_getaffinity(0))
            expect(workers <= nproc, f"{workers} repeat workers on {nproc} CPUs")
            if self.first_counts is None:
                self.first_counts = counts
            compare_artifacts(counts, self.first_counts, "repeat iteration")
            if self.references is not None:
                compare_artifacts(counts, self.references["counts"], "reference")
        except CheckFailed as exc:
            self.fail("layer-counts", f"CheckFailed: {exc}")


def load_references(workload: str, size: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    return refs[size][workload]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke runs every check on small inputs in seconds")
    args = parser.parse_args(argv)

    if not (SRC / "symrank" / "__init__.py").is_file():
        print(f"error: no symrank package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            workload, seconds = set_up(cls, args.seed, args.size, work)
            setup_times.append(seconds)

        runner = Runner(workload, load_references(args.workload, args.size, args.seed))
        tracer = spans.Tracer() if args.trace else None
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            if tracer is not None and len(traced) < len(plain):
                tracer.run_id = len(traced)
                restore = spans.install(tracer, runner.workload.sr)
                try:
                    traced.append(runner.iteration(tracer))
                finally:
                    restore()
            else:
                plain.append(runner.iteration())
                if tracer is None:  # the next iteration runs on a fresh set-up
                    runner.workload, seconds = set_up(cls, args.seed, args.size, work)
                    setup_times.append(seconds)
            last = time.perf_counter() - t0
            done = plain and (tracer is None or traced)
            if done and time.perf_counter() - start + last > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [w for w, _ in plain]
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(plain)} untraced, {len(traced)} traced iterations")
    if tracer is None:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(c for _, c in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times),
        }
        series = {"wall_s": walls, "cpu_s": [c for _, c in plain], "setup_s": setup_times}
        for name, value in metrics.items():
            spread = ""
            if name in series:
                q1, _, q3 = quartiles(series[name])
                spread = f"  (median of {len(series[name])}; q1 {q1:.4f}, q3 {q3:.4f})"
            print(f"{name:<12} {value:.4f} {END_TO_END[name]}{spread}")
        units = END_TO_END
    else:
        per_run = []
        shares = []
        for run in range(len(traced)):
            run_spans = [s for s in tracer.spans if s.run == run]
            per_run.append(spans.run_metrics(run_spans, tracer.counts[run]))
            runner.check_counts(per_run[-1])
            shares.append(spans.layer_shares(run_spans))
        metrics = spans.median_by_key(per_run)
        metrics["trace.overhead_s"] = (statistics.median(w for w, _ in traced)
                                       - statistics.median(walls))
        units = spans.UNITS
        for name, unit in units.items():
            print(f"{name:<42} {metrics[name]:.6g} {unit}")
        share = spans.median_by_key(shares)
        print("layer shares of busy thread time (median over traced iterations):")
        for layer, value in sorted(share.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<22} {value:6.1%}")
        layers, claim = PREDICTIONS[args.workload]
        measured = sum(share.get(layer, 0.0) for layer in layers)
        verdict = "holds" if measured >= 0.5 else "DISAGREES"
        print(f"prediction '{claim}': {verdict} ({' + '.join(layers)} = {measured:.1%})")
        trace_dir = ROOT / ".perfbench_traces"
        trace_dir.mkdir(exist_ok=True)
        trace_file = trace_dir / f"{args.workload}-{args.seed}-{os.getpid()}.json"
        trace_file.write_text(json.dumps(tracer.document()), encoding="utf-8")
        print(f"spans written to {trace_file.relative_to(ROOT)}")
        metrics = {name: metrics[name] for name in spans.UNITS}

    error_rate = runner.failed / max(runner.attempted, 1)
    print(f"{'error_rate':<12} {error_rate:.4f} ratio  "
          f"({runner.failed} failed of {runner.attempted} attempted)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
