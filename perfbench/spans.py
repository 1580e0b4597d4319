"""In-memory span tracing of symrank's layers, installed from outside.

:func:`install` replaces each traced function at every module attribute
through which the package looks it up (``grow_tree`` finds ``best_split`` in
the ``tree`` module's globals, ``_score_and_select`` finds ``score_features``
in ``evalsel``'s, the CLI finds its imports in ``cli``'s), so ``src/`` is
never edited and untraced runs execute the package unchanged. A name the
package no longer has is skipped and its metrics read 0.

A span records name, start, end, thread, parent and run id. Each thread keeps
its own stack of open spans; a repeat job handed to the experiment thread
pool opens its span under the runner span that submitted it, so pool
threads keep their own parent chain back to the runner.
"""

from __future__ import annotations

import collections
import functools
import itertools
import statistics
import threading
import time
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    run: int
    name: str
    thread: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


_CALLER = object()  # span parent default: the innermost open span of this thread


class Tracer:
    """Collects spans and counters of the traced iterations of one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, collections.Counter] = collections.defaultdict(
            collections.Counter)
        self.run_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, parent=_CALLER):
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        parent_id = (stack[-1] if stack else None) if parent is _CALLER else parent
        run = self.run_id
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, parent_id, run, name,
                                       threading.get_ident(), start, end))

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[self.run_id][name] += value

    def document(self) -> dict:
        """Every span and counter, for writing out when the run ends."""
        threads = {t: i for i, t in enumerate(dict.fromkeys(s.thread for s in self.spans))}
        return {
            "fields": ["id", "parent", "run", "name", "thread", "start", "end"],
            "spans": [[s.id, s.parent, s.run, s.name, threads[s.thread], s.start, s.end]
                      for s in self.spans],
            "counts": {str(run): dict(c) for run, c in self.counts.items()},
        }


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _timed(tracer: Tracer, name: str):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
        return wrapper
    return make


def _score_features(tracer: Tracer):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(fm, y, method, *args, **kwargs):
            tracer.count("evalsel.score_features.cols", fm.z.shape[1])
            with tracer.span(f"evalsel.score_features.{method}"):
                return fn(fm, y, method, *args, **kwargs)
        return wrapper
    return make


def _best_split(tracer: Tracer, unsplittable: type):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span("tree.best_split"):
                try:
                    return fn(*args, **kwargs)
                except unsplittable:
                    tracer.count("tree.unsplittable")
                    raise
        return wrapper
    return make


def _generate_report(tracer: Tracer):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span("symgen.generate_report"):
                report = fn(*args, **kwargs)
            last = report.layer_counts[-1]
            tracer.count("symgen.features_raw", last["raw"])
            tracer.count("symgen.features_distinct", last["distinct"])
            tracer.count("symgen.features_dropped", len(report.dropped))
            tracer.count("symgen.features_constant", len(report.constant_columns))
            return report
        return wrapper
    return make


def _load_csv(tracer: Tracer):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span("core.load_csv"):
                ds = fn(*args, **kwargs)
            tracer.count("core.load_csv.rows", ds.x.shape[0])
            return ds
        return wrapper
    return make


def _run_repeats(tracer: Tracer):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(job, *args, **kwargs):
            with tracer.span("evalsel.runner") as runner:
                def traced_job(*job_args, **job_kwargs):
                    with tracer.span("evalsel.repeat", parent=runner):
                        return job(*job_args, **job_kwargs)
                return fn(traced_job, *args, **kwargs)
        return wrapper
    return make


def install(tracer: Tracer, sr) -> callable:
    """Wrap the traced functions of the imported package ``sr``; return a
    function that puts the originals back."""
    targets = [
        ("cli", "main", _timed(tracer, "cli.main")),
        ("cli", "load_csv", _load_csv(tracer)),
        ("core", "load_csv", _load_csv(tracer)),
        ("evalsel", "generate_report", _generate_report(tracer)),
        ("cli", "generate_report", _generate_report(tracer)),
        ("symgen", "generate_report", _generate_report(tracer)),
        ("evalsel", "score_features", _score_features(tracer)),
        ("cli", "score_features", _score_features(tracer)),
        ("evalsel", "select_top", _timed(tracer, "evalsel.select_top")),
        ("cli", "select_top", _timed(tracer, "evalsel.select_top")),
        ("evalsel", "pr_auc", _timed(tracer, "evalsel.pr_auc")),
        ("evalsel", "average_inclusion_probability", _timed(tracer, "evalsel.aip")),
        ("evalsel", "_run_repeats", _run_repeats(tracer)),
        ("evalsel", "ensemble_importance", _timed(tracer, "tree.ensemble_importance")),
        ("tree", "ensemble_importance", _timed(tracer, "tree.ensemble_importance")),
        ("tree", "grow_tree", _timed(tracer, "tree.grow_tree")),
        ("cli", "grow_tree", _timed(tracer, "tree.grow_tree")),
        ("tree", "best_split", _best_split(tracer, sr.errors.Unsplittable)),
        ("tree", "predict_rows", _timed(tracer, "tree.predict_rows")),
        ("cli", "predict_rows", _timed(tracer, "tree.predict_rows")),
        ("partition", "oracle_fixed_size", _timed(tracer, "partition.oracle_fixed_size")),
        ("cli", "oracle_fixed_size", _timed(tracer, "partition.oracle_fixed_size")),
        ("partition", "oracle_varying_size",
         _timed(tracer, "partition.oracle_varying_size")),
    ]
    originals = []
    for module_name, attr, make in targets:
        module = getattr(sr, module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        originals.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def restore():
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)
    return restore


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

SCORE_METHODS = ("t0", "pearson", "spearman", "kendall", "chatterjee", "tree-importance")

# metric name -> span name whose summed duration it reports
DURATIONS = {
    "tree.ensemble_importance.s": "tree.ensemble_importance",
    "tree.grow_tree.s": "tree.grow_tree",
    "tree.best_split.s": "tree.best_split",
    "tree.predict_rows.s": "tree.predict_rows",
    **{f"evalsel.score_features.{m}.s": f"evalsel.score_features.{m}"
       for m in SCORE_METHODS},
    "evalsel.select_top.s": "evalsel.select_top",
    "evalsel.runner.s": "evalsel.runner",
    "partition.oracle_fixed_size.s": "partition.oracle_fixed_size",
    "partition.oracle_varying_size.s": "partition.oracle_varying_size",
    "symgen.generate_report.s": "symgen.generate_report",
    "core.load_csv.s": "core.load_csv",
    "cli.main.s": "cli.main",
}
CALLS = {
    "tree.grow_tree.calls": "tree.grow_tree",
    "tree.best_split.calls": "tree.best_split",
    "symgen.generate_report.calls": "symgen.generate_report",
}
COUNTERS = (
    "tree.unsplittable", "evalsel.score_features.cols", "symgen.features_raw",
    "symgen.features_distinct", "symgen.features_dropped", "symgen.features_constant",
    "core.load_csv.rows", "cli.bytes_written",
)
# counts that describe the work and its output, not its speed: run.py fails a
# traced iteration whose counts differ from the first one's or, for the
# default seed, from references.json, so their "lower" direction is nominal
INVARIANT_COUNTS = (
    "evalsel.score_features.cols", "symgen.features_raw", "symgen.features_distinct",
    "symgen.features_dropped", "symgen.features_constant", "core.load_csv.rows",
    "cli.bytes_written",
)


# every per-layer metric, in report order, with its unit
UNITS = {
    "tree.ensemble_importance.s": "s",
    "tree.grow_tree.s": "s",
    "tree.grow_tree.calls": "count",
    "tree.best_split.s": "s",
    "tree.best_split.calls": "count",
    "tree.unsplittable": "count",
    "tree.predict_rows.s": "s",
    **{f"evalsel.score_features.{m}.s": "s" for m in SCORE_METHODS},
    "evalsel.score_features.cols": "count",
    "evalsel.select_top.s": "s",
    "evalsel.metrics.s": "s",
    "evalsel.runner.s": "s",
    "evalsel.runner.self_s": "s",
    "evalsel.runner.workers": "count",
    "evalsel.runner.busy_ratio": "ratio",
    "partition.oracle_fixed_size.s": "s",
    "partition.oracle_varying_size.s": "s",
    "symgen.generate_report.s": "s",
    "symgen.generate_report.calls": "count",
    "symgen.features_raw": "count",
    "symgen.features_distinct": "count",
    "symgen.features_dropped": "count",
    "symgen.features_constant": "count",
    "core.load_csv.s": "s",
    "core.load_csv.rows": "count",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
}


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the time its direct children cover."""
    children = collections.defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {s.id: s.duration - _union_length(
        (max(c.start, s.start), min(c.end, s.end)) for c in children[s.id])
        for s in spans}


def run_metrics(spans: list[Span], counts: collections.Counter) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    dur = collections.Counter()
    calls = collections.Counter()
    for s in spans:
        dur[s.name] += s.duration
        calls[s.name] += 1
    own = self_times(spans)
    out = {metric: dur[name] for metric, name in DURATIONS.items()}
    out.update({metric: calls[name] for metric, name in CALLS.items()})
    out.update({name: counts[name] for name in COUNTERS})
    out["evalsel.metrics.s"] = dur["evalsel.pr_auc"] + dur["evalsel.aip"]
    out["cli.self_s"] = sum(own[s.id] for s in spans if s.name == "cli.main")

    runners = [s for s in spans if s.name == "evalsel.runner"]
    jobs = collections.defaultdict(list)
    for s in spans:
        if s.name == "evalsel.repeat":
            jobs[s.parent].append(s)
    workers = {r.id: len({j.thread for j in jobs[r.id]}) for r in runners}
    capacity = sum(workers[r.id] * r.duration for r in runners)
    out["evalsel.runner.self_s"] = sum(own[r.id] for r in runners)
    out["evalsel.runner.workers"] = max(workers.values(), default=0)
    out["evalsel.runner.busy_ratio"] = (
        sum(j.duration for r in runners for j in jobs[r.id]) / capacity
        if capacity > 0 else 0.0)
    return out


def _layer_of(name: str) -> str | None:
    if name.startswith("evalsel.score_features."):
        return "score." + name.rsplit(".", 1)[1]
    if name in ("evalsel.pr_auc", "evalsel.aip"):
        return "metrics"
    if name == "evalsel.select_top":
        return "select"
    if name.split(".")[0] in ("tree", "partition", "symgen", "core"):
        return name.split(".")[0]
    return None


def layer_shares(spans: list[Span]) -> dict[str, float]:
    """Each layer's share of the busy thread time of one traced iteration.

    Busy thread time is the sum of all spans' self times: the time covered
    by root spans plus the extra time of pool threads running in parallel.
    A layer's time is the duration of its outermost spans, so nested calls
    within one layer count once; layers may nest (tree inside
    score.tree-importance). runner.self and cli.self are self times.
    """
    own = self_times(spans)
    busy = sum(own.values())
    by_id = {s.id: s for s in spans}
    totals = collections.Counter()
    for s in spans:
        layer = _layer_of(s.name)
        if layer is None:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and _layer_of(parent.name) != layer:
            parent = by_id.get(parent.parent)
        if parent is None:
            totals[layer] += s.duration
    totals["runner.self"] = sum(own[s.id] for s in spans if s.name == "evalsel.runner")
    totals["cli.self"] = sum(own[s.id] for s in spans if s.name == "cli.main")
    return {layer: t / busy for layer, t in sorted(totals.items())} if busy > 0 else {}


def median_by_key(rows: list[dict]) -> dict[str, float]:
    keys = sorted({k for row in rows for k in row})
    return {k: statistics.median(row.get(k, 0.0) for row in rows) for k in keys}
