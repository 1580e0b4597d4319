"""Feature-selection drivers and evaluation: per-method scoring, top-k
selection, PR-AUC, average inclusion probability, synthetic generators, and
the repeated-experiment harness.

Scores are plain arrays; a selection takes its direction from its method:
the concordant divergence is lower-better, the absolute correlations and
split importances are higher-better. Zero-variance columns never raise
here: methods that cannot compute them fall back to their worst in-range
sentinel, so selection stays total.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import (
    Dataset,
    Expression,
    FeatureMatrix,
    _response_order,
    _tied,
    build_dataset,
    derive_rng,
    unary as unary_expr,
    var,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    KTooLarge,
    LengthMismatch,
    NoPositives,
    SizeMismatch,
    SizeOutOfRange,
    UsageError,
)
from .stats import _RUNS_METHODS, batched_scores, sorted_runs
from .symgen import (
    Architecture,
    UnaryOp,
    build_operator_set,
    generate_report,
    label_correct,
    unary_from_expr,
)

__all__ = [
    "CandidatesExperimentConfig",
    "CsvExperimentConfig",
    "ExperimentReport",
    "SCORE_METHODS",
    "SignalExperimentConfig",
    "TreeParams",
    "average_inclusion_probability",
    "pr_auc",
    "run_candidates_experiment",
    "run_csv_experiment",
    "run_signal_experiment",
    "score_features",
    "select_top",
    "synth_3var",
]

SCORE_METHODS = ("t0", "pearson", "spearman", "kendall", "chatterjee", "tree-importance")


def _known_methods(methods):
    unknown = [m for m in methods if m not in SCORE_METHODS]
    if unknown:
        raise UsageError(f"unknown methods {unknown}; choose from {SCORE_METHODS}")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise UsageError(f"methods {repeated} named more than once")
    return methods


@dataclass(frozen=True)
class TreeParams:
    n_trees: int = 20
    depth: int = 3


def _direction(method: str) -> str:  # see the module docstring
    return "lower" if method == "t0" else "higher"


def score_features(fm: FeatureMatrix, y, method: str, *, seed=0,
                   tree_params: TreeParams = TreeParams(), runs=None) -> np.ndarray:
    """Score every feature column against the response with one method: (q,)
    scores for y of shape (n,), or a (g, q // g) block for y of shape (n, g),
    one response per group of q // g consecutive columns.

    Every method scores the whole matrix in one call. The rank methods may
    share ``runs``, the sorted runs of fm's columns (see
    :func:`.stats.batched_scores`). Tree importance grows each group's forest
    on a view of its columns, with ``seed`` one int or one per group.
    Every method but tree importance raises TiesInResponse on a tied or
    constant response. Zero-variance columns get the worst in-range
    sentinel: 0 for the absolute correlations, -1 for Chatterjee's, which
    scores -1 for every tied column; the concordant divergence and the split
    importance handle them natively.
    """
    y = np.asarray(y, dtype=float)
    if method not in SCORE_METHODS:
        raise LengthMismatch(f"unknown method {method!r}; choose from {SCORE_METHODS}")
    if method == "tree-importance":
        from .tree import ensemble_importance

        ys = np.atleast_2d(y.T)  # one row per response
        if not len(ys) or fm.q % len(ys):
            raise LengthMismatch(f"{fm.q} columns in {len(ys)} response groups")
        seeds = np.array(seed, dtype=object).reshape(-1)  # exact ints past 2**63
        if len(seeds) not in (1, len(ys)):
            raise LengthMismatch(f"{len(seeds)} seeds for {len(ys)} responses")
        scores = np.concatenate([
            ensemble_importance(z, yi, tree_params.n_trees, tree_params.depth, s)
            for z, yi, s in zip(np.hsplit(fm.z, len(ys)), ys, np.broadcast_to(seeds, len(ys)))])
    else:
        scores = batched_scores(method, fm.z, y, runs)
        if method in ("pearson", "spearman", "kendall"):  # correlations, by magnitude
            scores = np.abs(scores)
    scores = scores.reshape(*y.shape[1:], -1)
    if np.isnan(scores).any():
        raise LengthMismatch(f"{method} scores contain NaN")
    return scores


def select_top(scores: np.ndarray, k: int, method: str) -> tuple[np.ndarray, np.ndarray]:
    """The k best columns of each score row in the direction of ``method``,
    best first, and whether each row's k-th and (k+1)-th best scores tie,
    which makes its top k ambiguous.

    Takes one (q,) row or an (R, q) block of rows and sorts each row once.
    Exact score ties resolve to the lowest column index. Raises
    SizeOutOfRange for k < 1 and KTooLarge for k beyond the column count.
    """
    ranked = scores if _direction(method) == "lower" else -scores
    q = ranked.shape[-1]
    if k < 1:
        raise SizeOutOfRange(f"k={k} selects no feature; need k >= 1")
    if k > q:
        raise KTooLarge(f"k={k} exceeds {q} features")
    order = np.argsort(ranked, axis=-1, kind="stable")
    # the k-th and (k+1)-th best scores; the k-th alone when k == q
    edge = np.take_along_axis(ranked, order[..., k - 1:k + 1], axis=-1)
    return order[..., :k], _tied(edge[..., 0], edge[..., -1]) & (k < q)


def _picked(selected: np.ndarray, q: int) -> np.ndarray:
    """Each selection row's indicator over the q columns; LengthMismatch for
    an empty selection or an index outside them."""
    if selected.size == 0 or not ((selected >= 0) & (selected < q)).all():
        raise LengthMismatch(f"selection {selected.tolist()} is not a nonempty "
                             f"set of indices into {q} labels")
    picked = np.zeros((*selected.shape[:-1], q), dtype=bool)
    np.put_along_axis(picked, selected, True, axis=-1)
    return picked


def pr_auc(ground_truth, selected) -> tuple[np.ndarray, np.ndarray]:
    """Precision-recall curve and trapezoidal AUC of a top-k selection of
    distinct columns, or of each row of an (R, k) block of them.

    The selected columns score 1, the rest 0, thresholded against the
    boolean ground truth. A curve is its (recall, precision) points, recall
    ascending: (0, 1) by convention, the selection, and (1, prevalence).
    """
    truth = np.asarray(ground_truth, dtype=bool)
    selected = np.asarray(selected, dtype=int)
    positives, q = int(truth.sum()), truth.shape[0]
    if positives == 0:
        raise NoPositives("ground truth has no positive labels")
    tp = (_picked(selected, q) & truth).sum(axis=-1)
    recall, precision = tp / positives, tp / selected.shape[-1]
    points = np.broadcast_arrays(0.0, 1.0, recall, precision, 1.0, positives / q)
    curves = np.stack(points, axis=-1).reshape(*tp.shape, 3, 2)
    auc = (recall * (1.0 + precision) / 2.0
           + (1.0 - recall) * (precision + positives / q) / 2.0)
    return curves, np.clip(auc, 0.0, 1.0)


def average_inclusion_probability(selections, correct_labels,
                                  n_selected: int) -> float:
    """Mean over the rows of an (R, n_selected) selection block of
    (#selected-and-correct) / n_selected."""
    try:
        shape = np.shape(selections)
    except ValueError:  # ragged rows
        shape = ()
    if shape[1:] != (n_selected,) or shape[0] == 0:
        raise SizeMismatch(f"need at least one repeat of {n_selected} selected features")
    selections, correct = np.asarray(selections, dtype=int), np.asarray(correct_labels, bool)
    hits = (_picked(selections, correct.shape[0]) & correct).sum(axis=1)
    return float((hits / n_selected).mean())


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------

EQ15_ACTIVE_VARIABLES = (0, 2)


def _three_var_signal(x: np.ndarray) -> np.ndarray:
    return 2.0 * x[:, 0] ** 3 + 5.0 * x[:, 2] + 10.0


def synth_3var(n: int, noise_var: float, seed: int = 0,
               rng: np.random.Generator | None = None) -> Dataset:
    """Three uniform inputs on [0,1] with y = 2*x1^3 + 5*x3 + 10 + noise.

    x2 is inactive. The draw order (inputs, then one noise vector) is fixed,
    so a given stream yields the same inputs at every noise level.
    """
    if rng is None:
        rng = derive_rng(seed)
    x = rng.uniform(size=(n, 3))
    eps = rng.standard_normal(n)
    y = _three_var_signal(x) + np.sqrt(noise_var) * eps
    return build_dataset(x, y)


def _as_unary(spec) -> UnaryOp:
    return spec if isinstance(spec, UnaryOp) else unary_from_expr(str(spec))


def _candidate_exprs(ops) -> tuple[Expression, ...]:
    return tuple(var(0) if op.name in ("x", "id") else unary_expr(op.name, var(0))
                 for op in ops)


def _candidate_chunk(n: int, truth: UnaryOp, candidates, noise_var: float, seed: int,
                     reps: range) -> tuple[np.ndarray, np.ndarray]:
    """The candidate rows and responses of each repeat r in ``reps``, on the
    stream ``derive_rng(seed, r)``, as a chunk (see :class:`_Cell`):
    (len(reps), q, n) candidate rows and (len(reps), n) responses.

    Each repeat draws n standard-normal inputs x, then n standard-normal
    noise values eps, and its response is truth(x) + sqrt(noise_var) * eps;
    the truth and each candidate are evaluated once over the whole
    (len(reps), n) block. Raises what :func:`.core._response_order` raises
    on the first repeat whose response is not finite or has ties.
    """
    x = np.empty((len(reps), n))
    eps = np.empty((len(reps), n))
    for i, r in enumerate(reps):
        rng = derive_rng(seed, r)
        rng.standard_normal(out=x[i])
        rng.standard_normal(out=eps[i])
    y = np.asarray(truth.fn(x), dtype=float) + np.sqrt(noise_var) * eps
    _response_order(y)
    z = np.empty((len(reps), len(candidates), n))
    for j, op in enumerate(candidates):
        z[:, j] = op.fn(x)
    return z, y


# ---------------------------------------------------------------------------
# experiment harness
# ---------------------------------------------------------------------------

# a function of its own: perfbench/spans.py wraps it by name to time the runner
def _run_repeats(job, chunks) -> None:
    """Run job(chunk) for each chunk of repeats, in order."""
    for chunk in chunks:
        job(chunk)


# the run label of each entry of a config array; two entries with one label
# would share a run's output files, or a candidate's report entry
_LABELS = {
    "architectures": ("run label", str),
    "noise_vars": ("run label", "{:g}".format),
    "candidates": ("expression", lambda c: _as_unary(c).name),
}


class _CheckedConfig:
    def __post_init__(self):
        """Check the config when it is built, before any work is done. Its
        methods are checked and its operators, architectures and expressions
        are built here once, so a bad one is a ConfigError that names its key."""
        builds = {"methods": lambda: _known_methods(self.methods)}
        if hasattr(self, "architectures"):  # a mode that expands features
            builds.update(unary_ops=lambda: build_operator_set(self.unary_ops, ()),
                          binary_ops=lambda: build_operator_set(self.unary_ops, self.binary_ops),
                          architectures=lambda: [Architecture(a) for a in self.architectures])
        else:
            builds.update(truth=lambda: _as_unary(self.truth),
                          candidates=lambda: [_as_unary(c) for c in self.candidates])
        built = {}
        for key, build in builds.items():
            try:
                built[key] = build()
            except UsageError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from None
        for key, (kind, label) in _LABELS.items():
            entries = getattr(self, key, ())
            labels = [label(entry) for entry in entries]
            for i, name in enumerate(labels):
                if name in labels[:i]:
                    raise ConfigError(f"config key {key!r}: entries "
                                      f"{entries[labels.index(name)]!r} and {entries[i]!r} "
                                      f"share the {kind} {name!r}")
        if "truth" in built and built["truth"].name not in [c.name for c in built["candidates"]]:
            raise ConfigError(f"config key 'truth': {self.truth!r} is not among the candidates")


@dataclass(frozen=True)
class SignalExperimentConfig(_CheckedConfig):
    """Repeated feature-selection experiment on the built-in 3-input signal.

    Building one raises a ConfigError naming the key unless every method is
    known and named once, the operators and architectures build, and no two
    architectures or noise variances (labelled ``{:g}``) share a run label.
    """

    n: int = 100
    noise_vars: tuple[float, ...] = (0.0, 0.01, 0.1)
    architectures: tuple[str, ...] = ("bu", "ub")
    unary_ops: tuple = ("id", "cube")  # builtin names and/or UnaryOp objects
    binary_ops: tuple[str, ...] = ("+", "*")
    methods: tuple[str, ...] = ("t0", "pearson", "kendall")
    repeats: int = 50
    n_selected: int = 3
    seed: int = 0
    value_dedup: bool = False
    tree: TreeParams = field(default_factory=TreeParams)


@dataclass(frozen=True)
class CandidatesExperimentConfig(_CheckedConfig):
    """Repeated single-pick selection among explicit candidate transforms.

    Building one raises a ConfigError naming the key unless every method is
    known and named once, the truth and the candidates parse, no two
    candidates are one expression once spaces are removed, and the truth is
    one of them.
    """

    truth: str
    candidates: tuple[str, ...]
    n: int = 500
    noise_var: float = 0.1
    repeats: int = 50
    n_selected: int = 1
    methods: tuple[str, ...] = ("t0", "pearson", "kendall")
    seed: int = 0
    tree: TreeParams = field(default_factory=TreeParams)


@dataclass(frozen=True)
class CsvExperimentConfig(_CheckedConfig):
    """Architecture expansion and selection on a fixed ingested dataset.

    Only seed-dependent methods vary across repeats. PR/AIP columns appear
    when ``active_variables`` (input column names or indices) is given.

    Building one raises a ConfigError naming the key unless every method is
    known and named once, the operators and architectures build, and no
    architecture is named twice. The ``active_variables`` need the dataset,
    so :func:`run_csv_experiment` checks them.
    """

    architectures: tuple[str, ...] = ("bu", "ub")
    unary_ops: tuple = ("id", "cube")
    binary_ops: tuple[str, ...] = ("+", "*")
    methods: tuple[str, ...] = ("t0", "pearson", "kendall")
    repeats: int = 1
    n_selected: int = 3
    seed: int = 0
    value_dedup: bool = False
    tree: TreeParams = field(default_factory=TreeParams)
    active_variables: tuple | None = None


@dataclass
class ExperimentReport:
    """Config echo plus per-run results; wall-clock timings kept aside so the
    primary document is byte-deterministic for a fixed seed."""

    config: dict
    runs: list[dict]
    runtimes: dict[str, float]

    def primary_document(self) -> dict:
        return {"config": self.config, "runs": self.runs}


def _method_seed(master: int, *key: int) -> int:
    return int(np.random.SeedSequence(
        entropy=int(master), spawn_key=tuple(int(k) for k in key)
    ).generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class _Cell:
    """One report run: its timing-key prefix, the (ai, ni) part of its method
    seeds, its sample count, the expressions every repeat expands to and
    their labels (or None); data(reps) -> (rows, ys), a chunk of repeats as
    (len(reps), q, n) feature rows and (len(reps), n) responses; ``run``,
    the run's report fields but its methods; and extras(selections), the
    fields a method's (R, k) selection block adds to its entry. A repeat
    that expands to other expressions raises DimensionMismatch, because the
    report names and labels the cell's columns.
    """

    key: str
    seed_key: tuple[int, int]
    n: int
    exprs: tuple[Expression, ...]
    labels: np.ndarray | None
    data: Callable[[range], tuple[np.ndarray, np.ndarray]]
    run: dict
    extras: Callable[[np.ndarray], dict]


# Feature values one scoring call takes: a chunk of a cell's repeats
# side by side. A few small repeats per call amortize the call overhead;
# stacking every repeat raises peak memory for little more speed.
CHUNK_VALUES = 2**14


def _chunks(values: int, repeats: int) -> list[range]:
    """The repeats in order, in chunks of at most CHUNK_VALUES feature
    values at ``values`` per repeat, and at least one repeat."""
    size = max(1, CHUNK_VALUES // max(1, values))
    return [range(lo, min(lo + size, repeats)) for lo in range(0, repeats, size)]


def _run_cells(cells, methods, repeats, n_selected, seed, tree):
    """Score and select with every method on every cell, over the repeats.

    Returns the report's runs, each its cell's run fields and one entry per
    method, and the scoring and selection time of each cell and method.

    Each cell builds its repeats a chunk at a time (see :func:`_chunks`),
    laid out once as ``rows.reshape(-1, n).T``: the repeats' (n, q) matrices
    side by side in one column-major (n, len(reps) q) matrix. A chunk is
    scored in one fixed order: the rank methods first, then tree importance.
    Each method scores the chunk in one :func:`score_features` call: the
    chunk's matrix, with one response per repeat, and for tree importance
    one seed per repeat, whose forest grows on that repeat's columns of the
    matrix, uncopied. The methods that rank the features share one sort of
    the chunk's columns, taken by the first of them and released before any
    forest grows. Each method then selects all of the chunk's repeats in one
    :func:`select_top` call, on its (len(reps), q) scores. A method's chunks
    of selections join into one (R, k) block, from which its report entry's
    metrics and its cell's extras come. Raises SizeOutOfRange for
    repeats < 1.
    """
    if repeats < 1:
        raise SizeOutOfRange(f"repeats={repeats} runs no repeat; need repeats >= 1")
    runtimes = dict.fromkeys((f"{c.key}/{m}" for c in cells for m in methods), 0.0)
    order = sorted(enumerate(methods), key=lambda m: m[1] == "tree-importance")
    # per cell and method, the (selections, ties) of each chunk in order
    picks = [[[] for _ in methods] for _ in cells]

    def job(chunk) -> None:
        cell, reps, cell_picks = chunk
        rows, ys = cell.data(reps)
        z = rows.reshape(-1, cell.n).T
        chunk_fm = FeatureMatrix(z, cell.exprs * len(reps))
        runs, seeds = None, 0
        for mi, method in order:
            start = time.perf_counter()
            if method == "tree-importance":
                runs = None
                seeds = [_method_seed(seed, *cell.seed_key, r, mi) for r in reps]
            elif runs is None and method in _RUNS_METHODS:
                runs = sorted_runs(z.T)
            scores = score_features(chunk_fm, ys.T, method, seed=seeds, tree_params=tree,
                                    runs=runs)
            cell_picks[mi].append(select_top(scores, n_selected, method))
            runtimes[f"{cell.key}/{method}"] += time.perf_counter() - start

    _run_repeats(job, [(cell, reps, cell_picks) for cell, cell_picks in zip(cells, picks)
                       for reps in _chunks(cell.n * len(cell.exprs), repeats)])
    return [{**cell.run,
             "methods": [_method_entry(method, *map(np.concatenate, zip(*cell_picks[mi])), cell)
                         for mi, method in enumerate(methods)]}
            for cell, cell_picks in zip(cells, picks)], runtimes


def _method_entry(method: str, selections: np.ndarray, ties: np.ndarray, cell: _Cell) -> dict:
    """One method's report entry from its (R, k) selections and (R,) boundary
    ties: the AIP and PR columns when the cell has labels, then the cell's
    extras."""
    entry = {
        "method": method,
        "direction": _direction(method),
        "selections": selections.tolist(),
        "boundary_tie_repeats": int(ties.sum()),
    }
    if cell.labels is not None:
        entry["aip"] = average_inclusion_probability(selections, cell.labels,
                                                     selections.shape[1])
        curves, aucs = pr_auc(cell.labels, selections)
        entry["pr_auc"] = aucs.tolist()
        entry["pr_auc_median"] = float(np.median(aucs))
        entry["pr_curves"] = curves.tolist()
    return {**entry, **cell.extras(selections)}


def run_signal_experiment(cfg: SignalExperimentConfig) -> ExperimentReport:
    """Selection quality per (architecture, noise, method) over repeats.

    Features of the signal's active inputs x1 and x3 alone are the correct
    ones. Each repeat re-derives its RNG stream from (seed, repeat), so
    datasets at different noise levels within a repeat share inputs and noise
    shape, and the whole report is reproducible bit-for-bit.
    """
    ops = build_operator_set(cfg.unary_ops, cfg.binary_ops)

    def repeat(arch: Architecture, noise_var: float, r: int):
        ds = synth_3var(cfg.n, noise_var, rng=derive_rng(cfg.seed, r))
        return generate_report(ds, arch, ops, cfg.value_dedup).features, ds.y

    def cell(ai: int, arch: Architecture, ni: int, noise_var: float) -> _Cell:
        key = f"{arch.order}/{noise_var:g}"
        first = repeat(arch, noise_var, 0)
        exprs = first[0].exprs
        labels = label_correct(exprs, EQ15_ACTIVE_VARIABLES)

        def data(reps: range):
            built = [first if r == 0 else repeat(arch, noise_var, r) for r in reps]
            for r, (fm, _) in zip(reps, built):
                if fm.exprs != exprs:
                    raise DimensionMismatch(
                        f"{key}: repeat {r} expands to other features than repeat 0 "
                        f"({fm.q} against {len(exprs)} columns)")
            return np.stack([fm.z.T for fm, _ in built]), np.stack([y for _, y in built])

        def extras(selections: np.ndarray) -> dict:
            correct = _picked(selections, len(exprs)) & labels
            return {"correct_counts": correct.sum(axis=1).tolist()}

        run = {"architecture": arch.order, "noise_var": noise_var, "q": len(exprs),
               "feature_names": [e.canonical() for e in exprs],
               "correct_columns": np.flatnonzero(labels).tolist()}
        return _Cell(key, (ai, ni), cfg.n, exprs, labels, data, run, extras)

    runs, runtimes = _run_cells(
        [cell(ai, Architecture(a), ni, nv) for ai, a in enumerate(cfg.architectures)
         for ni, nv in enumerate(cfg.noise_vars)],
        cfg.methods, cfg.repeats, cfg.n_selected, cfg.seed, cfg.tree)
    config = {**_config_dict(cfg), "active_variables": list(EQ15_ACTIVE_VARIABLES)}
    return ExperimentReport(config, runs, runtimes)


def run_candidates_experiment(cfg: CandidatesExperimentConfig) -> ExperimentReport:
    """Inclusion frequency of each candidate transform over repeats.

    The config's truth is one of its candidates (matched by its parsed name),
    so inclusion of the true transform can be reported.
    """
    truth_op = _as_unary(cfg.truth)
    cand_ops = [_as_unary(c) for c in cfg.candidates]
    names = [op.name for op in cand_ops]
    truth_col = names.index(truth_op.name)
    labels = np.zeros(len(cfg.candidates), dtype=bool)
    labels[truth_col] = True

    def extras(selections: np.ndarray) -> dict:
        picked = _picked(selections, len(cfg.candidates))
        inclusion = dict(zip(cfg.candidates, picked.mean(axis=0).tolist()))
        return {"inclusion": inclusion, "truth_inclusion": inclusion[cfg.candidates[truth_col]],
                "aip": average_inclusion_probability(selections, labels, cfg.n_selected)}

    run = {"mode": "candidates", "noise_var": cfg.noise_var,
           "candidates": list(cfg.candidates), "truth_column": truth_col}
    data = partial(_candidate_chunk, cfg.n, truth_op, cand_ops, cfg.noise_var, cfg.seed)
    runs, runtimes = _run_cells(
        [_Cell("candidates", (0, 0), cfg.n, _candidate_exprs(cand_ops), None, data, run, extras)],
        cfg.methods, cfg.repeats, cfg.n_selected, cfg.seed, cfg.tree)
    return ExperimentReport(_config_dict(cfg), runs, runtimes)


def run_csv_experiment(ds: Dataset, cfg: CsvExperimentConfig) -> ExperimentReport:
    """Architecture expansion and selection on a fixed ingested dataset."""
    named = cfg.active_variables
    active = None if named is None else [_input_column(ds, a) for a in named]
    for i, col in enumerate(active or ()):
        if col in active[:i]:
            raise ConfigError(f"config key 'active_variables': entries "
                              f"{named[active.index(col)]!r} and {named[i]!r} share "
                              f"the input column {ds.column_names[col]!r}")
    ops = build_operator_set(cfg.unary_ops, cfg.binary_ops)

    def cell(ai: int, arch: str) -> _Cell:
        fm = generate_report(ds, Architecture(arch), ops, cfg.value_dedup).features
        names = np.asarray(fm.column_names())
        run = {"architecture": arch, "q": fm.q, "feature_names": names.tolist()}
        labels = None
        if active is not None:
            labels = label_correct(fm.exprs, active)
            run["correct_columns"] = np.flatnonzero(labels).tolist()
        return _Cell(f"{arch}/csv", (ai, 0), ds.n, fm.exprs, labels,
                     partial(_repeated, fm, ds.y), run,
                     lambda selections: {"selected_names": names[selections].tolist()})

    runs, runtimes = _run_cells([cell(ai, arch) for ai, arch in enumerate(cfg.architectures)],
                                cfg.methods, cfg.repeats, cfg.n_selected, cfg.seed, cfg.tree)
    # the csv echo leaves out tree and value_dedup
    config = {k: v for k, v in _config_dict(cfg).items() if k not in ("tree", "value_dedup")}
    config.update(mode="csv", active_variables=active)
    return ExperimentReport(config, runs, runtimes)


def _repeated(fm: FeatureMatrix, y: np.ndarray, reps: range) -> tuple[np.ndarray, np.ndarray]:
    """One fixed matrix and response as every repeat of a chunk, broadcast:
    laid out (see :func:`_run_cells`), a chunk of one repeat is a view of
    fm.z, uncopied, and a longer chunk copies it once."""
    return (np.broadcast_to(fm.z.T, (len(reps), fm.q, len(y))),
            np.broadcast_to(y, (len(reps), len(y))))


def _input_column(ds: Dataset, entry) -> int:
    """The input column an ``active_variables`` entry names, by name or index."""
    if isinstance(entry, str):
        if entry not in ds.column_names:
            raise ConfigError(f"active_variables: no input column {entry!r} "
                              f"in {list(ds.column_names)}")
        return ds.column_names.index(entry)
    if (isinstance(entry, bool) or not isinstance(entry, (int, np.integer))
            or not 0 <= entry < ds.d):
        raise ConfigError(f"active_variables: {entry!r} names no column of "
                          f"{ds.d} input columns")
    return int(entry)


def _config_dict(cfg) -> dict:
    out = {}
    for key, value in vars(cfg).items():
        if isinstance(value, TreeParams):
            out[key] = {"n_trees": value.n_trees, "depth": value.depth}
        elif isinstance(value, tuple):
            out[key] = [v.name if isinstance(v, UnaryOp) else v for v in value]
        else:
            out[key] = value
    return out
