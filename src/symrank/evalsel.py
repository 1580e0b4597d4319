"""Feature-selection drivers and evaluation: per-method scoring, top-k
selection, PR-AUC, average inclusion probability, synthetic generators, and
the repeated-experiment harness.

Scores carry a direction: the concordant divergence is lower-better, the
absolute correlations and split importances are higher-better. Zero-variance
columns never raise here: methods that cannot compute them fall back to
their worst in-range sentinel, so selection stays total.
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
    NonFiniteData,
    NoPositives,
    SizeMismatch,
    SizeOutOfRange,
    TiesInResponse,
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
from .tree import ensemble_importance

__all__ = [
    "CandidatesExperimentConfig",
    "CsvExperimentConfig",
    "ExperimentReport",
    "MethodScore",
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
    "selection_boundary_tie",
    "synth_3var",
    "synth_candidates",
]

SCORE_METHODS = ("t0", "pearson", "spearman", "kendall", "chatterjee", "tree-importance")


@dataclass(frozen=True)
class MethodScore:
    """Per-feature scores for one method, with the comparison direction."""

    method: str
    scores: np.ndarray
    direction: str  # "lower" | "higher"

    def __post_init__(self):
        if np.isnan(self.scores).any():
            raise LengthMismatch(f"{self.method} scores contain NaN")

    @property
    def ascending(self) -> np.ndarray:
        """Scores oriented so that smaller is better."""
        return self.scores if self.direction == "lower" else -self.scores


@dataclass(frozen=True)
class TreeParams:
    n_trees: int = 20
    depth: int = 3


# the correlations, scored by their magnitude
_SIGNED_METHODS = ("pearson", "spearman", "kendall")


def score_features(fm: FeatureMatrix, y, method: str, *, seed: int = 0,
                   tree_params: TreeParams = TreeParams(), runs=None) -> MethodScore:
    """Score every feature column against the response with one method.

    Zero-variance columns get the worst in-range sentinel: 0 for the
    absolute correlations, -1 for the rank coefficient that rejects ties;
    the concordant divergence and the split importance handle them natively.
    The rank methods ignore ``seed`` and also take y of shape (n, g), one
    response per group of q // g consecutive columns, and ``runs``, the
    sorted runs of fm's columns that they may share (see
    :func:`.stats.batched_scores`).
    """
    y = np.asarray(y, dtype=float)
    if method not in SCORE_METHODS:
        raise LengthMismatch(f"unknown method {method!r}; choose from {SCORE_METHODS}")
    if method == "tree-importance":
        if y.ndim != 1:
            raise LengthMismatch(f"tree importance takes one response, got shape {y.shape}")
        scores = ensemble_importance(fm.z, y, tree_params.n_trees, tree_params.depth, seed)
        return MethodScore(method, scores, "higher")
    scores = batched_scores(method, fm.z, y, runs)
    if method in _SIGNED_METHODS:
        scores = np.abs(scores)
    return MethodScore(method, scores, "lower" if method == "t0" else "higher")


def select_top(scores: MethodScore, k: int) -> list[int]:
    """The k best columns per the method's direction, best first.

    Exact score ties resolve to the lowest column index. Raises
    SizeOutOfRange for k < 1 and KTooLarge for k beyond the column count.
    """
    q = scores.scores.shape[0]
    if k < 1:
        raise SizeOutOfRange(f"k={k} selects no feature; need k >= 1")
    if k > q:
        raise KTooLarge(f"k={k} exceeds {q} features")
    order = np.argsort(scores.ascending, kind="stable")
    return [int(j) for j in order[:k]]


def selection_boundary_tie(scores: MethodScore, k: int) -> bool:
    """Whether equivalence at the selection boundary makes top-k ambiguous.

    Raises SizeOutOfRange for k < 1.
    """
    q = scores.scores.shape[0]
    if k < 1:
        raise SizeOutOfRange(f"k={k} selects no feature; need k >= 1")
    if k >= q:
        return False
    ranked = np.sort(scores.ascending, kind="stable")
    return _tied(ranked[k - 1], ranked[k])


def pr_auc(ground_truth, scores: MethodScore, n_selected: int
           ) -> tuple[list[tuple[float, float]], float]:
    """Precision-recall curve and trapezoidal AUC of a top-k selection.

    The per-feature scores are binarized (1 for the n_selected best, else 0)
    and thresholded against the boolean ground truth; curve points are
    returned with recall ascending.
    """
    truth = np.asarray(ground_truth, dtype=bool)
    q = truth.shape[0]
    if scores.scores.shape[0] != q:
        raise LengthMismatch(f"{scores.scores.shape[0]} scores for {q} labels")
    positives = int(truth.sum())
    if positives == 0:
        raise NoPositives("ground truth has no positive labels")
    selected = select_top(scores, n_selected)
    tp = int(truth[selected].sum())
    points = [
        (0.0, 1.0),  # conventional anchor: zero recall at full precision
        (tp / positives, tp / n_selected),
        (1.0, positives / q),  # predict everything
    ]
    points.sort(key=lambda rp: (rp[0], -rp[1]))
    auc = sum((r2 - r1) * (p1 + p2) / 2.0
              for (r1, p1), (r2, p2) in zip(points, points[1:]))
    return points, float(min(max(auc, 0.0), 1.0))


def average_inclusion_probability(repeat_selections, correct_labels,
                                  n_selected: int) -> float:
    """Mean over repeats of (#selected-and-correct) / n_selected."""
    correct = set(int(j) for j in np.flatnonzero(np.asarray(correct_labels, dtype=bool)))
    fractions = []
    for r, sel in enumerate(repeat_selections):
        if len(sel) != n_selected:
            raise SizeMismatch(
                f"repeat {r} selected {len(sel)} features, expected {n_selected}")
        fractions.append(len(set(sel) & correct) / n_selected)
    if not fractions:
        raise SizeMismatch("need at least one repeat")
    return float(np.mean(fractions))


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


def synth_candidates(n: int, truth, candidates, noise_var: float, seed: int = 0,
                     rng: np.random.Generator | None = None
                     ) -> tuple[Dataset, FeatureMatrix]:
    """Univariate standard-normal input; y = truth(x) + noise; candidate
    transforms evaluated into a FeatureMatrix.

    ``truth`` and each candidate may be a UnaryOp or an expression string in
    x (e.g. "sin(4*x+0.2)").
    """
    if rng is None:
        rng = derive_rng(seed)
    x = rng.standard_normal((n, 1))
    eps = rng.standard_normal(n)
    truth_op = _as_unary(truth)
    y = np.asarray(truth_op.fn(x[:, 0]), dtype=float) + np.sqrt(noise_var) * eps
    ds = build_dataset(x, y)
    ops = [_as_unary(cand) for cand in candidates]
    z = np.column_stack([np.asarray(op.fn(x[:, 0]), dtype=float) for op in ops])
    z.setflags(write=False)
    return ds, FeatureMatrix(z, _candidate_exprs(ops))


def _candidate_exprs(ops) -> tuple[Expression, ...]:
    return tuple(var(0) if op.name in ("x", "id") else unary_expr(op.name, var(0))
                 for op in ops)


def _candidate_chunk(n: int, truth: UnaryOp, candidates, noise_var: float, seed: int,
                     reps: range) -> tuple[np.ndarray, np.ndarray]:
    """:func:`synth_candidates` of each repeat r in ``reps``, on the stream
    ``derive_rng(seed, r)``, bit for bit: the candidate columns side by side
    as an (n, len(reps) q) column-major matrix, and the responses as
    (len(reps), n) rows.

    Each repeat draws its own inputs and noise; the truth and each candidate
    are then evaluated once over the whole (len(reps), n) block. Raises what
    building the first failing repeat's dataset raises.
    """
    x = np.empty((len(reps), n))
    eps = np.empty((len(reps), n))
    for i, r in enumerate(reps):
        rng = derive_rng(seed, r)
        rng.standard_normal(out=x[i])
        rng.standard_normal(out=eps[i])
    y = np.asarray(truth.fn(x), dtype=float) + np.sqrt(noise_var) * eps
    infinite = ~np.isfinite(y).all(axis=1)
    s = np.sort(y, axis=1)
    bad = infinite | (s[:, 1:] == s[:, :-1]).any(axis=1)
    if bad.any():
        if infinite[bad.argmax()]:
            raise NonFiniteData("dataset entries must be finite")
        raise TiesInResponse("response vector contains exact ties")
    z = np.empty((len(reps), len(candidates), n))
    for j, op in enumerate(candidates):
        z[:, j] = op.fn(x)
    return z.reshape(-1, n).T, y


# ---------------------------------------------------------------------------
# experiment harness
# ---------------------------------------------------------------------------

# a function of its own: perfbench/spans.py wraps it by name to time the runner
def _run_repeats(job, chunks) -> None:
    """Run job(chunk) for each chunk of repeats, in order."""
    for chunk in chunks:
        job(chunk)


@dataclass(frozen=True)
class SignalExperimentConfig:
    """Repeated feature-selection experiment on the built-in 3-input signal."""

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
class CandidatesExperimentConfig:
    """Repeated single-pick selection among explicit candidate transforms."""

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
class CsvExperimentConfig:
    """Architecture expansion and selection on a fixed ingested dataset.

    Only seed-dependent methods vary across repeats. PR/AIP columns appear
    when ``active_variables`` (input column names or indices) is given.
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
    their labels (or None), and data(reps) -> (z, ys), the features of a
    chunk of repeats already in the scorers' layout.

    z holds the repeats' (n, q) matrices side by side as one (n, len(reps) q)
    column-major matrix, repeat i in columns i q .. i q + q - 1; ys holds
    their responses as (len(reps), n) rows. A repeat that expands to other
    expressions raises DimensionMismatch, because the report names and
    labels the cell's columns.
    """

    key: str
    seed_key: tuple[int, int]
    n: int
    exprs: tuple[Expression, ...]
    labels: np.ndarray | None
    data: Callable[[range], tuple[np.ndarray, np.ndarray]]


# Feature values one rank-method call scores: a chunk of a cell's repeats
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

    Returns, per cell, one report entry per method, and the scoring and
    selection time of each cell and method.

    Each cell builds its repeats a chunk at a time (see :func:`_chunks`).
    A chunk is scored in one fixed order: the rank methods first, then tree
    importance. Each rank method scores the chunk in one call: the chunk's
    matrix, with one response per repeat. The methods that rank the features
    share one sort of the chunk's columns, taken by the first of them and
    released before any forest grows. Tree importance grows each repeat's
    forest on that repeat's columns of the chunk's matrix, uncopied.
    """
    runtimes = dict.fromkeys((f"{c.key}/{m}" for c in cells for m in methods), 0.0)
    order = sorted(enumerate(methods), key=lambda m: m[1] == "tree-importance")
    # per cell and method, the (selection, tie, pr) of each repeat in order
    picks = [[[] for _ in methods] for _ in cells]

    def job(chunk) -> None:
        cell, reps, cell_picks = chunk
        z, ys = cell.data(reps)
        q = len(cell.exprs)
        chunk_fm = FeatureMatrix(z, cell.exprs * len(reps))
        runs = None
        for mi, method in order:
            start = time.perf_counter()
            if method == "tree-importance":
                runs = None
                scored = [score_features(FeatureMatrix(z[:, i * q:(i + 1) * q], cell.exprs),
                                         y, method, tree_params=tree,
                                         seed=_method_seed(seed, *cell.seed_key, r, mi))
                          for i, (r, y) in enumerate(zip(reps, ys))]
            else:
                if runs is None and method in _RUNS_METHODS:
                    runs = sorted_runs(z.T)
                ms = score_features(chunk_fm, ys.T, method, runs=runs)
                scored = [MethodScore(method, part, ms.direction)
                          for part in np.split(ms.scores, len(reps))]
            chosen = [(select_top(ms, n_selected), selection_boundary_tie(ms, n_selected))
                      for ms in scored]
            runtimes[f"{cell.key}/{method}"] += time.perf_counter() - start
            for (selection, tie), ms in zip(chosen, scored):
                pr = pr_auc(cell.labels, ms, n_selected) if cell.labels is not None else None
                cell_picks[mi].append((selection, tie, pr))

    _run_repeats(job, [(cell, reps, cell_picks) for cell, cell_picks in zip(cells, picks)
                       for reps in _chunks(cell.n * len(cell.exprs), repeats)])
    return [[_method_entry(method, cell_picks[mi], cell.labels, n_selected)
             for mi, method in enumerate(methods)]
            for cell, cell_picks in zip(cells, picks)], runtimes


def _side_by_side(matrices) -> np.ndarray:
    """(n, q) matrices side by side, as one column-major (n, len(matrices) q)
    matrix."""
    return np.concatenate([z.T for z in matrices]).T


def _method_entry(method: str, picks: list[tuple], labels, n_selected: int) -> dict:
    """One method's report entry from its (selection, tie, (curve, auc) or
    None) per repeat; the cell's labels add the AIP and PR columns."""
    selections = [sel for sel, _, _ in picks]
    entry = {
        "method": method,
        "direction": "lower" if method == "t0" else "higher",
        "selections": selections,
        "boundary_tie_repeats": int(sum(tie for _, tie, _ in picks)),
    }
    if labels is not None:
        entry["aip"] = average_inclusion_probability(selections, labels, n_selected)
        entry["pr_auc"] = [auc for *_, (_, auc) in picks]
        entry["pr_auc_median"] = float(np.median(entry["pr_auc"]))
        entry["pr_curves"] = [[list(pt) for pt in curve] for *_, (curve, _) in picks]
    return entry


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

        def data(reps: range):
            built = [first if r == 0 else repeat(arch, noise_var, r) for r in reps]
            for r, (fm, _) in zip(reps, built):
                if fm.exprs != exprs:
                    raise DimensionMismatch(
                        f"{key}: repeat {r} expands to other features than repeat 0 "
                        f"({fm.q} against {len(exprs)} columns)")
            return _side_by_side([fm.z for fm, _ in built]), np.stack([y for _, y in built])

        return _Cell(key, (ai, ni), cfg.n, exprs,
                     label_correct(exprs, EQ15_ACTIVE_VARIABLES), data)

    grid = [(ai, Architecture(a), ni, nv) for ai, a in enumerate(cfg.architectures)
            for ni, nv in enumerate(cfg.noise_vars)]
    cells = [cell(*point) for point in grid]
    results, runtimes = _run_cells(cells, cfg.methods, cfg.repeats, cfg.n_selected,
                                   cfg.seed, cfg.tree)
    runs = []
    for (_, arch, _, nv), c, entries in zip(grid, cells, results):
        for entry in entries:
            entry["correct_counts"] = [int(c.labels[sel].sum())
                                       for sel in entry["selections"]]
        runs.append({
            "architecture": arch.order,
            "noise_var": nv,
            "q": len(c.exprs),
            "feature_names": [e.canonical() for e in c.exprs],
            "correct_columns": [int(j) for j in np.flatnonzero(c.labels)],
            "methods": entries,
        })
    config = {**_config_dict(cfg), "active_variables": list(EQ15_ACTIVE_VARIABLES)}
    return ExperimentReport(config, runs, runtimes)


def run_candidates_experiment(cfg: CandidatesExperimentConfig) -> ExperimentReport:
    """Inclusion frequency of each candidate transform over repeats.

    The truth must be one of the candidates (matched by its expression
    string) so inclusion of the true transform can be reported.
    """
    truth_key = cfg.truth.replace(" ", "")
    cand_keys = [c.replace(" ", "") for c in cfg.candidates]
    if truth_key not in cand_keys:
        raise ConfigError(f"config key 'truth': {cfg.truth!r} is not among the candidates")
    truth_col = cand_keys.index(truth_key)
    labels = np.zeros(len(cfg.candidates), dtype=bool)
    labels[truth_col] = True

    truth_op = _as_unary(cfg.truth)
    cand_ops = [_as_unary(c) for c in cfg.candidates]

    data = partial(_candidate_chunk, cfg.n, truth_op, cand_ops, cfg.noise_var, cfg.seed)
    (entries,), runtimes = _run_cells(
        [_Cell("candidates", (0, 0), cfg.n, _candidate_exprs(cand_ops), None, data)],
        cfg.methods, cfg.repeats, cfg.n_selected, cfg.seed, cfg.tree)
    for entry in entries:
        selections = entry["selections"]
        inclusion = {
            name: float(np.mean([cand in sel for sel in selections]))
            for cand, name in enumerate(cfg.candidates)
        }
        entry["inclusion"] = inclusion
        entry["truth_inclusion"] = inclusion[cfg.candidates[truth_col]]
        entry["aip"] = average_inclusion_probability(selections, labels, cfg.n_selected)
    runs = [{
        "mode": "candidates",
        "noise_var": cfg.noise_var,
        "candidates": list(cfg.candidates),
        "truth_column": truth_col,
        "methods": entries,
    }]
    return ExperimentReport(_config_dict(cfg), runs, runtimes)


def run_csv_experiment(ds: Dataset, cfg: CsvExperimentConfig) -> ExperimentReport:
    """Architecture expansion and selection on a fixed ingested dataset."""
    active = cfg.active_variables
    if active is not None:
        active = [_input_column(ds, a) for a in active]
    ops = build_operator_set(cfg.unary_ops, cfg.binary_ops)
    cells = []
    for ai, arch in enumerate(cfg.architectures):
        fm = generate_report(ds, Architecture(arch), ops, cfg.value_dedup).features
        labels = label_correct(fm.exprs, active) if active is not None else None
        cells.append(_Cell(f"{arch}/csv", (ai, 0), ds.n, fm.exprs, labels,
                           partial(_repeated, fm.z, ds.y)))
    results, runtimes = _run_cells(cells, cfg.methods, cfg.repeats, cfg.n_selected,
                                   cfg.seed, cfg.tree)
    runs = []
    for arch, c, entries in zip(cfg.architectures, cells, results):
        names = [e.canonical() for e in c.exprs]
        for entry in entries:
            entry["selected_names"] = [[names[j] for j in sel]
                                       for sel in entry["selections"]]
        run = {"architecture": arch, "q": len(names), "feature_names": names,
               "methods": entries}
        if active is not None:
            run["correct_columns"] = [int(j) for j in np.flatnonzero(c.labels)]
        runs.append(run)
    # the csv echo leaves out tree and value_dedup
    config = {k: v for k, v in _config_dict(cfg).items() if k not in ("tree", "value_dedup")}
    config.update(mode="csv", active_variables=active)
    return ExperimentReport(config, runs, runtimes)


def _repeated(z: np.ndarray, y: np.ndarray, reps: range) -> tuple[np.ndarray, np.ndarray]:
    """One fixed matrix and response as every repeat of a chunk; a chunk of
    one repeat gets z itself, uncopied."""
    if len(reps) > 1:
        z = _side_by_side([z] * len(reps))
    return z, np.broadcast_to(y, (len(reps), y.shape[0]))


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
