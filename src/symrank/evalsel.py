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
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Dataset,
    FeatureMatrix,
    build_dataset,
    derive_rng,
    unary as unary_expr,
    var,
)
from .errors import KTooLarge, LengthMismatch, NoPositives, SizeMismatch
from .stats import (
    chatterjee_scores,
    kendall_scores,
    pearson_scores,
    spearman_scores,
    t0_scores,
)
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

# score equality below this relative gap counts as a selection tie
TIE_RTOL = 1e-12


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


_BATCHED_SCORERS = {
    "t0": t0_scores,
    "pearson": lambda z, y: np.abs(pearson_scores(z, y)),
    "spearman": lambda z, y: np.abs(spearman_scores(z, y)),
    "kendall": lambda z, y: np.abs(kendall_scores(z, y)),
    "chatterjee": chatterjee_scores,
}


def score_features(fm: FeatureMatrix, y, method: str, *, seed: int = 0,
                   tree_params: TreeParams = TreeParams()) -> MethodScore:
    """Score every feature column against the response with one method.

    Zero-variance columns get the worst in-range sentinel: 0 for the
    absolute correlations, -1 for the rank coefficient that rejects ties;
    the concordant divergence and the split importance handle them natively.
    """
    y = np.asarray(y, dtype=float)
    if method not in SCORE_METHODS:
        raise LengthMismatch(f"unknown method {method!r}; choose from {SCORE_METHODS}")
    if method == "tree-importance":
        scores = ensemble_importance(fm.z, y, tree_params.n_trees, tree_params.depth, seed)
        return MethodScore(method, scores, "higher")
    direction = "lower" if method == "t0" else "higher"
    return MethodScore(method, _BATCHED_SCORERS[method](fm.z, y), direction)


def select_top(scores: MethodScore, k: int) -> list[int]:
    """The k best columns per the method's direction, best first.

    Exact score ties resolve to the lowest column index.
    """
    q = scores.scores.shape[0]
    if k > q:
        raise KTooLarge(f"k={k} exceeds {q} features")
    order = np.argsort(scores.ascending, kind="stable")
    return [int(j) for j in order[:k]]


def selection_boundary_tie(scores: MethodScore, k: int) -> bool:
    """Whether equivalence at the selection boundary makes top-k ambiguous."""
    q = scores.scores.shape[0]
    if k >= q or k == 0:
        return False
    ranked = np.sort(scores.ascending, kind="stable")
    gap = abs(ranked[k] - ranked[k - 1])
    scale = max(abs(ranked[k]), abs(ranked[k - 1]), 1.0)
    return bool(gap <= TIE_RTOL * scale)


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
    columns, exprs = [], []
    for cand in candidates:
        op = _as_unary(cand)
        columns.append(np.asarray(op.fn(x[:, 0]), dtype=float))
        exprs.append(var(0) if op.name in ("x", "id") else unary_expr(op.name, var(0)))
    z = np.column_stack(columns)
    z.setflags(write=False)
    return ds, FeatureMatrix(z, tuple(exprs))


# ---------------------------------------------------------------------------
# experiment harness
# ---------------------------------------------------------------------------

def _run_repeats(job, repeats: int) -> list:
    """Evaluate job(r) for each repeat, in order."""
    return [job(r) for r in range(repeats)]


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
    active_variables: tuple[int, ...] = EQ15_ACTIVE_VARIABLES


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


def _score_and_select(fm, y, method, n_selected, seed, tree_params):
    start = time.perf_counter()
    ms = score_features(fm, y, method, seed=seed, tree_params=tree_params)
    selection = select_top(ms, n_selected)
    tie = selection_boundary_tie(ms, n_selected)
    elapsed = time.perf_counter() - start
    return ms, selection, tie, elapsed


def run_signal_experiment(cfg: SignalExperimentConfig) -> ExperimentReport:
    """Selection quality per (architecture, noise, method) over repeats.

    Each repeat re-derives its RNG stream from (seed, repeat), so datasets at
    different noise levels within a repeat share inputs and noise shape, and
    the whole report is reproducible bit-for-bit.
    """
    ops = build_operator_set(cfg.unary_ops, cfg.binary_ops)
    archs = [Architecture(a) for a in cfg.architectures]

    def job(r: int):
        out = {}
        for ai, arch in enumerate(archs):
            for ni, nv in enumerate(cfg.noise_vars):
                ds = synth_3var(cfg.n, nv, rng=derive_rng(cfg.seed, r))
                rep = generate_report(ds, arch, ops, cfg.value_dedup)
                fm = rep.features
                labels = label_correct(fm.exprs, cfg.active_variables)
                for mi, method in enumerate(cfg.methods):
                    ms, sel, tie, elapsed = _score_and_select(
                        fm, ds.y, method, cfg.n_selected,
                        _method_seed(cfg.seed, ai, ni, r, mi), cfg.tree)
                    curve, auc = pr_auc(labels, ms, cfg.n_selected)
                    out[(ai, ni, method)] = {
                        "selection": sel,
                        "correct": int(labels[sel].sum()),
                        "auc": auc,
                        "curve": curve,
                        "tie": tie,
                        "elapsed": elapsed,
                        "labels": labels,
                        "names": fm.column_names(),
                    }
        return out

    per_repeat = _run_repeats(job, cfg.repeats)

    runs: list[dict] = []
    runtimes: dict[str, float] = {}
    for ai, arch in enumerate(archs):
        for ni, nv in enumerate(cfg.noise_vars):
            first = per_repeat[0][(ai, ni, cfg.methods[0])]
            labels = first["labels"]
            methods_out = []
            for method in cfg.methods:
                cells = [rep[(ai, ni, method)] for rep in per_repeat]
                selections = [c["selection"] for c in cells]
                aucs = [c["auc"] for c in cells]
                aip = average_inclusion_probability(selections, labels, cfg.n_selected)
                runtimes[f"{arch.order}/{nv:g}/{method}"] = float(
                    sum(c["elapsed"] for c in cells))
                methods_out.append({
                    "method": method,
                    "direction": "lower" if method == "t0" else "higher",
                    "selections": selections,
                    "correct_counts": [c["correct"] for c in cells],
                    "aip": aip,
                    "pr_auc": aucs,
                    "pr_auc_median": float(np.median(aucs)),
                    "pr_curves": [[list(pt) for pt in c["curve"]] for c in cells],
                    "boundary_tie_repeats": int(sum(c["tie"] for c in cells)),
                })
            runs.append({
                "architecture": arch.order,
                "noise_var": nv,
                "q": len(first["names"]),
                "feature_names": list(first["names"]),
                "correct_columns": [int(j) for j in np.flatnonzero(labels)],
                "methods": methods_out,
            })
    return ExperimentReport(_config_dict(cfg), runs, runtimes)


def run_candidates_experiment(cfg: CandidatesExperimentConfig) -> ExperimentReport:
    """Inclusion frequency of each candidate transform over repeats.

    The truth must be one of the candidates (matched by its expression
    string) so inclusion of the true transform can be reported.
    """
    truth_key = cfg.truth.replace(" ", "")
    cand_keys = [c.replace(" ", "") for c in cfg.candidates]
    if truth_key not in cand_keys:
        raise LengthMismatch("truth expression must appear among the candidates")
    truth_col = cand_keys.index(truth_key)
    labels = np.zeros(len(cfg.candidates), dtype=bool)
    labels[truth_col] = True

    def job(r: int):
        ds, fm = synth_candidates(cfg.n, cfg.truth, cfg.candidates, cfg.noise_var,
                                  rng=derive_rng(cfg.seed, r))
        out = {}
        for mi, method in enumerate(cfg.methods):
            _, sel, tie, elapsed = _score_and_select(
                fm, ds.y, method, cfg.n_selected,
                _method_seed(cfg.seed, 0, 0, r, mi), cfg.tree)
            out[method] = {"selection": sel, "tie": tie, "elapsed": elapsed}
        return out

    per_repeat = _run_repeats(job, cfg.repeats)

    methods_out = []
    runtimes: dict[str, float] = {}
    for method in cfg.methods:
        cells = [rep[method] for rep in per_repeat]
        selections = [c["selection"] for c in cells]
        inclusion = {
            name: float(np.mean([cand in sel for sel in selections]))
            for cand, name in enumerate(cfg.candidates)
        }
        aip = average_inclusion_probability(selections, labels, cfg.n_selected)
        runtimes[f"candidates/{method}"] = float(sum(c["elapsed"] for c in cells))
        methods_out.append({
            "method": method,
            "direction": "lower" if method == "t0" else "higher",
            "selections": selections,
            "inclusion": inclusion,
            "truth_inclusion": inclusion[cfg.candidates[truth_col]],
            "aip": aip,
            "boundary_tie_repeats": int(sum(c["tie"] for c in cells)),
        })
    runs = [{
        "mode": "candidates",
        "noise_var": cfg.noise_var,
        "candidates": list(cfg.candidates),
        "truth_column": truth_col,
        "methods": methods_out,
    }]
    return ExperimentReport(_config_dict(cfg), runs, runtimes)


def run_csv_experiment(ds: Dataset, architectures, unary_ops, binary_ops,
                       methods, n_selected: int, seed: int,
                       active_variables=None, repeats: int = 1,
                       tree: TreeParams = TreeParams(),
                       value_dedup: bool = False) -> ExperimentReport:
    """Architecture expansion and selection on a fixed ingested dataset.

    Only seed-dependent methods vary across repeats. PR/AIP columns appear
    when ``active_variables`` (input column indices) is given.
    """
    ops = build_operator_set(unary_ops, binary_ops)
    runs = []
    runtimes: dict[str, float] = {}
    for ai, arch_name in enumerate(architectures):
        rep = generate_report(ds, Architecture(arch_name), ops, value_dedup)
        fm = rep.features
        labels = (label_correct(fm.exprs, active_variables)
                  if active_variables is not None else None)

        def job(r: int, _fm=fm, _ai=ai):
            out = {}
            for mi, method in enumerate(methods):
                ms, sel, tie, elapsed = _score_and_select(
                    _fm, ds.y, method, n_selected,
                    _method_seed(seed, _ai, 0, r, mi), tree)
                out[method] = {"selection": sel, "tie": tie,
                               "elapsed": elapsed, "score": ms}
            return out

        per_repeat = _run_repeats(job, repeats)
        methods_out = []
        for method in methods:
            cells = [rep_r[method] for rep_r in per_repeat]
            selections = [c["selection"] for c in cells]
            entry = {
                "method": method,
                "direction": "lower" if method == "t0" else "higher",
                "selections": selections,
                "selected_names": [[fm.column_names()[j] for j in sel]
                                   for sel in selections],
                "boundary_tie_repeats": int(sum(c["tie"] for c in cells)),
            }
            if labels is not None:
                entry["aip"] = average_inclusion_probability(
                    selections, labels, n_selected)
                curves_aucs = [pr_auc(labels, c["score"], n_selected)
                               for c in cells]
                entry["pr_auc"] = [auc for _, auc in curves_aucs]
                entry["pr_auc_median"] = float(np.median(entry["pr_auc"]))
                entry["pr_curves"] = [[list(pt) for pt in curve]
                                      for curve, _ in curves_aucs]
            runtimes[f"{arch_name}/csv/{method}"] = float(
                sum(c["elapsed"] for c in cells))
            methods_out.append(entry)
        run = {
            "architecture": arch_name,
            "q": fm.q,
            "feature_names": list(fm.column_names()),
            "methods": methods_out,
        }
        if labels is not None:
            run["correct_columns"] = [int(j) for j in np.flatnonzero(labels)]
        runs.append(run)
    config = {
        "mode": "csv", "architectures": list(architectures),
        "unary_ops": [_op_name(u) for u in unary_ops],
        "binary_ops": list(binary_ops),
        "methods": list(methods), "n_selected": n_selected, "seed": seed,
        "repeats": repeats,
        "active_variables": (list(active_variables)
                             if active_variables is not None else None),
    }
    return ExperimentReport(config, runs, runtimes)


def _op_name(entry) -> object:
    return entry.name if isinstance(entry, UnaryOp) else entry


def _config_dict(cfg) -> dict:
    out = {}
    for key, value in vars(cfg).items():
        if isinstance(value, TreeParams):
            out[key] = {"n_trees": value.n_trees, "depth": value.depth}
        elif isinstance(value, tuple):
            out[key] = [_op_name(v) for v in value]
        else:
            out[key] = value
    return out
