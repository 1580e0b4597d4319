"""Command-line front end.

Subcommands: gen-features, score, select, experiment, p12, oracle-partition,
tree grow, tree predict. Exit codes: 0 success, 1 runtime/method failure,
2 usage or config error; a package error returns its class's ``exit_code``.
Every subcommand that takes --seed writes a byte-deterministic primary JSON
document; wall-clock timings go to a sidecar file.

A command imports ``tree``, ``partition`` or ``monotonic`` in its own body,
so a command that does not run them does not load them.

The CLI checks an experiment config only as JSON: unknown and missing keys,
JSON types and value ranges (``_CONFIG_VALUES``). Every other rule belongs
to the config types in ``evalsel``, which check themselves when built.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .core import FeatureMatrix, _is_number, load_csv, read_text, var
from .errors import ColumnMismatch, ConfigError, SymrankError, UsageError, _shown
from .evalsel import (
    CandidatesExperimentConfig,
    CsvExperimentConfig,
    SCORE_METHODS,
    SignalExperimentConfig,
    TreeParams,
    _config_key,
    _known_methods,
    run_candidates_experiment,
    run_csv_experiment,
    run_signal_experiment,
    score_features,
    select_top,
)
from .symgen import (
    Architecture,
    build_operator_set,
    generate_report,
    sin_affine,
    unary_from_expr,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

P12_NOTE = ("p is signed in [-1, 1]: positive prefers the first transform, "
            "negative the second; |p| is the preference magnitude.")


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_config(path: str) -> dict:
    """A JSON file: an experiment config, a p12 maps file or a grown tree."""
    try:
        return json.loads(read_text(path))
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply") from None


def _unary_entry(entry):
    """One config unary op: a builtin name, {"op": "sin", "a": .., "b": ..}
    for the parameterized sine family, or an {"expr": "..."} expression
    string. A malformed object is a ConfigError that names its bad key."""
    if not isinstance(entry, dict):
        return entry
    if entry.get("op") == "sin":
        if "a" not in entry:
            raise ConfigError("missing key 'a'")
        for key in ("a", "b"):
            if not _is_number(entry.get(key, 0.0)):
                raise ConfigError(f"key {_shown(key)} takes "
                                  f"a finite number, got {_shown(entry[key])}")
        op, keys = sin_affine(entry["a"], entry.get("b", 0.0)), {"op", "a", "b"}
    elif "expr" in entry:
        if type(entry["expr"]) is not str:
            raise ConfigError(f"key 'expr' takes a string, got {_shown(entry['expr'])}")
        op, keys = unary_from_expr(entry["expr"]), {"expr"}
    elif "op" in entry:
        raise ConfigError(f"key 'op' takes \"sin\", got {_shown(entry['op'])}")
    else:
        raise ConfigError("needs key 'op' or 'expr'")
    if entry.keys() - keys:
        raise ConfigError(f"unknown keys {_shown(sorted(entry.keys() - keys))}; "
                          f"takes {sorted(keys)}")
    return op


def _methods_arg(raw: str) -> list[str]:
    """The --methods list, checked before any file is read."""
    if raw == "all":
        return list(SCORE_METHODS)
    methods = [m.strip() for m in raw.split(",") if m.strip()]
    if not methods:
        raise UsageError(f"--methods {_shown(raw)} names no method")
    return _known_methods(methods)


def _is_variance(value) -> bool:
    return _is_number(value) and value >= 0


def _integer(low: int, high: float = math.inf):
    kind = f"an integer >= {low}" + ("" if high == math.inf else f" and <= {high}")
    return (kind, lambda v: type(v) is int and low <= v <= high, int)


def _array(entries: str, valid_entry, convert=tuple):
    """The spec of a nonempty JSON array whose entries pass ``valid_entry``."""
    return (f"a nonempty array{entries}",
            lambda v: type(v) is list and len(v) > 0 and all(map(valid_entry, v)), convert)


# what the JSON value of each config key must be, and how it becomes the
# field value
_STRING = ("a string", lambda v: type(v) is str, str)
_STRINGS = _array(" of strings", lambda e: type(e) is str)
# A float64 column of 2**40 values is 8 TiB, so below this bound on n a
# synthetic run fails, if at all, with a MemoryError (exit 1) and not with
# numpy's checks on array dimensions and sizes.
_MAX_N = 2**40
_CONFIG_VALUES = {
    "n": _integer(2, _MAX_N), "repeats": _integer(1), "n_selected": _integer(1),
    "n_trees": _integer(1), "seed": _integer(0), "depth": _integer(0),
    "noise_var": ("a finite number >= 0", _is_variance, float),
    "value_dedup": ("true or false", lambda v: type(v) is bool, bool),
    "noise_vars": _array(" of finite numbers >= 0", _is_variance),
    "methods": _array("", lambda e: True),
    "architectures": _STRINGS, "binary_ops": _STRINGS, "candidates": _STRINGS,
    "unary_ops": _array(" of strings and objects", lambda e: type(e) in (str, dict),
                        lambda v: tuple(map(_unary_entry, v))),
    "active_variables": ("a nonempty array or null",
                         lambda v: v is None or type(v) is list and len(v) > 0,
                         lambda v: v if v is None else tuple(v)),
    "truth": _STRING, "input": _STRING, "response": _STRING,
    "tree": ("an object", lambda v: isinstance(v, dict),
             lambda raw: _config(TreeParams, raw)),
}


def _option(spec):
    """An argparse ``type`` taking the integers an ``_integer`` spec takes;
    argparse turns a rejected value into a usage error (exit 2)."""
    kind, valid, _ = spec

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            value = raw
        if not valid(value):
            raise argparse.ArgumentTypeError(f"takes {kind}, got {_shown(raw)}")
        return value
    return parse


_SEED = _option(_CONFIG_VALUES["seed"])
_DEPTH = _option(_CONFIG_VALUES["depth"])


def _config_value(key: str, value):
    kind, valid, convert = _CONFIG_VALUES[key]
    if not valid(value):
        raise ConfigError(f"config key {_shown(key)} takes {kind}, got {_shown(value)}")
    with _config_key(key):
        return convert(value)


def _config(cls, raw, extra=()):
    """A ``cls`` dataclass from a JSON object whose keys are its fields.

    The dataclass holds every default and checks its own rules when built.
    Keys in ``extra`` are accepted and left out; any other unknown key, a
    missing required field, or a value of the wrong JSON type or out of range
    (see ``_CONFIG_VALUES``) is a ConfigError.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - set(fields) - set(extra))
    missing = [name for name, f in fields.items() if name not in raw
               and f.default is f.default_factory is dataclasses.MISSING]
    if unknown or missing:
        raise ConfigError(f"{cls.__name__} config: unknown keys {_shown(unknown)}, "
                          f"missing keys {_shown(missing)}")
    return cls(**{key: _config_value(key, value)
                  for key, value in raw.items() if key in fields})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_features(args) -> int:
    ds = load_csv(args.input, args.response)
    ops = build_operator_set(args.unary.split(","), args.binary.split(","))
    report = generate_report(ds, Architecture(args.arch), ops, args.value_dedup)
    fm = report.features
    out = Path(args.out_dir)
    _write_csv(out / "features.csv", fm.column_names(),
               (list(row) for row in fm.z))
    _write_json(out / "manifest.json", {
        "architecture": args.arch,
        "input_columns": list(ds.column_names),
        "layer_counts": [dict(c) for c in report.layer_counts],
        "q": fm.q,
        "dropped": [dict(d) for d in report.dropped],
        "constant_columns": list(report.constant_columns),
    })
    print(f"wrote {fm.q} features to {out / 'features.csv'}")
    return EXIT_OK


def cmd_score(args) -> int:
    methods = _methods_arg(args.methods)
    ds = load_csv(args.input, args.response)
    fm = _dataset_as_features(ds)
    table: dict[str, list] = {}
    warnings: list[str] = []
    failed = False
    for method in methods:
        try:
            table[method] = score_features(fm, ds.y, method, seed=args.seed,
                                           tree_params=TreeParams(depth=args.depth)).tolist()
        except SymrankError as exc:
            warnings.append(f"{method}: {exc}")
            table[method] = None
            failed = True
    for j in np.flatnonzero((fm.z == fm.z[0]).all(axis=0)):
        warnings.append(
            f"column {_shown(ds.column_names[j])} has zero variance; "
            "correlation methods report their worst sentinel")
    out = Path(args.out_dir)
    _write_json(out / "scores.json", {
        "columns": list(ds.column_names),
        "methods": table,
        "warnings": warnings,
    })
    rows = [[ds.column_names[j]] + [table[m][j] if table[m] else "" for m in methods]
            for j in range(fm.q)]
    _write_csv(out / "scores.csv", ["feature"] + methods, rows)
    print(f"scored {fm.q} columns with {len(methods)} methods -> {out / 'scores.json'}")
    return EXIT_RUNTIME if failed else EXIT_OK


def _dataset_as_features(ds):
    return FeatureMatrix(ds.x, tuple(var(j) for j in range(ds.d)))


def cmd_select(args) -> int:
    methods = _methods_arg(args.methods)
    ds = load_csv(args.input, args.response)
    fm = _dataset_as_features(ds)
    doc = {"n_selected": args.n_selected, "methods": []}
    for method in methods:
        scores = score_features(fm, ds.y, method, seed=args.seed,
                                tree_params=TreeParams(depth=args.depth))
        sel, tie = select_top(scores, args.n_selected, method)
        sel = sel.tolist()
        doc["methods"].append({
            "method": method,
            "selected_columns": sel,
            "selected_names": [ds.column_names[j] for j in sel],
            "boundary_tie": bool(tie),
        })
    _write_json(Path(args.out_dir) / "selection.json", doc)
    print(f"wrote {Path(args.out_dir) / 'selection.json'}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    raw = _load_config(args.config)
    if not isinstance(raw, dict):
        raise ConfigError(f"experiment config must be a JSON object, got {_shown(raw)}")
    if args.seed is not None:
        raw.setdefault("seed", args.seed)
    mode = raw.get("mode", "signal")
    if mode == "signal":
        report = run_signal_experiment(_config(SignalExperimentConfig, raw, ("mode",)))
    elif mode == "candidates":
        report = run_candidates_experiment(
            _config(CandidatesExperimentConfig, raw, ("mode",)))
    elif mode == "csv":
        cfg = _config(CsvExperimentConfig, raw, ("mode", "input", "response"))
        source = [_config_value(key, raw.get(key)) for key in ("input", "response")]
        report = run_csv_experiment(load_csv(*source), cfg)
    else:
        raise ConfigError("config key 'mode' takes one of 'signal', 'candidates', "
                          f"'csv', got {_shown(mode)}")

    out = Path(args.out_dir)
    _write_json(out / "report.json", report.primary_document())
    _write_json(out / "timings.json", report.runtimes)
    for run in report.runs:
        for m in run.get("methods", []):
            if "pr_curves" not in m:
                continue
            label = f"{run.get('architecture', 'run')}_{run.get('noise_var', 0):g}_{m['method']}"
            rows = [(rec, prec, r)
                    for r, curve in enumerate(m["pr_curves"])
                    for rec, prec in curve]
            _write_csv(out / f"pr_{label}.csv", ["recall", "precision", "repeat"], rows)
    print(f"wrote {out / 'report.json'}")
    return EXIT_OK


def _c_values(raw: str) -> list[float]:
    """The --c grid: comma-separated finite numbers, else a UsageError."""
    values = []
    for field in raw.split(","):
        try:
            value = float(field)
        except ValueError:
            value = float("nan")
        if not np.isfinite(value):
            raise UsageError(f"--c takes comma-separated finite numbers, got {_shown(field)}")
        values.append(value)
    return values


def _p12_maps(doc):
    """The two transforms and the optional CDF of a p12 maps document. A
    malformed document is a ConfigError that names its bad key; any other
    error in a transform keeps its class and names its key too."""
    from .monotonic import TabulatedCDF, load_piecewise

    if not isinstance(doc, dict):
        raise ConfigError(f"p12 maps file must be a JSON object, got {_shown(doc)}")
    transforms = []
    for key in ("transform_1", "transform_2"):
        try:
            transforms.append(load_piecewise(doc.get(key)))
        except UsageError as exc:
            raise type(exc)(f"p12 maps key {_shown(key)}: {exc}") from None
    if "cdf" not in doc:
        return (*transforms, None)
    cdf = doc["cdf"]
    if not isinstance(cdf, dict):
        raise ConfigError(f"p12 maps key 'cdf' takes an object, got {_shown(cdf)}")
    for key in ("x", "p"):
        if type(cdf.get(key)) is not list or not all(map(_is_number, cdf[key])):
            raise ConfigError(f"p12 maps key 'cdf': key {_shown(key)} takes an array of "
                              f"finite numbers, got {_shown(cdf.get(key))}")
    return (*transforms, TabulatedCDF(cdf["x"], cdf["p"]))


def cmd_p12(args) -> int:
    from .monotonic import preference_probability

    c_values = _c_values(args.c)
    t1, t2, measure = _p12_maps(_load_config(args.maps))
    rows = []
    for c in c_values:
        rep = preference_probability(t1, t2, c, measure)
        rows.append({
            "c": c,
            "p": rep.p_value,
            "pref_1": [[iv.lo, iv.hi] for iv in rep.intervals_pref_1],
            "pref_2": [[iv.lo, iv.hi] for iv in rep.intervals_pref_2],
        })
    out = Path(args.out_dir)
    _write_json(out / "p12.json", {"rows": rows, "note": P12_NOTE})
    _write_csv(out / "p12.csv", ["c", "p"], [(r["c"], r["p"]) for r in rows])
    for r in rows:
        pref = "first" if r["p"] > 0 else ("second" if r["p"] < 0 else "neither")
        print(f"C={r['c']:g}: p={r['p']:+.6g} (prefers {pref}, |p|={abs(r['p']):g})")
    print(P12_NOTE)
    return EXIT_OK


def cmd_oracle_partition(args) -> int:
    from .partition import brute_force_best_2partition, oracle_fixed_size

    ds = load_csv(args.input, args.response)
    y = ds.y
    result = oracle_fixed_size(y, args.i)
    doc = {
        "n": int(y.shape[0]),
        "i": args.i,
        "prefix": _partition_doc(result.prefix, y),
        "suffix": _partition_doc(result.suffix, y),
        "winner": result.winner,
        "tie": result.tie,
    }
    if args.brute_force:
        best = brute_force_best_2partition(y, args.i)  # raises TooLarge past n=16
        size_i_side = best.left if len(best.left) == args.i else best.right
        winner_side = result.best.left
        doc["brute_force"] = {
            **_partition_doc(best, y),
            "matches_winner": sorted(size_i_side) == sorted(winner_side),
        }
    _write_json(Path(args.out_dir) / "oracle_partition.json", doc)
    print(f"winner: {result.winner}"
          + (" (tie)" if result.tie else "")
          + f", loss {result.best.total_sse:.12g}")
    return EXIT_OK


def _partition_doc(p, y) -> dict:
    return {
        "left_indices": list(p.left),
        "right_indices": list(p.right),
        "left_values": [float(y[j]) for j in p.left],
        "right_values": [float(y[j]) for j in p.right],
        "loss": p.total_sse,
    }


def cmd_tree_grow(args) -> int:
    from .tree import grow_tree, tree_to_json

    ds = load_csv(args.input, args.response)
    tree = grow_tree(ds.x, ds.y, args.depth, args.min_leaf)
    doc = tree_to_json(tree)
    doc["columns"] = list(ds.column_names)
    _write_json(Path(args.out), doc)
    n_leaves = int(np.count_nonzero(tree.coordinate < 0))
    print(f"grew depth<={args.depth} tree with {n_leaves} leaves -> {args.out}")
    return EXIT_OK


def cmd_tree_predict(args) -> int:
    from .tree import predict_rows, tree_from_json

    doc = _load_config(args.tree)
    try:
        tree = tree_from_json(doc)
        columns = doc.get("columns", [])
        if type(columns) is not list or not all(type(c) is str for c in columns):
            raise ConfigError(f"key 'columns' takes an array of strings, got {_shown(columns)}")
    except ConfigError as exc:
        raise ConfigError(f"{args.tree}: {exc}") from None
    ds = load_csv(args.input, args.response)
    if "columns" in doc and doc["columns"] != list(ds.column_names):
        raise ColumnMismatch(f"tree was grown on columns {_shown(doc['columns'])}, "
                             f"{args.input} has input columns {_shown(list(ds.column_names))}")
    preds = predict_rows(tree, ds.x)
    _write_csv(Path(args.out), ["prediction"], [(float(p),) for p in preds])
    print(f"wrote {len(preds)} predictions -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symrank",
        description="Rank-based split analysis and symbolic feature selection.")
    sub = parser.add_subparsers(dest="command", required=True)
    # options shared by several subcommands, each declared once
    csv_input = argparse.ArgumentParser(add_help=False)
    csv_input.add_argument("--input", required=True)
    csv_input.add_argument("--response", required=True)
    out_dir = argparse.ArgumentParser(add_help=False)
    out_dir.add_argument("--out-dir", default=".")
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--seed", type=_SEED, default=0)
    scoring.add_argument("--depth", type=_DEPTH, default=3, help="tree-importance depth")

    p = sub.add_parser("gen-features", parents=[csv_input, out_dir],
                       help="expand symbolic features from a CSV")
    p.add_argument("--arch", default="bu", help="layer order over u/b, e.g. bu, ub, ubb")
    p.add_argument("--unary", default="id,cube", help="comma-separated unary ops")
    p.add_argument("--binary", default="+,*", help="comma-separated binary ops")
    p.add_argument("--value-dedup", action="store_true")
    p.set_defaults(fn=cmd_gen_features)

    p = sub.add_parser("score", parents=[csv_input, out_dir, scoring],
                       help="score feature columns against the response")
    p.add_argument("--methods", default="all")
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("select", parents=[csv_input, out_dir, scoring],
                       help="pick the top features per method")
    p.add_argument("--methods", default="t0")
    p.add_argument("--n-selected", type=_option(_integer(1)), default=3)
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("experiment", parents=[out_dir],
                       help="run a JSON-configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_SEED, default=None,
                   help="fallback seed when the config omits one")
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("p12", parents=[out_dir],
                       help="signed preference probability over a C grid")
    p.add_argument("--maps", required=True,
                   help="JSON file with transform_1/transform_2 (and optional cdf)")
    p.add_argument("--c", required=True, help="comma-separated splitting values")
    p.set_defaults(fn=cmd_p12)

    p = sub.add_parser("oracle-partition", parents=[csv_input, out_dir],
                       help="fixed-size oracle 2-partition of y")
    p.add_argument("--i", type=int, required=True, help="first group size")
    p.add_argument("--brute-force", action="store_true",
                   help="cross-check by enumeration (n <= 16)")
    p.set_defaults(fn=cmd_oracle_partition)

    p = sub.add_parser("tree", help="grow or apply a regression tree")
    tree_sub = p.add_subparsers(dest="tree_command", required=True)
    g = tree_sub.add_parser("grow", parents=[csv_input])
    g.add_argument("--depth", type=_DEPTH, required=True)
    g.add_argument("--min-leaf", type=_option(_integer(1)), default=1)
    g.add_argument("--out", default="tree.json")
    g.set_defaults(fn=cmd_tree_grow)
    r = tree_sub.add_parser("predict", parents=[csv_input])
    r.add_argument("--tree", required=True)
    r.add_argument("--out", default="predictions.csv")
    r.set_defaults(fn=cmd_tree_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SymrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
