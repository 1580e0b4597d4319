"""Each input check raises its typed error; where the command line reaches a
check, it exits with the error's code and one ``error:`` line."""

import json
import re

import numpy as np
import pytest

from symrank import cli, errors, evalsel
from symrank.cli import main
from symrank.core import (
    FeatureMatrix,
    RankPermutation,
    build_dataset,
    load_csv,
    make_partition2,
    var,
)
from symrank.evalsel import (
    average_inclusion_probability,
    pr_auc,
    score_features,
)
from symrank.monotonic import (
    TabulatedCDF,
    UniformCDF,
    load_piecewise,
    piecewise_monotone,
)
from symrank.stats import ranking_metric_T
from symrank.symgen import (
    Architecture,
    UnaryOp,
    build_operator_set,
    expand_binary,
    generate_report,
    parse_univariate,
)
from symrank.tree import ensemble_importance, grow_tree

Y5 = np.array([5.0, 2.1, 1.0, 2.0, 4.0])
Z5 = np.column_stack([Y5, -Y5])
UP = ["x"], ["increasing"]


def response_only_csv(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("y\n1\n2\n")
    return path


def wrong_shape_features():
    ops = build_operator_set([UnaryOp("head", lambda v: v[:1])], ())
    generate_report(build_dataset(Z5, Y5), Architecture("u"), ops)


def nan_scores():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evalsel, "batched_scores", lambda *args: np.array([0.0, np.nan]))
        score_features(FeatureMatrix(Z5, (var(0), var(1))), Y5, "t0")


# each check: a call that fails it, its error class and a part of its message
CASES = {
    # core
    "negative-variable": (
        lambda _: var(-1), errors.DimensionMismatch, "index must be >= 0"),
    "1-d-inputs": (
        lambda _: build_dataset(Y5, Y5), errors.DimensionMismatch, "x must be 2-D"),
    "2-d-response": (
        lambda _: build_dataset(Z5, Z5), errors.DimensionMismatch, "y must be 1-D"),
    "no-rows": (
        lambda _: build_dataset(np.zeros((0, 1)), np.zeros(0)),
        errors.DimensionMismatch, "at least one row"),
    "repeated-rank": (
        lambda _: RankPermutation((0, 0)), errors.DimensionMismatch, "not a permutation"),
    "csv-response-only": (
        lambda tmp: load_csv(response_only_csv(tmp), "y"),
        errors.DimensionMismatch, "no input columns besides 'y'"),
    # evalsel
    "nan-score": (
        lambda _: nan_scores(), errors.LengthMismatch, "t0 scores contain NaN"),
    "unknown-method": (
        lambda _: score_features(None, Y5, "lasso"),
        errors.LengthMismatch, "unknown method 'lasso'"),
    "selection-past-labels": (
        lambda _: pr_auc([True, False], [2]), errors.LengthMismatch, "into 2 labels"),
    "negative-selection": (
        lambda _: pr_auc([True, False], [-1]), errors.LengthMismatch, "into 2 labels"),
    "empty-selection": (
        lambda _: pr_auc([True, False], []), errors.LengthMismatch, "into 2 labels"),
    "block-past-labels": (
        lambda _: pr_auc([True, False], np.array([[0], [2]])),
        errors.LengthMismatch, "into 2 labels"),
    "aip-past-labels": (
        lambda _: average_inclusion_probability(np.array([[0], [2]]), [True, False], 1),
        errors.LengthMismatch, "into 2 labels"),
    "no-repeats": (
        lambda _: average_inclusion_probability(np.zeros((0, 1), dtype=int), [True], 1),
        errors.SizeMismatch, "at least one repeat"),
    # symgen
    "repeated-operator": (
        lambda _: build_operator_set(["id", "id"], ()),
        errors.DimensionMismatch, "must be unique"),
    "unknown-unary": (
        lambda _: build_operator_set(["tan"], ()),
        errors.DimensionMismatch, "unknown unary operator 'tan'"),
    "unknown-binary": (
        lambda _: build_operator_set([], ["%"]),
        errors.DimensionMismatch, "unknown binary operator '%'"),
    "bad-architecture": (
        lambda _: Architecture("bx"), errors.DimensionMismatch, "nonempty string over"),
    "empty-binary-layer": (
        lambda _: expand_binary([], build_operator_set([], ["+"])),
        errors.DimensionMismatch, "nonempty expression list"),
    "wrong-shape-op": (
        lambda _: wrong_shape_features(), errors.DimensionMismatch, "evaluated to shape"),
    "unparsable-expression": (
        lambda _: parse_univariate("x +"), errors.DimensionMismatch, "cannot parse"),
    # monotonic
    "empty-domain": (
        lambda _: piecewise_monotone((1, 0), [], *UP),
        errors.DimensionMismatch, "positive length"),
    "descending-breakpoints": (
        lambda _: piecewise_monotone((0, 1), [0.6, 0.4], ["x"] * 3, ["increasing"] * 3),
        errors.DimensionMismatch, "strictly ascending"),
    "breakpoint-outside-domain": (
        lambda _: piecewise_monotone((0, 1), [1.5], ["x"] * 2, ["increasing"] * 2),
        errors.DimensionMismatch, "strictly inside"),
    "segment-count": (
        lambda _: piecewise_monotone((0, 1), [], ["x", "x"], ["increasing"]),
        errors.DimensionMismatch, "require 1 segments"),
    "bad-direction": (
        lambda _: piecewise_monotone((0, 1), [], ["x"], ["sideways"]),
        errors.DimensionMismatch, "increasing/decreasing"),
    "infinite-segment": (
        lambda _: piecewise_monotone((0, 1), [], [lambda v: np.full_like(v, np.inf)],
                                     ["increasing"]),
        errors.NotMonotone, "not finite"),
    "breakpoints-not-numbers": (
        lambda _: load_piecewise({"domain": [0, 1], "breakpoints": ["0.5"], "segments": []}),
        errors.ConfigError, "key 'breakpoints'"),
    "uniform-cdf-empty-support": (
        lambda _: UniformCDF(1, 1), errors.DimensionMismatch, "positive length"),
    "cdf-one-point": (
        lambda _: TabulatedCDF([0.0], [0.0]), errors.DimensionMismatch, ">= 2 points"),
    "cdf-x-not-increasing": (
        lambda _: TabulatedCDF([0.0, 0.0], [0.0, 1.0]),
        errors.DimensionMismatch, "strictly increasing"),
    "cdf-p-decreasing": (
        lambda _: TabulatedCDF([0.0, 1.0], [0.5, 0.2]),
        errors.DimensionMismatch, "nondecreasing"),
    # tree
    "1-d-matrix": (
        lambda _: grow_tree(Y5, Y5, 1), errors.ColumnMismatch, "must be 2-D"),
    "no-trees": (
        lambda _: ensemble_importance(Z5, Y5, 0, 3, 0), errors.Unsplittable, "n_trees >= 1"),
    # partition
    "empty-side": (
        lambda _: make_partition2(Y5, ()), errors.EmptySide, "nonempty"),
    # stats
    "one-mean": (
        lambda _: ranking_metric_T(RankPermutation((0,)), [1.0]),
        errors.LengthMismatch, "at least two"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_check_raises_its_error(call, error, message, tmp_path):
    with pytest.raises(error, match=re.escape(message)):
        call(tmp_path)


def one_error_line(capsys, message):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


PIECE = {"domain": [0, 1], "segments": [{"expr": "x", "direction": "increasing"}]}


def pieces(exprs, directions, **extra):
    return {"domain": [0, 1], **extra,
            "segments": [{"expr": e, "direction": d} for e, d in zip(exprs, directions)]}


# a p12 maps document's first transform and cdf, and a part of the error line
MAPS = {
    "empty-domain": ({**PIECE, "domain": [1, 0]}, None, "positive length"),
    "descending-breakpoints": (
        pieces(["x"] * 3, ["increasing"] * 3, breakpoints=[0.6, 0.4]), None,
        "strictly ascending"),
    "breakpoint-outside-domain": (
        pieces(["x"] * 2, ["increasing"] * 2, breakpoints=[1.5]), None, "strictly inside"),
    "segment-count": (pieces(["x", "x"], ["increasing"] * 2), None, "require 1 segments"),
    "bad-direction": (pieces(["x"], ["sideways"]), None, "increasing/decreasing"),
    "unparsable-expression": (pieces(["x +"], ["increasing"]), None, "cannot parse"),
    "breakpoints-not-numbers": (
        {**PIECE, "breakpoints": ["0.5"]}, None, "'transform_1': key 'breakpoints'"),
    "cdf-not-object": (PIECE, 5, "key 'cdf' takes an object"),
    "cdf-one-point": (PIECE, {"x": [0.0], "p": [0.0]}, ">= 2 points"),
    "cdf-x-not-increasing": (PIECE, {"x": [0.0, 0.0], "p": [0.0, 1.0]}, "strictly increasing"),
    "cdf-p-decreasing": (PIECE, {"x": [0.0, 1.0], "p": [0.5, 0.2]}, "nondecreasing"),
}


@pytest.mark.parametrize("transform, cdf, message", MAPS.values(), ids=MAPS.keys())
def test_p12_maps_check_exits_2(transform, cdf, message, tmp_path, capsys):
    doc = {"transform_1": transform, "transform_2": PIECE}
    if cdf is not None:
        doc["cdf"] = cdf
    maps = tmp_path / "maps.json"
    maps.write_text(json.dumps(doc))
    out = tmp_path / "p12"
    assert main(["p12", "--maps", str(maps), "--c=1.5", "--out-dir", str(out)]) == 2
    one_error_line(capsys, message)
    assert not out.exists()


SIGNAL = {"mode": "signal", "n": 20, "noise_vars": [0.0], "architectures": ["bu"],
          "methods": ["t0"], "repeats": 2}
# a config change that fails a check of its operators or architectures, and
# a part of the error line, which names the config key
OPERATORS = {
    "repeated-operator": ({"unary_ops": ["id", "id"]}, "'unary_ops': operator names must be"),
    "unknown-unary": ({"unary_ops": ["tan"]}, "'unary_ops': unknown unary operator 'tan'"),
    "unknown-binary": ({"binary_ops": ["%"]}, "'binary_ops': unknown binary operator '%'"),
    "repeated-binary": ({"binary_ops": ["+", "+"]}, "'binary_ops': operator names must be"),
    "bad-architecture": ({"architectures": ["bx"]}, "'architectures': architecture must be"),
}
CANDIDATES = {"mode": "candidates", "truth": "sin(4*x)", "candidates": ["sin(4*x)", "x"],
              "n": 20, "repeats": 2, "methods": ["t0"]}
# an experiment config that fails a check of its operators or expressions
EXPERIMENTS = {
    **{name: ({**SIGNAL, **change}, message) for name, (change, message) in OPERATORS.items()},
    "unparsable-expression": (
        {**CANDIDATES, "truth": "x +", "candidates": ["x +", "x"]},
        "config key 'truth': cannot parse 'x +'"),
    "unparsable-candidate": (
        {**CANDIDATES, "candidates": ["sin(4*x)", "x +"]},
        "config key 'candidates': cannot parse 'x +'"),
    "unsupported-call": (
        {**CANDIDATES, "truth": "tan(x)"}, "config key 'truth': unsupported call in 'tan(x)'"),
}


@pytest.mark.parametrize("cfg, message", EXPERIMENTS.values(), ids=EXPERIMENTS.keys())
def test_experiment_check_exits_2(cfg, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out-dir", str(out)]) == 2
    one_error_line(capsys, message)
    assert not out.exists()


@pytest.mark.parametrize("change, message", OPERATORS.values(), ids=OPERATORS.keys())
def test_csv_experiment_checks_operators_before_reading(change, message, tmp_path,
                                                         capsys, monkeypatch):
    def unread(*args):
        raise AssertionError("load_csv called")

    monkeypatch.setattr(cli, "load_csv", unread)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": "csv", "input": str(tmp_path / "missing.csv"),
                                "response": "y", "methods": ["t0"], **change}))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out-dir", str(out)]) == 2
    one_error_line(capsys, f"config key {message}")
    assert not out.exists()


def test_csv_with_only_the_response_exits_2(tmp_path, capsys):
    path = response_only_csv(tmp_path)
    out = tmp_path / "sel"
    rc = main(["select", "--input", str(path), "--response", "y", "--out-dir", str(out)])
    assert rc == 2
    one_error_line(capsys, f"{path}: no input columns besides 'y'")
    assert not out.exists()
