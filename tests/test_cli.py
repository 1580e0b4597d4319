import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import symrank
from symrank import cli, errors
from symrank.cli import main
from symrank.evalsel import (
    CandidatesExperimentConfig,
    CsvExperimentConfig,
    SignalExperimentConfig,
    TreeParams,
)

FIG2A_CSV = "x,y\n0.1,5\n0.3,2.1\n0.5,1\n0.6,2\n0.9,4\n"

MAPS_DOC = {
    "transform_1": {"domain": [0, 1],
                    "segments": [{"expr": "x + 1.2", "direction": "increasing"}]},
    "transform_2": {"domain": [0, 1], "breakpoints": [0.5],
                    "segments": [{"expr": "-4*x**2 + 4*x", "direction": "increasing"},
                                 {"expr": "-4*x**2 + 4*x", "direction": "decreasing"}]},
}


@pytest.fixture(scope="session")
def data3(tmp_path_factory):
    rng = np.random.default_rng(123)
    x = rng.uniform(size=(12, 3))
    y = 2 * x[:, 0] ** 3 + 5 * x[:, 2] + 10
    path = tmp_path_factory.mktemp("data") / "data3.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "x3", "y"])
        for row, target in zip(x, y):
            writer.writerow([*row, target])
    return path


@pytest.fixture
def fig2a(tmp_path):
    path = tmp_path / "fig2a.csv"
    path.write_text(FIG2A_CSV)
    return path


class TestGenFeatures:
    def test_bu_manifest_counts(self, data3, tmp_path):
        out = tmp_path / "gen"
        rc = main(["gen-features", "--input", str(data3), "--response", "y",
                   "--arch", "bu", "--out-dir", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [c["distinct"] for c in manifest["layer_counts"]] == [12, 24]
        header = (out / "features.csv").read_text().splitlines()[0]
        assert len(header.split(",")) == 24

    def test_ub_manifest_counts(self, data3, tmp_path):
        out = tmp_path / "gen_ub"
        rc = main(["gen-features", "--input", str(data3), "--response", "y",
                   "--arch", "ub", "--out-dir", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [c["distinct"] for c in manifest["layer_counts"]] == [6, 42]

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,y\n1,2\nnope,4\n")
        rc = main(["gen-features", "--input", str(bad), "--response", "y",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "row 3" in capsys.readouterr().err


class TestScore:
    def test_concordant_column(self, tmp_path):
        path = tmp_path / "mono.csv"
        path.write_text("u,y\n1,1\n2,2\n3,3\n4,4\n")
        out = tmp_path / "scores"
        rc = main(["score", "--input", str(path), "--response", "y",
                   "--methods", "t0,kendall", "--out-dir", str(out)])
        assert rc == 0
        doc = json.loads((out / "scores.json").read_text())
        assert doc["methods"]["t0"] == [0.0]
        assert doc["methods"]["kendall"] == [1.0]

    def test_all_methods_on_five_rows(self, fig2a, tmp_path):
        out = tmp_path / "scores_all"
        rc = main(["score", "--input", str(fig2a), "--response", "y",
                   "--methods", "all", "--out-dir", str(out)])
        assert rc == 0
        doc = json.loads((out / "scores.json").read_text())
        assert set(doc["methods"]) == {
            "t0", "pearson", "spearman", "kendall", "chatterjee", "tree-importance"}
        # hand computation at n=5: discordant index pairs of (x, y) are
        # (0,1),(0,2),(0,3),(0,4),(1,2),(1,3) with |dy| summing to 12.1
        assert doc["methods"]["t0"][0] == pytest.approx(2 * 2 * 12.1 / 20)
        assert doc["methods"]["kendall"][0] == pytest.approx(abs((4 - 6) / 10))
        # rank vectors (1..5) vs (5,3,1,2,4): covariance -3 over variance 10
        assert doc["methods"]["spearman"][0] == pytest.approx(0.3)
        # y-ranks in x order are (5,3,1,2,4): sum of jumps 7, so 1 - 21/24
        assert doc["methods"]["chatterjee"][0] == pytest.approx(0.125)
        assert doc["methods"]["pearson"][0] == pytest.approx(
            0.338 / np.sqrt(0.368 * 10.648))
        assert doc["methods"]["tree-importance"] == [1.0]

    def test_one_row_scores_null_with_warnings(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("a,b,y\n1,2,3\n")
        out = tmp_path / "scores"
        rc = main(["score", "--input", str(path), "--response", "y", "--out-dir", str(out)])
        assert rc == 1
        doc = json.loads((out / "scores.json").read_text())
        for method in ("t0", "pearson", "spearman", "kendall", "chatterjee"):
            assert doc["methods"][method] is None
            assert f"{method}: need at least two observations" in doc["warnings"]
        assert doc["methods"]["tree-importance"] == [0.0, 0.0]

    def test_zero_variance_column_warned(self, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("u,y\n5,1\n5,2\n5,3\n")
        out = tmp_path / "scores_const"
        rc = main(["score", "--input", str(path), "--response", "y",
                   "--methods", "pearson", "--out-dir", str(out)])
        assert rc == 0
        doc = json.loads((out / "scores.json").read_text())
        assert doc["methods"]["pearson"] == [0.0]
        assert any("zero variance" in w for w in doc["warnings"])


class TestSelect:
    def test_selects_best(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("a,b,y\n1,9,1\n2,3,2\n3,1,3\n4,6,4\n")
        out = tmp_path / "sel"
        rc = main(["select", "--input", str(path), "--response", "y",
                   "--methods", "t0", "--n-selected", "1", "--out-dir", str(out)])
        assert rc == 0
        doc = json.loads((out / "selection.json").read_text())
        assert doc["methods"][0]["selected_names"] == ["a"]

    @pytest.mark.parametrize("k", ["-1", "0"])
    def test_size_below_one_exits_2(self, k, fig2a, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_csv", None)  # rejected before the CSV is read
        out = tmp_path / "sel"
        rc = main(["select", "--input", str(fig2a), "--response", "y",
                   "--n-selected", k, "--out-dir", str(out)])
        assert rc == 2
        # argparse prints its usage lines, then the one error line
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"symrank select: error: argument --n-selected: takes an integer >= 1, got {k!r}")
        assert not out.exists()


class TestOraclePartition:
    def test_fig2a_winner(self, fig2a, tmp_path):
        out = tmp_path / "oracle"
        rc = main(["oracle-partition", "--input", str(fig2a), "--response", "y",
                   "--i", "2", "--brute-force", "--out-dir", str(out)])
        assert rc == 0
        doc = json.loads((out / "oracle_partition.json").read_text())
        assert doc["winner"] == "suffix"
        assert sorted(doc["suffix"]["left_values"]) == [4, 5]
        assert doc["suffix"]["loss"] == pytest.approx(1.24)
        assert doc["brute_force"]["matches_winner"]

    def test_brute_force_guard_exits_2(self, tmp_path):
        path = tmp_path / "big.csv"
        rows = "".join(f"{i},{i * 1.5 + (i % 3) * 0.1}\n" for i in range(20))
        path.write_text("x,y\n" + rows)
        rc = main(["oracle-partition", "--input", str(path), "--response", "y",
                   "--i", "2", "--brute-force", "--out-dir", str(tmp_path / "o")])
        assert rc == 2


class TestP12:
    def test_example_grid(self, tmp_path):
        maps = tmp_path / "maps.json"
        maps.write_text(json.dumps(MAPS_DOC))
        out = tmp_path / "p12"
        rc = main(["p12", "--maps", str(maps), "--c=-1,0.5,1.1,1.5,1.9,3",
                   "--out-dir", str(out)])
        assert rc == 0
        doc = json.loads((out / "p12.json").read_text())
        assert [row["p"] for row in doc["rows"]] == [0.0, -1.0, 0.0, 0.5, 0.5, 0.0]
        assert "note" in doc

    def test_tabulated_cdf(self, tmp_path):
        maps = dict(MAPS_DOC)
        maps["cdf"] = {"x": [0.0, 0.5, 1.0], "p": [0.0, 0.8, 1.0]}
        maps_path = tmp_path / "maps_cdf.json"
        maps_path.write_text(json.dumps(maps))
        out = tmp_path / "p12_cdf"
        rc = main(["p12", "--maps", str(maps_path), "--c=1.5",
                   "--out-dir", str(out)])
        assert rc == 0
        doc = json.loads((out / "p12.json").read_text())
        assert doc["rows"][0]["p"] == pytest.approx(0.8)

    @pytest.mark.parametrize("c", ["0.5,abc", "1,", "nan", "0.5,-inf"])
    def test_non_finite_grid_value_exits_2(self, c, tmp_path, capsys):
        maps = tmp_path / "maps.json"
        maps.write_text(json.dumps(MAPS_DOC))
        out = tmp_path / "p12"
        rc = main(["p12", "--maps", str(maps), f"--c={c}", "--out-dir", str(out)])
        assert rc == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("doc, key", [
        ([MAPS_DOC], "p12 maps file must be a JSON object"),
        ({**MAPS_DOC, "transform_1": {"domain": [0, 1], "segments": ["x + 1.2"]}},
         "'segments'"),
        ({**MAPS_DOC, "transform_1": {**MAPS_DOC["transform_1"], "domain": [0, 1, 2]}},
         "'domain'"),
        ({"transform_1": MAPS_DOC["transform_1"]}, "'transform_2'"),
        ({**MAPS_DOC, "cdf": {"x": [0.0, 1.0]}}, "'p'"),
    ], ids=["array", "string-segment", "three-number-domain", "no-transform_2",
            "cdf-without-p"])
    def test_malformed_maps_file_exits_2_naming_the_key(self, doc, key, tmp_path, capsys):
        maps = tmp_path / "maps.json"
        maps.write_text(json.dumps(doc))
        out = tmp_path / "p12"
        rc = main(["p12", "--maps", str(maps), "--c=1.5", "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]
        assert not out.exists()

    # errors a transform raises past its document's shape name its key too
    @pytest.mark.parametrize("transform, error, named", [
        ({"domain": [0, 1], "segments": [{"expr": "-4*x**2 + 4*x", "direction": "increasing"}]},
         errors.NotMonotone, "'-4*x**2 + 4*x' is not strictly increasing on [0.0, 1.0]"),
        ({"domain": [0, 1], "breakpoints": [0.5],
          "segments": [{"expr": "x", "direction": "increasing"}] * 2},
         errors.MergeableSegments, "segments around x=0.5 merge into one increasing piece"),
        ({"domain": [0, 1], "segments": [{"expr": "x", "direction": "up"}]},
         errors.DimensionMismatch, "direction must be increasing/decreasing, got 'up'"),
    ], ids=["non-monotone", "mergeable", "unknown-direction"])
    def test_transform_error_names_the_key(self, transform, error, named, tmp_path, capsys):
        doc = {**MAPS_DOC, "transform_2": transform}
        with pytest.raises(error):  # the prefix keeps the error's class
            cli._p12_maps(doc)
        maps = tmp_path / "maps.json"
        maps.write_text(json.dumps(doc))
        out = tmp_path / "p12"
        assert main(["p12", "--maps", str(maps), "--c=1.5", "--out-dir", str(out)]) == 2
        line = one_error_line(capsys)
        assert line.startswith("error: p12 maps key 'transform_2': ") and named in line
        assert not out.exists()


VALID_CONFIGS = {
    "signal": {"mode": "signal", "n": 20, "noise_vars": [0.0], "architectures": ["bu"],
               "methods": ["t0"], "repeats": 2, "n_selected": 3, "seed": 1},
    "candidates": {"mode": "candidates", "truth": "x", "candidates": ["x", "sin(4*x)"],
                   "n": 20, "repeats": 2, "methods": ["t0"], "seed": 1},
    "csv": {"mode": "csv", "response": "y", "architectures": ["bu"], "methods": ["t0"],
            "seed": 1},
}


# the csv config's input, replaced by the path of the data3 CSV when run
FUZZ_CSV = "data3.csv"
# what a mutation may set a config key to, and the keys it may set
FUZZ_VALUES = (None, True, False, 0, 1, 2, -1, 0.5, "", "x", "bu", "t0", "sin(4*x)",
               [], {}, ["ub"], ["x", "x**2"], ["t0", "kendall"], [0.0, 0.5], {"depth": 1})
FUZZ_KEYS = sorted({"mode", *cli._CONFIG_VALUES})
# out-of-range values for each numeric key, from ranges the config check
# must reject, and cheap valid extremes; a valid but huge n, repeats,
# n_trees or noise variance would only make a slow run
_NOT_INTEGRAL = st.floats().filter(lambda v: not v.is_integer())
_BAD_VARIANCE = st.floats(max_value=-1e-300) | st.sampled_from([math.nan, math.inf])
FUZZ_RANGES = {
    "n": st.integers(max_value=1) | st.integers(min_value=2**40 + 1) | _NOT_INTEGRAL,
    "repeats": st.integers(max_value=0) | _NOT_INTEGRAL,
    "n_selected": st.integers(max_value=10**30) | _NOT_INTEGRAL,
    "seed": st.integers(max_value=10**40) | _NOT_INTEGRAL,
    "noise_var": _BAD_VARIANCE,
    "noise_vars": _BAD_VARIANCE.map(lambda v: [0.0, v]),
    "tree.n_trees": st.integers(max_value=0) | _NOT_INTEGRAL,
    "tree.depth": st.integers(max_value=10**6) | _NOT_INTEGRAL,
}
_FIELDS = {mode: {f.name for f in dataclasses.fields(cls)} for mode, cls in (
    ("signal", SignalExperimentConfig), ("candidates", CandidatesExperimentConfig),
    ("csv", CsvExperimentConfig))}
# characters of CSV text: digits, number signs, separators, quotes, line
# breaks and the letters of "nan", "x" and "y"
_CSV_CHARS = '0123456789.,-+eE"\r\n\t xyn'


@st.composite
def fuzz_csv_bytes(draw):
    """The bytes of a CSV input: random bytes, random text over _CSV_CHARS,
    or a valid CSV of x1, x2, x3 and y with up to three bytes replaced,
    inserted or deleted."""
    kind = draw(st.sampled_from(["bytes", "text", "mutated"]))
    if kind == "bytes":
        return draw(st.binary(max_size=300))
    if kind == "text":
        return draw(st.text(_CSV_CHARS, max_size=300)).encode()
    rows = draw(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
                         min_size=2, max_size=12))
    data = bytearray(("x1,x2,x3,y\n" + "".join(",".join(map(repr, row)) + "\n"
                                                 for row in rows)).encode())
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data) - 1))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "delete":
            del data[at]
        elif edit == "replace":
            data[at] = draw(st.integers(0, 255))
        else:
            data.insert(at, draw(st.integers(0, 255)))
    return bytes(data)


@st.composite
def mutated_configs(draw):
    """A valid experiment config with one or two mutations: a key set to a
    value from FUZZ_VALUES (which adds a known key, too), a numeric key set
    from FUZZ_RANGES, a key dropped, a value nested in an array, an array
    emptied, an array entry repeated, or, in csv mode, the input replaced by
    the bytes of ``fuzz_csv_bytes``."""
    mode = draw(st.sampled_from(sorted(VALID_CONFIGS)))
    cfg = {**VALID_CONFIGS[mode], **({"input": FUZZ_CSV} if mode == "csv" else {})}
    kinds = ["set", "range", "drop", "nest", "empty", "repeat"]
    if mode == "csv":
        kinds.append("bytes")
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(kinds))
        if kind == "set":
            cfg[draw(st.sampled_from(FUZZ_KEYS))] = draw(st.sampled_from(FUZZ_VALUES))
            continue
        if kind == "range":
            key = draw(st.sampled_from(sorted(k for k in FUZZ_RANGES
                                              if k.split(".")[0] in _FIELDS[mode])))
            value = draw(FUZZ_RANGES[key])
            if key.startswith("tree."):
                tree = cfg.get("tree")
                cfg["tree"] = {**(tree if isinstance(tree, dict) else {}), key[5:]: value}
            else:
                cfg[key] = value
            continue
        if kind == "bytes":
            cfg["input"] = draw(fuzz_csv_bytes())
            continue
        # csv bytes stay unnested: the test writes them to the input file
        keys = sorted(k for k, v in cfg.items() if kind == "drop" or type(v) is list
                      or kind == "nest" and type(v) is not bytes)
        if not keys:
            continue
        key = draw(st.sampled_from(keys))
        if kind == "drop":
            del cfg[key]
        elif kind == "nest":
            cfg[key] = [cfg[key]]
        elif kind == "empty":
            cfg[key] = []
        else:
            cfg[key] = cfg[key] + cfg[key][:1]
    return cfg


# a valid tree document for the data3 CSV: x1 <= 0.5, else x3 <= 0.3
TREE_DOC = {"n_features": 3, "columns": ["x1", "x2", "x3"],
            "nodes": [{"coordinate": 0, "threshold": 0.5}, {"mean": 1.0},
                      {"coordinate": 2, "threshold": 0.3}, {"mean": 2.0}, {"mean": 3.0}]}
# what a document mutation may set a value to, and the keys it may add to an
# object; json.dumps writes NaN and Infinity, which json.loads reads back
DOC_VALUES = (*FUZZ_VALUES, 3, 0.3, -0.5, 1e308, -1e308, math.nan, math.inf, "x1", "1/x",
              "x**2", "exp(exp(x))", "increasing", "decreasing", [0, 1], [0.5], [1, 0],
              ["x1", "x2", "x3"], {"expr": "x", "direction": "increasing"})
DOC_KEYS = ("n_features", "nodes", "columns", "coordinate", "threshold", "mean",
            "transform_1", "transform_2", "cdf", "domain", "breakpoints", "segments",
            "expr", "direction", "x", "p")


def _json_paths(doc, path=()):
    """The path of every value in a JSON document, the root's first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _json_paths(value, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_documents(draw, valid):
    """``valid`` with one or two mutations at any depth: a value replaced by
    one of DOC_VALUES, a key of DOC_KEYS set in an object, a value dropped,
    nested in an array or emptied, or an array entry repeated."""
    doc = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_json_paths(doc))))
        value = _at(doc, path)
        kind = draw(st.sampled_from(["set", "add", "drop", "nest", "empty", "repeat"]))
        if kind == "add" and isinstance(value, dict):
            value[draw(st.sampled_from(DOC_KEYS))] = copy.deepcopy(
                draw(st.sampled_from(DOC_VALUES)))
        elif kind == "repeat" and isinstance(value, list) and value:
            value.append(copy.deepcopy(draw(st.sampled_from(value))))
        elif kind == "drop" and path:
            del _at(doc, path[:-1])[path[-1]]
        else:
            if kind == "nest":
                value = [value]
            elif kind == "empty" and isinstance(value, (dict, list)):
                value = type(value)()
            else:
                value = copy.deepcopy(draw(st.sampled_from(DOC_VALUES)))
            if path:
                _at(doc, path[:-1])[path[-1]] = value
            else:
                doc = value
    return doc


def run_quietly(argv) -> tuple[int, list[str]]:
    """The exit code of the command line and the lines it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue().splitlines()


# a fuzzed document is no larger than this golden input
GOLDEN_BYTES = (Path(__file__).parent / "golden" / "data.csv").stat().st_size


def assert_ran_or_failed_cleanly(argv, doc, runtime_error):
    """Run ``argv`` on ``doc`` written to {doc} and its output at {out}: it
    exits 0, or writes nothing and one short error line and exits 2, or 1
    for the command's declared runtime error, whose message starts with
    ``runtime_error``."""
    text = json.dumps(doc)
    assert len(text) <= GOLDEN_BYTES
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "doc.json").write_text(text)
        out = Path(tmp) / "out"
        rc, err = run_quietly([arg.format(doc=Path(tmp) / "doc.json", out=out) for arg in argv])
        if rc == 0:
            assert err == [] and out.exists()
            return
        (line,) = err
        assert len(line.encode()) < 300
        assert rc == 2 or rc == 1 and line.startswith(f"error: {runtime_error}"), line
        assert not out.exists()


class TestExperiment:
    def test_signal_mode_deterministic(self, tmp_path):
        cfg = {"mode": "signal", "n": 30, "noise_vars": [0.0],
               "architectures": ["bu"], "methods": ["t0"], "repeats": 1,
               "n_selected": 3, "seed": 5}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc1 = main(["experiment", "--config", str(cfg_path),
                    "--out-dir", str(tmp_path / "e1")])
        rc2 = main(["experiment", "--config", str(cfg_path),
                    "--out-dir", str(tmp_path / "e2")])
        assert rc1 == 0 and rc2 == 0
        r1 = (tmp_path / "e1" / "report.json").read_bytes()
        r2 = (tmp_path / "e2" / "report.json").read_bytes()
        assert r1 == r2
        assert (tmp_path / "e1" / "pr_bu_0_t0.csv").exists()
        assert (tmp_path / "e1" / "timings.json").exists()

    def test_parameterized_unary_ops_in_config(self, tmp_path):
        cfg = {"mode": "signal", "n": 30, "noise_vars": [0.0],
               "architectures": ["bu"], "methods": ["t0"], "repeats": 2,
               "n_selected": 3, "seed": 8,
               "unary_ops": ["id", {"op": "sin", "a": 4, "b": 0.2}]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "param"
        assert main(["experiment", "--config", str(cfg_path),
                     "--out-dir", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["unary_ops"] == ["id", "sin(4x+0.2)"]
        assert any("sin(4x+0.2)" in name
                   for name in doc["runs"][0]["feature_names"])

    def test_expression_unary_op_in_config(self, tmp_path):
        cfg = {**VALID_CONFIGS["signal"], "unary_ops": ["id", {"expr": "x**2"}]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "expr"
        assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["unary_ops"] == ["id", "x**2"]
        assert "x**2(x1+x2)" in doc["runs"][0]["feature_names"]

    def test_pr_csv_columns(self, tmp_path):
        cfg = {"mode": "signal", "n": 25, "noise_vars": [0.0],
               "architectures": ["bu"], "methods": ["t0"], "repeats": 2,
               "n_selected": 3, "seed": 6}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "prcsv"
        assert main(["experiment", "--config", str(cfg_path),
                     "--out-dir", str(out)]) == 0
        header = (out / "pr_bu_0_t0.csv").read_text().splitlines()[0]
        assert header.split(",")[:2] == ["recall", "precision"]

    def test_candidates_mode(self, tmp_path):
        cfg = {"mode": "candidates", "truth": "sin(4*x)",
               "candidates": ["x", "sin(4*x)"], "n": 60, "noise_var": 0.05,
               "repeats": 3, "n_selected": 1, "methods": ["t0"], "seed": 2}
        cfg_path = tmp_path / "cand.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "cand_out"
        rc = main(["experiment", "--config", str(cfg_path), "--out-dir", str(out)])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        method = doc["runs"][0]["methods"][0]
        assert set(method["inclusion"]) == {"x", "sin(4*x)"}

    def test_csv_mode(self, data3, tmp_path):
        cfg = {"mode": "csv", "input": str(data3), "response": "y",
               "architectures": ["bu"], "methods": ["t0"], "n_selected": 3,
               "seed": 4, "active_variables": ["x1", "x3"]}
        cfg_path = tmp_path / "csv.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "csv_out"
        rc = main(["experiment", "--config", str(cfg_path), "--out-dir", str(out)])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        run = doc["runs"][0]
        assert run["q"] == 24 and len(run["correct_columns"]) == 12
        assert "aip" in run["methods"][0]
        assert run["methods"][0]["pr_auc"] and (out / "pr_bu_0_t0.csv").exists()

    def test_csv_active_variables_by_index_or_name(self, data3, tmp_path):
        reports = []
        for active in (["x1", "x3"], [0, 2]):
            cfg_path = tmp_path / "csv.json"
            cfg_path.write_text(json.dumps({**VALID_CONFIGS["csv"], "input": str(data3),
                                            "active_variables": active}))
            out = tmp_path / f"out{len(reports)}"
            assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["config"]["active_variables"] == [0, 2]

    def test_csv_null_active_variables_is_the_default(self, data3, tmp_path):
        reports = []
        for extra in ({}, {"active_variables": None}):
            cfg_path = tmp_path / "csv.json"
            cfg_path.write_text(json.dumps({**VALID_CONFIGS["csv"], "input": str(data3),
                                            **extra}))
            out = tmp_path / f"out{len(reports)}"
            assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
            reports.append((out / "report.json").read_text())
        assert reports[0] == reports[1]

    def test_bad_config_exits_2(self, tmp_path):
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text("{not json")
        rc = main(["experiment", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("mode, change", [
        ("signal", {"tree": {"n_trees": 2, "bogus": 1}}),
        ("signal", {"repeats": 0}),
        ("csv", {"repeats": -1}),
        ("signal", {"n_selected": 0}),
        ("signal", {"methods": []}),
        ("signal", {"repeat": 5}),  # a typo of "repeats"
        ("signal", {"active_variables": [0]}),  # fixed by the built-in signal
        ("candidates", {"truth": None}),  # None removes the key
        ("signal", {"tree": {"n_trees": 0, "depth": 3}}),
        ("csv", {"tree": {"depth": -1}}),
        # values of the wrong JSON type
        ("csv", {"repeats": "abc"}),
        ("signal", {"noise_vars": 0.1}),
        ("signal", {"architectures": "bu"}),  # not the architectures b and u
        ("signal", {"value_dedup": "false"}),  # a nonempty string, not false
        ("signal", {"n": 20.7}),  # not n=20
        ("signal", {"tree": {"n_trees": "5"}}),
        ("candidates", {"truth": 5}),
        # malformed unary op entries
        ("signal", {"unary_ops": ["id", {"op": "sin"}]}),
        ("signal", {"unary_ops": [{"op": "sin", "a": "abc"}]}),
        ("signal", {"unary_ops": [{"expr": 5}]}),
        ("signal", {"unary_ops": [{"foo": 1}]}),
        # negative noise variances
        ("signal", {"noise_vars": [0.0, -0.1]}),
        ("candidates", {"noise_var": -0.05}),
        # array entries of the wrong JSON type
        ("signal", {"architectures": [["b", "u"]]}),  # not the architecture "bu"
        ("csv", {"architectures": [["b", "u"]]}),
        ("signal", {"architectures": [3]}),
        ("signal", {"binary_ops": [["+"]]}),
        ("signal", {"unary_ops": [["id"]]}),
        ("candidates", {"candidates": ["x", 3]}),
        ("candidates", {"candidates": [["x"], "x"]}),
        # empty arrays
        ("signal", {"architectures": []}),
        ("csv", {"architectures": []}),
        ("signal", {"noise_vars": []}),
        ("signal", {"binary_ops": []}),
        ("csv", {"unary_ops": []}),
        ("csv", {"active_variables": []}),
        ("candidates", {"candidates": []}),
        ("candidates", {"truth": "cos(x)"}),  # not among the candidates
        ("signal", {"unary_ops": [{"op": "cos"}]}),  # only "sin" is parameterized
        # past the bound on n, where numpy's dimension checks would fail
        ("signal", {"n": 2**40 + 1}),
        ("candidates", {"n": 2**40 + 1}),
        # unknown keys of unary op objects: a mistyped offset, an expression's extra
        ("signal", {"unary_ops": [{"op": "sin", "a": 4, "B": 0.2}]}),
        ("signal", {"unary_ops": [{"expr": "x**2", "a": 4}]}),
        # an expression object that does not parse
        ("signal", {"unary_ops": ["id", {"expr": "x +"}]}),
        # every rank method needs two samples
        ("signal", {"n": 1}),
        ("candidates", {"n": 1}),
    ])
    def test_invalid_config_exits_2_before_any_work(self, mode, change, data3, tmp_path,
                                                    capsys, monkeypatch):
        cfg = {**VALID_CONFIGS[mode], **change}
        if mode == "csv":
            cfg["input"] = str(data3)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}))
        monkeypatch.setattr(cli, "load_csv", None)  # reading the CSV is work too
        out = tmp_path / "out"
        rc = main(["experiment", "--config", str(cfg_path), "--out-dir", str(out)])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        # the line names the bad key, or the bad key of the bad nested object
        assert any(key in line for key in change) or any(
            key in line for v in change.values() if isinstance(v, dict) for key in v)
        assert not out.exists()

    @pytest.mark.parametrize("cls", [SignalExperimentConfig, CandidatesExperimentConfig,
                                     CsvExperimentConfig, TreeParams])
    def test_every_config_field_has_a_json_check(self, cls):
        assert {f.name for f in dataclasses.fields(cls)} <= set(cli._CONFIG_VALUES)

    @pytest.mark.parametrize("raw", [[1], "csv", None])
    def test_non_object_config_exits_2(self, raw, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        monkeypatch.setattr(cli, "load_csv", None)
        out = tmp_path / "out"
        rc = main(["experiment", "--config", str(cfg_path), "--out-dir", str(out),
                   "--seed", "3"])
        assert rc == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("active", [["x1", "x9"], [7], [-1], [1.5], [True]])
    def test_csv_active_variables_must_name_columns(self, active, data3, tmp_path,
                                                    capsys, monkeypatch):
        expanded = []
        monkeypatch.setattr("symrank.evalsel.generate_report",
                            lambda *args: expanded.append(args))
        cfg = {**VALID_CONFIGS["csv"], "input": str(data3), "active_variables": active}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        rc = main(["experiment", "--config", str(cfg_path), "--out-dir", str(out)])
        assert rc == 2 and expanded == []
        assert one_error_line(capsys).startswith("error: config key 'active_variables': ")
        assert not out.exists()

    def test_unknown_method_exits_2_before_scoring(self, tmp_path, monkeypatch):
        scored = []
        monkeypatch.setattr("symrank.evalsel.score_features",
                            lambda *args, **kwargs: scored.append(args))
        cfg = {**VALID_CONFIGS["signal"], "methods": ["t0", "voodoo"]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["experiment", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 2 and scored == []

    @pytest.mark.parametrize("mode, change", [
        ("signal", {"noise_vars": [0.1, -0.1]}),
        ("candidates", {"noise_var": -1e-9}),
    ])
    def test_negative_noise_variance_exits_2_naming_the_key(self, mode, change, tmp_path,
                                                            capsys, monkeypatch):
        scored = []
        monkeypatch.setattr("symrank.evalsel.score_features",
                            lambda *args, **kwargs: scored.append(args))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**VALID_CONFIGS[mode], **change}))
        out = tmp_path / "out"
        rc = main(["experiment", "--config", str(cfg_path), "--out-dir", str(out)])
        assert rc == 2 and scored == [] and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {next(iter(change))!r} takes a")
        assert ">= 0, got " in err

    def test_repeated_method_exits_2_before_scoring(self, tmp_path, monkeypatch, capsys):
        scored = []
        monkeypatch.setattr("symrank.evalsel.score_features",
                            lambda *args, **kwargs: scored.append(args))
        cfg = {**VALID_CONFIGS["signal"], "methods": ["t0", "t0"]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "x"
        rc = main(["experiment", "--config", str(cfg_path), "--out-dir", str(out)])
        assert rc == 2 and scored == [] and not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "error: config key 'methods': methods ['t0'] named more than once"]

    @pytest.mark.parametrize("mode, methods, named", [
        ("signal", ["lasso"], "unknown methods ['lasso']"),
        ("candidates", ["t0", 3], "unknown methods [3]"),
        ("csv", ["kendall", "t0", "kendall"], "methods ['kendall'] named more than once"),
    ])
    def test_method_list_error_names_the_key_before_any_work(self, mode, methods, named,
                                                             tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_csv", None)
        monkeypatch.setattr("symrank.evalsel.generate_report", None)
        monkeypatch.setattr("symrank.evalsel._run_cells", None)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**VALID_CONFIGS[mode], "methods": methods}))
        out = tmp_path / "x"
        rc = main(["experiment", "--config", str(cfg_path), "--out-dir", str(out)])
        assert rc == 2 and not out.exists()
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"error: config key 'methods': {named}")

    @pytest.mark.parametrize("active, named", [
        (["x1", 0, "x1"], "entries 'x1' and 0 share the input column 'x1'"),
        (["x3", 2], "entries 'x3' and 2 share the input column 'x3'"),
        ([1, "x3", 1], "entries 1 and 1 share the input column 'x2'"),
    ])
    def test_csv_repeated_active_variable_exits_2_before_expanding(
            self, active, named, data3, tmp_path, capsys, monkeypatch):
        expanded = []
        monkeypatch.setattr("symrank.evalsel.generate_report",
                            lambda *args: expanded.append(args))
        cfg = {**VALID_CONFIGS["csv"], "input": str(data3), "active_variables": active}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        rc = main(["experiment", "--config", str(cfg_path), "--out-dir", str(out)])
        assert rc == 2 and expanded == [] and not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"error: config key 'active_variables': {named}"]

    @pytest.mark.parametrize("mode, change, named", [
        ("signal", {"noise_vars": [0.1, 0.1]}, "share the run label '0.1'"),
        ("signal", {"noise_vars": [0.1, 0.1000001]},
         "entries 0.1 and 0.1000001 share the run label '0.1'"),
        ("signal", {"architectures": ["bu", "ub", "bu"]}, "share the run label 'bu'"),
        ("csv", {"architectures": ["bu", "bu"]}, "share the run label 'bu'"),
        ("candidates", {"candidates": ["x", "sin(4*x)", "x", "sin(4*x)"]},
         "share the expression 'x'"),
        ("candidates", {"candidates": ["x", "sin(4*x)", "sin(4 * x)"]},
         "'sin(4*x)' and 'sin(4 * x)' share the expression 'sin(4*x)'"),
    ])
    def test_repeated_run_label_exits_2_before_any_work(self, mode, change, named, data3,
                                                       tmp_path, capsys, monkeypatch):
        cfg = {**VALID_CONFIGS[mode], **change}
        if mode == "csv":
            cfg["input"] = str(data3)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        monkeypatch.setattr(cli, "load_csv", None)
        out = tmp_path / "out"
        rc = main(["experiment", "--config", str(cfg_path), "--out-dir", str(out)])
        assert rc == 2 and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: config key {next(iter(change))!r}: entries ")
        assert named in err[0]

    @pytest.mark.parametrize("key, value", [
        ("input", 3), ("input", None), ("input", ["data.csv"]), ("response", 0),
        ("response", None),
    ])
    def test_csv_input_and_response_must_be_strings(self, key, value, data3, tmp_path,
                                                    capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_csv", None)  # nothing may be read
        cfg = {**VALID_CONFIGS["csv"], "input": str(data3), key: value}
        if value is None:
            del cfg[key]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        rc = main(["experiment", "--config", str(cfg_path), "--out-dir", str(out)])
        assert rc == 2 and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: config key {key!r} takes a string, got {value!r}"]

    @given(cfg=mutated_configs())
    @example(cfg={**VALID_CONFIGS["signal"], "architectures": []})
    @example(cfg={**VALID_CONFIGS["signal"], "noise_vars": []})
    @example(cfg={**VALID_CONFIGS["signal"], "binary_ops": []})
    @example(cfg={**VALID_CONFIGS["signal"], "unary_ops": []})
    @example(cfg={**VALID_CONFIGS["csv"], "input": FUZZ_CSV, "architectures": []})
    @example(cfg={**VALID_CONFIGS["csv"], "input": FUZZ_CSV, "active_variables": []})
    @example(cfg={**VALID_CONFIGS["candidates"], "candidates": []})
    @example(cfg={**VALID_CONFIGS["signal"], "architectures": [["b", "u"]]})
    @example(cfg={**VALID_CONFIGS["signal"], "n": -10**30})
    @example(cfg={**VALID_CONFIGS["signal"], "n_selected": 10**30, "seed": 10**40,
                  "tree": {"depth": 10**6}})
    @example(cfg={**VALID_CONFIGS["candidates"], "noise_var": math.nan})
    @example(cfg={**VALID_CONFIGS["csv"], "input": b"\xe9,y\n1,2\n"})
    @settings(max_examples=400, deadline=None)
    def test_mutated_config_runs_or_fails_cleanly(self, data3, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            if cfg.get("input") == FUZZ_CSV:
                cfg = {**cfg, "input": str(data3)}
            elif isinstance(cfg.get("input"), bytes):
                (Path(tmp) / "input.csv").write_bytes(cfg["input"])
                cfg = {**cfg, "input": str(Path(tmp) / "input.csv")}
            cfg_path = Path(tmp) / "cfg.json"
            cfg_path.write_text(json.dumps(cfg))
            out = Path(tmp) / "out"
            rc, err = run_quietly(["experiment", "--config", str(cfg_path), "--out-dir", str(out)])
            if rc == 0:
                assert json.loads((out / "report.json").read_text())["runs"]
                assert not [p.name for p in out.iterdir() if "[" in p.name or "'" in p.name]
            else:
                assert rc in (1, 2)
                (line,) = err
                assert line.startswith("error: ")
                assert not out.exists()

    def test_out_of_memory_exits_1(self, tmp_path, capsys, monkeypatch):
        # raised, not provoked: a real allocation this large could be granted
        def draw(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB for an array")
        monkeypatch.setattr("symrank.evalsel.synth_3var", draw)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(VALID_CONFIGS["signal"]))
        out = tmp_path / "out"
        rc = main(["experiment", "--config", str(cfg_path), "--out-dir", str(out)])
        assert rc == 1 and not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "error: out of memory: Unable to allocate 8.00 TiB for an array"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_too_large_response_exits_2(self, tmp_path, capsys):
        # a finite variance whose responses overflow the squared sums of
        # pearson and the tree: the run used to exit 0 with arbitrary picks
        cfg = {**VALID_CONFIGS["signal"], "n": 100, "noise_vars": [1e308],
               "methods": ["t0", "pearson", "kendall", "tree-importance"]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        rc = main(["experiment", "--config", str(cfg_path), "--out-dir", str(out)])
        assert rc == 2 and not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: response too large: ")

    @pytest.mark.parametrize("mode", ["nope", ["signal"], None, 0],
                             ids=["string", "array", "null", "integer"])
    def test_unknown_mode_exits_2_naming_the_key(self, mode, tmp_path, capsys):
        cfg_path = tmp_path / "mode.json"
        cfg_path.write_text(json.dumps({**VALID_CONFIGS["signal"], "mode": mode}))
        out = tmp_path / "x"
        rc = main(["experiment", "--config", str(cfg_path), "--out-dir", str(out)])
        assert rc == 2 and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: config key 'mode' takes one of 'signal', 'candidates', "
                       f"'csv', got {mode!r}"]


class TestTree:
    def test_grow_and_predict_round_trip(self, data3, tmp_path):
        tree_path = tmp_path / "tree.json"
        rc = main(["tree", "grow", "--input", str(data3), "--response", "y",
                   "--depth", "3", "--out", str(tree_path)])
        assert rc == 0
        doc = json.loads(tree_path.read_text())
        assert doc["n_features"] == 3
        preds_path = tmp_path / "preds.csv"
        rc = main(["tree", "predict", "--tree", str(tree_path),
                   "--input", str(data3), "--response", "y",
                   "--out", str(preds_path)])
        assert rc == 0
        lines = preds_path.read_text().splitlines()
        assert lines[0] == "prediction" and len(lines) == 13

    def test_missing_subcommand_exits_2(self):
        assert main(["tree"]) == 2

    def test_predict_checks_the_column_names(self, data3, tmp_path, capsys):
        tree_path = tmp_path / "tree.json"
        assert main(["tree", "grow", "--input", str(data3), "--response", "y",
                     "--depth", "3", "--out", str(tree_path)]) == 0
        rows = list(csv.reader(data3.read_text().splitlines()))
        swapped = tmp_path / "swapped.csv"
        with open(swapped, "w", newline="") as fh:
            csv.writer(fh).writerows([r[2], r[1], r[0], r[3]] for r in rows)
        preds_path = tmp_path / "preds.csv"
        predict = ["tree", "predict", "--tree", str(tree_path), "--input", str(swapped),
                   "--response", "y", "--out", str(preds_path)]
        assert main(predict) == 1 and not preds_path.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"error: tree was grown on columns ['x1', 'x2', 'x3'], {swapped} has input "
            f"columns ['x3', 'x2', 'x1']"]
        # a document without the names is checked for its width alone
        doc = json.loads(tree_path.read_text())
        del doc["columns"]
        tree_path.write_text(json.dumps(doc))
        assert main(predict) == 0 and len(preds_path.read_text().splitlines()) == 13

    def test_predict_rejects_an_out_of_range_coordinate(self, data3, tmp_path, capsys):
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(json.dumps({"n_features": 3, "nodes": [
            {"coordinate": -1, "threshold": 0.5}, {"mean": 1.0}, {"mean": 2.0}]}))
        preds_path = tmp_path / "preds.csv"
        rc = main(["tree", "predict", "--tree", str(tree_path), "--input", str(data3),
                   "--response", "y", "--out", str(preds_path)])
        assert rc == 2 and not preds_path.exists()
        assert capsys.readouterr().err.startswith(
            f"error: {tree_path}: tree node 0: coordinate -1")

    LEAF = {"n_features": 3, "nodes": [{"mean": 1.0}]}

    @pytest.mark.parametrize("doc, named", [
        ([1], "tree document must be a JSON object"),
        ({"n_features": 3, "nodes": [{"coordinate": 0, "threshold": ""}, {"mean": 1.0},
                                     {"mean": 2.0}]},
         "tree node 0: threshold '' is not a finite number"),
        ({**LEAF, "columns": 2}, "key 'columns' takes an array of strings, got 2"),
        ({**LEAF, "columns": ["x1", 2, "x3"]}, "key 'columns' takes an array of strings"),
    ], ids=["array", "string-threshold", "integer-columns", "integer-column-name"])
    def test_predict_rejects_a_malformed_document_before_reading_the_csv(
            self, doc, named, data3, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_csv", None)
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(json.dumps(doc))
        preds_path = tmp_path / "preds.csv"
        rc = main(["tree", "predict", "--tree", str(tree_path), "--input", str(data3),
                   "--response", "y", "--out", str(preds_path)])
        assert rc == 2 and not preds_path.exists()
        assert one_error_line(capsys).startswith(f"error: {tree_path}: {named}")


class TestMutatedDocuments:
    """Tree documents and p12 maps files with one or two mutations."""

    @given(doc=mutated_documents(TREE_DOC))
    @example(doc=[1])
    @example(doc={**TREE_DOC, "columns": 2})
    @example(doc={**TREE_DOC, "nodes": [{"coordinate": 0, "threshold": ""}, {"mean": 1.0},
                                        {"mean": 2.0}]})
    @settings(max_examples=400, deadline=None)
    def test_tree_predict_runs_or_fails_cleanly(self, data3, doc):
        # exit 1 only when the tree's columns are not the CSV's
        assert_ran_or_failed_cleanly(
            ["tree", "predict", "--tree", "{doc}", "--input", str(data3), "--response", "y",
             "--out", "{out}"], doc, "tree was grown on columns")

    @given(doc=mutated_documents(MAPS_DOC))
    @example(doc=[1])
    @example(doc={**MAPS_DOC, "transform_1": {
        "domain": [0, 1], "segments": [{"expr": "1/x", "direction": "decreasing"}]}})
    @settings(max_examples=400, deadline=None)
    def test_p12_runs_or_fails_cleanly(self, doc):
        # exit 1 only when both transforms have a pre-image on one interval
        assert_ran_or_failed_cleanly(
            ["p12", "--maps", "{doc}", "--c=-1,0.5,1.5", "--out-dir", "{out}"], doc,
            "both transforms have a pre-image")


class TestUsage:
    def test_no_command_exits_2(self):
        assert main([]) == 2

    def test_unknown_method_rejected(self, fig2a, tmp_path):
        rc = main(["score", "--input", str(fig2a), "--response", "y",
                   "--methods", "voodoo", "--out-dir", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("command, raw, message", [
        ("score", "", "--methods '' names no method"),
        ("select", " , ", "--methods ' , ' names no method"),
        ("score", "lasso", "unknown methods ['lasso']; choose from ('t0', "),
        ("select", "t0,lasso", "unknown methods ['lasso']; choose from ('t0', "),
    ])
    def test_bad_method_list_exits_2_before_reading_the_csv(self, command, raw, message,
                                                            fig2a, tmp_path, capsys,
                                                            monkeypatch):
        monkeypatch.setattr(cli, "load_csv", None)
        out = tmp_path / "o"
        rc = main([command, "--input", str(fig2a), "--response", "y",
                   "--methods", raw, "--out-dir", str(out)])
        assert rc == 2 and not out.exists()
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("command", ["score", "select"])
    def test_repeated_method_rejected_before_reading_the_csv(self, command, fig2a, tmp_path,
                                                             capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_csv", None)
        out = tmp_path / "o"
        rc = main([command, "--input", str(fig2a), "--response", "y",
                   "--methods", "t0,pearson,t0", "--out-dir", str(out)])
        assert rc == 2 and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: methods ['t0'] named more than once"]

    # the experiment config's ranges: depth >= 0, seed >= 0; and min_leaf >= 1
    @pytest.mark.parametrize("argv", [
        ["tree", "grow", "--depth", "-1"],
        ["tree", "grow", "--depth", "2", "--min-leaf", "0"],
        ["tree", "grow", "--depth", "2", "--min-leaf", "-3"],
        ["score", "--depth", "-1"],
        ["select", "--depth", "-1"],
        ["score", "--methods", "tree-importance", "--seed", "-1"],
        ["select", "--methods", "tree-importance", "--seed", "-1"],
        ["score", "--seed", "x"],
        ["select", "--n-selected", "0"],
        ["select", "--n-selected", "2.5"],
        ["experiment", "--seed", "-1"],
    ], ids=lambda argv: " ".join(argv))
    def test_out_of_range_option_exits_2(self, argv, fig2a, tmp_path, capsys, monkeypatch):
        # rejected while the arguments are parsed, before any file is read
        monkeypatch.setattr(cli, "load_csv", None)
        monkeypatch.setattr(cli, "_load_config", None)
        out = tmp_path / "o"
        where = ["--out", str(out)] if argv[0] == "tree" else ["--out-dir", str(out)]
        source = (["--config", str(fig2a)] if argv[0] == "experiment"
                  else ["--input", str(fig2a), "--response", "y"])
        rc = main([*argv, *source, *where])
        assert rc == 2 and not out.exists()
        assert "takes an integer >= " in capsys.readouterr().err


class TestNonUtf8Files:
    # byte 0xE9 is "é" in Latin-1 and starts no valid UTF-8 sequence here
    LATIN1 = "x,y\n0.1,5\n0.3,2\n# caf\xe9\n".encode("latin-1")

    def assert_names_the_file(self, rc, path, capsys):
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {path}: not UTF-8 text (byte 0xe9 at offset ")

    def test_csv(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(self.LATIN1)
        rc = main(["score", "--input", str(path), "--response", "y",
                   "--out-dir", str(tmp_path / "o")])
        self.assert_names_the_file(rc, path, capsys)
        assert not (tmp_path / "o").exists()

    def test_experiment_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes('{"mode": "signal", "note": "caf\xe9"}'.encode("latin-1"))
        rc = main(["experiment", "--config", str(path), "--out-dir", str(tmp_path / "o")])
        self.assert_names_the_file(rc, path, capsys)
        assert not (tmp_path / "o").exists()

    def test_tree_file(self, data3, tmp_path, capsys):
        tree_path = tmp_path / "tree.json"
        assert main(["tree", "grow", "--input", str(data3), "--response", "y",
                     "--depth", "2", "--out", str(tree_path)]) == 0
        doc = json.loads(tree_path.read_text())
        doc["columns"][0] = "caf\xe9"
        tree_path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
        preds_path = tmp_path / "preds.csv"
        rc = main(["tree", "predict", "--tree", str(tree_path), "--input", str(data3),
                   "--response", "y", "--out", str(preds_path)])
        self.assert_names_the_file(rc, tree_path, capsys)
        assert not preds_path.exists()


class TestByteOrderMark:
    # Excel's "CSV UTF-8" and some editors write these bytes first
    BOM = b"\xef\xbb\xbf"

    def test_csv_first_column_keeps_its_name(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(self.BOM + b"y,u\n1,1\n2,2\n3,4\n4,3\n")
        out = tmp_path / "o"
        rc = main(["score", "--input", str(path), "--response", "y",
                   "--methods", "kendall", "--out-dir", str(out)])
        assert rc == 0
        doc = json.loads((out / "scores.json").read_text())
        assert doc["columns"] == ["u"]
        assert doc["methods"]["kendall"] == [pytest.approx(2 / 3)]

    def test_offset_of_a_bad_byte_counts_the_mark(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_bytes(self.BOM + b"x,y\n\xe9\n")
        rc = main(["score", "--input", str(path), "--response", "y",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text (byte 0xe9 at offset 7)\n")

    def test_experiment_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(self.BOM + json.dumps(VALID_CONFIGS["candidates"]).encode())
        out = tmp_path / "o"
        assert main(["experiment", "--config", str(path), "--out-dir", str(out)]) == 0
        assert (out / "report.json").exists()


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


class TestOversizedInputs:
    # a literal no float holds, and a sum deeper than the interpreter's stack
    EXPRS = {"huge-literal": "x + " + "9" * 400, "deep-sum": "x" + "+x" * 1000}
    DEEP_JSON = "[" * 100000

    @pytest.mark.parametrize("expr", EXPRS.values(), ids=EXPRS.keys())
    def test_candidates_truth_exits_2(self, expr, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**VALID_CONFIGS["candidates"], "truth": expr}))
        out = tmp_path / "o"
        assert main(["experiment", "--config", str(path), "--out-dir", str(out)]) == 2
        line = one_error_line(capsys)
        assert line.startswith("error: config key 'truth': ")
        # a long expression is shown as its first 60 characters and its length
        assert f"{expr[:60]!r}... ({len(expr)} characters)" in line and len(line) < 200
        assert not out.exists()

    @pytest.mark.parametrize("expr", EXPRS.values(), ids=EXPRS.keys())
    def test_p12_segment_expr_exits_2(self, expr, tmp_path, capsys):
        segment = {"expr": expr, "direction": "increasing"}
        maps = tmp_path / "maps.json"
        maps.write_text(json.dumps({**MAPS_DOC, "transform_1": {"domain": [0, 1],
                                                                "segments": [segment]}}))
        out = tmp_path / "p12"
        assert main(["p12", "--maps", str(maps), "--c=1.5", "--out-dir", str(out)]) == 2
        line = one_error_line(capsys)
        assert line.startswith("error: p12 maps key 'transform_1': ")
        assert f"{expr[:60]!r}... ({len(expr)} characters)" in line and len(line) < 200
        assert not out.exists()

    LONG = 10**5
    # each input kind with a value of LONG entries or characters: the files
    # to write, the arguments after the command name, and what the one
    # error line names; "{tmp}" is the directory of the files
    LONG_INPUTS = {
        "config-n": ({"cfg.json": {**VALID_CONFIGS["signal"], "n": [1] * LONG}},
                     ["experiment", "--config", "{tmp}/cfg.json"], "config key 'n' takes "),
        "config-array": ({"cfg.json": [1] * LONG}, ["experiment", "--config", "{tmp}/cfg.json"],
                         "experiment config must be a JSON object"),
        "candidate-name": (
            {"cfg.json": {**VALID_CONFIGS["candidates"], "candidates": ["x", "a" * LONG]}},
            ["experiment", "--config", "{tmp}/cfg.json"], "config key 'candidates': unknown name"),
        "long-truth": ({"cfg.json": {**VALID_CONFIGS["candidates"],
                                     "truth": "x+" + "1" * 300 + ".5"}},
                       ["experiment", "--config", "{tmp}/cfg.json"], "config key 'truth': "),
        "maps-array": ({"maps.json": [1] * LONG},
                       ["p12", "--maps", "{tmp}/maps.json", "--c=1.5"], "p12 maps file "),
        "c-grid": ({"maps.json": MAPS_DOC},
                   ["p12", "--maps", "{tmp}/maps.json", "--c=" + "a" * LONG], "--c takes "),
        "tree-columns": ({"tree.json": {"n_features": 3, "nodes": [{"mean": 1.0}],
                                        "columns": [1] * LONG}},
                         ["tree", "predict", "--tree", "{tmp}/tree.json"],
                         "{tmp}/tree.json: key 'columns'"),
        "csv-field": ({"data.csv": "x,y\n" + "a" * LONG + ",1\n"},
                      ["score", "--input", "{tmp}/data.csv"], "{tmp}/data.csv: row 2: "),
        "methods-unknown": ({}, ["score", "--methods", "a" * LONG], "unknown methods "),
        "methods-empty": ({}, ["score", "--methods", "," * LONG], "--methods "),
    }

    @pytest.mark.parametrize("files, argv, named", LONG_INPUTS.values(),
                             ids=LONG_INPUTS.keys())
    def test_long_value_gives_a_short_error_line(self, files, argv, named, data3, tmp_path,
                                                 capsys):
        for name, content in files.items():
            text = content if isinstance(content, str) else json.dumps(content)
            (tmp_path / name).write_text(text)
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        out = tmp_path / "out"
        if argv[0] in ("tree", "score"):
            argv += ["--response", "y"] + ([] if "--input" in argv else ["--input", str(data3)])
        argv += ["--out", str(out)] if argv[0] == "tree" else ["--out-dir", str(out)]
        assert main(argv) == 2
        line = one_error_line(capsys)
        assert len(line.encode()) < 300
        assert line.startswith("error: " + named.replace("{tmp}", str(tmp_path)))
        assert not out.exists()

    def assert_names_the_file(self, rc, path, capsys):
        assert rc == 2
        assert one_error_line(capsys) == f"error: {path}: JSON nested too deeply"

    def test_deep_experiment_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(self.DEEP_JSON)
        rc = main(["experiment", "--config", str(path), "--out-dir", str(tmp_path / "o")])
        self.assert_names_the_file(rc, path, capsys)

    def test_deep_maps_file(self, tmp_path, capsys):
        path = tmp_path / "maps.json"
        path.write_text(self.DEEP_JSON)
        rc = main(["p12", "--maps", str(path), "--c=1.5", "--out-dir", str(tmp_path / "o")])
        self.assert_names_the_file(rc, path, capsys)

    def test_deep_tree_file(self, data3, tmp_path, capsys):
        path = tmp_path / "tree.json"
        path.write_text(self.DEEP_JSON)
        preds_path = tmp_path / "preds.csv"
        rc = main(["tree", "predict", "--tree", str(path), "--input", str(data3),
                   "--response", "y", "--out", str(preds_path)])
        self.assert_names_the_file(rc, path, capsys)
        assert not preds_path.exists()


def _error_classes(cls=errors.SymrankError):
    return [cls] + [c for sub in cls.__subclasses__() for c in _error_classes(sub)]


# every package error and the exit code the command line returns for it
EXIT_CODES = {
    "SymrankError": 1, "UsageError": 2, "ConfigError": 2,
    "TiesInResponse": 2, "DimensionMismatch": 2, "NonFiniteData": 2,
    "LengthMismatch": 1, "EmptySide": 1, "SizeOutOfRange": 2, "TooLarge": 2,
    "Unsplittable": 1, "ColumnMismatch": 1, "DomainMismatch": 2, "NotMonotone": 2,
    "MergeableSegments": 2, "IntervalSpansBreakpoint": 1, "CaseThreePresent": 1,
    "PartialOperatorDomain": 1,
    "KTooLarge": 2, "NoPositives": 1, "SizeMismatch": 1,
}


class TestExitCodes:
    def test_every_error_class_is_pinned(self):
        assert sorted(c.__name__ for c in _error_classes()) == sorted(EXIT_CODES)

    @pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
    def test_main_returns_the_class_exit_code(self, cls, monkeypatch, capsys):
        def fail(args):
            raise cls("planted")
        monkeypatch.setattr(cli, "cmd_p12", fail)
        assert cls.exit_code == EXIT_CODES[cls.__name__]
        assert main(["p12", "--maps", "m.json", "--c", "1"]) == EXIT_CODES[cls.__name__]
        assert capsys.readouterr().err == "error: planted\n"


def test_import_and_help_load_no_scipy():
    # the package needs numpy only; importing scipy.stats took over a second
    code = ("import sys, symrank\n"
            "from symrank.cli import main\n"
            "assert main(['--help']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(symrank.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.splitlines()[-1] == "[]"
