"""The benchmark's workloads over the symrank pipeline.

Each workload turns ``--seed`` into input files (a CSV, experiment configs),
then runs a fixed list of operations against them. An operation is one CLI
or library call; its check reads what the call wrote and verifies it with
the recomputations in :mod:`checks`. Checks return artifacts (digests of
deterministic outputs, floats of scores and losses) that the runner compares
across iterations and, for the default seed, against ``references.json``.

Why these: each layer a performance change is likely to target does most of
the work in one workload and little or none in another.

- signal-forest: tree growth dominates; the repeat thread pool slows it.
- candidates-table: O(n^2) t0/kendall kernels dominate; no tree or symgen
  code runs; the pool speeds it up, the opposite of signal-forest.
- csv-experiment: the ingest, expand, score, select, report path on a
  user's CSV, then the other CLI subcommands on it (oracle partitions, tree
  grow and predict, score, select); t0/kendall dominate and their n x n
  temporaries set its peak memory.
- large-n: the csv-experiment subcommands alone at n=10^4, where the
  quadratic oracle partitions dominate. Diagnostic, not in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from checks import (
    check_feature_table,
    check_fixed_size,
    check_pr_csv,
    check_predictions,
    check_selection_scores,
    check_selections,
    check_top_k,
    check_tree,
    check_varying_size,
    close,
    evaluate_feature,
    expect,
    load_json,
    reference_scores,
    sha256_file,
    sha256_json,
)

DEFAULT_SEED = 0

# y = 2*x1^3 + 5*x3 + 10 + noise on uniform inputs: x1 and x3 are active
ACTIVE = {1, 3}


class Op(NamedTuple):
    name: str
    call: Callable[[], object]       # runs the program; returns what check needs
    check: Callable[[object], dict]  # raises CheckFailed, or returns artifacts
    out: Path | None                 # file or directory the call writes


class Workload:
    """Inputs and operations of one workload at one size."""

    name = ""
    why = ""
    sizes: dict[str, dict] = {}

    def __init__(self, sr, seed: int, size: str, root: Path, workers: list[str]):
        self.sr = sr
        self.seed = seed
        self.p = self.sizes[size]
        self.inputs = root / "inputs"
        self.out = root / "out"
        self.workers = workers

    def rng(self) -> np.random.Generator:
        tag = int.from_bytes(self.name.encode()[:8], "little")
        return np.random.default_rng([self.seed, tag])

    def prepare(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def run_cli(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.sr.cli.main([str(a) for a in argv])

    def cli_op(self, name: str, argv: list, out: Path, check: Callable[[], dict]) -> Op:
        def checked(code) -> dict:
            expect(code == 0, f"{name}: exit code {code}")
            return check()
        return Op(name, lambda: self.run_cli(argv), checked, out)

    def write_json(self, name: str, doc: dict) -> Path:
        path = self.inputs / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return path

    def write_signal_csv(self, n: int) -> tuple[Path, np.ndarray, np.ndarray]:
        """n rows of three uniform inputs and the 3-variable signal."""
        rng = self.rng()
        x = rng.uniform(size=(n, 3))
        y = 2.0 * x[:, 0] ** 3 + 5.0 * x[:, 2] + 10.0 + np.sqrt(0.1) * rng.standard_normal(n)
        path = self.inputs / "data.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "x2", "x3", "y"])
            writer.writerows(np.column_stack([x, y]).tolist())
        return path, x, y


def check_experiment_runs(doc: dict, out: Path, runs_expected: list[tuple],
                          methods: list[str], repeats: int, k: int) -> None:
    """Report runs of a signal or csv experiment and their PR-curve CSVs.

    ``runs_expected`` lists (architecture, noise_var, q, pr-csv label) per run.
    """
    expect(len(doc["runs"]) == len(runs_expected),
           f"report has {len(doc['runs'])} runs, expected {len(runs_expected)}")
    for run, (arch, noise, q, label) in zip(doc["runs"], runs_expected):
        where = f"{arch}/{noise}"
        expect(run["architecture"] == arch and run.get("noise_var", noise) == noise,
               f"{where}: run order differs")
        correct = check_feature_table(run, q, ACTIVE, where)
        expect([m["method"] for m in run["methods"]] == methods,
               f"{where}: methods {[m['method'] for m in run['methods']]}")
        for entry in run["methods"]:
            at = f"{where}/{entry['method']}"
            expect(entry["direction"] == ("lower" if entry["method"] == "t0" else "higher"),
                   f"{at}: direction {entry['direction']}")
            check_selections(entry["selections"], repeats, k, q, at)
            if "correct_counts" in entry:
                expect(entry["correct_counts"] == [len(set(s) & correct)
                                                   for s in entry["selections"]],
                       f"{at}: correct_counts differ from the selections")
            check_selection_scores(entry, correct, q, k, at)
            expect(0 <= entry["boundary_tie_repeats"] <= repeats,
                   f"{at}: boundary_tie_repeats out of range")
            check_pr_csv(out / f"pr_{label}_{entry['method']}.csv", entry, at)


class SignalForest(Workload):
    name = "signal-forest"
    why = ("criterion 8 at n=100, t0 and a 20-tree forest on bu/ub: tree growth is "
           "~85% of serial time in tiny numpy calls, and the repeat thread pool slows it")
    sizes = {"full": dict(n=100, repeats=6, n_trees=20, depth=3),
             "smoke": dict(n=40, repeats=2, n_trees=3, depth=2)}
    noise_vars = [0.0, 0.01, 0.1]
    architectures = {"bu": 24, "ub": 42}  # q for three inputs, ops id/cube and +/*
    methods = ["t0", "tree-importance"]

    def prepare(self) -> None:
        p = self.p
        self.config = self.write_json("signal.json", {
            "mode": "signal", "n": p["n"], "noise_vars": self.noise_vars,
            "architectures": list(self.architectures), "unary_ops": ["id", "cube"],
            "binary_ops": ["+", "*"], "methods": self.methods,
            "tree": {"n_trees": p["n_trees"], "depth": p["depth"]},
            "repeats": p["repeats"], "n_selected": 3, "seed": self.seed})

    def ops(self) -> list[Op]:
        out = self.out / "experiment"
        argv = ["experiment", "--config", self.config, "--out-dir", out, *self.workers]
        return [self.cli_op("experiment", argv, out, lambda: self.check(out))]

    def check(self, out: Path) -> dict:
        doc = load_json(out / "report.json")
        expect(doc["config"]["seed"] == self.seed and doc["config"]["n"] == self.p["n"],
               "config echo differs from the input config")
        runs = [(arch, nv, q, f"{arch}_{nv:g}")
                for (arch, q), nv in itertools.product(self.architectures.items(),
                                                       self.noise_vars)]
        check_experiment_runs(doc, out, runs, self.methods, self.p["repeats"], 3)
        return {"report.json": sha256_file(out / "report.json")}


class CandidatesTable(Workload):
    name = "candidates-table"
    why = ("criterion 7, both blocks, n=500, 50 repeats, t0/pearson/kendall: O(n^2) "
           "pairwise kernels dominate, no tree or symgen code runs, and the pool speeds it up")
    sizes = {"full": dict(n=500, repeats=50), "smoke": dict(n=500, repeats=10)}
    blocks = {
        "sin4": ("sin(4*x)", ["x", "sin(4*x+0.2)", "sin(4*x+0.1)", "sin(4*x)"]),
        "sin5": ("sin(5*x)", ["x", "sin(4*x)", "sin(6*x)", "sin(5*x)"]),
    }
    methods = ["t0", "pearson", "kendall"]
    min_truth_inclusion = 0.9  # criterion 7

    def prepare(self) -> None:
        self.configs = {
            block: self.write_json(f"{block}.json", {
                "mode": "candidates", "truth": truth, "candidates": cands,
                "n": self.p["n"], "noise_var": 0.1, "repeats": self.p["repeats"],
                "n_selected": 1, "methods": self.methods, "seed": self.seed})
            for block, (truth, cands) in self.blocks.items()}

    def ops(self) -> list[Op]:
        ops = []
        for block, config in self.configs.items():
            out = self.out / block
            argv = ["experiment", "--config", config, "--out-dir", out, *self.workers]
            ops.append(self.cli_op(block, argv, out,
                                   lambda b=block, o=out: self.check(b, o)))
        return ops

    def check(self, block: str, out: Path) -> dict:
        truth, cands = self.blocks[block]
        doc = load_json(out / "report.json")
        (run,) = doc["runs"]
        expect(run["candidates"] == cands and run["truth_column"] == cands.index(truth),
               f"{block}: candidates or truth column differ")
        expect([m["method"] for m in run["methods"]] == self.methods,
               f"{block}: methods differ")
        for entry in run["methods"]:
            at = f"{block}/{entry['method']}"
            check_selections(entry["selections"], self.p["repeats"], 1, len(cands), at)
            picks = [s[0] for s in entry["selections"]]
            inclusion = {c: picks.count(j) / len(picks) for j, c in enumerate(cands)}
            expect(all(close(entry["inclusion"][c], v) for c, v in inclusion.items()),
                   f"{at}: inclusion differs from the selections")
            expect(close(entry["truth_inclusion"], inclusion[truth])
                   and close(entry["aip"], inclusion[truth]),
                   f"{at}: truth_inclusion/aip differ from the selections")
            expect(inclusion[truth] >= self.min_truth_inclusion,
                   f"{at}: truth inclusion {inclusion[truth]} < {self.min_truth_inclusion}")
        return {f"{block}/report.json": sha256_file(out / "report.json")}


class LargeN(Workload):
    """CLI subcommands on one CSV: oracle partitions, a tree, scores, selections.

    Kept out of BENCHMARK.json: csv-experiment runs the same operations at
    n=2000, so every layer stays measured, and a fourth gated workload would
    make a full benchmark pass about a third longer.
    Run this one by name to see the partition layer dominate.
    """

    name = "large-n"
    why = ("n=10^4 CSV: oracle partitions (quadratic make_partition2) dominate; "
           "depth-10 tree; no O(n^2) scorer")
    sizes = {"full": dict(n=10000, depth=10), "smoke": dict(n=400, depth=6)}
    score_methods = ["pearson", "spearman", "chatterjee"]

    def prepare(self) -> None:
        self.data, self.x, self.y = self.write_signal_csv(self.p["n"])

    def ops(self) -> list[Op]:
        return self.csv_ops()

    def csv_ops(self) -> list[Op]:
        out, data = self.out, self.data
        i = self.p["n"] // 3
        methods = ",".join(self.score_methods)
        common = ["--input", data, "--response", "y"]
        return [
            self.cli_op("oracle-partition",
                        ["oracle-partition", *common, "--i", i, "--out-dir", out / "partition"],
                        out / "partition", lambda: self.check_fixed(i)),
            Op("oracle_varying_size",
               lambda: self.sr.partition.oracle_varying_size(self.y),
               self.check_varying, None),
            self.cli_op("tree-grow",
                        ["tree", "grow", *common, "--depth", self.p["depth"],
                         "--out", out / "tree.json"],
                        out / "tree.json", self.check_tree),
            self.cli_op("tree-predict",
                        ["tree", "predict", "--tree", out / "tree.json", *common,
                         "--out", out / "predictions.csv"],
                        out / "predictions.csv", self.check_predictions),
            self.cli_op("score",
                        ["score", *common, "--methods", methods, "--out-dir", out / "score"],
                        out / "score", self.check_scores),
            self.cli_op("select",
                        ["select", *common, "--methods", methods, "--n-selected", 2,
                         "--out-dir", out / "select"],
                        out / "select", self.check_select),
        ]

    def check_fixed(self, i: int) -> dict:
        doc = load_json(self.out / "partition" / "oracle_partition.json")
        check_fixed_size(doc, self.y, i)
        return {
            "partition/indices": sha256_json([doc["prefix"]["left_indices"],
                                              doc["suffix"]["left_indices"],
                                              doc["winner"], doc["tie"]]),
            "partition/losses": [doc["prefix"]["loss"], doc["suffix"]["loss"]],
        }

    def check_varying(self, result) -> dict:
        i_star, part = result
        check_varying_size(i_star, part.left, part.total_sse, self.y)
        return {"varying/i_star": i_star, "varying/loss": float(part.total_sse)}

    def check_tree(self) -> dict:
        doc = load_json(self.out / "tree.json")
        expect(doc["columns"] == ["x1", "x2", "x3"], "tree: columns differ")
        check_tree(doc, self.x, self.y, self.p["depth"])
        return {"tree.json": sha256_file(self.out / "tree.json")}

    def check_predictions(self) -> dict:
        check_predictions(self.out / "predictions.csv",
                          load_json(self.out / "tree.json"), self.x)
        return {}

    def check_scores(self) -> dict:
        doc = load_json(self.out / "score" / "scores.json")
        expect(doc["columns"] == ["x1", "x2", "x3"] and not doc["warnings"],
               f"scores: columns {doc['columns']}, warnings {doc['warnings']}")
        for method in self.score_methods:
            want = reference_scores(method, self.x, self.y)
            expect(all(close(a, b) for a, b in zip(doc["methods"][method], want)),
                   f"scores: {method} {doc['methods'][method]} differ from {want}")
        return {f"scores/{m}": doc["methods"][m] for m in self.score_methods}

    def check_select(self) -> dict:
        doc = load_json(self.out / "select" / "selection.json")
        expect([e["method"] for e in doc["methods"]] == self.score_methods,
               "select: methods differ")
        for method, entry in zip(self.score_methods, doc["methods"]):
            check_top_k(entry["selected_columns"], reference_scores(method, self.x, self.y),
                        False, f"select/{method}")
        return {"selection.json": sha256_file(self.out / "select" / "selection.json")}


class CsvExperiment(LargeN):
    name = "csv-experiment"
    why = ("3-input n=2000 CSV: experiment (bu, all six methods; t0/kendall n x n temporaries "
           "set peak RSS), then oracle partitions, depth-10 tree grow/predict, score, select")
    sizes = {"full": dict(n=2000, depth=10), "smoke": dict(n=150, depth=6)}
    methods = ["t0", "pearson", "spearman", "kendall", "chatterjee", "tree-importance"]
    # methods whose selections are re-derived from recomputed scores; kendall
    # is O(n^2) and tree-importance draws its own bootstrap rows
    rescored = ("t0", "pearson", "spearman", "chatterjee")

    def prepare(self) -> None:
        super().prepare()
        self.config = self.write_json("csv.json", {
            "mode": "csv", "input": str(self.data), "response": "y", "architectures": ["bu"],
            "unary_ops": ["id", "cube"], "binary_ops": ["+", "*"], "methods": self.methods,
            "n_selected": 3, "seed": self.seed, "active_variables": ["x1", "x3"]})

    def ops(self) -> list[Op]:
        out = self.out / "experiment"
        argv = ["experiment", "--config", self.config, "--out-dir", out, *self.workers]
        return [self.cli_op("experiment", argv, out, lambda: self.check(out)),
                *self.csv_ops()]

    def check(self, out: Path) -> dict:
        doc = load_json(out / "report.json")
        expect(doc["config"]["active_variables"] == [0, 2],
               "active variables x1, x3 not resolved to columns 0, 2")
        check_experiment_runs(doc, out, [("bu", 0, 24, "bu_0")], self.methods, 1, 3)
        (run,) = doc["runs"]
        z = np.column_stack([evaluate_feature(name, self.x) for name in run["feature_names"]])
        for entry in run["methods"]:
            if entry["method"] in self.rescored:
                scores = reference_scores(entry["method"], z, self.y)
                check_top_k(entry["selections"][0], scores, entry["method"] == "t0",
                            f"bu/{entry['method']}")
        return {"report.json": sha256_file(out / "report.json")}


WORKLOADS = {w.name: w for w in (SignalForest, CandidatesTable, CsvExperiment, LargeN)}
