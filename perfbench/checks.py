"""Output checks for the benchmark workloads.

Every check here recomputes what it verifies from the workload's own inputs
with plain numpy, without calling into symrank, so a wrong result cannot
vouch for itself. A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import ast
import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

# relative tolerance for floats that a later change may compute in another
# order (scores, partition losses); selections and reports compare exactly
FLOAT_RTOL = 1e-9


class CheckFailed(Exception):
    """An output differs from what the inputs imply."""


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(a: float, b: float, rtol: float = FLOAT_RTOL, atol: float = 1e-12) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    return sha256_bytes(Path(path).read_bytes())


def sha256_json(doc) -> str:
    return sha256_bytes(json.dumps(doc, sort_keys=True).encode())


def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    expect(rows, f"{path.name} is empty")
    return rows[0], rows[1:]


def compare_artifacts(observed: dict, expected: dict, what: str) -> None:
    """Digests (strings, ints, lists of ints) must match exactly; floats and
    lists of floats within FLOAT_RTOL."""
    expect(set(observed) == set(expected),
           f"{what}: artifacts {sorted(observed)} differ from {sorted(expected)}")
    for key, want in expected.items():
        got = observed[key]
        if isinstance(want, float) or (isinstance(want, list) and want
                                       and isinstance(want[0], float)):
            a = np.atleast_1d(np.asarray(got, dtype=float))
            b = np.atleast_1d(np.asarray(want, dtype=float))
            expect(a.shape == b.shape and all(close(x, y) for x, y in zip(a, b)),
                   f"{what}: {key} = {got} differs from {want}")
        else:
            expect(got == want, f"{what}: {key} = {got!r} differs from {want!r}")


# ---------------------------------------------------------------------------
# selection experiments
# ---------------------------------------------------------------------------

def variables_of(name: str) -> set[int]:
    """1-based input indices a canonical feature name mentions."""
    return {int(v) for v in re.findall(r"x(\d+)", name)}


def pr_auc_of(selection, correct: set[int], q: int) -> tuple[list[list[float]], float]:
    """PR curve and trapezoidal AUC of a top-k selection, from its definition:
    anchors (0, 1) and (1, positives/q) around the selection's point."""
    k = len(selection)
    tp = sum(1 for j in selection if j in correct)
    pts = sorted([(0.0, 1.0), (tp / len(correct), tp / k), (1.0, len(correct) / q)],
                 key=lambda rp: (rp[0], -rp[1]))
    auc = sum((r2 - r1) * (p1 + p2) / 2.0 for (r1, p1), (r2, p2) in zip(pts, pts[1:]))
    return [list(p) for p in pts], min(max(auc, 0.0), 1.0)


def check_selections(selections, repeats: int, k: int, q: int, where: str) -> None:
    expect(len(selections) == repeats,
           f"{where}: {len(selections)} selections for {repeats} repeats")
    for sel in selections:
        expect(len(sel) == k and len(set(sel)) == k
               and all(isinstance(j, int) and 0 <= j < q for j in sel),
               f"{where}: selection {sel} is not {k} distinct columns of {q}")


def check_selection_scores(entry: dict, correct: set[int], q: int, k: int,
                           where: str) -> None:
    """AIP and PR-AUC recomputed from the reported selections."""
    selections = entry["selections"]
    aip = sum(len(set(s) & correct) / k for s in selections) / len(selections)
    expect(close(entry["aip"], aip), f"{where}: aip {entry['aip']} != {aip}")
    if "pr_auc" in entry:
        curves = [pr_auc_of(s, correct, q) for s in selections]
        expect(all(close(a, c[1]) for a, c in zip(entry["pr_auc"], curves)),
               f"{where}: pr_auc differs from its recomputation")
        expect(all(got == want[0] for got, want in zip(entry["pr_curves"], curves)),
               f"{where}: pr_curves differ from their recomputation")
        expect(close(entry["pr_auc_median"], float(np.median(entry["pr_auc"]))),
               f"{where}: pr_auc_median is not the median")


def check_feature_table(run: dict, q_expected: int, active: set[int], where: str
                        ) -> set[int]:
    """Feature names are distinct, q is as expected, and the correct columns
    are exactly those mentioning only active inputs."""
    names = run["feature_names"]
    expect(run["q"] == q_expected == len(names) == len(set(names)),
           f"{where}: q={run['q']} with {len(set(names))} distinct names, "
           f"expected {q_expected}")
    correct = {j for j, name in enumerate(names) if variables_of(name) <= active}
    expect(sorted(correct) == run["correct_columns"],
           f"{where}: correct_columns {run['correct_columns']} != {sorted(correct)}")
    return correct


def check_pr_csv(path: Path, entry: dict, where: str) -> None:
    header, rows = read_csv_rows(path)
    expect(header == ["recall", "precision", "repeat"], f"{where}: header {header}")
    want = [[float(rec), float(prec), r] for r, curve in enumerate(entry["pr_curves"])
            for rec, prec in curve]
    got = [[float(a), float(b), int(c)] for a, b, c in rows]
    expect(got == want, f"{where}: {path.name} differs from report pr_curves")


# ---------------------------------------------------------------------------
# oracle partitions
# ---------------------------------------------------------------------------

def _sse_prefixes(ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SSE of the m smallest and of the n-m largest sorted responses, for
    m = 1..n-1, from cumulative sums of the centered values."""
    c = ys - ys.mean()
    n = c.shape[0]
    s1, s2 = np.cumsum(c), np.cumsum(c * c)
    m = np.arange(1, n, dtype=float)
    left = s2[:-1] - s1[:-1] ** 2 / m
    right = (s2[-1] - s2[:-1]) - (s1[-1] - s1[:-1]) ** 2 / (n - m)
    return left, right


def check_fixed_size(doc: dict, y: np.ndarray, i: int) -> None:
    """Both candidates are the sorted prefix/suffix blocks, their losses
    match the cumsum recomputation, and the winner has the smaller loss."""
    n = y.shape[0]
    order = np.argsort(y, kind="stable")
    expect(doc["n"] == n and doc["i"] == i, "oracle-partition: n or i echoed wrongly")
    blocks = {"prefix": order[:i], "suffix": order[n - i:]}
    left_sse, right_sse = _sse_prefixes(y[order])
    losses = {"prefix": left_sse[i - 1] + right_sse[i - 1],
              "suffix": left_sse[n - i - 1] + right_sse[n - i - 1]}
    for side, block in blocks.items():
        part = doc[side]
        expect(part["left_indices"] == sorted(int(j) for j in block),
               f"oracle-partition: {side} first group is not the sorted {side} block")
        expect(sorted(part["left_indices"] + part["right_indices"]) == list(range(n)),
               f"oracle-partition: {side} sides do not cover 0..n-1")
        expect(close(part["loss"], losses[side], rtol=1e-8),
               f"oracle-partition: {side} loss {part['loss']} != {losses[side]}")
    lp, ls = losses["prefix"], losses["suffix"]
    if not close(lp, ls, rtol=1e-8):
        want = "prefix" if lp < ls else "suffix"
        expect(doc["winner"] == want,
               f"oracle-partition: winner {doc['winner']}, cumsum losses favour {want}")


def check_varying_size(i_star: int, left: tuple, loss: float, y: np.ndarray) -> None:
    """i* attains the minimum contiguous-split loss of the sorted responses."""
    n = y.shape[0]
    order = np.argsort(y, kind="stable")
    left_sse, right_sse = _sse_prefixes(y[order])
    losses = left_sse + right_sse
    expect(1 <= i_star < n, f"oracle_varying_size: i*={i_star} out of range")
    best = float(losses.min())
    expect(losses[i_star - 1] <= best + 1e-8 * max(abs(best), 1.0),
           f"oracle_varying_size: loss at i*={i_star} is {losses[i_star - 1]}, "
           f"minimum {best} at i={int(losses.argmin()) + 1}")
    expect(list(left) == sorted(int(j) for j in order[:i_star]),
           "oracle_varying_size: first group is not the i* smallest responses")
    expect(close(loss, float(losses[i_star - 1]), rtol=1e-8),
           f"oracle_varying_size: loss {loss} != {losses[i_star - 1]}")


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

def route(doc: dict, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Leaf number of every row, the leaf means and the tree depth, following
    the preorder node list of a tree document (left child takes z <= threshold)."""
    nodes = doc["nodes"]
    m = len(nodes)
    coord = np.zeros(m, dtype=int)
    thr = np.zeros(m)
    left = np.arange(m)  # leaves point at themselves, so routing stops there
    right = np.arange(m)
    leaf_pos: list[int] = []

    def parse(pos: int, depth: int) -> tuple[int, int]:
        """Parse the subtree at pos; return the next position and its depth."""
        expect(pos < m, "tree: node list ends early")
        node = nodes[pos]
        if "mean" in node:
            expect(math.isfinite(node["mean"]), "tree: non-finite leaf mean")
            leaf_pos.append(pos)
            return pos + 1, depth
        expect(0 <= node["coordinate"] < doc["n_features"],
               "tree: split coordinate out of range")
        coord[pos], thr[pos], left[pos] = node["coordinate"], node["threshold"], pos + 1
        right[pos], d_left = parse(pos + 1, depth + 1)
        end, d_right = parse(int(right[pos]), depth + 1)
        return end, max(d_left, d_right)

    end, max_depth = parse(0, 0)
    expect(end == m, "tree: trailing nodes after the root's subtree")
    where = np.zeros(x.shape[0], dtype=int)
    rows = np.arange(x.shape[0])
    for _ in range(max_depth):
        go_left = x[rows, coord[where]] <= thr[where]
        where = np.where(go_left, left[where], right[where])
    leaf_index = np.full(m, -1)
    leaf_index[leaf_pos] = np.arange(len(leaf_pos))
    means = np.array([nodes[p]["mean"] for p in leaf_pos])
    return leaf_index[where], means, max_depth


def check_tree(doc: dict, x: np.ndarray, y: np.ndarray, depth: int) -> None:
    """Structure is a valid preorder of depth <= depth, and every leaf mean
    is the mean response of the training rows routed to it."""
    expect(doc["n_features"] == x.shape[1], "tree: n_features differs from input width")
    leaf_ids, means, max_depth = route(doc, x)
    expect(max_depth <= depth, f"tree: depth {max_depth} exceeds {depth}")
    counts = np.bincount(leaf_ids, minlength=means.shape[0])
    sums = np.bincount(leaf_ids, weights=y, minlength=means.shape[0])
    expect((counts > 0).all(), "tree: a leaf receives no training rows")
    expect(all(close(a, b) for a, b in zip(sums / counts, means)),
           "tree: a leaf mean differs from its routed training rows' mean")


def check_predictions(path: Path, doc: dict, x: np.ndarray) -> None:
    header, rows = read_csv_rows(path)
    expect(header == ["prediction"], f"predictions: header {header}")
    leaf_ids, means, _ = route(doc, x)
    got = np.array([float(r[0]) for r in rows])
    expect(got.shape == leaf_ids.shape and np.array_equal(got, means[leaf_ids]),
           "predictions: differ from routing each row through the tree")


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------

def _ranks(v: np.ndarray) -> np.ndarray:
    """Ordinal ranks 1..n; callers pass tie-free vectors."""
    r = np.empty(v.shape[0])
    r[np.argsort(v, kind="stable")] = np.arange(1, v.shape[0] + 1)
    return r


def evaluate_feature(name: str, x: np.ndarray) -> np.ndarray:
    """Values of a canonical feature name over inputs x1..xd, for names
    built from +, * and cube (the operators the workloads configure)."""
    def walk(node):
        if isinstance(node, ast.Name) and re.fullmatch(r"x\d+", node.id):
            return x[:, int(node.id[1:]) - 1]
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mult)):
            lhs, rhs = walk(node.left), walk(node.right)
            return lhs + rhs if isinstance(node.op, ast.Add) else lhs * rhs
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "cube" and len(node.args) == 1):
            return walk(node.args[0]) ** 3
        raise CheckFailed(f"feature name {name!r} outside the configured grammar")
    return walk(ast.parse(name, mode="eval").body)


def t0_rank_form(u: np.ndarray, y: np.ndarray) -> float:
    """t0 from its rank form, with r the midranks of u:
    2/(n(n-1)) [sum_k (2k-n-1) y_(k) - 2 sum_i (r_i - (n+1)/2) y_i]."""
    n = y.shape[0]
    k = np.arange(1, n + 1)
    head = float(np.dot(2 * k - n - 1, np.sort(y)))
    tail = float(np.dot(rankdata(u) - (n + 1) / 2, y))
    return 2.0 * (head - 2.0 * tail) / (n * (n - 1))


def reference_scores(method: str, z: np.ndarray, y: np.ndarray) -> list[float]:
    """Per-column scores: |pearson|, |spearman|, chatterjee's tie-free xi,
    or t0 (lower-better)."""
    out = []
    for j in range(z.shape[1]):
        u = z[:, j]
        if method == "pearson":
            out.append(abs(float(np.corrcoef(u, y)[0, 1])))
        elif method == "spearman":
            out.append(abs(float(np.corrcoef(_ranks(u), _ranks(y))[0, 1])))
        elif method == "chatterjee":
            r = _ranks(y[np.argsort(u, kind="stable")])
            n = u.shape[0]
            out.append(1.0 - 3.0 * float(np.abs(np.diff(r)).sum()) / (n * n - 1))
        elif method == "t0":
            out.append(t0_rank_form(u, y))
        else:
            raise CheckFailed(f"no reference for method {method}")
    return out


def check_top_k(selection, scores, lower_better: bool, where: str) -> None:
    """The selection holds k columns no worse than the k-th best score, and
    every column clearly better than it; near-ties may go either way."""
    s = np.asarray(scores, dtype=float) * (1.0 if lower_better else -1.0)
    k = len(selection)
    kth = float(np.sort(s)[k - 1])
    tol = 1e-9 * max(1.0, abs(kth))
    chosen = set(selection)
    expect(all(s[j] <= kth + tol for j in chosen)
           and all(j in chosen for j in np.flatnonzero(s < kth - tol)),
           f"{where}: selection {list(selection)} is not a top-{k} of the recomputed scores")
