"""Shared domain types: datasets, expressions, rankings, partitions, intervals.

All types are immutable after construction (arrays are marked read-only).
"""

from __future__ import annotations

import csv
import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySide,
    NonFiniteData,
    TiesInResponse,
    UsageError,
)

__all__ = [
    "Dataset",
    "Expression",
    "FeatureMatrix",
    "Interval",
    "Partition2",
    "RankPermutation",
    "build_dataset",
    "derive_rng",
    "load_csv",
    "make_partition2",
    "read_text",
    "var",
    "unary",
    "binary",
]

COMMUTATIVE_BINARY_OPS = frozenset({"+", "*"})

# relative gap below which two losses or scores count as tied
TIE_RTOL = 1e-12


def _tied(a, b):
    """Whether a and b differ by at most TIE_RTOL * max(|a|, |b|, 1), elementwise."""
    return np.abs(a - b) <= TIE_RTOL * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)


def _is_number(value) -> bool:
    """Whether a JSON value is a finite number."""
    # exact for huge JSON integers too; false for bools, NaN and infinities
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


# n * max|y| below this keeps every sum over n entries of y, y**2 and
# (y - mean(y))**2 finite: each squared sum stays below 2**1023
_RESPONSE_BOUND = 2.0**511


def _bounded_response(y: np.ndarray) -> None:
    """NonFiniteData unless the rows of y (along its last axis) are small
    enough for their squared sums to stay finite."""
    largest = float(np.abs(y).max(initial=0.0))
    if not largest * y.shape[-1] < _RESPONSE_BOUND:
        raise NonFiniteData(f"response too large: n * max|y| = {y.shape[-1]} * {largest:g} "
                            f"must stay below 2**511 for its squared sums to be finite")


def _response_order(ys: np.ndarray) -> np.ndarray:
    """The argsort of each row of a (g, n) array of responses: the one check
    that a response is strictly ordered, raising NonFiniteData or
    TiesInResponse for its first row that is not finite or not tie-free."""
    order = np.argsort(ys, axis=1)
    s = np.take_along_axis(ys, order, axis=1)
    infinite = ~np.isfinite(s).all(axis=1)
    bad = infinite | (s[:, 1:] == s[:, :-1]).any(axis=1)
    if bad.any():
        if infinite[bad.argmax()]:
            raise NonFiniteData("dataset entries must be finite")
        raise TiesInResponse("response vector contains exact ties")
    return order


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Expression:
    """A symbolic feature: a variable, or an operator applied to children.

    Commutative binary operators store their operands sorted by canonical
    serialization, so x1+x2 and x2+x1 are one expression. Construct through
    :func:`var`, :func:`unary` and :func:`binary`, which canonicalize.
    """

    kind: str  # "var" | "unary" | "binary"
    op: str = ""
    index: int = -1
    children: tuple["Expression", ...] = ()

    def canonical(self) -> str:
        if self.kind == "var":
            return f"x{self.index + 1}"
        if self.kind == "unary":
            inner = self.children[0].canonical()
            if self.children[0].kind == "binary":
                inner = inner[1:-1]  # binary serializations carry their own parens
            return f"{self.op}({inner})"
        left, right = (c.canonical() for c in self.children)
        return f"({left}{self.op}{right})"

    def variables(self) -> frozenset[int]:
        if self.kind == "var":
            return frozenset({self.index})
        return frozenset().union(*(c.variables() for c in self.children))


def var(index: int) -> Expression:
    if index < 0:
        raise DimensionMismatch(f"variable index must be >= 0, got {index}")
    return Expression("var", index=index)


def unary(op: str, child: Expression) -> Expression:
    return Expression("unary", op=op, children=(child,))


def binary(op: str, left: Expression, right: Expression) -> Expression:
    if op in COMMUTATIVE_BINARY_OPS and right.canonical() < left.canonical():
        left, right = right, left
    return Expression("binary", op=op, children=(left, right))


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dataset:
    """An (N, d) input matrix with a tie-free response vector.

    Responses must be strictly distinct; everything downstream (oracle
    partitions, rank statistics) relies on a strict order of y.
    Construct with :func:`build_dataset`.
    """

    x: np.ndarray
    y: np.ndarray
    column_names: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def build_dataset(x, y, names=None) -> Dataset:
    """Validate and freeze a dataset.

    Raises DimensionMismatch on shape disagreements, NonFiniteData on NaN/inf
    entries and TiesInResponse on exact duplicates in y (:func:`_response_order`).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2:
        raise DimensionMismatch(f"x must be 2-D, got shape {x.shape}")
    if y.ndim != 1:
        raise DimensionMismatch(f"y must be 1-D, got shape {y.shape}")
    n, d = x.shape
    if n < 1 or d < 1:
        raise DimensionMismatch(f"need at least one row and one column, got {x.shape}")
    if y.shape[0] != n:
        raise DimensionMismatch(f"x has {n} rows but y has {y.shape[0]}")
    if not np.isfinite(x).all():
        raise NonFiniteData("dataset entries must be finite")
    _response_order(y[None])
    if names is None:
        names = tuple(f"x{j + 1}" for j in range(d))
    else:
        names = tuple(str(c) for c in names)
        if len(names) != d:
            raise DimensionMismatch(f"{len(names)} column names for {d} columns")
    return Dataset(_readonly(x), _readonly(y), names)


@dataclass(frozen=True)
class FeatureMatrix:
    """Evaluated symbolic features: an (N, q) matrix paired with expressions."""

    z: np.ndarray
    exprs: tuple[Expression, ...]

    @property
    def q(self) -> int:
        return self.z.shape[1]

    def column_names(self) -> tuple[str, ...]:
        return tuple(e.canonical() for e in self.exprs)


# ---------------------------------------------------------------------------
# rankings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankPermutation:
    """A permutation of 0..N-1 stored as the ordered index list."""

    order: tuple[int, ...]

    def __post_init__(self):
        n = len(self.order)
        if sorted(self.order) != list(range(n)):
            raise DimensionMismatch("order is not a permutation of 0..N-1")


# ---------------------------------------------------------------------------
# 2-partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition2:
    """A 2-way split of response indices with cached group means and SSE.

    Index sets are stored sorted ascending for deterministic iteration.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]
    mean_left: float
    mean_right: float
    sse_left: float
    sse_right: float

    @property
    def total_sse(self) -> float:
        return self.sse_left + self.sse_right


def _group_stats(y: np.ndarray, idx) -> tuple[float, float]:
    """The mean and SSE of ``y[idx]``, for idx a list of indices or a mask."""
    vals = y[idx]
    mean = float(vals.mean())
    return mean, float(np.sum((vals - mean) ** 2))


def make_partition2(y, left) -> Partition2:
    """The validated Partition2 of ``range(len(y))`` with ``left`` on one
    side and the rest on the other.

    Raises DimensionMismatch unless ``left`` holds distinct indices in
    0..n-1, and EmptySide unless both sides are nonempty.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    left = tuple(sorted(int(i) for i in left))
    left_set = set(left)
    if len(left_set) < len(left) or not left_set <= set(range(n)):
        raise DimensionMismatch(f"a partition side takes distinct indices in 0..{n - 1}")
    right = tuple(i for i in range(n) if i not in left_set)
    if not left or not right:
        raise EmptySide("both partition sides must be nonempty")
    mean_l, sse_l = _group_stats(y, list(left))
    mean_r, sse_r = _group_stats(y, list(right))
    return Partition2(left, right, mean_l, mean_r, sse_l, sse_r)


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """A real interval with per-endpoint closedness flags."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if self.lo > self.hi:
            raise DimensionMismatch(f"interval lo {self.lo} > hi {self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise DimensionMismatch("a point interval needs both endpoints closed")

    def __str__(self) -> str:
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{self.lo}, {self.hi}{rb}"


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    """Derive an independent generator for (seed, stream...).

    Repeat streams keyed this way are reproducible and independent of each
    other: the stream key feeds SeedSequence's spawn key.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    )


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

# A line break, then a nonempty line of only whitespace, commas and quotes:
# csv.reader may read such a line as a blank row. loadtxt skips empty lines
# itself, so the body is filtered only when this finds a line.
_BLANKISH_LINE = re.compile(r'\n(?:[^\S\n]|[,"])+$', re.MULTILINE)
_BLANKISH = re.compile(r'[\s,"]*')
_LOADTXT = {"delimiter": ",", "comments": None, "quotechar": '"', "ndmin": 2}


def read_text(path) -> str:
    """The text of a UTF-8 file, without the byte-order mark that some
    editors write first; UsageError naming the file when it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:  # reads \r\n and \r as \n
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x} "
                         f"at offset {exc.start})") from None


def _blank_row(line: str) -> bool:
    return all(not field.strip() for field in next(csv.reader([line])))


def _bad_row(path, lines, rows, width) -> DimensionMismatch:
    """The error naming the first of ``lines`` that is not ``width`` numbers.

    Bisects on prefixes: once a prefix fails to parse, every longer one does.
    """
    def parses(k):
        if not any(lines[:k]):  # loadtxt warns on input without data
            return True
        try:
            return np.loadtxt(lines[:k], **_LOADTXT).shape[1] == width
        except ValueError:
            return False

    good, bad = 0, len(lines)  # lines[:good] parse, lines[:bad] do not
    while bad - good > 1:
        mid = (good + bad) // 2
        good, bad = (mid, bad) if parses(mid) else (good, mid)
    fields = next(csv.reader([lines[good]]))
    if len(fields) != width:
        return DimensionMismatch(
            f"{path}: row {rows[good]} has {len(fields)} fields, expected {width}")
    return DimensionMismatch(f"{path}: row {rows[good]}: {fields} are not all numbers")


def load_csv(path, response: str) -> Dataset:
    """Read a headed CSV into a Dataset.

    The header row names the columns, each name once and none empty (names
    are stripped of surrounding whitespace); ``response`` becomes y and
    every other column becomes an input column, in header order. The data rows are
    comma-separated numbers, optionally quoted with ``"`` and padded with
    whitespace, parsed by one ``np.loadtxt`` call; ``#`` is not a comment, and
    a quoted field that spans lines is joined without its line breaks. Lines
    that are empty or hold only whitespace, commas and empty quotes are
    skipped but keep their place in the numbering: row N is line N of the
    file. Raises DimensionMismatch naming the row on a wrong field count or a
    field that is not a number, including underscore literals (``1_0``) and
    non-ASCII digits, which Python's ``float`` would accept. Raises
    UsageError naming the file when it is not UTF-8 text.
    """
    text = read_text(path)
    if not text:
        raise DimensionMismatch(f"{path}: file is empty")
    blankish = _BLANKISH_LINE.search(text)
    lines = text.split("\n")
    del text  # the lines hold it; one copy is enough for a large file
    reader = csv.reader(line + "\n" for line in lines)
    header = [h.strip() for h in next(reader)]
    if "" in header:
        raise DimensionMismatch(f"{path}: header column {header.index('') + 1} has no name")
    if len(set(header)) < len(header):
        name = next(h for i, h in enumerate(header) if h in header[:i])
        raise DimensionMismatch(f"{path}: column name {name!r} appears more than once")
    if response not in header:
        raise DimensionMismatch(f"{path}: no column named {response!r}")
    y_col = header.index(response)
    x_cols = [j for j in range(len(header)) if j != y_col]
    if not x_cols:
        raise DimensionMismatch(f"{path}: no input columns besides {response!r}")
    lines = lines[reader.line_num:]
    rows = range(reader.line_num + 1, reader.line_num + 1 + len(lines))
    if blankish:
        kept = [i for i, line in enumerate(lines)
                if not (_BLANKISH.fullmatch(line) and _blank_row(line))]
        lines, rows = [lines[i] for i in kept], [rows[i] for i in kept]
    if not any(lines):
        raise DimensionMismatch(f"{path}: no data rows")
    try:
        a = np.loadtxt(lines, **_LOADTXT)
    except ValueError:
        a = None
    if a is None or a.shape[1] != len(header):
        raise _bad_row(path, lines, rows, len(header))
    # copies in C order, so the parsed table is freed and x is laid out as before
    return build_dataset(np.ascontiguousarray(a[:, x_cols]), a[:, y_col].copy(),
                         [header[j] for j in x_cols])
