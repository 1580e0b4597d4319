"""Symbolic feature generation: operator registries, layered composition
architectures, canonical deduplication, and evaluation to a FeatureMatrix.

A binary layer applies every binary operator to unordered pairs with
repetition (i <= j) for commutative operators and ordered pairs otherwise;
a unary layer applies every unary operator to every expression, with "id"
leaving the expression unchanged. Commutative canonical ordering makes
x1+x2 and x2+x1 one feature. No algebraic simplification beyond that is
performed: x1+x1 stays x1+x1. Each layer's columns are computed from the
layer below, each new expression by one operator call.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

import numpy as np

from .core import COMMUTATIVE_BINARY_OPS, Dataset, Expression, FeatureMatrix, binary, unary, var
from .errors import DimensionMismatch, PartialOperatorDomain

__all__ = [
    "Architecture",
    "BinaryOp",
    "GenerationReport",
    "OperatorSet",
    "UnaryOp",
    "build_operator_set",
    "expand_binary",
    "expand_unary",
    "generate_report",
    "label_correct",
    "parse_univariate",
    "sin_affine",
    "unary_from_expr",
]

VALUE_DEDUP_TOL = 1e-12


@dataclass(frozen=True)
class UnaryOp:
    name: str
    fn: object  # vectorized callable


@dataclass(frozen=True)
class BinaryOp:
    name: str
    fn: object


def _cube(x):
    return np.asarray(x) ** 3


def _square(x):
    return np.asarray(x) ** 2


def _identity(x):
    return np.asarray(x)


BUILTIN_UNARY = {
    "id": UnaryOp("id", _identity),
    "square": UnaryOp("square", _square),
    "cube": UnaryOp("cube", _cube),
    "sin": UnaryOp("sin", np.sin),
    "cos": UnaryOp("cos", np.cos),
    "exp": UnaryOp("exp", np.exp),
}

BUILTIN_BINARY = {
    "+": BinaryOp("+", np.add),
    "-": BinaryOp("-", np.subtract),
    "*": BinaryOp("*", np.multiply),
    "/": BinaryOp("/", np.divide),
}


def _fmt_num(v: float) -> str:
    return f"{v:g}"


def sin_affine(a: float, b: float = 0.0) -> UnaryOp:
    """Parameterized unary map sin(a*x + b), named e.g. sin(4x+0.2)."""
    a, b = float(a), float(b)
    if b == 0.0:
        name = f"sin({_fmt_num(a)}x)"
    else:
        sign = "+" if b > 0 else "-"
        name = f"sin({_fmt_num(a)}x{sign}{_fmt_num(abs(b))})"

    def fn(x, _a=a, _b=b):
        return np.sin(_a * np.asarray(x) + _b)

    return UnaryOp(name, fn)


@dataclass(frozen=True)
class OperatorSet:
    """Named unary and binary maps used to compose features."""

    unary: tuple[UnaryOp, ...]
    binary: tuple[BinaryOp, ...]

    def __post_init__(self):
        names = [op.name for op in self.unary] + [op.name for op in self.binary]
        if len(set(names)) != len(names):
            raise DimensionMismatch("operator names must be unique")


def build_operator_set(unary_names, binary_names) -> OperatorSet:
    """Assemble an OperatorSet from built-in names; unary entries may also be
    UnaryOp objects."""
    u_ops = []
    for entry in unary_names:
        if isinstance(entry, UnaryOp):
            u_ops.append(entry)
        elif entry in BUILTIN_UNARY:
            u_ops.append(BUILTIN_UNARY[entry])
        else:
            raise DimensionMismatch(f"unknown unary operator {entry!r}")
    for entry in binary_names:
        if entry not in BUILTIN_BINARY:
            raise DimensionMismatch(f"unknown binary operator {entry!r}")
    return OperatorSet(tuple(u_ops), tuple(BUILTIN_BINARY[entry] for entry in binary_names))


@dataclass(frozen=True)
class Architecture:
    """Layer order string over {u, b}, applied left to right.

    "bu" is the binary-then-unary architecture, "ub" the reverse; free-form
    orders like "ubb" are allowed.
    """

    order: str

    def __post_init__(self):
        if not self.order or any(c not in "ub" for c in self.order):
            raise DimensionMismatch(
                f"architecture must be a nonempty string over 'u'/'b', got {self.order!r}")


# ---------------------------------------------------------------------------
# layer expansion
# ---------------------------------------------------------------------------

def _dedup(exprs) -> list[Expression]:
    seen: set[str] = set()
    out: list[Expression] = []
    for e in exprs:
        key = e.canonical()
        if key not in seen:
            seen.add(key)
            out.append(e)
    return out


def expand_binary(exprs, ops: OperatorSet) -> list[Expression]:
    """One binary layer: op(e_i, e_j) over pairs, canonicalized, deduplicated.

    Commutative operators (``core.COMMUTATIVE_BINARY_OPS``) enumerate
    unordered pairs with repetition (i <= j); the others enumerate all
    ordered pairs.
    """
    if not exprs:
        raise DimensionMismatch("binary layer needs a nonempty expression list")
    m = len(exprs)
    out: list[Expression] = []
    for op in ops.binary:
        for i in range(m):
            for j in range(i if op.name in COMMUTATIVE_BINARY_OPS else 0, m):
                out.append(binary(op.name, exprs[i], exprs[j]))
    return _dedup(out)


def expand_unary(exprs, ops: OperatorSet) -> list[Expression]:
    """One unary layer: op(e) per operator, with "id" passing e through."""
    if not exprs:
        raise DimensionMismatch("unary layer needs a nonempty expression list")
    out: list[Expression] = []
    for e in exprs:
        for op in ops.unary:
            out.append(e if op.name == "id" else unary(op.name, e))
    return _dedup(out)


def raw_binary_count(m: int, ops: OperatorSet) -> int:
    """Ordered pair count before canonical dedup: one per op per (i, j)."""
    return len(ops.binary) * m * m


def raw_unary_count(m: int, ops: OperatorSet) -> int:
    return len(ops.unary) * m


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenerationReport:
    """Feature matrix plus per-layer counts and evaluation diagnostics."""

    features: FeatureMatrix
    layer_counts: tuple[dict, ...]  # per layer: kind, raw, distinct
    dropped: tuple[dict, ...]       # expression, reason
    constant_columns: tuple[int, ...]


def generate_report(ds: Dataset, arch: Architecture, ops: OperatorSet,
                    value_dedup: bool = False) -> GenerationReport:
    """Apply the architecture's layers to the base variables and evaluate.

    Each layer is computed from the layer below: a new expression is its
    operator applied once to its children's values, and an "id" pass-through
    keeps its child's.
    Expressions whose evaluation leaves the data's domain (division by zero,
    overflow) are dropped and recorded. With ``value_dedup`` set, a later
    column whose evaluated vector matches an earlier one within 1e-12
    componentwise is dropped as well. Constant columns are kept but flagged;
    scoring treats them as worst-ranked.
    """
    fns = {op.name: op.fn for op in ops.unary + ops.binary}  # names are unique
    exprs: list[Expression] = [var(j) for j in range(ds.d)]
    values = {e: ds.x[:, e.index] for e in exprs}
    layer_counts: list[dict] = []
    for kind in arch.order:
        m = len(exprs)
        if kind == "b":
            exprs = expand_binary(exprs, ops)
            raw = raw_binary_count(m, ops)
        else:
            exprs = expand_unary(exprs, ops)
            raw = raw_unary_count(m, ops)
        layer_counts.append({"kind": kind, "raw": raw, "distinct": len(exprs)})
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            values = {e: values[e] if e in values else
                      np.asarray(fns[e.op](*(values[c] for c in e.children))) for e in exprs}

    kept: list[Expression] = []
    columns: list[np.ndarray] = []
    dropped: list[dict] = []
    for e in exprs:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            col = np.asarray(values[e], dtype=float)
        if col.shape != (ds.n,):
            raise DimensionMismatch(
                f"{e.canonical()} evaluated to shape {col.shape}, expected ({ds.n},)")
        if not np.isfinite(col).all():
            dropped.append({"expression": e.canonical(),
                            "reason": "left operator domain on this data"})
            continue
        if value_dedup and any(
                np.all(np.abs(col - prev) <= VALUE_DEDUP_TOL) for prev in columns):
            dropped.append({"expression": e.canonical(),
                            "reason": "duplicate values of an earlier column"})
            continue
        kept.append(e)
        columns.append(col)
    if not kept:
        raise PartialOperatorDomain("every generated feature left its domain")
    # column-major, so the rank scorers read its columns as rows uncopied
    z = np.array(columns).T
    z.setflags(write=False)
    constant = tuple(np.flatnonzero((z == z[0]).all(axis=0)).tolist())
    return GenerationReport(FeatureMatrix(z, tuple(kept)), tuple(layer_counts),
                            tuple(dropped), constant)


def label_correct(exprs, active_variables) -> np.ndarray:
    """True where an expression references only active variables."""
    active = frozenset(int(v) for v in active_variables)
    return np.array([e.variables() <= active for e in exprs], dtype=bool)


# ---------------------------------------------------------------------------
# univariate expression strings
# ---------------------------------------------------------------------------

_ALLOWED_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
                   ast.Div: np.divide, ast.Pow: np.power}
_ALLOWED_UNARYOPS = {ast.UAdd: lambda v: v, ast.USub: np.negative}
MAX_EXPR_DEPTH = 100  # compiling and evaluating recurse once per tree level


def parse_univariate(expr: str):
    """Compile an arithmetic expression string in one variable ``x``.

    Supports numbers, x, + - * / **, parentheses, and calls to the built-in
    unary names. Returns a vectorized callable. Raises DimensionMismatch on
    anything outside that grammar, on an integer too large for a float and
    on a tree deeper than MAX_EXPR_DEPTH levels. An error message shows an
    expression longer than 60 characters as its first 60 and its length.
    """
    funcs = {name: op.fn for name, op in BUILTIN_UNARY.items()}
    shown = f"{expr[:60]!r}... ({len(expr)} characters)" if len(expr) > 60 else repr(expr)
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise DimensionMismatch(f"cannot parse {shown}: {exc}") from None
    except (RecursionError, MemoryError):  # the parser's stack overflowed
        raise DimensionMismatch(f"cannot parse {shown}: nested too deeply") from None

    def compile_node(node, depth=0):
        if depth > MAX_EXPR_DEPTH:
            raise DimensionMismatch(f"{shown} nests deeper than {MAX_EXPR_DEPTH} levels")
        if isinstance(node, ast.Expression):
            return compile_node(node.body, depth + 1)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            try:
                value = float(node.value)
            except OverflowError:
                raise DimensionMismatch(f"{shown} has an integer too large for a float") from None
            return lambda x: value
        if isinstance(node, ast.Name):
            if node.id == "x":
                return lambda x: x
            raise DimensionMismatch(f"unknown name {node.id!r} in {shown}")
        if isinstance(node, ast.UnaryOp) and type(node.op) in _ALLOWED_UNARYOPS:
            fn = _ALLOWED_UNARYOPS[type(node.op)]
            operand = compile_node(node.operand, depth + 1)
            return lambda x: fn(operand(x))
        if isinstance(node, ast.BinOp) and type(node.op) in _ALLOWED_BINOPS:
            fn = _ALLOWED_BINOPS[type(node.op)]
            lhs, rhs = compile_node(node.left, depth + 1), compile_node(node.right, depth + 1)
            return lambda x: fn(lhs(x), rhs(x))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id not in funcs or node.keywords or len(node.args) != 1:
                raise DimensionMismatch(f"unsupported call in {shown}")
            fn = funcs[node.func.id]
            arg = compile_node(node.args[0], depth + 1)
            return lambda x: fn(arg(x))
        raise DimensionMismatch(f"unsupported syntax in {shown}")

    body = compile_node(tree)

    def evaluate(x, _body=body):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.asarray(_body(x), dtype=float), x.shape).copy()

    return evaluate


def unary_from_expr(expr: str) -> UnaryOp:
    """Register an arbitrary univariate expression string as a unary map."""
    canonical = expr.replace(" ", "")
    return UnaryOp(canonical, parse_univariate(expr))
