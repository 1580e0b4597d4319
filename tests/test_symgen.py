import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symrank.core import build_dataset, binary, derive_rng, unary, var
from symrank.errors import DimensionMismatch
from symrank.symgen import (
    MAX_EXPR_DEPTH,
    Architecture,
    OperatorSet,
    UnaryOp,
    build_operator_set,
    expand_binary,
    expand_unary,
    generate_report,
    label_correct,
    parse_univariate,
    raw_binary_count,
    sin_affine,
    unary_from_expr,
)

OPS = build_operator_set(["id", "cube"], ["+", "*"])


def random_dataset(seed, n=15, d=3):
    rng = derive_rng(seed)
    return build_dataset(rng.uniform(size=(n, d)), rng.uniform(size=n))


def walk(e, x, ops):
    """The values of expression e on the (n, d) inputs x by the recursive
    walk: every subexpression is evaluated afresh from the base variables."""
    if e.kind == "var":
        return np.asarray(x)[:, e.index]
    fns = {op.name: op.fn for op in ops.unary + ops.binary}
    return np.asarray(fns[e.op](*(walk(c, x, ops) for c in e.children)))


def walk_report(ds, arch, ops, value_dedup):
    """The column names, z, drops and constant columns generate_report gives,
    with each final column evaluated by the walk."""
    exprs = [var(j) for j in range(ds.d)]
    for kind in arch:
        exprs = (expand_binary if kind == "b" else expand_unary)(exprs, ops)
    columns, dropped = {}, []
    for e in exprs:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            col = np.asarray(walk(e, ds.x, ops), dtype=float)
        if not np.isfinite(col).all():
            reason = "left operator domain on this data"
        elif value_dedup and any(np.all(np.abs(col - prev) <= 1e-12)
                                 for prev in columns.values()):
            reason = "duplicate values of an earlier column"
        else:
            columns[e.canonical()] = col
            continue
        dropped.append({"expression": e.canonical(), "reason": reason})
    z = np.array(list(columns.values())).T
    constant = tuple(np.flatnonzero((z == z[0]).all(axis=0)).tolist())
    return tuple(columns), z, tuple(dropped), constant


class TestLayerCounts:
    def test_three_vars_binary_then_unary(self):
        base = [var(j) for j in range(3)]
        layer1 = expand_binary(base, OPS)
        assert len(layer1) == 12  # 2 * (C(3,2) + 3)
        assert len(expand_unary(layer1, OPS)) == 24

    def test_three_vars_unary_then_binary(self):
        base = [var(j) for j in range(3)]
        layer1 = expand_unary(base, OPS)
        assert len(layer1) == 6
        assert len(expand_binary(layer1, OPS)) == 42  # 2 * (C(6,2) + 6)

    def test_two_vars_raw_ordered_vs_distinct(self):
        base = [var(j) for j in range(2)]
        assert raw_binary_count(2, OPS) == 8  # 2 ops x 2 x 2 ordered
        layer1 = expand_binary(base, OPS)
        assert len(layer1) == 6
        assert len(expand_unary(layer1, OPS)) == 12

    def test_six_exprs_binary(self):
        exprs = [var(j) for j in range(6)]
        assert len(expand_binary(exprs, OPS)) == 42

    def test_commutative_dedup_examples(self):
        names = {e.canonical() for e in expand_binary([var(0), var(1)], OPS)}
        assert names == {"(x1+x1)", "(x1+x2)", "(x2+x2)",
                         "(x1*x1)", "(x1*x2)", "(x2*x2)"}

    def test_noncommutative_keeps_ordered_pairs(self):
        ops = build_operator_set(["id"], ["-"])
        names = [e.canonical() for e in expand_binary([var(0), var(1)], ops)]
        assert "(x1-x2)" in names and "(x2-x1)" in names and "(x1-x1)" in names

    def test_empty_layer_rejected(self):
        with pytest.raises(DimensionMismatch):
            expand_unary([], OPS)


class TestGenerate:
    def test_architecture_bu_gives_24(self):
        ds = random_dataset(61)
        rep = generate_report(ds, Architecture("bu"), OPS)
        assert rep.features.q == 24
        assert [c["distinct"] for c in rep.layer_counts] == [12, 24]

    def test_architecture_ub_gives_42(self):
        ds = random_dataset(62)
        rep = generate_report(ds, Architecture("ub"), OPS)
        assert rep.features.q == 42
        assert [c["distinct"] for c in rep.layer_counts] == [6, 42]

    def test_identity_architecture_returns_inputs(self):
        ds = random_dataset(63, n=8, d=2)
        ops = build_operator_set(["id"], ["+"])
        fm = generate_report(ds, Architecture("u"), ops).features
        assert np.array_equal(fm.z, ds.x)

    def test_columns_match_expression_evaluation(self):
        # a zero for "/" and "1/x" to leave their domain, and x2 = 2 * x1
        # for value duplicates
        x1 = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, -1.0, 3.0])
        ds = build_dataset(np.column_stack([x1, 2 * x1]), np.arange(8.0))
        # int64 past 2**53, so int and float arithmetic on its values differ
        to_int = UnaryOp("big", lambda v: np.rint(np.asarray(v)).astype(np.int64) + 2**60)
        op_sets = [OPS, build_operator_set(
            ["id", "exp", sin_affine(4, 0.2), unary_from_expr("1 / x"), to_int], ["-", "/"])]
        reasons = set()
        for ops in op_sets:
            for arch in ("u", "b", "bu", "ub", "bb", "ubu"):
                for value_dedup in (False, True):
                    rep = generate_report(ds, Architecture(arch), ops, value_dedup)
                    names, z, dropped, constant = walk_report(ds, arch, ops, value_dedup)
                    assert rep.features.column_names() == names
                    assert rep.features.z.shape == z.shape
                    assert rep.features.z.tobytes() == z.tobytes()
                    assert rep.dropped == dropped
                    assert rep.constant_columns == constant
                    reasons |= {d["reason"] for d in dropped}
        assert len(reasons) == 2

    def test_each_expression_is_computed_once(self):
        calls = []

        def counted(op):
            def fn(*args):
                calls.append(op.name)
                return op.fn(*args)
            return dataclasses.replace(op, fn=fn)

        ops = OperatorSet(tuple(map(counted, OPS.unary)), tuple(map(counted, OPS.binary)))
        ds = random_dataset(71)
        generate_report(ds, Architecture("bu"), ops)
        assert len(calls) == 12 + 12  # 12 binaries, then a cube of each ("id" is free)
        calls.clear()
        generate_report(ds, Architecture("ub"), ops)
        assert len(calls) == 3 + 42  # 3 cubes, then 42 binaries

    def test_deterministic(self):
        ds = random_dataset(65)
        a = generate_report(ds, Architecture("ub"), OPS).features
        b = generate_report(ds, Architecture("ub"), OPS).features
        assert a.column_names() == b.column_names()
        assert np.array_equal(a.z, b.z)

    def test_division_domain_failure_dropped(self):
        ds = build_dataset([[0.0, 1.0], [2.0, 3.0]], [1.0, 2.0])
        ops = build_operator_set(["id"], ["/"])
        rep = generate_report(ds, Architecture("b"), ops)
        dropped_names = {d["expression"] for d in rep.dropped}
        assert any("/x1" in name for name in dropped_names)  # x1 has a zero
        assert all(np.isfinite(rep.features.z).all() for _ in [0])

    def test_all_features_dropped_raises(self):
        from symrank.errors import PartialOperatorDomain
        ds = build_dataset([[0.0], [1.0]], [1.0, 2.0])
        ops = build_operator_set([], ["/"])
        with pytest.raises(PartialOperatorDomain):
            generate_report(ds, Architecture("b"), ops)  # x1/x1 hits 0/0

    def test_constant_columns_flagged(self):
        ds = random_dataset(66, d=2)
        ops = build_operator_set(["id"], ["-"])
        rep = generate_report(ds, Architecture("b"), ops)
        names = rep.features.column_names()
        assert set(rep.constant_columns) == {
            j for j, name in enumerate(names) if name in ("(x1-x1)", "(x2-x2)")}

    def test_value_dedup_drops_numeric_duplicates(self):
        x = np.array([[0.0], [1.0], [2.0]])
        ds = build_dataset(x, [1.0, 2.0, 3.0])
        ops = build_operator_set(["id", "cube", "square"], ["*"])
        # x^2 (unary square) duplicates x*x from the binary layer
        rep_keep = generate_report(ds, Architecture("ub"), ops, value_dedup=False)
        rep_drop = generate_report(ds, Architecture("ub"), ops, value_dedup=True)
        assert rep_drop.features.q < rep_keep.features.q
        assert any(d["reason"].startswith("duplicate") for d in rep_drop.dropped)


class TestLabelCorrect:
    def test_table_entries(self):
        active = (0, 2)
        assert label_correct([binary("+", var(0), var(2))], active)[0]
        assert not label_correct([binary("*", var(0), var(1))], active)[0]
        assert label_correct([unary("cube", binary("+", var(0), var(0)))], active)[0]

    def test_correct_count_bu(self):
        ds = random_dataset(67)
        fm = generate_report(ds, Architecture("bu"), OPS).features
        assert int(label_correct(fm.exprs, (0, 2)).sum()) == 12

    def test_correct_count_ub(self):
        ds = random_dataset(68)
        fm = generate_report(ds, Architecture("ub"), OPS).features
        assert int(label_correct(fm.exprs, (0, 2)).sum()) == 20


class TestCanonicalSoundness:
    @given(st.integers(0, 2), st.integers(0, 2), st.sampled_from(["+", "*"]))
    @settings(max_examples=30)
    def test_commuted_operands_evaluate_identically(self, i, j, op):
        a = binary(op, var(i), var(j))
        b = binary(op, var(j), var(i))
        assert a.canonical() == b.canonical()
        rng = derive_rng(69)
        x = rng.normal(size=(20, 3))
        assert np.array_equal(walk(a, x, OPS), walk(b, x, OPS))

    def test_identical_canonicals_evaluate_identically_in_layers(self):
        rng = derive_rng(70)
        x = rng.normal(size=(25, 3))
        base = [var(j) for j in range(3)]
        raw = []
        for op in OPS.binary:
            for i in range(3):
                for j in range(3):
                    raw.append(binary(op.name, base[i], base[j]))
        by_name = {}
        for e in raw:
            vals = walk(e, x, OPS)
            key = e.canonical()
            if key in by_name:
                assert np.array_equal(by_name[key], vals)
            else:
                by_name[key] = vals


class TestBuiltinOperators:
    def test_values(self):
        xs, ws = np.array([-1.5, 0.0, 0.5, 2.0]), np.array([0.25, -2.0, 3.0, 1.0])
        unary_values = {"id": xs, "square": xs**2, "cube": xs**3, "sin": np.sin(xs),
                        "cos": np.cos(xs), "exp": np.exp(xs)}
        binary_values = {"+": xs + ws, "-": xs - ws, "*": xs * ws, "/": xs / ws}
        ops = build_operator_set(list(unary_values), list(binary_values))
        for op in ops.unary:
            assert np.array_equal(op.fn(xs), unary_values[op.name])
        for op in ops.binary:
            assert np.array_equal(op.fn(xs, ws), binary_values[op.name])


class TestParser:
    def test_polynomial(self):
        fn = parse_univariate("-4*x**2 + 4*x")
        xs = np.linspace(0, 1, 7)
        assert np.allclose(fn(xs), -4 * xs**2 + 4 * xs)

    def test_registered_functions(self):
        fn = parse_univariate("sin(4*x + 0.2)")
        xs = np.linspace(-2, 2, 9)
        assert np.allclose(fn(xs), np.sin(4 * xs + 0.2))

    def test_constant_broadcasts(self):
        fn = parse_univariate("1.5")
        assert np.array_equal(fn(np.zeros(4)), np.full(4, 1.5))

    def test_rejects_unknown_names(self):
        with pytest.raises(DimensionMismatch):
            parse_univariate("y + 1")
        with pytest.raises(DimensionMismatch):
            parse_univariate("__import__('os')")
        with pytest.raises(DimensionMismatch):
            parse_univariate("x ^ 2")  # xor is not power

    def test_depth_is_bounded(self):
        deepest = "+" * (MAX_EXPR_DEPTH - 1) + "x"  # below the root and its body
        assert parse_univariate(deepest)(np.arange(3.0)).tolist() == [0.0, 1.0, 2.0]
        with pytest.raises(DimensionMismatch, match="nests deeper than 100 levels"):
            parse_univariate("+" + deepest)
        for depth in (5000, 100000):  # past the recursion limit, past the parser's stack
            with pytest.raises(DimensionMismatch, match="nested too deeply"):
                parse_univariate("-" * depth + "x")

    def test_integer_too_large_for_a_float(self):
        with pytest.raises(DimensionMismatch, match="too large for a float"):
            parse_univariate("x + " + "9" * 400)

    def test_error_echo_is_bounded(self):
        at_bound, past_bound = "y" + "+x" * 29 + "+", "y" + "+x" * 30  # 60 and 61 characters
        with pytest.raises(DimensionMismatch) as whole:
            parse_univariate(at_bound)
        assert repr(at_bound) in str(whole.value)
        with pytest.raises(DimensionMismatch) as cut:
            parse_univariate(past_bound)
        assert str(cut.value) == f"unknown name 'y' in {past_bound[:60]!r}... (61 characters)"

    def test_sin_affine_naming(self):
        assert sin_affine(4, 0.2).name == "sin(4x+0.2)"
        assert sin_affine(5).name == "sin(5x)"
        assert sin_affine(4, -0.2).name == "sin(4x-0.2)"

    def test_unary_from_expr(self):
        op = unary_from_expr("sin(4*x)")
        assert op.name == "sin(4*x)"
        xs = np.linspace(0, 1, 5)
        assert np.allclose(op.fn(xs), np.sin(4 * xs))

    def test_unary_from_expr_through_the_identity(self):
        op = unary_from_expr("id(x)+1")
        xs = np.linspace(0, 1, 5)
        assert np.array_equal(op.fn(xs), xs + 1)
