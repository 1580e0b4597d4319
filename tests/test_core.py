import numpy as np
import pytest
from hypothesis import given, strategies as st

from symrank.core import (
    Interval,
    build_dataset,
    binary,
    derive_rng,
    load_csv,
    make_partition2,
    sort_by_response,
    unary,
    var,
)
from symrank.errors import (
    DimensionMismatch,
    EmptySide,
    NonFiniteData,
    TiesInResponse,
)


class TestBuildDataset:
    def test_minimal_valid(self):
        ds = build_dataset([[1], [2]], [3, 4])
        assert ds.n == 2 and ds.d == 1
        assert ds.column_names == ("x1",)

    def test_ties_rejected(self):
        with pytest.raises(TiesInResponse):
            build_dataset([[1], [2]], [3, 3])

    def test_row_count_disagreement(self):
        with pytest.raises(DimensionMismatch):
            build_dataset([[1, 2]], [1, 5])

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteData):
            build_dataset([[1], [np.inf]], [1, 2])
        with pytest.raises(NonFiniteData):
            build_dataset([[1], [2]], [1, np.nan])

    def test_arrays_readonly(self):
        ds = build_dataset([[1], [2]], [3, 4])
        with pytest.raises(ValueError):
            ds.x[0, 0] = 9.0

    def test_bad_name_count(self):
        with pytest.raises(DimensionMismatch):
            build_dataset([[1, 2]], [1], names=["a"])


class TestSortByResponse:
    def test_five_sample(self):
        ds = build_dataset([[0]] * 5, [5, 2.1, 1, 2, 4])
        assert sort_by_response(ds).order == (2, 3, 1, 4, 0)

    def test_already_sorted(self):
        ds = build_dataset([[0]] * 3, [1, 2, 3])
        assert sort_by_response(ds).order == (0, 1, 2)

    def test_rotated(self):
        ds = build_dataset([[0]] * 3, [3, 1, 2])
        assert sort_by_response(ds).order == (1, 2, 0)

    @given(st.permutations(list(range(8))))
    def test_row_permutation_invariance(self, perm):
        y = np.array([0.5, 1.5, -2.0, 3.25, 7.0, -0.25, 2.0, 9.5])
        x = np.arange(8.0).reshape(-1, 1)
        base = build_dataset(x, y)
        shuffled = build_dataset(x[perm], y[perm])
        sorted_base = base.y[list(sort_by_response(base).order)]
        sorted_shuf = shuffled.y[list(sort_by_response(shuffled).order)]
        assert np.array_equal(sorted_base, sorted_shuf)


def expr_strategy(depth=3, n_vars=3):
    base = st.integers(0, n_vars - 1).map(var)
    if depth == 0:
        return base
    sub = expr_strategy(depth - 1, n_vars)
    return st.one_of(
        base,
        st.tuples(st.sampled_from(["cube", "sin"]), sub).map(lambda t: unary(*t)),
        st.tuples(st.sampled_from(["+", "*", "-"]), sub, sub).map(lambda t: binary(*t)),
    )


class TestExpressions:
    def test_commutative_canonical(self):
        a, b = var(0), var(1)
        assert binary("+", a, b).canonical() == binary("+", b, a).canonical()
        assert binary("*", a, b).canonical() == binary("*", b, a).canonical()

    def test_noncommutative_kept_ordered(self):
        a, b = var(0), var(1)
        assert binary("-", a, b).canonical() != binary("-", b, a).canonical()

    def test_x1_plus_x1_not_simplified(self):
        e = binary("+", var(0), var(0))
        assert e.canonical() == "(x1+x1)"

    @given(expr_strategy())
    def test_recanonicalization_idempotent(self, e):
        def rebuild(expr):
            if expr.kind == "var":
                return var(expr.index)
            if expr.kind == "unary":
                return unary(expr.op, rebuild(expr.children[0]))
            return binary(expr.op, *(rebuild(c) for c in expr.children))

        assert rebuild(e).canonical() == e.canonical()

    def test_variables_collected(self):
        e = binary("+", unary("cube", var(2)), var(0))
        assert e.variables() == frozenset({0, 2})


class TestPartition2:
    def test_means_and_sse_cached(self):
        y = [5, 2.1, 1, 2, 4]
        p = make_partition2(y, (0, 4))
        assert p.left == (0, 4) and p.right == (1, 2, 3)
        assert p.mean_left == pytest.approx(4.5)
        assert p.mean_right == pytest.approx(1.7)
        assert p.total_sse == pytest.approx(1.24)

    def test_empty_side(self):
        with pytest.raises(EmptySide):
            make_partition2([1, 2], (0, 1))

    def test_sides_sorted(self):
        p = make_partition2([1, 2, 3], (2, 0))
        assert p.left == (0, 2)

    @pytest.mark.parametrize("left", [(0, 0, 1), (0, 4), (-1, 2), (4,)],
                             ids=["repeated", "past-the-end", "negative", "only-past-the-end"])
    def test_repeated_index_rejected(self, left):
        # a repeated index, or one outside 0..n-1
        with pytest.raises(DimensionMismatch):
            make_partition2([1, 2, 3, 10], left)


class TestInterval:
    def test_contains_respects_closedness(self):
        iv = Interval(0.0, 1.0, lo_closed=True, hi_closed=False)
        assert iv.contains(0.0) and not iv.contains(1.0) and iv.contains(0.5)

    def test_degenerate_requires_closed(self):
        with pytest.raises(DimensionMismatch):
            Interval(1.0, 1.0, lo_closed=False)

    def test_inverted_rejected(self):
        with pytest.raises(DimensionMismatch):
            Interval(2.0, 1.0)


class TestDeriveRng:
    def test_reproducible(self):
        a = derive_rng(42, 3).uniform(size=5)
        b = derive_rng(42, 3).uniform(size=5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = derive_rng(42, 3).uniform(size=5)
        b = derive_rng(42, 4).uniform(size=5)
        c = derive_rng(43, 3).uniform(size=5)
        assert not np.array_equal(a, b) and not np.array_equal(a, c)


class TestLoadCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y,b\n1,10,2\n3,20,4\n")
        ds = load_csv(path, "y")
        assert ds.column_names == ("a", "b")
        assert np.array_equal(ds.y, [10, 20])
        assert np.array_equal(ds.x, [[1, 2], [3, 4]])

    def test_malformed_row_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,10\nbad,20\n")
        with pytest.raises(DimensionMismatch, match="row 3"):
            load_csv(path, "y")

    def test_missing_response(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DimensionMismatch, match="no column named"):
            load_csv(path, "z")
