"""Tests for repro.core.data (LakeTable + aggregation operators)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.data import LakeTable, aggregate_series, interval_keys


class TestAggregateSeries:
    def test_avg_exact(self):
        a = np.array([1.0, 3.0, 5.0, 7.0])
        np.testing.assert_allclose(aggregate_series(a, "avg", 2), [2.0, 6.0])

    def test_sum_exact(self):
        a = np.array([1.0, 3.0, 5.0, 7.0])
        np.testing.assert_allclose(aggregate_series(a, "sum", 2), [4.0, 12.0])

    def test_max_exact(self):
        a = np.array([1.0, 3.0, 5.0, 7.0])
        np.testing.assert_allclose(aggregate_series(a, "max", 2), [3.0, 7.0])

    def test_min_exact(self):
        a = np.array([1.0, 3.0, 5.0, 7.0])
        np.testing.assert_allclose(aggregate_series(a, "min", 2), [1.0, 5.0])

    def test_partial_tail_window(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
        np.testing.assert_allclose(aggregate_series(a, "sum", 2), [3.0, 7.0, 10.0])

    def test_identity_op(self):
        a = np.array([1.0, 2.0])
        np.testing.assert_allclose(aggregate_series(a, "id", 5), a)

    def test_window_one_is_copy(self):
        a = np.array([1.0, 2.0])
        out = aggregate_series(a, "avg", 1)
        np.testing.assert_allclose(out, a)
        out[0] = 99
        assert a[0] == 1.0

    def test_window_larger_than_series(self):
        a = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(aggregate_series(a, "sum", 100), [6.0])

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError):
            aggregate_series(np.ones(4), "median", 2)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=50),
        st.integers(1, 10),
    )
    def test_length_contract(self, xs, w):
        out = aggregate_series(np.array(xs), "avg", w)
        assert out.size == int(np.ceil(len(xs) / w)) if w > 1 else len(xs)

    def test_avg_bounded_by_min_max(self):
        rng = np.random.default_rng(0)
        a = rng.random(100)
        avg = aggregate_series(a, "avg", 7)
        mn = aggregate_series(a, "min", 7)
        mx = aggregate_series(a, "max", 7)
        assert np.all(mn <= avg + 1e-12) and np.all(avg <= mx + 1e-12)


class TestLakeTable:
    def test_basic_properties(self):
        t = LakeTable("t", [np.arange(5), np.ones(5)])
        assert t.n_cols == 2 and t.n_rows == 5

    def test_one_read_only_matrix_with_its_keys_and_mask(self):
        cols = [np.arange(5.0), np.array([1.0, np.nan, 2.0, 3.0, 4.0]), np.full(5, -np.inf)]
        t = LakeTable("t", cols)
        assert t.columns.shape == (3, 5) and t.columns.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            t.columns[0, 0] = 1.0
        cols[0][0] = 9.0  # the table holds its own copy
        assert t.columns[0, 0] == 0.0
        assert t.finite.tolist() == [True, False, False]
        lo, hi = interval_keys(t.columns)
        np.testing.assert_array_equal(t.key_lo, lo)
        np.testing.assert_array_equal(t.key_hi, hi)

    def test_ragged_raises(self):
        with pytest.raises(ValueError):
            LakeTable("t", [np.arange(5), np.ones(4)])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            LakeTable("t", [])

    @pytest.mark.parametrize("columns", [[np.array([])], [[], []]], ids=["one", "two"])
    def test_zero_row_columns_raise(self, columns):
        with pytest.raises(ValueError, match="no rows"):
            LakeTable("t", columns)

    def test_column_intervals_hull(self):
        # runs of [-5, 3, -1] sum to -5 at least and 3 at most
        (lo,), (hi,) = interval_keys(np.array([[-5.0, 3.0, -1.0]]))
        assert (lo, hi) == pytest.approx((-5.0, 3.0))

    def test_column_intervals_sum_dominates(self):
        (lo,), (hi,) = interval_keys(np.array([[1.0, 2.0, 3.0]]))
        assert (lo, hi) == pytest.approx((1.0, 6.0))

    def test_column_intervals_cover_signed_window_sums(self):
        # the hull of {min, max, sum} is [-10, 5]; the window-2 sums are [10, -9]
        x = np.array([[5.0, 5.0, -10.0, 1.0]])
        (lo,), (hi,) = interval_keys(x)
        assert (lo, hi) == pytest.approx((-10.0, 10.0))
        assert aggregate_series(x, "sum", 2).tolist() == [[10.0, -9.0]]

    def test_column_intervals_match_every_run(self):
        """Reference: the least and greatest sum over all O(n^2) runs."""
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 17)) * 50 + rng.uniform(-20, 20, (30, 1))
        lo, hi = interval_keys(x)
        for row, l, h in zip(x, lo, hi):
            sums = [row[i:j].sum() for i in range(len(row)) for j in range(i + 1, len(row) + 1)]
            assert l <= min(sums) and h >= max(sums)
            assert (l, h) == pytest.approx((min(sums), max(sums)), rel=1e-12, abs=1e-9)

    def test_column_intervals_non_finite_is_nan(self):
        x = np.array([[1.0, np.nan, 3.0], [1.0, 2.0, np.inf], [-np.inf, np.inf, 0.0], [0.0, 1.0, 2.0]])
        with np.errstate(invalid="raise", over="raise"):
            lo, hi = interval_keys(x)
        assert np.isnan(lo[:3]).all() and np.isnan(hi[:3]).all()
        assert (lo[3], hi[3]) == pytest.approx((0.0, 3.0))
