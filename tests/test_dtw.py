"""Tests for repro.core.dtw (banded DTW + resampling).

``dtw_reference`` is the scalar recurrence, one pair and one cell at a
time along each row. It is kept here as the oracle: the kernel, which
sweeps the anti-diagonals of a whole stack, must agree with it bit for
bit.
``dtw_distance`` runs the kernel on one pair (a stack of one) and
``dtw_relevance`` is the paper's ``rel(d, C)`` of that pair.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.dtw import dtw_distances, fit_lengths, resample
from repro.core.relevance import STACK_PAIRS


def dtw_reference(a, b, *, band=None, max_len=128):
    """One pair, one cell at a time, in Python floats (the oracle)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("DTW of an empty series is undefined")
    if max_len is not None:
        if a.size > max_len:
            a = resample(a, max_len)
        if b.size > max_len:
            b = resample(b, max_len)
    n, m = a.size, b.size
    if band is not None:
        band = max(band, abs(n - m))
    prev = np.full(m + 1, np.inf)
    prev[0] = 0.0
    cur = np.empty(m + 1)
    for i in range(1, n + 1):
        cur[:] = np.inf
        if band is None:
            lo, hi = 1, m
        else:
            c = int(round(i * m / n))
            lo, hi = max(1, c - band), min(m, c + band)
        cost = np.abs(a[i - 1] - b[lo - 1 : hi])
        base = np.minimum(prev[lo : hi + 1], prev[lo - 1 : hi])
        run = np.inf
        for idx in range(hi - lo + 1):
            run = cost[idx] + min(base[idx], run)
            cur[lo + idx] = run
        prev, cur = cur, prev
    return float(prev[m])


def dtw_distance(
    a: np.ndarray,
    b: np.ndarray,
    *,
    band: int | None = None,
    max_len: int | None = 128,
) -> float:
    """DTW distance of one pair (a stack of one for :func:`dtw_distances`,
    whose ``band`` this takes).

    ``max_len``: if set, a series longer than this is resampled down to
    it first (keeps repository sweeps tractable).
    """
    a, b = fit_lengths([a, b], max_len)
    return float(dtw_distances(a[None], b[None], band=band)[0])


def dtw_relevance(a: np.ndarray, b: np.ndarray, **kw) -> float:
    """``rel(d, C) = 1 / (1 + DTW(d, C))`` (Sec. III-A)."""
    return 1.0 / (1.0 + dtw_distance(a, b, **kw))


class TestResample:
    def test_identity_length(self):
        a = np.array([1.0, 2.0, 3.0])
        out = resample(a, 3)
        np.testing.assert_allclose(out, a)

    def test_identity_returns_copy(self):
        a = np.array([1.0, 2.0, 3.0])
        out = resample(a, 3)
        out[0] = 99.0
        assert a[0] == 1.0

    def test_upsample_endpoints(self):
        a = np.array([0.0, 10.0])
        out = resample(a, 5)
        assert out[0] == 0.0 and out[-1] == 10.0
        np.testing.assert_allclose(out, [0.0, 2.5, 5.0, 7.5, 10.0])

    def test_downsample_preserves_endpoints(self):
        a = np.linspace(0, 1, 100)
        out = resample(a, 10)
        assert out[0] == pytest.approx(0.0)
        assert out[-1] == pytest.approx(1.0)

    def test_single_point_broadcast(self):
        out = resample(np.array([7.0]), 4)
        np.testing.assert_allclose(out, np.full(4, 7.0))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            resample(np.array([]), 4)

    def test_linear_signal_exact(self):
        a = np.linspace(-3, 5, 17)
        np.testing.assert_allclose(resample(a, 33), np.linspace(-3, 5, 33))

    @settings(max_examples=200, deadline=None)
    @given(
        size=st.integers(1, 300),
        n=st.integers(1, 300),
        scale=st.sampled_from([1e-6, 1.0, 1e12]),
        n_bad=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_rows_bit_identical_to_interp(self, size, n, scale, n_bad, seed):
        """Each row of a stack is what ``np.interp`` gives for that row,
        non-finite values included."""
        rng = np.random.default_rng(seed)
        a = np.cumsum(rng.standard_normal((3, size)), axis=1) * scale
        a.flat[rng.integers(a.size, size=n_bad)] = rng.choice([np.nan, np.inf, -np.inf], n_bad)
        got = resample(a, n)
        for row, out in zip(a, got):
            want = (
                np.full(n, row[0])
                if size == 1
                else np.interp(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, size), row)
            )
            np.testing.assert_array_equal(out, want)
            np.testing.assert_array_equal(resample(row, n), want)


class TestFitLengths:
    def test_groups_are_resampled_as_each_series_alone(self):
        """Equal-length series share one ``resample`` call; each comes out
        as it would alone, and a series with a bad value keeps its length."""
        rng = np.random.default_rng(8)
        series = [rng.standard_normal(z) for z in (160, 80, 160, 128, 5, 160, 300)]
        series[2][40] = np.nan
        series[5][0] = -np.inf
        got = fit_lengths(series, 128)
        for s, g in zip(series, got):
            if s.size > 128 and np.isfinite(s).all():
                np.testing.assert_array_equal(g, resample(s, 128))
            else:
                np.testing.assert_array_equal(g, s)
        assert [g.size for g in got] == [128, 80, 160, 128, 5, 160, 128]

    def test_no_cap_keeps_every_length(self):
        series = [np.arange(3), np.ones((2, 2))]
        assert [g.tolist() for g in fit_lengths(series, None)] == [[0, 1, 2], [1, 1, 1, 1]]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            fit_lengths([np.ones(3), np.array([])], 128)


class TestDTWDistance:
    def test_identical_series_zero(self):
        a = np.array([1.0, 2.0, 3.0, 2.0])
        assert dtw_distance(a, a) == pytest.approx(0.0)

    def test_known_small_case(self):
        # DP by hand: a=[0,1], b=[0,1,1] -> warp cost 0
        assert dtw_distance(np.array([0.0, 1.0]), np.array([0.0, 1.0, 1.0])) == 0.0

    def test_constant_offset(self):
        a = np.zeros(5)
        b = np.ones(5)
        assert dtw_distance(a, b) == pytest.approx(5.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.random(20), rng.random(25)
        assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a))

    def test_time_shift_cheaper_than_euclidean(self):
        a = np.sin(np.linspace(0, 4 * np.pi, 60))
        b = np.sin(np.linspace(0, 4 * np.pi, 60) + 0.4)
        assert dtw_distance(a, b) < np.abs(a - b).sum()

    def test_band_matches_unbanded_for_wide_band(self):
        rng = np.random.default_rng(1)
        a, b = rng.random(15), rng.random(15)
        assert dtw_distance(a, b, band=15) == pytest.approx(dtw_distance(a, b))

    def test_band_upper_bounds_unbanded(self):
        rng = np.random.default_rng(2)
        a, b = rng.random(30), rng.random(30)
        assert dtw_distance(a, b, band=3) >= dtw_distance(a, b) - 1e-12

    def test_max_len_caps_work(self):
        rng = np.random.default_rng(3)
        a = rng.random(1000)
        b = rng.random(1000)
        d = dtw_distance(a, b, max_len=64)
        assert np.isfinite(d)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            dtw_distance(np.array([]), np.array([1.0]))

    def test_length_mismatch_band_reachable(self):
        # band smaller than the length gap must still reach the corner
        a = np.ones(10)
        b = np.ones(40)
        assert np.isfinite(dtw_distance(a, b, band=1, max_len=None))

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=20),
        st.lists(st.floats(-10, 10), min_size=1, max_size=20),
    )
    def test_nonnegative_and_finite(self, xs, ys):
        d = dtw_distance(np.array(xs), np.array(ys))
        assert d >= 0.0 and np.isfinite(d)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=20))
    def test_self_distance_zero(self, xs):
        assert dtw_distance(np.array(xs), np.array(xs)) == pytest.approx(0.0)


class TestDTWRelevance:
    def test_identical_is_one(self):
        a = np.array([1.0, 2.0, 3.0])
        assert dtw_relevance(a, a) == pytest.approx(1.0)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(4)
        r = dtw_relevance(rng.random(30), rng.random(30) * 100)
        assert 0.0 < r <= 1.0

    def test_monotone_in_distance(self):
        a = np.zeros(10)
        near = np.full(10, 0.1)
        far = np.full(10, 5.0)
        assert dtw_relevance(a, near) > dtw_relevance(a, far)


_FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _stacks(draw, max_n=200):
    """Same-shape (P, n) and (P, m) stacks, lengths 1..max_n, n != m allowed."""
    p = draw(st.integers(1, 4))
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_n))
    a = draw(hnp.arrays(np.float64, (p, n), elements=_FINITE))
    b = draw(hnp.arrays(np.float64, (p, m), elements=_FINITE))
    return a, b


def _bands(a, b):
    """None, 0, 1, 16 and one at least as wide as both series."""
    return st.sampled_from([None, 0, 1, 16, max(a.shape[1], b.shape[1])])


class TestKernelMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_bit_identical(self, data):
        a, b = data.draw(_stacks())
        band = data.draw(_bands(a, b))
        got = dtw_distances(a, b, band=band)
        want = [dtw_reference(x, y, band=band, max_len=None) for x, y in zip(a, b)]
        assert got.tolist() == want

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_bit_identical_with_resampling(self, data):
        a, b = data.draw(_stacks())
        band = data.draw(_bands(a, b))
        max_len = data.draw(st.sampled_from([None, 1, 7, 64]))
        for x, y in zip(a, b):
            assert dtw_distance(x, y, band=band, max_len=max_len) == dtw_reference(
                x, y, band=band, max_len=max_len
            )

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_permuting_stack_permutes_output(self, data):
        a, b = data.draw(_stacks(max_n=40))
        band = data.draw(_bands(a, b))
        perm = data.draw(st.permutations(range(a.shape[0])))
        out = dtw_distances(a, b, band=band)
        assert dtw_distances(a[perm], b[perm], band=band).tolist() == out[perm].tolist()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_bit_identical_any_band(self, data):
        a, b = data.draw(_stacks())
        band = data.draw(st.integers(0, max(a.shape[1], b.shape[1])))
        got = dtw_distances(a, b, band=band)
        want = [dtw_reference(x, y, band=band, max_len=None) for x, y in zip(a, b)]
        assert got.tolist() == want

    @pytest.mark.parametrize(
        "n,m",
        [(128, 128), (80, 128), (40, 128), (20, 128), (10, 128), (200, 1), (1, 200), (200, 199)],
    )
    @pytest.mark.parametrize("band", [None, 0, 1, 2, 16])
    def test_bench_and_extreme_shapes(self, n, m, band):
        rng = np.random.default_rng(n * 1000 + m)
        a = np.cumsum(rng.standard_normal((5, n)), axis=1)
        b = np.cumsum(rng.standard_normal((5, m)), axis=1)
        want = [dtw_reference(x, y, band=band, max_len=None) for x, y in zip(a, b)]
        assert dtw_distances(a, b, band=band).tolist() == want

    def test_long_stack_with_non_finite_rows(self):
        """More pairs than a ``rel_scores`` stack, NaN and ±inf rows
        interleaved in both stacks: every finite pair is the oracle's."""
        rng = np.random.default_rng(7)
        p = STACK_PAIRS + 37
        a = np.cumsum(rng.standard_normal((p, 30)), axis=1)
        b = np.cumsum(rng.standard_normal((p, 37)), axis=1)
        bad = [np.nan, np.inf, -np.inf]
        for k, row in enumerate(range(3, p, 11)):
            (a if k % 2 else b)[row, k % 7] = bad[k % 3]
        finite = np.isfinite(a).all(axis=1) & np.isfinite(b).all(axis=1)
        got = dtw_distances(a, b, band=4)
        assert (got[~finite] == np.inf).all() and (~finite).sum() == len(range(3, p, 11))
        want = [dtw_reference(x, y, band=4, max_len=None) for x, y in zip(a[finite], b[finite])]
        assert got[finite].tolist() == want

    def test_length_one(self):
        a, b = np.array([[3.0]]), np.array([[1.0, 5.0, 2.0]])
        for band in (None, 0, 1):
            assert dtw_distances(a, b, band=band)[0] == dtw_reference(a, b, band=band) == 5.0


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pair_with_non_finite_value_is_infinitely_far(self, bad):
        rng = np.random.default_rng(5)
        a, b = rng.random((3, 20)), rng.random((3, 20))
        a[1, 7] = bad
        out = dtw_distances(a, b, band=4)
        assert out[1] == np.inf
        assert out[[0, 2]].tolist() == [
            dtw_reference(a[i], b[i], band=4) for i in (0, 2)
        ]
        assert dtw_relevance(a[1], b[1]) == 0.0

    def test_resampling_cannot_hide_a_bad_value(self):
        a = np.linspace(0.0, 1.0, 1000)
        a[500] = np.nan
        assert np.isnan(fit_lengths([a], 128)[0]).any()
        assert dtw_distance(a, np.ones(50), max_len=128) == np.inf
