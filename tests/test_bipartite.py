"""Tests for repro.core.bipartite (Hungarian vs brute force).

``brute_force_max`` is the exhaustive oracle the Hungarian solver is
checked against.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bipartite import hungarian_max, matching_weight, mean_matching


def brute_force_max(weights: np.ndarray) -> list[tuple[int, int]]:
    """Exhaustive reference implementation (<= 7x7)."""
    w = np.asarray(weights, dtype=np.float64)
    n, m = w.shape
    rows_small = n <= m
    small, large = (n, m) if rows_small else (m, n)
    best, best_pairs = -np.inf, []
    for perm in itertools.permutations(range(large), small):
        s = sum(
            w[i, perm[i]] if rows_small else w[perm[i], i]
            for i in range(small)
        )
        if s > best:
            best = s
            best_pairs = [
                (i, perm[i]) if rows_small else (perm[i], i)
                for i in range(small)
            ]
    return sorted(best_pairs)


class TestHungarian:
    def test_identity_matrix(self):
        w = np.eye(3)
        pairs = hungarian_max(w)
        assert pairs == [(0, 0), (1, 1), (2, 2)]

    def test_anti_diagonal(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        pairs = hungarian_max(w)
        assert matching_weight(w, pairs) == pytest.approx(2.0)

    def test_rectangular_more_cols(self):
        w = np.array([[0.1, 0.9, 0.2], [0.8, 0.1, 0.3]])
        pairs = hungarian_max(w)
        assert matching_weight(w, pairs) == pytest.approx(1.7)
        assert len(pairs) == 2

    def test_rectangular_more_rows(self):
        w = np.array([[0.1, 0.9, 0.2], [0.8, 0.1, 0.3]]).T
        pairs = hungarian_max(w)
        assert matching_weight(w, pairs) == pytest.approx(1.7)
        rows = [i for i, _ in pairs]
        assert len(set(rows)) == len(rows)

    def test_negative_weights_allowed(self):
        w = np.array([[-1.0, -2.0], [-3.0, -4.0]])
        pairs = hungarian_max(w)
        assert matching_weight(w, pairs) == pytest.approx(-5.0)

    def test_single_cell(self):
        assert hungarian_max(np.array([[3.0]])) == [(0, 0)]

    def test_single_row(self):
        w = np.array([[1.0, 5.0, 2.0]])
        assert hungarian_max(w) == [(0, 1)]

    def test_single_col(self):
        w = np.array([[1.0], [5.0], [2.0]])
        assert hungarian_max(w) == [(1, 0)]

    def test_empty(self):
        assert hungarian_max(np.zeros((0, 0))) == []

    def test_non_2d_raises(self):
        with pytest.raises(ValueError):
            hungarian_max(np.zeros(3))

    def test_no_shared_nodes(self):
        rng = np.random.default_rng(0)
        w = rng.random((5, 7))
        pairs = hungarian_max(w)
        rows = [i for i, _ in pairs]
        cols = [j for _, j in pairs]
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10_000))
    def test_matches_brute_force(self, n, m, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(-1, 1, size=(n, m))
        got = matching_weight(w, hungarian_max(w))
        want = matching_weight(w, brute_force_max(w))
        assert got == pytest.approx(want, abs=1e-9)

    def test_large_matrix_runs(self):
        rng = np.random.default_rng(1)
        w = rng.random((30, 40))
        pairs = hungarian_max(w)
        assert len(pairs) == 30


class TestMeanMatching:
    @pytest.mark.parametrize("shape", [(0, 0), (2, 0)])
    def test_empty_is_zero(self, shape):
        assert mean_matching(np.zeros(shape)) == 0.0

    def test_wide_divides_by_rows(self):
        w = np.array([[0.1, 0.9, 0.2], [0.8, 0.1, 0.3]])
        assert mean_matching(w) == matching_weight(w, hungarian_max(w)) / 2
        assert mean_matching(w) == pytest.approx(0.85)

    def test_tall_counts_unmatched_rows_as_zero(self):
        """Three series against two columns: the unmatched series adds 0
        to the sum and 1 to the count, as in Rel(D, T) and Qetch*."""
        w = np.array([[0.1, 0.9, 0.2], [0.8, 0.1, 0.3]]).T
        assert len(hungarian_max(w)) == 2
        assert mean_matching(w) == pytest.approx(1.7 / 3)
