"""Tests for repro.bench.metrics (top-k, prec@k, ndcg@k)."""
import numpy as np
import pytest

from repro.bench.metrics import ndcg_at_k, prec_at_k, top_k


class TestTopK:
    ROWS = [
        ("q1", "t_nan", float("nan")),
        ("q1", "t_none", None),
        ("q1", "t_b", 0.5),
        ("q1", "t_ninf", float("-inf")),
        ("q1", "t_a", 0.5),
        ("q1", "t_inf", float("inf")),
        ("q1", "t_low", -1.0),
        ("q2", "t_none", None),
        ("q2", "t_z", 0.1),
        ("q2", "t_nan", float("nan")),
    ]

    def test_order_ties_and_missing_last(self):
        assert top_k(self.ROWS, 7) == {
            "q1": ["t_inf", "t_a", "t_b", "t_low", "t_ninf", "t_nan", "t_none"],
            "q2": ["t_z", "t_nan", "t_none"],
        }

    def test_k_larger_than_rows(self):
        assert top_k(self.ROWS, 100) == top_k(self.ROWS, 7)

    def test_k_one(self):
        assert top_k(self.ROWS, 1) == {"q1": ["t_inf"], "q2": ["t_z"]}

    def test_numpy_scores(self):
        rows = [
            ("q", "b", np.float64(2.0)),
            ("q", "a", np.float64(np.nan)),
            ("q", "c", np.float64(2.0)),
        ]
        assert top_k(rows, 3) == {"q": ["b", "c", "a"]}

    def test_no_rows(self):
        assert top_k([], 3) == {}

    @pytest.mark.parametrize("k", [0, -1])
    def test_nonpositive_k_raises(self, k):
        with pytest.raises(ValueError):
            top_k(self.ROWS, k)


class TestPrecAtK:
    def test_perfect(self):
        assert prec_at_k(["a", "b"], {"a", "b"}, 2) == 1.0

    def test_none(self):
        assert prec_at_k(["x", "y"], {"a", "b"}, 2) == 0.0

    def test_half(self):
        assert prec_at_k(["a", "x"], {"a", "b"}, 2) == 0.5

    def test_short_ranking_counts_missing_as_miss(self):
        assert prec_at_k(["a"], {"a", "b"}, 2) == 0.5

    def test_k_zero_raises(self):
        with pytest.raises(ValueError):
            prec_at_k(["a"], {"a"}, 0)


class TestNdcgAtK:
    def test_perfect_order_is_one(self):
        assert ndcg_at_k(["a", "b", "c"], {"a", "b", "c"}, 3) == pytest.approx(1.0)

    def test_no_hits_is_zero(self):
        assert ndcg_at_k(["x", "y"], {"a"}, 2) == 0.0

    def test_position_matters(self):
        early = ndcg_at_k(["a", "x", "y"], {"a"}, 3)
        late = ndcg_at_k(["x", "y", "a"], {"a"}, 3)
        assert early > late
        assert early == pytest.approx(1.0)

    def test_known_value(self):
        # hit at rank 2 only, 1 relevant doc: dcg = 1/log2(3), idcg = 1
        got = ndcg_at_k(["x", "a"], {"a"}, 2)
        assert got == pytest.approx(1.0 / np.log2(3))

    def test_empty_relevant_zero(self):
        assert ndcg_at_k(["a"], set(), 5) == 0.0

    def test_bounded(self):
        rng = np.random.default_rng(0)
        ids = [f"t{i}" for i in range(20)]
        rel = set(rng.choice(ids, 5, replace=False).tolist())
        v = ndcg_at_k(ids, rel, 10)
        assert 0.0 <= v <= 1.0
