"""Tests for repro.bench.metrics (prec@k, ndcg@k)."""
import numpy as np
import pytest

from repro.bench.metrics import ndcg_at_k, prec_at_k


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
