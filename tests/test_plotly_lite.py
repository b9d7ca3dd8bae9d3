"""Tests for repro.bench.plotly_lite (corpus generator)."""
import numpy as np
import pytest

from repro.bench.plotly_lite import (
    FAMILIES,
    M_BUCKET_WEIGHTS,
    da_spec,
    gen_column,
    gen_corpus,
    gen_table,
    m_bucket_label,
    partial_spec,
    sample_m,
    window_bucket_label,
)
from repro.config import BenchmarkConfig, tiny_benchmark_config


class TestBucketLabel:
    @pytest.mark.parametrize(
        "m,label", [(1, "1"), (2, "2-4"), (4, "2-4"), (5, "5-7"), (7, "5-7"), (8, ">7"), (12, ">7")]
    )
    def test_labels(self, m, label):
        assert m_bucket_label(m) == label

    @pytest.mark.parametrize(
        "window,label",
        [(2, "0-20"), (19, "0-20"), (20, "20-40"), (79, "60-80"), (80, "80-100"),
         (100, "80-100"), (101, None)],
    )
    def test_window_labels(self, window, label):
        """[lo, hi) buckets; the last one also holds 100, da_spec's largest."""
        assert window_bucket_label(window) == label


class TestColumns:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family_generates(self, family):
        rng = np.random.default_rng(0)
        col = gen_column(rng, 100, family, scale=1.0, base=0.0)
        assert col.shape == (100,)
        assert np.all(np.isfinite(col))


class TestGenTable:
    def test_spec_valid(self):
        rng = np.random.default_rng(0)
        rec = gen_table(rng, "t0", m=3, min_rows=50, max_rows=100)
        assert rec.spec.m == 3
        assert rec.table.n_cols >= 3
        assert all(0 <= c < rec.table.n_cols for c in rec.spec.y_cols)
        assert 50 <= rec.table.n_rows <= 100

    def test_y_cols_distinct(self):
        rng = np.random.default_rng(1)
        rec = gen_table(rng, "t0", m=5, min_rows=50, max_rows=60)
        assert len(set(rec.spec.y_cols)) == 5


class TestCorpus:
    def test_deterministic(self):
        cfg = tiny_benchmark_config()
        a = gen_corpus(cfg, 5, prefix="x", seed=3)
        b = gen_corpus(cfg, 5, prefix="x", seed=3)
        for ra, rb in zip(a, b):
            assert ra.table.table_id == rb.table.table_id
            np.testing.assert_allclose(ra.table.columns[0], rb.table.columns[0])

    def test_ids_unique(self):
        cfg = tiny_benchmark_config()
        recs = gen_corpus(cfg, 10, prefix="x", seed=0)
        ids = [r.table.table_id for r in recs]
        assert len(set(ids)) == 10

    def test_m_distribution_roughly_matches_table1(self):
        """Large-sample bucket mix approximates the paper's repository mix."""
        rng = np.random.default_rng(0)
        labels = [m_bucket_label(sample_m(rng)) for _ in range(4000)]
        for lab, want in zip(("1", "2-4", "5-7", ">7"), M_BUCKET_WEIGHTS):
            got = labels.count(lab) / len(labels)
            assert abs(got - want) < 0.03


class TestSpecVariants:
    def test_da_spec_window_bounds(self):
        rng = np.random.default_rng(0)
        rec = gen_table(rng, "t0", m=2, min_rows=400, max_rows=500)
        for _ in range(20):
            spec = da_spec(rng, rec)
            assert spec.is_da
            assert 2 <= spec.window <= min(100, rec.table.n_rows // 10)
            assert spec.agg_op in ("avg", "sum", "max", "min")
            assert spec.y_cols == rec.spec.y_cols

    def test_partial_spec_bounds(self):
        rng = np.random.default_rng(1)
        rec = gen_table(rng, "t0", m=1, min_rows=300, max_rows=300)
        spec = partial_spec(rng, rec)
        lo, hi = spec.row_range
        assert 0 <= lo < hi <= 300
        assert hi - lo >= 100  # at least the middle third
