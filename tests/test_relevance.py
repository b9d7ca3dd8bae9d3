"""Tests for repro.core.relevance (ground-truth Rel(D, T))."""
import numpy as np
import pytest

from repro.bench.benchmark import build_benchmark
from repro.config import tiny_benchmark_config
from repro.core.bipartite import hungarian_max, matching_weight
from repro.core.data import LakeTable
from repro.core.relevance import (
    rel_score,
    rel_scores,
    relevance_matrix,
)
from tests.test_dtw import dtw_reference


def rel_reference(data, table, *, band=16, max_len=128):
    """Rel(D, T) one (series, column) pair at a time on the scalar DTW
    oracle; a pair with a non-finite value has rel 0.0."""
    w = np.array(
        [
            [
                1.0 / (1.0 + dtw_reference(d, c, band=band, max_len=max_len))
                if np.isfinite(d).all() and np.isfinite(c).all()
                else 0.0
                for c in table.columns
            ]
            for d in data
        ]
    )
    pairs = hungarian_max(w)
    return matching_weight(w, pairs) / len(data) if pairs else 0.0


def match_assignment(
    data: list[np.ndarray], table: LakeTable, **kw
) -> list[tuple[int, int]]:
    """The (series, column) assignment behind Rel(D, T)."""
    return hungarian_max(relevance_matrix(data, table, **kw))


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class TestRelevanceMatrix:
    def test_shape(self, rng):
        data = [rng.random(50), rng.random(50)]
        t = LakeTable("t", [rng.random(40) for _ in range(3)])
        w = relevance_matrix(data, t)
        assert w.shape == (2, 3)
        assert np.all((w > 0) & (w <= 1))

    def test_exact_column_match_is_one(self, rng):
        c = rng.random(60)
        t = LakeTable("t", [c, rng.random(60) + 5])
        w = relevance_matrix([c], t)
        assert w[0, 0] == pytest.approx(1.0)
        assert w[0, 1] < 1.0


class TestRelScore:
    def test_self_table_perfect(self, rng):
        cols = [rng.random(80) for _ in range(3)]
        t = LakeTable("t", cols)
        assert rel_score([c.copy() for c in cols], t) == pytest.approx(1.0)

    def test_prefers_source_table(self, rng):
        cols = [np.cumsum(rng.standard_normal(100)) for _ in range(2)]
        src = LakeTable("src", cols)
        other = LakeTable("other", [np.cumsum(rng.standard_normal(100)) + 50 for _ in range(2)])
        d = [c.copy() for c in cols]
        assert rel_score(d, src) > rel_score(d, other)

    def test_noisy_duplicate_scores_high(self, rng):
        cols = [10 + np.cumsum(rng.standard_normal(120)) for _ in range(2)]
        src = LakeTable("src", cols)
        dup = LakeTable("dup", [c * rng.uniform(0.98, 1.02, size=c.size) for c in cols])
        far = LakeTable("far", [rng.random(120) * 1000 for _ in range(2)])
        d = [c.copy() for c in cols]
        assert rel_score(d, dup) > rel_score(d, far)

    def test_normalised_by_num_series(self, rng):
        # score is a mean over series, so in (0, 1] for rel weights
        data = [rng.random(30) for _ in range(4)]
        t = LakeTable("t", [rng.random(30) for _ in range(2)])
        s = rel_score(data, t)
        assert 0.0 <= s <= 1.0

    def test_empty_data_raises(self):
        with pytest.raises(ValueError):
            rel_score([], LakeTable("t", [np.ones(3)]))


class TestMatchAssignment:
    def test_assignment_is_injective(self, rng):
        data = [rng.random(40) for _ in range(3)]
        t = LakeTable("t", [rng.random(40) for _ in range(5)])
        pairs = match_assignment(data, t)
        assert len(pairs) == 3
        assert len({j for _, j in pairs}) == 3

    def test_recovers_permuted_columns(self, rng):
        cols = [np.cumsum(rng.standard_normal(100)) + o for o in (0, 100, -100)]
        t = LakeTable("t", cols)
        # data series are the columns in reversed order
        data = [cols[2].copy(), cols[1].copy(), cols[0].copy()]
        pairs = match_assignment(data, t)
        assert (0, 2) in pairs and (1, 1) in pairs and (2, 0) in pairs


class TestRelScores:
    @pytest.fixture(scope="class")
    def bench(self):
        return build_benchmark(tiny_benchmark_config(seed=5))

    def test_equals_oracle_on_tiny_benchmark(self, bench):
        tables = list(bench.repository.values())
        rel = rel_scores([q.data for q in bench.queries], tables)
        assert rel.shape == (len(bench.queries), len(tables))
        rng = np.random.default_rng(0)
        for qi, q in enumerate(bench.queries):
            tids = list(bench.repository)
            picks = {tids.index(q.source_table_id)}
            picks |= set(rng.choice(len(tables), size=3, replace=False).tolist())
            for ti in sorted(picks):
                assert rel[qi, ti] == rel_reference(q.data, tables[ti])

    def test_single_pair_wrappers_agree(self, bench):
        q, t = bench.queries[0], bench.repository[bench.queries[0].source_table_id]
        assert rel_score(q.data, t) == rel_scores([q.data], [t])[0, 0]
        w = relevance_matrix(q.data, t)
        assert matching_weight(w, hungarian_max(w)) / len(q.data) == rel_score(q.data, t)

    def test_mask_limits_work(self, rng):
        data = [[rng.random(30)], [rng.random(30), rng.random(20)]]
        tables = [LakeTable(f"t{i}", [rng.random(25) for _ in range(2)]) for i in range(3)]
        mask = np.array([[True, False, True], [False, True, False]])
        rel = rel_scores(data, tables, mask=mask)
        assert (rel[~mask] == 0.0).all()
        for q, t in zip(*np.nonzero(mask)):
            assert rel[q, t] == rel_reference(data[q], tables[t])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_columns_score_finite(self, rng, bad):
        data = [[rng.random(40), rng.random(40)], [rng.random(300)]]
        clean = LakeTable("clean", [rng.random(200), rng.random(200)])
        dirty_col = rng.random(200)
        dirty_col[77] = bad
        dirty = LakeTable("dirty", [rng.random(200), dirty_col])
        all_bad = LakeTable("all_bad", [np.full(40, bad)])
        tables = [clean, dirty, all_bad]
        rel = rel_scores(data, tables)
        assert np.isfinite(rel).all()
        assert (rel[:, 2] == 0.0).all()
        for q in range(len(data)):
            for t in range(len(tables)):
                assert rel[q, t] == rel_reference(data[q], tables[t])
        # the clean table is untouched by the rule
        assert rel[0, 0] == rel_reference(data[0], clean) > 0.0

    def test_non_finite_series_scores_zero(self, rng):
        series = rng.random(50)
        series[3] = np.nan
        t = LakeTable("t", [rng.random(50)])
        assert rel_scores([[series]], [t])[0, 0] == 0.0

    def test_empty_data_raises(self, rng):
        with pytest.raises(ValueError):
            rel_scores([[rng.random(5)], []], [LakeTable("t", [np.ones(3)])])
