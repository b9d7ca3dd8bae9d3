"""Spark tests for repro.lake.search (distributed scoring, top-k, metrics)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines.cml import CML
from repro.bench.benchmark import build_benchmark
from repro.config import tiny_benchmark_config
from repro.core.fcm import make_model
from repro.bench.harness import FCMMethod
from repro.lake.search import (
    ranked_topk,
    score_with_method,
    topk_df,
)
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def bench(spark):
    cfg = tiny_benchmark_config(seed=21)
    return build_benchmark(cfg, spark=spark)


@pytest.fixture(scope="module")
def cml_scores(spark, bench):
    return score_with_method(
        spark, bench.repository, bench.queries, CML(bench.cfg.fcm)
    ).cache()


class TestSparkGroundTruth:
    def test_matches_local_ground_truth(self, spark, bench):
        """Spark-distributed Rel(D,T) top-k == driver-side computation."""
        from repro.bench.benchmark import compute_ground_truth

        local = compute_ground_truth(bench, spark=None)
        assert local == bench.ground_truth


class TestScoreWithMethod:
    def test_all_pairs_scored(self, cml_scores, bench):
        assert cml_scores.count() == len(bench.queries) * len(bench.repository)

    def test_scores_match_driver_side(self, cml_scores, bench):
        m = CML(bench.cfg.fcm)
        got = {
            (r["query_id"], r["table_id"]): r["score"]
            for r in cml_scores.collect()
        }
        q = bench.queries[0]
        prep = m.prepare_query(q.extracted)
        for tid in list(bench.repository)[:5]:
            want = m.score(prep, m.encode_table(bench.repository[tid]))
            assert got[(q.query_id, tid)] == pytest.approx(want, rel=1e-9)

    def test_candidate_pruning(self, spark, bench):
        cands = {q.query_id: {q.source_table_id} for q in bench.queries}
        scores = score_with_method(
            spark, bench.repository, bench.queries, CML(bench.cfg.fcm), candidates=cands
        )
        assert scores.count() == len(bench.queries)

    def test_fcm_method_distributed(self, spark, bench):
        """The full FCM model survives broadcast + pandas-UDF execution."""
        method = FCMMethod(make_model(bench.cfg.fcm))
        sub_queries = bench.queries[:2]
        sub_tables = {k: bench.repository[k] for k in list(bench.repository)[:8]}
        scores = score_with_method(spark, sub_tables, sub_queries, method)
        rows = scores.collect()
        assert len(rows) == 16
        got = {(r["query_id"], r["table_id"]): r["score"] for r in rows}
        q = sub_queries[0]
        tid = list(sub_tables)[0]
        want = method.score(
            method.prepare_query(q.extracted), method.encode_table(sub_tables[tid])
        )
        assert got[(q.query_id, tid)] == pytest.approx(want, rel=1e-9)


class TestTopK:
    def test_topk_vs_oracle(self, spark, cml_scores, bench):
        """Spark window top-k == DuckDB row_number over the same scores."""
        k = bench.cfg.k
        top = topk_df(cml_scores, k).select("query_id", "table_id", "rank")
        assert_equivalent(
            top,
            f"""
            SELECT query_id, table_id, rank FROM (
                SELECT query_id, table_id,
                       ROW_NUMBER() OVER (
                           PARTITION BY query_id
                           ORDER BY score DESC, table_id ASC
                       ) AS rank
                FROM scores
            ) WHERE rank <= {k}
            """,
            scores=cml_scores,
        )

    def test_nan_scores_rank_last(self, spark):
        rows = [
            ("q1", "t_nan", float("nan")),
            ("q1", "t_b", 0.5),
            ("q1", "t_a", 0.5),
            ("q1", "t_inf", float("inf")),
            ("q1", "t_low", -1.0),
            ("q2", "t_nan", float("nan")),
            ("q2", "t_a", 0.1),
        ]
        scores = spark.createDataFrame(
            pd.DataFrame(rows, columns=["query_id", "table_id", "score"])
        )
        assert ranked_topk(scores, 5) == {
            "q1": ["t_inf", "t_a", "t_b", "t_low", "t_nan"],
            "q2": ["t_a", "t_nan"],
        }
        assert ranked_topk(scores, 1) == {"q1": ["t_inf"], "q2": ["t_a"]}

    def test_ranked_topk_structure(self, cml_scores, bench):
        ranked = ranked_topk(cml_scores, bench.cfg.k)
        assert set(ranked) == {q.query_id for q in bench.queries}
        for v in ranked.values():
            assert len(v) == bench.cfg.k
            assert len(set(v)) == len(v)
