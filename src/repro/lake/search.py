"""Distributed query scoring and ranking over the lake.

The scan+similarity-match core: a broadcast query payload is scored
against every repository table with ``applyInPandas`` grouped by
``table_id`` (each table is encoded once and scored against *all*
queries), and top-k is a Spark SQL window function whose ranking the
DuckDB oracle cross-checks in tests. The ground truth Rel(D, T) is
scored the same way with ``mapInPandas`` per ``table_id`` partition.
prec@k and ndcg@k are computed on the driver from the collected
rankings (``repro.bench.metrics``).
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import (
    DoubleType,
    StringType,
    StructField,
    StructType,
)
from pyspark.sql.window import Window

from repro.baselines.base import Method
from repro.lake.repository import iter_tables, repository_df

SCORES_SCHEMA = StructType(
    [
        StructField("query_id", StringType(), False),
        StructField("table_id", StringType(), False),
        StructField("score", DoubleType(), False),
    ]
)


def spark_ground_truth(spark: SparkSession, bench) -> dict[str, list[str]]:
    """Ground-truth Rel(D, T) top-k per query, distributed over tables.

    Each partition of the ``table_id``-partitioned repository is scored in
    one :func:`rel_scores` call, all queries against all of its tables, so
    the DTW kernel's stacks span the whole partition.
    """
    from repro.core.relevance import rel_scores

    payload = [(q.query_id, [np.asarray(d) for d in q.data]) for q in bench.queries]
    bc = spark.sparkContext.broadcast(payload)
    repo = repository_df(spark, bench.repository).repartition(
        max(spark.sparkContext.defaultParallelism * 2, 8), "table_id"
    )

    def score_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        # a table's columns may span Arrow batches, never partitions
        pdfs = list(batches)
        tables = list(iter_tables(pd.concat(pdfs))) if pdfs else []
        if not tables:
            return
        qids = [qid for qid, _ in bc.value]
        rel = rel_scores([data for _, data in bc.value], tables)
        yield pd.DataFrame(
            {
                "query_id": np.repeat(qids, len(tables)),
                "table_id": [t.table_id for t in tables] * len(qids),
                "score": rel.ravel(),
            }
        )

    scores = repo.mapInPandas(score_partition, schema=SCORES_SCHEMA)
    return ranked_topk(scores, bench.cfg.k)


def score_with_method(
    spark: SparkSession,
    repository,
    queries,
    method: Method,
    *,
    candidates: dict[str, set[str]] | None = None,
    repo_df: DataFrame | None = None,
) -> DataFrame:
    """Score every (query, table) pair with ``method``.

    ``candidates`` optionally restricts scoring per query (index pruning,
    Sec. VI-A): table_ids absent from a query's candidate set are skipped.
    Returns a DataFrame (query_id, table_id, score).
    """
    preps = [(q.query_id, method.prepare_query(q.extracted)) for q in queries]
    bc = spark.sparkContext.broadcast((method, preps, candidates))
    if repo_df is None:
        if candidates is not None:
            # index pruning: only ship tables some query still needs —
            # this is where the Table VIII speedup comes from
            union = set().union(*candidates.values()) if candidates else set()
            repository = {
                tid: t for tid, t in dict(repository).items() if tid in union
            }
        repo_df = repository_df(spark, repository)
    repo_df = repo_df.repartition(
        max(spark.sparkContext.defaultParallelism * 2, 8), "table_id"
    )

    def score_group(pdf: pd.DataFrame) -> pd.DataFrame:
        mth, q_preps, cands = bc.value
        rows = []
        for table in iter_tables(pdf):
            enc = None
            for qid, prep in q_preps:
                if cands is not None and table.table_id not in cands.get(qid, ()):
                    continue
                if enc is None:
                    enc = mth.encode_table(table)
                rows.append(
                    {
                        "query_id": qid,
                        "table_id": table.table_id,
                        "score": float(mth.score(prep, enc)),
                    }
                )
        return pd.DataFrame(rows, columns=["query_id", "table_id", "score"])

    return repo_df.groupBy("table_id").applyInPandas(score_group, schema=SCORES_SCHEMA)


def topk_df(scores: DataFrame, k: int) -> DataFrame:
    """Top-k rows per query by score (deterministic tie-break on id).

    A NaN score ranks below every number: Spark orders NaN above +inf, so
    ``desc("score")`` alone would put a NaN-scored table first for every
    query.
    """
    w = Window.partitionBy("query_id").orderBy(
        F.isnan("score").asc(), F.desc("score"), F.asc("table_id")
    )
    return (
        scores.withColumn("rank", F.row_number().over(w))
        .filter(F.col("rank") <= k)
    )


def ranked_topk(scores: DataFrame, k: int) -> dict[str, list[str]]:
    """Collect the top-k ranking per query as {query_id: [table_id, ...]}."""
    rows = topk_df(scores, k).select("query_id", "table_id", "rank").collect()
    out: dict[str, list[tuple[int, str]]] = {}
    for r in rows:
        out.setdefault(r["query_id"], []).append((r["rank"], r["table_id"]))
    return {q: [t for _, t in sorted(v)] for q, v in out.items()}
