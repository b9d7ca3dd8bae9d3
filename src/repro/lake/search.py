"""Distributed query scoring over the lake; the ranking runs on the driver.

The scan+similarity-match core: a broadcast query payload is scored with
``mapInPandas`` over the resident encoded repository
(``repro.lake.resident``), one partition per core. Every table was
encoded once per lake and method; a request unpickles each candidate
table's encoding and scores it against *all* queries, and index pruning
is a ``table_id IN (...)`` filter on the artefact. The ground truth
Rel(D, T) is scored with ``mapInPandas`` over the resident raw
repository. Both collect their ``(query_id, table_id, score)`` rows and
rank them on the driver with :func:`repro.bench.metrics.top_k`, the
ranking the local ground truth uses too, so no request shuffles. prec@k
and ndcg@k are computed on the driver from those rankings.
"""
from __future__ import annotations

import pickle
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

from repro.baselines.base import Method
from repro.bench.metrics import top_k
from repro.core.data import LakeTable
from repro.lake.repository import iter_tables
from repro.lake.resident import resident_encodings, resident_repository

SCORES_SCHEMA = StructType(
    [
        StructField("query_id", StringType(), False),
        StructField("table_id", StringType(), False),
        StructField("score", DoubleType(), False),
    ]
)


def spark_ground_truth(spark: SparkSession, bench) -> dict[str, list[str]]:
    """Ground-truth Rel(D, T) top-k per query, distributed over tables.

    Each partition of the resident repository is scored in one
    :func:`rel_scores` call, all queries against all of its tables, so the
    DTW kernel's stacks span the whole partition.
    """
    from repro.core.relevance import rel_scores

    payload = [(q.query_id, [np.asarray(d) for d in q.data]) for q in bench.queries]
    bc = spark.sparkContext.broadcast(payload)

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

    repo = resident_repository(spark, bench.repository)
    scores = repo.mapInPandas(score_partition, schema=SCORES_SCHEMA)
    return ranked_topk(scores, bench.cfg.k)


def score_with_method(
    spark: SparkSession,
    repository: dict[str, LakeTable],
    queries,
    method: Method,
    *,
    candidates: dict[str, set[str]] | None = None,
) -> DataFrame:
    """Score every (query, table) pair with ``method``.

    Tables are read already encoded from the resident artefact
    (:func:`resident_encodings`; the first call for a lake and method
    builds it), so a request only scores. ``candidates`` optionally
    restricts scoring per query (index pruning, Sec. VI-A): table_ids
    absent from a query's candidate set are skipped. Returns a DataFrame
    (query_id, table_id, score).
    """
    encoded = resident_encodings(spark, repository, method)
    if candidates is not None:
        # index pruning: only read the tables some query still needs —
        # this is where the Table VIII speedup comes from
        union = set().union(*candidates.values())
        encoded = encoded.filter(F.col("table_id").isin(sorted(union)))
    preps = [(q.query_id, method.prepare_query(q.extracted)) for q in queries]
    bc = spark.sparkContext.broadcast((method, preps, candidates))

    def score_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        mth, q_preps, cands = bc.value
        for pdf in batches:
            qids, tids, scores = [], [], []
            for tid, blob in zip(pdf["table_id"], pdf["enc"]):
                enc = pickle.loads(blob)
                for qid, prep in q_preps:
                    if cands is not None and tid not in cands.get(qid, ()):
                        continue
                    qids.append(qid)
                    tids.append(tid)
                    scores.append(float(mth.score(prep, enc)))
            yield pd.DataFrame({"query_id": qids, "table_id": tids, "score": scores})

    return encoded.mapInPandas(score_partition, schema=SCORES_SCHEMA)


def ranked_topk(scores: DataFrame, k: int) -> dict[str, list[str]]:
    """Collect every score and rank it on the driver: {query_id: [table_id, ...]}."""
    return top_k(scores.select("query_id", "table_id", "score").collect(), k)
