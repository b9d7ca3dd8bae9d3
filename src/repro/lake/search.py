"""Distributed query scoring over the lake; the ranking runs on the driver.

The scan+similarity-match core. A request is one ``mapPartitions`` stage
over a resident RDD of whole tables (``repro.lake.resident``), one task
per core, whose payload (queries, method, candidate sets) travels as one
broadcast that is destroyed once the rows are collected.
:func:`score_with_method` reads each table's encoding, made once per lake
and method, and scores it against *all* queries, skipping the pairs index
pruning left out. :func:`spark_ground_truth` scores Rel(D, T) over the
raw tables. Both collect their ``(query_id, table_id, score)`` rows and
rank them on the driver with :func:`repro.bench.metrics.top_k`, the
ranking the local ground truth uses too, so no request shuffles. prec@k
and ndcg@k are computed on the driver from those rankings.
"""
from __future__ import annotations

from itertools import repeat

import numpy as np
import pyarrow as pa
from pyspark import RDD
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import (
    DoubleType,
    StringType,
    StructField,
    StructType,
)

from repro.baselines.base import Method
from repro.bench.metrics import top_k
from repro.core.data import LakeTable
from repro.lake.resident import _shipped, resident_encodings, resident_repository

SCORES_SCHEMA = StructType(
    [
        StructField("query_id", StringType(), False),
        StructField("table_id", StringType(), False),
        StructField("score", DoubleType(), False),
    ]
)


def _collect(spark: SparkSession, artefact: RDD, score_partition, payload) -> list[tuple]:
    """``score_partition(payload, partition)`` over every partition of a
    resident artefact, collected.

    The payload is one broadcast, destroyed once the rows are in, so a
    request leaves no file in the driver's temp directory whatever its
    size. A payload in the task closure would leak above
    ``spark.broadcast.UDFCompressionThreshold`` (1 MB), where PySpark
    broadcasts the task itself and never destroys it. Each task is
    :func:`_shipped`, so its worker's later tasks start sooner.
    """
    bc = spark.sparkContext.broadcast(payload)
    try:
        return artefact.mapPartitions(_shipped(lambda part: score_partition(bc.value, part))).collect()
    finally:
        bc.destroy()


def _rel_rows(payload, tables):
    from repro.core.relevance import rel_scores

    qids, datas = payload
    tables = list(tables)
    if not tables:
        return
    tids = [t.table_id for t in tables]
    for qid, row in zip(qids, rel_scores(datas, tables).tolist()):
        yield from zip(repeat(qid), tids, row)


def _method_rows(payload, encodings):
    method, preps, candidates = payload
    for tid, enc in encodings:
        for qid, prep in preps:
            if candidates is None or tid in candidates.get(qid, ()):
                yield qid, tid, float(method.score(prep, enc))


def spark_ground_truth(spark: SparkSession, bench) -> dict[str, list[str]]:
    """Ground-truth Rel(D, T) top-k per query, distributed over tables.

    Each partition of the resident repository is scored in one
    :func:`rel_scores` call, all queries against all of its tables, so the
    DTW kernel's stacks span the whole partition.
    """
    payload = (
        [q.query_id for q in bench.queries],
        [[np.asarray(d) for d in q.data] for q in bench.queries],
    )
    repo = resident_repository(spark, bench.repository)
    return top_k(_collect(spark, repo, _rel_rows, payload), bench.cfg.k)


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
    restricts scoring per query (index pruning, Sec. VI-A): a pair whose
    table_id is absent from its query's candidate set is not scored.
    Returns the collected rows as a DataFrame (query_id, table_id, score)
    made through Arrow, so reading it starts no Python worker.
    """
    encoded = resident_encodings(spark, repository, method)
    preps = [(q.query_id, method.prepare_query(q.extracted)) for q in queries]
    rows = _collect(spark, encoded, _method_rows, (method, preps, candidates))
    columns = zip(*rows) if rows else ([], [], [])
    return spark.createDataFrame(pa.table(dict(zip(SCORES_SCHEMA.names, columns))), SCORES_SCHEMA)


def ranked_topk(scores: DataFrame, k: int) -> dict[str, list[str]]:
    """Collect every score and rank it on the driver: {query_id: [table_id, ...]}."""
    return top_k(scores.select("query_id", "table_id", "score").collect(), k)
