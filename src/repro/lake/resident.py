"""The resident lake: the repository kept in Spark across requests.

The paper encodes the repository offline and spends query time only on
matching (Sec. VI). This module holds, per SparkSession, two persisted
RDDs of whole tables that every request reads instead of rebuilding, the
use RDDs were designed for: interactive queries over a cached working set
(Zaharia et al., *Resilient Distributed Datasets*, NSDI 2012).

* the raw repository: every ``LakeTable`` in ``defaultParallelism``
  partitions, so a request over it is one wave of one task per core. The
  driver splits the tables (:func:`balanced_partitions`): the split is
  deterministic, balanced by column count, and no table spans two
  partitions, because the slowest task sets a request's time. It is
  locally checkpointed, so its lineage ends at its own persisted blocks:
  a ``parallelize`` partition carries its data, and without the
  checkpoint every task of a stage over either artefact would ship its
  partition's raw tables again. The cost: a lost block fails the job
  instead of being recomputed, which with ``MEMORY_AND_DISK`` in local
  mode happens only if the driver dies;
* the encoded repository: ``(table_id, encode(table))`` for every table
  of the raw one, in the same partitions.

A request is one ``mapPartitions`` stage over one of them: each task
reads its partition's pickled tables straight into its Python function,
with no Arrow decode or shuffle.

The raw artefact is keyed by the session's ``applicationId`` and a
content fingerprint of the repository (:func:`repository_fingerprint`);
the encoded one also by a sha256 of the pickled ``encode``, a method's
``encode_table``: for FCM that pickles only its ``DatasetEncoder``, which
every trained head and FCM-HCMAN share. A persisted RDD is never served
for other lake contents, another encoding or another session. When a key
changes, the RDD it replaces is unpersisted: at most one raw and one
encoded artefact stay resident.
"""
from __future__ import annotations

import hashlib
import pickle
import zipimport
from typing import Callable

from pyspark import RDD, StorageLevel
from pyspark.sql import SparkSession

from repro.core.data import LakeTable

#: slot ("raw" / "encoded") -> (key, persisted RDD); the key's first
#: element is the applicationId of the session that built it.
#: Process-wide, like the one active SparkContext a process may hold.
_held: dict[str, tuple[tuple, RDD]] = {}


def repository_fingerprint(tables: dict[str, LakeTable]) -> str:
    """sha256 over the sorted tables' length-prefixed ids, shapes and column
    matrices' float64 bytes: any changed value, id or shape changes it."""
    h = hashlib.sha256()
    for tid in sorted(tables):
        table = tables[tid]
        name = table.table_id.encode()
        h.update(len(name).to_bytes(8, "little") + name)
        h.update(b"%d,%d;" % table.columns.shape)
        h.update(table.columns.astype("<f8", copy=False).tobytes())
    return h.hexdigest()


#: ``zipimporter.invalidate_caches`` as Python defines it, which
#: :func:`_no_zip_rescan` replaces in a worker
_zip_rescan = zipimport.zipimporter.invalidate_caches


def _keep_zip_directory(importer) -> None:
    """``zipimporter.invalidate_caches`` in a worker: keep the directory read."""


def _no_zip_rescan() -> None:
    """Stop this Python worker's zipimporters from re-reading their
    archives' directories on ``importlib.invalidate_caches()``.

    PySpark's ``setup_spark_files`` calls that before every task, and the
    importers of ``pyspark.zip``, the py4j zip and the spark-core jar then
    re-read their directories: about 0.2 s per task. PySpark reuses its
    workers, so after one call every later task in the worker skips it.
    Sound because an archive already on the path does not change while the
    worker lives, and a zip added later (``addPyFile``, which the program
    never calls) gets a new importer that reads its directory when made.
    Idempotent; only :func:`_shipped` functions call it, never the driver.
    """
    zipimport.zipimporter.invalidate_caches = _keep_zip_directory


def _shipped(f: Callable) -> Callable:
    """``f`` for a worker, calling :func:`_no_zip_rescan` first: the
    artefact builds, the request tasks and the embedding UDF."""

    def task(arg):
        _no_zip_rescan()
        return f(arg)

    return task


def balanced_partitions(tables: dict[str, LakeTable], n: int) -> list[list[LakeTable]]:
    """Whole tables in ``n`` groups of about equal column count: the
    widest table first (ties on ``table_id``) joins the group with the
    fewest columns so far (ties on the lowest group)."""
    groups: list[list[LakeTable]] = [[] for _ in range(n)]
    load = [0] * n
    for t in sorted(tables.values(), key=lambda t: (-t.n_cols, t.table_id)):
        i = load.index(min(load))
        groups[i].append(t)
        load[i] += t.n_cols
    return groups


def _resident(spark: SparkSession, slot: str, key: tuple, build: Callable[[], RDD]) -> RDD:
    """The RDD held in ``slot`` under ``key``; on a miss, the old one is
    unpersisted and ``build()`` is persisted and materialised. An evicted
    partition spills to disk rather than being recomputed, which for the
    encoded artefact would re-run ``encode_table``."""
    key = (spark.sparkContext.applicationId, *key)
    held = _held.get(slot)
    if held is not None and held[0] == key:
        return held[1]
    if held is not None and held[0][0] == key[0]:  # a stopped session already dropped its cache
        held[1].unpersist()
    _held.pop(slot, None)
    rdd = build().persist(StorageLevel.MEMORY_AND_DISK)
    rdd.count()
    _held[slot] = (key, rdd)
    return rdd


def resident_repository(spark: SparkSession, tables: dict[str, LakeTable]) -> RDD:
    """The persisted ``LakeTable`` RDD, one partition per core."""
    sc = spark.sparkContext
    n = sc.defaultParallelism

    def build() -> RDD:
        # one group per slice: parallelize never splits a group
        rdd = sc.parallelize(balanced_partitions(tables, n), n).flatMap(_shipped(lambda group: group))
        rdd.localCheckpoint()
        return rdd

    return _resident(spark, "raw", (repository_fingerprint(tables),), build)


def resident_encodings(spark: SparkSession, tables: dict[str, LakeTable], encode: Callable) -> RDD:
    """The persisted ``(table_id, encoding)`` RDD: every table encoded once
    by ``encode`` (the offline step of Sec. VI)."""
    encode_key = hashlib.sha256(pickle.dumps(encode)).hexdigest()
    return _resident(
        spark, "encoded", (repository_fingerprint(tables), encode_key),
        lambda: resident_repository(spark, tables).map(_shipped(lambda t: (t.table_id, encode(t)))),
    )
