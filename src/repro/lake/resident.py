"""The resident lake: the repository kept in Spark across requests.

The paper encodes the repository offline and spends query time only on
matching (Sec. VI). This module holds, per SparkSession, two persisted
DataFrames that every request reads instead of rebuilding:

* the raw repository, long format ``(table_id, col_id, values)``,
  range-partitioned on ``table_id`` into ``defaultParallelism``
  partitions, so a request over it is one wave of one task per core.
  Range bounds split the rows (columns) about evenly; hashing 48 tables
  into 4 partitions gave 20, 63, 101 and 119 columns, and the slowest
  task sets a request's time;
* the encoded repository ``(table_id, enc BINARY)``: each table's
  pickled ``method.encode_table`` output, built from the raw one with
  ``mapInPandas`` and materialised once.

The raw artefact is keyed by the session's ``applicationId`` and a
content fingerprint of the repository (:func:`repository_fingerprint`);
the encoded one also by a sha256 of the pickled method, so a retrained
head or another method re-encodes. A persisted DataFrame is therefore
never served for other lake contents, another method or another session.
When a key changes, the DataFrame it replaces is unpersisted: at most one
raw and one encoded artefact stay resident.
"""
from __future__ import annotations

import hashlib
import pickle
from typing import Callable, Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import BinaryType, StringType, StructField, StructType

from repro.core.data import LakeTable
from repro.lake.repository import iter_tables, repository_df

ENCODED_SCHEMA = StructType(
    [
        StructField("table_id", StringType(), False),
        StructField("enc", BinaryType(), False),
    ]
)

#: slot ("raw" / "encoded") -> (key, persisted DataFrame); the key's
#: first element is the applicationId of the session that built it.
#: Process-wide, like the one active SparkContext a process may hold.
_held: dict[str, tuple[tuple, DataFrame]] = {}


def repository_fingerprint(tables: dict[str, LakeTable]) -> str:
    """sha256 over the sorted table ids and the float64 bytes of every
    column, each length-prefixed, so any changed value changes it."""
    h = hashlib.sha256()
    for tid in sorted(tables):
        table = tables[tid]
        name = table.table_id.encode()
        h.update(len(name).to_bytes(8, "little") + name)
        h.update(len(table.columns).to_bytes(8, "little"))
        for c in table.columns:
            h.update(c.size.to_bytes(8, "little"))
            h.update(c.astype("<f8", copy=False).tobytes())
    return h.hexdigest()


def _resident(spark: SparkSession, slot: str, key: tuple, build: Callable[[], DataFrame]) -> DataFrame:
    """The DataFrame held in ``slot`` under ``key``; on a miss, the old one
    is unpersisted and ``build()`` is persisted and materialised."""
    key = (spark.sparkContext.applicationId, *key)
    held = _held.get(slot)
    if held is not None and held[0] == key:
        return held[1]
    if held is not None and held[0][0] == key[0]:  # a stopped session already dropped its cache
        held[1].unpersist()
    _held.pop(slot, None)
    df = build().persist()
    df.count()
    _held[slot] = (key, df)
    return df


def resident_repository(spark: SparkSession, tables: dict[str, LakeTable]) -> DataFrame:
    """The persisted long-format repository, one partition per core."""
    return _resident(
        spark, "raw", (repository_fingerprint(tables),),
        lambda: repository_df(spark, tables).repartitionByRange(
            spark.sparkContext.defaultParallelism, "table_id"
        ),
    )


def resident_encodings(spark: SparkSession, tables: dict[str, LakeTable], method) -> DataFrame:
    """The persisted ``(table_id, enc)`` artefact: every table encoded once
    by ``method.encode_table`` and pickled (the offline step of Sec. VI)."""
    fingerprint = repository_fingerprint(tables)
    method_key = hashlib.sha256(pickle.dumps(method)).hexdigest()

    def encode_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        # a table's columns may span Arrow batches, never partitions
        pdfs = list(batches)
        if not pdfs:
            return
        part = list(iter_tables(pd.concat(pdfs)))
        yield pd.DataFrame(
            {
                "table_id": [t.table_id for t in part],
                "enc": [pickle.dumps(method.encode_table(t)) for t in part],
            }
        )

    return _resident(
        spark, "encoded", (fingerprint, method_key),
        lambda: resident_repository(spark, tables).mapInPandas(
            encode_partition, schema=ENCODED_SCHEMA
        ),
    )
