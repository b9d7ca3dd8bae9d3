"""The data lake as Spark DataFrames.

The repository lives in long format — one row per column:
``(table_id, col_id, values ARRAY<DOUBLE>)``. Column embeddings for the
LSH index are precomputed with ``applyInPandas`` (the distributed-dataflow
core of this reproduction): the rows are grouped by ``table_id`` and each
table is one stacked no-DA ``encode_table`` pass, which emits each finite
column's mean segment embedding. A column its ``LakeTable`` marks
unusable (a NaN or ±inf value) gets no row, so it never enters the
index. The interval keys are not computed here; the driver's interval
index reads the ones each ``LakeTable`` made.

Also provides TPC-H-lite derived chartable tables (daily order/lineitem
aggregates via Spark SQL) that join the repository as realistic
distractors, tying the benchmark to ``repro.synth_data``.
"""
from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import (
    ArrayType,
    DoubleType,
    IntegerType,
    StringType,
    StructField,
    StructType,
)

from repro.core.data import LakeTable
from repro.lake.resident import _shipped

COLUMNS_SCHEMA = StructType(
    [
        StructField("table_id", StringType(), False),
        StructField("col_id", IntegerType(), False),
        StructField("values", ArrayType(DoubleType()), False),
    ]
)

EMBED_SCHEMA = StructType(
    [
        StructField("table_id", StringType(), False),
        StructField("col_id", IntegerType(), False),
        StructField("emb", ArrayType(DoubleType()), False),
    ]
)


def tables_to_pdf(tables: dict[str, LakeTable] | Iterable[LakeTable]) -> pd.DataFrame:
    """Long-format pandas frame of a table collection."""
    if isinstance(tables, dict):
        tables = tables.values()
    rows = []
    for t in tables:
        for i, c in enumerate(t.columns):
            rows.append({"table_id": t.table_id, "col_id": i, "values": list(map(float, c))})
    return pd.DataFrame(rows, columns=["table_id", "col_id", "values"])


def repository_df(spark: SparkSession, tables: dict[str, LakeTable] | Iterable[LakeTable]) -> DataFrame:
    """The repository as a Spark DataFrame (long format)."""
    pdf = tables_to_pdf(tables)
    return spark.createDataFrame(pdf, schema=COLUMNS_SCHEMA)


def iter_tables(pdf: pd.DataFrame) -> Iterator[LakeTable]:
    """Group a long-format pandas slice back into LakeTables (UDF helper)."""
    for tid, grp in pdf.groupby("table_id", sort=False):
        yield LakeTable(str(tid), list(grp.sort_values("col_id")["values"]))


def embed_repository(spark_df: DataFrame, fcm_cfg) -> DataFrame:
    """Distributed column-embedding job (``applyInPandas`` per table).

    Emits one row per finite column with its column-level embedding: the
    mean of its no-DA identity segment embeddings (Sec. VI-A LSH
    indexing). Each table is one stacked ``encode_table`` pass over all
    its columns, however the input is partitioned, so a vector is exactly
    the one ``encode_table`` gives that column of the whole table.
    """
    from repro.core.dataset_encoder import DatasetEncoder

    enc = DatasetEncoder(fcm_cfg.without_da())

    def run(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("col_id")
        (t,) = iter_tables(pdf)
        te = enc.encode_table(t)
        ok = te.packed.finite
        return pd.DataFrame(
            {
                "table_id": pdf["table_id"][ok],
                "col_id": pdf["col_id"][ok],
                # object dtype even with no row to infer it from
                "emb": pd.Series([c.mean_emb.tolist() for c in te.finite_columns], pdf.index[ok], object),
            }
        )

    return spark_df.groupBy("table_id").applyInPandas(_shipped(run), schema=EMBED_SCHEMA)


# --------------------------------------------------------------------------
# TPC-H-lite derived chartable tables
# --------------------------------------------------------------------------
TPCH_DAILY_SQL = """
    SELECT l_shipdate AS day,
           SUM(l_quantity)       AS qty,
           SUM(l_extendedprice)  AS revenue,
           AVG(l_discount)       AS avg_discount
    FROM lineitem
    GROUP BY l_shipdate
    ORDER BY day
"""

ORDERS_DAILY_SQL = """
    SELECT o_orderdate AS day,
           SUM(o_totalprice) AS total,
           COUNT(*) * 1.0    AS n_orders
    FROM orders
    GROUP BY o_orderdate
    ORDER BY day
"""


def tpch_daily_df(spark: SparkSession, lineitem_df: DataFrame) -> DataFrame:
    lineitem_df.createOrReplaceTempView("lineitem")
    return spark.sql(TPCH_DAILY_SQL)


def orders_daily_df(spark: SparkSession, orders_df: DataFrame) -> DataFrame:
    orders_df.createOrReplaceTempView("orders")
    return spark.sql(ORDERS_DAILY_SQL)


def tpch_derived_tables(spark: SparkSession, *, sf: float = 0.001, seed: int = 0) -> dict[str, LakeTable]:
    """Chartable tables derived from TPC-H-lite via Spark SQL aggregates.

    They join the repository as realistic business-series distractors.
    """
    from repro import synth_data

    li = synth_data.lineitem(spark, sf=sf, seed=seed)
    od = synth_data.orders(spark, sf=sf, seed=seed + 1)
    daily = tpch_daily_df(spark, li).toPandas()
    odaily = orders_daily_df(spark, od).toPandas()
    out = {}
    out["tpch_lineitem_daily"] = LakeTable(
        "tpch_lineitem_daily",
        [
            daily["qty"].to_numpy(dtype=np.float64),
            daily["revenue"].to_numpy(dtype=np.float64),
            daily["avg_discount"].to_numpy(dtype=np.float64),
        ],
    )
    out["tpch_orders_daily"] = LakeTable(
        "tpch_orders_daily",
        [
            odaily["total"].to_numpy(dtype=np.float64),
            odaily["n_orders"].to_numpy(dtype=np.float64),
        ],
    )
    return out
