"""Spark tests for repro.lake.repository, oracle-checked against DuckDB."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.config import FCMConfig
from repro.core.data import LakeTable, interval_keys
from repro.core.dataset_encoder import DatasetEncoder
from repro.lake.repository import (
    ORDERS_DAILY_SQL,
    TPCH_DAILY_SQL,
    embed_repository,
    iter_tables,
    orders_daily_df,
    repository_df,
    tables_to_pdf,
    tpch_daily_df,
    tpch_derived_tables,
)
from tests.oracle import assert_equivalent
from repro import synth_data


@pytest.fixture(scope="module")
def tables():
    rng = np.random.default_rng(0)
    return {
        f"t{i}": LakeTable(f"t{i}", [rng.uniform(-10, 10) + rng.random(40) for _ in range(2 + i % 3)])
        for i in range(6)
    }


@pytest.fixture(scope="module")
def repo(spark, tables):
    return repository_df(spark, tables).cache()


class TestRepositoryDF:
    def test_row_count(self, repo, tables):
        want = sum(t.n_cols for t in tables.values())
        assert repo.count() == want

    def test_round_trip_iter_tables(self, repo, tables):
        pdf = repo.toPandas()
        back = {t.table_id: t for t in iter_tables(pdf)}
        assert set(back) == set(tables)
        for tid, t in tables.items():
            np.testing.assert_allclose(back[tid].columns[0], t.columns[0])

    def test_interval_df_hull_vs_oracle(self, spark, tables):
        """The interval keys (``interval_keys``) == DuckDB's least and
        greatest run sum over the exploded cells: a running ``SUM`` gives
        the prefix sums, and a running ``MIN``/``MAX`` over the earlier
        ones (with the empty prefix, 0) gives each run's best start."""
        keys, exploded = [], []
        for tid, t in tables.items():
            lo, hi = interval_keys(np.vstack(t.columns))
            for ci, col in enumerate(t.columns):
                keys.append({"table_id": tid, "col_id": ci, "lo": lo[ci], "hi": hi[ci]})
                for i, v in enumerate(col):
                    exploded.append({"table_id": tid, "col_id": ci, "i": i, "v": float(v)})
        cells = pd.DataFrame(exploded)
        assert_equivalent(
            spark.createDataFrame(pd.DataFrame(keys)),
            """
            WITH prefix AS (
                SELECT table_id, col_id, i,
                       SUM(v) OVER (PARTITION BY table_id, col_id ORDER BY i) AS c
                FROM cells
            ), runs AS (
                SELECT table_id, col_id, c,
                       LEAST(0, COALESCE(MIN(c) OVER earlier, 0))    AS c_min,
                       GREATEST(0, COALESCE(MAX(c) OVER earlier, 0)) AS c_max
                FROM prefix
                WINDOW earlier AS (
                    PARTITION BY table_id, col_id ORDER BY i
                    ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                )
            )
            SELECT table_id, col_id, MIN(c - c_max) AS lo, MAX(c - c_min) AS hi
            FROM runs GROUP BY table_id, col_id
            """,
            cells=cells,
        )


class TestEmbedRepository:
    def test_embeddings_match_local_encoder(self, spark, repo, tables):
        """Every column's vector is bit-identical to the no-DA table encode,
        with the columns of each table spread over partitions."""
        cfg = FCMConfig()
        spread = repo.repartition(3, "col_id")
        parts = spread.select("table_id", F.spark_partition_id().alias("p")).toPandas()
        assert parts.groupby("table_id")["p"].nunique().max() > 1
        emb = embed_repository(spread, cfg).toPandas()
        assert len(emb) == repo.count()
        got = {(r.table_id, r.col_id): np.asarray(r.emb) for r in emb.itertuples()}
        enc = DatasetEncoder(cfg.without_da())
        for tid, t in tables.items():
            for c in enc.encode_table(t).columns:
                assert np.array_equal(got[(tid, c.col_id)], c.mean_emb)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_column_gets_no_row(self, spark, bad):
        """A NaN / ±inf column would hash an all-zero vector into a real
        LSH bucket; it is left out, the table's other columns are not."""
        rng = np.random.default_rng(3)
        cols = [rng.random(40) for _ in range(3)]
        cols[1][7] = bad
        df = repository_df(spark, [LakeTable("t", cols), LakeTable("u", [rng.random(40)])])
        keys = {(r["table_id"], r["col_id"]) for r in embed_repository(df, FCMConfig()).collect()}
        assert keys == {("t", 0), ("t", 2), ("u", 0)}

    def test_embedding_dim(self, repo):
        cfg = FCMConfig(k=16)
        emb = embed_repository(repo, cfg)
        first = emb.first()
        assert len(first["emb"]) == 16


class TestTPCHDerived:
    def test_daily_aggregates_vs_oracle(self, spark):
        li = synth_data.lineitem(spark, sf=0.001, seed=0)
        daily = tpch_daily_df(spark, li)
        assert_equivalent(daily, TPCH_DAILY_SQL, lineitem=li)

    def test_orders_daily_vs_oracle(self, spark):
        od = synth_data.orders(spark, sf=0.001, seed=1)
        daily = orders_daily_df(spark, od)
        assert_equivalent(daily, ORDERS_DAILY_SQL, orders=od)

    def test_derived_tables_chartable(self, spark):
        out = tpch_derived_tables(spark, sf=0.001)
        assert set(out) == {"tpch_lineitem_daily", "tpch_orders_daily"}
        for t in out.values():
            assert t.n_rows > 50
            assert all(np.isfinite(c).all() for c in t.columns)


class TestTablesToPdf:
    def test_accepts_list_and_dict(self, tables):
        a = tables_to_pdf(tables)
        b = tables_to_pdf(list(tables.values()))
        assert len(a) == len(b)
