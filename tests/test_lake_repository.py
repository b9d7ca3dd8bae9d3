"""Spark tests for repro.lake.repository, oracle-checked against DuckDB."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.config import FCMConfig
from repro.core.data import LakeTable, interval_hulls
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
        """The interval-tree keys (``interval_hulls``) == DuckDB's
        LEAST(MIN, SUM) / GREATEST(MAX, SUM) over exploded rows."""
        hulls, exploded = [], []
        for tid, t in tables.items():
            lo, hi = interval_hulls(np.vstack(t.columns))
            for ci, col in enumerate(t.columns):
                hulls.append({"table_id": tid, "col_id": ci, "lo": lo[ci], "hi": hi[ci]})
                for v in col:
                    exploded.append({"table_id": tid, "col_id": ci, "v": float(v)})
        cells = pd.DataFrame(exploded)
        assert_equivalent(
            spark.createDataFrame(pd.DataFrame(hulls)),
            """
            SELECT table_id, col_id,
                   LEAST(MIN(v), SUM(v))    AS lo,
                   GREATEST(MAX(v), SUM(v)) AS hi
            FROM cells GROUP BY table_id, col_id
            """,
            cells=cells,
        )


class TestEmbedRepository:
    def test_embeddings_match_local_encoder(self, spark, repo, tables):
        cfg = FCMConfig()
        emb = embed_repository(repo, cfg).toPandas()
        assert len(emb) == repo.count()
        from repro.core.dataset_encoder import DatasetEncoder

        enc = DatasetEncoder(cfg.without_da())
        row = emb[(emb.table_id == "t0") & (emb.col_id == 0)].iloc[0]
        want = enc.encode_column(tables["t0"].columns[0], 0).mean_emb
        np.testing.assert_allclose(np.asarray(row["emb"]), want, rtol=1e-9)

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
