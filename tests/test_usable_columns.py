"""Every consumer of a table names the same usable columns: the ones its
``LakeTable`` marks ``finite``. Checked on generated lakes whose cells
hold NaN and ±inf at random, each with a one-column all-NaN table."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cml import CML
from repro.baselines.combos import DeepEyeLineNet, OptLineNet
from repro.baselines.qetch import QetchStar
from repro.bench.harness import FCMMethod
from repro.chartsim.extractor import extract
from repro.chartsim.renderer import render_chart
from repro.config import FCMConfig
from repro.core.data import LakeTable
from repro.core.dataset_encoder import DatasetEncoder
from repro.core.fcm import VARIANTS, make_model
from repro.index.interval_tree import build_table_interval_tree
from repro.lake.repository import embed_repository, repository_df

BAD = (np.nan, np.inf, -np.inf)


@st.composite
def lakes(draw) -> dict[str, LakeTable]:
    """1-3 tables of 1-4 columns, each column clean or with 1-3 bad
    cells, and the one-column table ``all_nan``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = {"all_nan": LakeTable("all_nan", [np.full(draw(st.integers(1, 40)), np.nan)])}
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 96))
        cols = []
        for _ in range(draw(st.integers(1, 4))):
            col = np.cumsum(rng.standard_normal(n)) + rng.uniform(-50.0, 50.0)
            for _ in range(draw(st.integers(0, 3))):
                col[rng.integers(n)] = BAD[rng.integers(len(BAD))]
            cols.append(col)
        out[f"t{i}"] = LakeTable(f"t{i}", cols)
    return out


def usable(table: LakeTable) -> np.ndarray:
    """The oracle: a column is usable iff every cell is finite."""
    return np.array([np.isfinite(c).all() for c in table.columns])


def assert_same(a, b) -> None:
    """Two encodings hold equal arrays in the same structure."""
    if isinstance(a, (list, tuple)):
        assert isinstance(b, (list, tuple)) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b)
    else:
        assert a == b


BASELINES = (CML(), QetchStar(), DeepEyeLineNet(), OptLineNet({}))
FCM = tuple(FCMMethod(make_model(FCMConfig(), v)) for v in VARIANTS)


@pytest.fixture(scope="module")
def query():
    rng = np.random.default_rng(5)
    return extract(render_chart([np.cumsum(rng.standard_normal(80))]), query_id="q")


@settings(max_examples=25, deadline=None)
@given(lake=lakes())
def test_consumers_agree_on_usable_columns(query, lake):
    before = {tid: t.columns.tobytes() for tid, t in lake.items()}
    index = build_table_interval_tree(lake)
    for i, (tid, t) in enumerate(lake.items()):
        assert np.array_equal(t.finite, usable(t))
        # the index holds exactly the usable columns' keys, in column order
        assert np.array_equal(index.lo[index.tix == i], t.key_lo[t.finite])
        assert np.array_equal(index.hi[index.tix == i], t.key_hi[t.finite])
        for cfg in (FCMConfig(), FCMConfig().without_da()):
            assert np.array_equal(DatasetEncoder(cfg).encode_table(t).packed.finite, t.finite)
        # a baseline encodes the usable columns and nothing else
        kept = LakeTable(tid, t.columns[t.finite]) if t.finite.any() else None
        for m in BASELINES:
            enc = m.encode_table(t)
            if kept is not None:
                assert_same(enc, m.encode_table(kept))
        prep = {m.name: m.prepare_query(query) for m in BASELINES + FCM}
        for m in BASELINES + FCM:
            s = m.score(prep[m.name], m.encode_table(t))
            assert np.isfinite(s), m.name
            if not t.finite.any():
                assert s == 0.0, m.name
    # no encode wrote into a table's matrix, NaN cells included
    assert {tid: t.columns.tobytes() for tid, t in lake.items()} == before


@settings(max_examples=4, deadline=None)
@given(lake=lakes())
def test_embedding_rows_are_the_usable_columns(spark, lake):
    rows = embed_repository(repository_df(spark, lake), FCMConfig()).collect()
    assert {(r["table_id"], r["col_id"]) for r in rows} == {
        (tid, int(j)) for tid, t in lake.items() for j in np.flatnonzero(t.finite)
    }
