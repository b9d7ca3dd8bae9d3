"""Tests for repro.index.hybrid (interval tree ∩ LSH, Sec. VI-A)."""
import numpy as np
import pytest

from repro.bench.benchmark import build_benchmark
from repro.config import BenchmarkConfig, tiny_benchmark_config
from repro.core.data import LakeTable, pad_query_range
from repro.core.dataset_encoder import DatasetEncoder
from repro.core.fcm import make_model
from repro.core.matcher import filter_columns
from repro.index.hybrid import (
    LSH_BITS,
    LSH_TABLES,
    STRATEGIES,
    build_hybrid_index,
    query_line_embeddings,
)
from repro.index.interval_tree import build_table_interval_tree, interval_tree_candidates

#: the Table VIII job's index: its LSH shape and the bench config's seed
INDEX = dict(n_bits=LSH_BITS, n_tables=LSH_TABLES, seed=BenchmarkConfig().seed)


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(0)
    model = make_model()
    tables = {}
    for i in range(15):
        base = rng.uniform(-200, 200)
        cols = [base + np.cumsum(rng.standard_normal(128)) * 3 for _ in range(2)]
        tables[f"t{i}"] = LakeTable(f"t{i}", cols)
    # the vectors embed_repository emits and the Table VIII job indexes:
    # each finite column's mean no-DA identity segment embedding
    enc = DatasetEncoder(model.cfg.without_da())
    embs = {
        (tid, c.col_id): c.mean_emb
        for tid, t in tables.items()
        for c in enc.encode_table(t).finite_columns
    }
    idx = build_hybrid_index(tables, embs, **INDEX)
    return model, tables, idx


def _query_inputs(model, table):
    from repro.chartsim.extractor import extract
    from repro.chartsim.renderer import render_chart
    from repro.chartsim.spec import VisSpec, underlying_data

    eq = extract(render_chart(underlying_data(table, VisSpec(y_cols=(0,)))))
    qenc = model.encode_query(eq)
    return qenc.y_range, query_line_embeddings(model, qenc)


class TestHybridIndex:
    def test_none_returns_everything(self, world):
        model, tables, idx = world
        yr, le = _query_inputs(model, tables["t0"])
        assert idx.candidates("none", y_range=yr, line_embs=le) == set(tables)

    def test_strategies_nested(self, world):
        """hybrid ⊆ interval and hybrid ⊆ lsh ⊆ all."""
        model, tables, idx = world
        yr, le = _query_inputs(model, tables["t3"])
        s_int = idx.candidates("interval", y_range=yr, line_embs=le)
        s_lsh = idx.candidates("lsh", y_range=yr, line_embs=le)
        s_hyb = idx.candidates("hybrid", y_range=yr, line_embs=le)
        assert s_hyb <= s_int
        assert s_hyb <= s_lsh
        assert s_int <= set(tables)

    def test_interval_never_prunes_source(self, world):
        model, tables, idx = world
        for tid in ("t0", "t5", "t9"):
            yr, le = _query_inputs(model, tables[tid])
            assert tid in idx.candidates("interval", y_range=yr, line_embs=le)

    def test_interval_prunes_something(self, world):
        # tables are spread over [-200, 200]: a narrow query range prunes
        model, tables, idx = world
        yr, le = _query_inputs(model, tables["t0"])
        cands = idx.candidates("interval", y_range=yr, line_embs=le)
        assert len(cands) < len(tables)

    def test_unknown_strategy_raises(self, world):
        model, tables, idx = world
        yr, le = _query_inputs(model, tables["t0"])
        with pytest.raises(ValueError):
            idx.candidates("bogus", y_range=yr, line_embs=le)

    def test_build_times_recorded(self, world):
        _, _, idx = world
        assert set(idx.build_seconds) == {"interval", "lsh"}
        assert all(v >= 0 for v in idx.build_seconds.values())

    def test_empty_embeddings_raise(self, world):
        _, tables, _ = world
        with pytest.raises(ValueError):
            build_hybrid_index(tables, {}, **INDEX)

    def test_all_strategies_enumerable(self):
        assert STRATEGIES == ("none", "interval", "lsh", "hybrid")


def test_tree_probe_and_column_filter_share_one_range():
    """Table VIII's interval == scan rests on this: on the tiny lake, a
    table is a tree candidate exactly when some finite column's interval
    overlaps the padded query range, and the matcher then keeps exactly
    those columns."""
    bench = build_benchmark(tiny_benchmark_config())
    model = make_model(bench.cfg.fcm)
    tree = build_table_interval_tree(bench.repository)
    encs = {tid: model.encode_table(t) for tid, t in bench.repository.items()}
    n_partial = 0
    for q in bench.queries:
        qe = model.encode_query(q.extracted)
        lo, hi = pad_query_range(qe.y_range)
        probed = interval_tree_candidates(tree, qe.y_range)
        for tid, te in encs.items():
            overlap = [
                c.col_id for c in te.finite_columns if c.interval[0] <= hi and c.interval[1] >= lo
            ]
            assert (tid in probed) == bool(overlap), (q.query_id, tid)
            if overlap:
                assert [c.col_id for c in filter_columns(qe, te)] == overlap, (q.query_id, tid)
                n_partial += len(overlap) < te.n_cols
    assert n_partial  # the filter dropped a column somewhere
