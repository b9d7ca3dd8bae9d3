"""Table IV benchmark: DA-variant encoding and MoE-gated matching cost."""
import numpy as np
import pytest

from repro.chartsim.extractor import extract
from repro.chartsim.renderer import render_chart
from repro.core.data import LakeTable, aggregate_series
from repro.core.matcher import match_fine


@pytest.fixture(scope="module")
def column():
    rng = np.random.default_rng(0)
    col = np.cumsum(rng.standard_normal(512))
    spikes = rng.random(512) < 0.1
    col[spikes] += rng.standard_normal(int(spikes.sum())) * 20
    return col


def test_da_column_encoding(benchmark, fcm_model, column):
    te = benchmark(fcm_model.encode_table, LakeTable("t", [column]))
    assert len(te.columns[0].variants) > 1


@pytest.mark.parametrize("op,window", [("avg", 8), ("sum", 32), ("max", 64)])
def test_moe_gated_match(benchmark, fcm_model, column, op, window):
    agg = aggregate_series(column, op, window)
    qenc = fcm_model.encode_query(extract(render_chart([agg])))
    tenc = fcm_model.encode_table(LakeTable("t", [column]))
    res = benchmark(match_fine, qenc, tenc, fcm_model.cfg.attn_tau)
    assert np.isfinite(res.features).all()
    assert len(res.inferred_ops) == 1
