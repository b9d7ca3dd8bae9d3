"""Tests for repro.core.fcm (the assembled model and its variants)."""
import pickle

import numpy as np
import pytest

from repro.bench.harness import FCMMethod
from repro.chartsim.extractor import extract
from repro.chartsim.renderer import render_chart
from repro.chartsim.spec import VisSpec, underlying_data
from repro.config import FCMConfig
from repro.core.data import LakeTable
from repro.core.fcm import VARIANTS, FCMModel, make_model
from tests.test_baselines import score_raw


def infer_operator(model: FCMModel, query, table_enc) -> str:
    """Most likely aggregation operator per the MoE gate: a majority vote
    over the matched lines, ``"id"`` when no line is matched."""
    res = model.match(query, table_enc)
    if not res.inferred_ops:
        return "id"
    ops, counts = np.unique(res.inferred_ops, return_counts=True)
    return str(ops[np.argmax(counts)])


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def tables(rng):
    def walk(base):
        return base + np.cumsum(rng.standard_normal(256)) * 4

    return {
        "a": LakeTable("a", [walk(100), walk(40), walk(-30)]),
        "b": LakeTable("b", [walk(100), walk(0)]),
        "c": LakeTable("c", [walk(-100)]),
    }


def _query(table, spec):
    return extract(render_chart(underlying_data(table, spec)), query_id="q")


class TestConstruction:
    def test_variants(self):
        for v in VARIANTS:
            assert make_model(variant=v).variant == v

    def test_unknown_variant_raises(self):
        with pytest.raises(ValueError):
            FCMModel(cfg=FCMConfig(), variant="bogus")

    def test_no_da_variant_disables_da(self):
        m = make_model(variant="no_da")
        assert m.cfg.da_enabled is False

    def test_default_heads_installed(self):
        assert make_model(variant="full").head is not None
        assert make_model(variant="no_hcman").head is not None

    def test_picklable(self, tables):
        m = make_model()
        m2 = pickle.loads(pickle.dumps(m))
        q = _query(tables["a"], VisSpec(y_cols=(0,)))
        s1 = score_raw(FCMMethod(m), q, tables["a"])
        s2 = score_raw(FCMMethod(m2), q, tables["a"])
        assert s1 == pytest.approx(s2)


class TestScoring:
    def test_score_in_unit_interval(self, tables):
        m = make_model()
        q = _query(tables["a"], VisSpec(y_cols=(0, 1)))
        s = score_raw(FCMMethod(m), q, tables["b"])
        assert 0.0 < s < 1.0

    def test_source_table_wins(self, tables):
        m = make_model()
        q = _query(tables["a"], VisSpec(y_cols=(0, 1)))
        qe = m.encode_query(q)
        scores = {tid: m.score(qe, m.encode_table(t)) for tid, t in tables.items()}
        assert max(scores, key=scores.get) == "a"

    def test_da_query_still_finds_source(self, tables):
        m = make_model()
        q = _query(tables["a"], VisSpec(y_cols=(0,), agg_op="avg", window=8))
        qe = m.encode_query(q)
        scores = {tid: m.score(qe, m.encode_table(t)) for tid, t in tables.items()}
        assert max(scores, key=scores.get) == "a"

    def test_deterministic(self, tables):
        m = make_model()
        q = _query(tables["a"], VisSpec(y_cols=(0,)))
        assert score_raw(FCMMethod(m), q, tables["b"]) == pytest.approx(
            score_raw(FCMMethod(m), q, tables["b"])
        )

    def test_all_variants_score(self, tables):
        q = _query(tables["a"], VisSpec(y_cols=(0,)))
        for v in VARIANTS:
            m = make_model(variant=v)
            s = score_raw(FCMMethod(m), q, tables["a"])
            assert 0.0 < s < 1.0


class TestOperatorInference:
    @pytest.mark.parametrize("op,window", [("avg", 8), ("max", 8), ("min", 16)])
    def test_inference_not_id_on_spiky(self, rng, op, window):
        col = np.cumsum(rng.standard_normal(512))
        spikes = rng.random(512) < 0.1
        col[spikes] += rng.standard_normal(int(spikes.sum())) * 25
        t = LakeTable("t", [col])
        m = make_model()
        q = _query(t, VisSpec(y_cols=(0,), agg_op=op, window=window))
        inferred = infer_operator(m, m.encode_query(q), m.encode_table(t))
        assert inferred != "id"

    def test_non_destructive_op_inferred_for_plain(self, rng):
        """A plain (non-DA) chart must not gate to a destructive operator.

        Rendering + extraction lightly smooths the series (the extractor
        takes the mean pixel row of each vertical stroke), so id and a
        small-window avg are indistinguishable by design; min/max/sum are
        not, and must not be inferred. Spiky data makes the operators
        separable.
        """
        col = np.cumsum(rng.standard_normal(400))
        spikes = rng.random(400) < 0.1
        col[spikes] += rng.standard_normal(int(spikes.sum())) * 25
        t = LakeTable("t", [col])
        m = make_model()
        q = _query(t, VisSpec(y_cols=(0,)))
        inferred = infer_operator(m, m.encode_query(q), m.encode_table(t))
        assert inferred in ("id", "avg")

    @pytest.mark.parametrize("op", ["avg", "sum", "max", "min"])
    def test_exact_operator_recovered_on_spiky(self, op):
        rng = np.random.default_rng(0)
        col = np.cumsum(rng.standard_normal(400))
        spikes = rng.random(400) < 0.1
        col[spikes] += rng.standard_normal(int(spikes.sum())) * 25
        t = LakeTable("t", [col])
        m = make_model()
        q = _query(t, VisSpec(y_cols=(0,), agg_op=op, window=8))
        inferred = infer_operator(m, m.encode_query(q), m.encode_table(t))
        assert inferred == op
