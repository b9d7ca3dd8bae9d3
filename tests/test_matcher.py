"""Tests for repro.core.matcher (HCMAN analog + MoE gate)."""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chartsim.extractor import ExtractedQuery, extract
from repro.chartsim.renderer import render_chart
from repro.config import ALL_OPS, FCMConfig
from repro.core.data import LakeTable, aggregate_series
from repro.core.dataset_encoder import DatasetEncoder, TableEncoding
from repro.core.bipartite import hungarian_max
from repro.core.dtw import resample
from repro.core.fcm import make_model
from repro.core.features import cosine_matrix
from repro.core.line_encoder import LineChartEncoder, QueryEncoding
from repro.core.matcher import (
    FEATURES_FULL,
    FEATURES_GLOBAL,
    LogisticHead,
    filter_columns,
    match_fine,
    match_global,
    range_iou,
)
from tests.test_encoders import RefColumn, encode_table_reference, tables

_GATE_TAU = 12.0
_RANGE_W = 0.6
_ID_PRIOR = 0.02


def range_overlap(q_range: tuple[float, float], c_range: tuple[float, float]) -> float:
    """Fraction of the query y-range covered by the column range."""
    qlo, qhi = q_range
    clo, chi = c_range
    width = max(qhi - qlo, 1e-12)
    inter = min(qhi, chi) - max(qlo, clo)
    return float(np.clip(inter / width, 0.0, 1.0))


# -- the scalar matcher: one cosine matrix per (line, column, variant) --------
# The oracle for match_fine, which must agree with it to 1e-12 and give the
# same pairs, inferred operators and kept columns.
def _range_iou_ref(a, b) -> float:
    inter = min(a[1], b[1]) - max(a[0], b[0])
    union = max(a[1], b[1]) - min(a[0], b[0])
    if union <= 1e-12:
        return 1.0
    return float(np.clip(inter / union, 0.0, 1.0))


def segment_scores(ev: np.ndarray, et: np.ndarray, tau: float) -> tuple[float, float]:
    """Segment-level match of one line vs one column variant: ``(score,
    fwd)``, a blend of max-pooled and attention-pooled similarities in both
    directions, and the forward attention-pooled similarity."""
    s = cosine_matrix(ev, et)
    row_max = s.max(axis=1)
    col_max = s.max(axis=0)
    logits = s * tau
    logits -= logits.max(axis=1, keepdims=True)
    a = np.exp(logits)
    a /= a.sum(axis=1, keepdims=True)
    fwd = float((a * s).sum(axis=1).mean())
    score = 0.5 * float(row_max.mean()) + 0.3 * fwd + 0.2 * float(col_max.mean())
    return score, fwd


def moe_column_score(ev, col: RefColumn, tau: float, line_range=None):
    """Line-vs-column score through the MoE gate over operator experts:
    ``(score, fwd, inferred_op, gate_confidence, range_iou)``. The
    column's segment rows come from ``encode_table_reference``, so the
    oracle shares no encoding with the matcher under test."""
    per_op: dict[str, tuple[float, float, float]] = {}
    for var in col.variants:
        sc, fwd = segment_scores(ev, var.emb, tau)
        iou = _range_iou_ref(line_range, var.value_range) if line_range else 0.0
        total = sc + _RANGE_W * iou
        cur = per_op.get(var.op)
        if cur is None or total > cur[0]:
            per_op[var.op] = (total, fwd, iou)
    ops = [op for op in ALL_OPS if op in per_op]
    scores = np.array([per_op[op][0] for op in ops])
    scores = scores + np.array([_ID_PRIOR if op == "id" else 0.0 for op in ops])
    logits = scores * _GATE_TAU
    logits -= logits.max()
    g = np.exp(logits)
    g /= g.sum()
    score = float((g * scores).sum())
    fwd = float((g * np.array([per_op[op][1] for op in ops])).sum())
    best = int(np.argmax(g))
    return score, fwd, ops[best], float(g[best]), per_op[ops[best]][2]


def match_reference(
    query: QueryEncoding,
    lines: list[np.ndarray],
    table: TableEncoding,
    ref: list[RefColumn],
    tau: float,
):
    """``(features, pairs, inferred_ops, kept_col_ids)`` by the scalar loop
    over ``ref``, the table's ``encode_table_reference`` columns; each
    line's value range is taken from ``lines``, the extracted traces."""
    cols = filter_columns(query, table)
    if not cols:
        return np.zeros(len(FEATURES_FULL)), [], [], []
    m, nc = query.m, len(cols)
    line_ranges = [(float(np.min(t)), float(np.max(t))) for t in lines]
    score = np.empty((m, nc))
    fwd = np.empty((m, nc))
    op_inf = np.empty((m, nc), dtype=object)
    conf = np.empty((m, nc))
    iou = np.empty((m, nc))
    for i, ev in enumerate(query.line_embs):
        for j, col in enumerate(cols):
            score[i, j], fwd[i, j], op_inf[i, j], conf[i, j], iou[i, j] = (
                moe_column_score(ev, ref[col.col_id], tau, line_range=line_ranges[i])
            )
    pairs = hungarian_max(score)
    matched = np.array([score[i, j] for i, j in pairs])
    feats = np.array(
        [
            matched.sum() / m,
            matched.min() if len(pairs) == m else 0.0,
            matched.max(),
            float(np.sum([fwd[i, j] for i, j in pairs])) / m,
            len(pairs) / m,
            float(np.sum([iou[i, j] for i, j in pairs])) / m,
            float(np.mean([conf[i, j] for i, j in pairs])),
        ]
    )
    return feats, pairs, [op_inf[i, j] for i, j in pairs], [c.col_id for c in cols]


@pytest.fixture()
def cfg():
    return FCMConfig()


@pytest.fixture()
def encoders(cfg):
    return LineChartEncoder(cfg), DatasetEncoder(cfg)


def _query(encoders, data):
    line_enc, _ = encoders
    return line_enc.encode(extract(render_chart(data)))


class TestSegmentScores:
    def test_self_match_high(self, rng=np.random.default_rng(0)):
        e = rng.standard_normal((8, 16))
        score, fwd = segment_scores(e, e, tau=8.0)
        assert score > 0.9
        assert fwd > 0.5

    def test_orthogonal_low(self):
        a = np.eye(8, 16)
        b = -np.eye(8, 16)
        score, _ = segment_scores(a, b, tau=8.0)
        assert score < 0.0


class TestRangeFunctions:
    def test_iou_identical(self):
        assert range_iou((0, 10), (0, 10)) == pytest.approx(1.0)

    def test_iou_disjoint(self):
        assert range_iou((0, 1), (5, 6)) == 0.0

    def test_iou_partial(self):
        assert range_iou((0, 10), (5, 15)) == pytest.approx(1 / 3)

    def test_iou_degenerate(self):
        assert range_iou((3, 3), (3, 3)) == 1.0

    def test_overlap_fraction(self):
        assert range_overlap((0, 10), (5, 20)) == pytest.approx(0.5)
        assert range_overlap((0, 10), (-5, 20)) == 1.0


class TestFilterColumns:
    def test_keeps_overlapping(self, cfg, encoders):
        _, denc = encoders
        t = LakeTable("t", [np.linspace(0, 10, 100), np.linspace(1e6, 2e6, 100)])
        te = denc.encode_table(t)
        q = _query(encoders, [np.linspace(2, 8, 50)])
        kept = filter_columns(q, te)
        ids = [c.col_id for c in kept]
        assert 0 in ids

    def test_fallback_when_all_filtered(self, cfg, encoders):
        _, denc = encoders
        t = LakeTable("t", [np.linspace(1e6, 2e6, 100)])
        te = denc.encode_table(t)
        q = _query(encoders, [np.linspace(2, 8, 50)])
        assert len(filter_columns(q, te)) == 1  # falls back to all


class TestMatchFine:
    def test_feature_vector_shape(self, encoders):
        _, denc = encoders
        rng = np.random.default_rng(0)
        t = LakeTable("t", [rng.random(200) for _ in range(3)])
        q = _query(encoders, [rng.random(100)])
        res = match_fine(q, denc.encode_table(t), tau=8.0)
        assert res.features.shape == (len(FEATURES_FULL),)

    def test_self_table_beats_other(self, encoders):
        _, denc = encoders
        rng = np.random.default_rng(1)
        cols = [np.cumsum(rng.standard_normal(200)) + 50]
        src = LakeTable("src", cols)
        other = LakeTable("other", [np.cumsum(rng.standard_normal(200)) - 50])
        q = _query(encoders, [cols[0]])
        f_src = match_fine(q, denc.encode_table(src), tau=8.0).features
        f_other = match_fine(q, denc.encode_table(other), tau=8.0).features
        assert f_src[0] > f_other[0]

    def test_unmatched_lines_penalised(self, encoders):
        _, denc = encoders
        rng = np.random.default_rng(2)
        cols = [np.cumsum(rng.standard_normal(150)) + 30 * i for i in range(3)]
        src = LakeTable("src", cols)
        # table with a single column cannot cover a 3-line query
        small = LakeTable("small", [cols[0].copy()])
        q = _query(encoders, cols)
        f_full = match_fine(q, denc.encode_table(src), tau=8.0).features
        f_small = match_fine(q, denc.encode_table(small), tau=8.0).features
        assert f_full[4] == 1.0          # coverage
        assert f_small[4] < 1.0
        assert f_small[1] == 0.0         # min_matched zeroed when uncovered
        assert f_full[0] > f_small[0]    # sum/m penalises missing lines

    def test_assignment_injective(self, encoders):
        _, denc = encoders
        rng = np.random.default_rng(3)
        t = LakeTable("t", [rng.random(100) for _ in range(4)])
        q = _query(encoders, [rng.random(80) for _ in range(2)])
        res = match_fine(q, denc.encode_table(t), tau=8.0)
        cols = [j for _, j in res.pairs]
        assert len(set(cols)) == len(cols)

    def test_inferred_ops_valid(self, encoders):
        _, denc = encoders
        rng = np.random.default_rng(4)
        t = LakeTable("t", [rng.random(300)])
        q = _query(encoders, [rng.random(100)])
        res = match_fine(q, denc.encode_table(t), tau=8.0)
        assert all(op in ("id", "avg", "sum", "max", "min") for op in res.inferred_ops)


class TestMatchGlobal:
    def test_feature_vector_shape(self, encoders):
        _, denc = encoders
        rng = np.random.default_rng(0)
        t = LakeTable("t", [rng.random(100)])
        q = _query(encoders, [rng.random(80)])
        res = match_global(q, denc.encode_table(t))
        assert res.features.shape == (len(FEATURES_GLOBAL),)
        assert res.pairs == []


class TestLogisticHead:
    def test_monotone_in_features(self):
        head = LogisticHead(w=np.array([2.0, 0.0]), b=-1.0)
        assert head(np.array([1.0, 0.0])) > head(np.array([0.0, 0.0]))

    def test_output_in_unit_interval(self):
        head = LogisticHead.default_full()
        f = np.random.default_rng(0).random(len(FEATURES_FULL))
        assert 0.0 < head(f) < 1.0

    def test_default_shapes_match_features(self):
        assert LogisticHead.default_full().w.shape == (len(FEATURES_FULL),)
        assert LogisticHead.default_global().w.shape == (len(FEATURES_GLOBAL),)


class TestMoEGate:
    def test_gate_confidence_bounds(self, encoders):
        _, denc = encoders
        rng = np.random.default_rng(5)
        (ce,) = encode_table_reference(denc, LakeTable("t", [rng.random(400)]))
        q = _query(encoders, [rng.random(100)])
        score, fwd, op, conf, iou = moe_column_score(
            q.line_embs[0], ce, tau=8.0, line_range=(0.0, 1.0)
        )
        assert op in ("id", "avg", "sum", "max", "min")
        assert 0.0 < conf <= 1.0
        assert 0.0 <= iou <= 1.0
        res = match_fine(q, denc.encode_table(LakeTable("t", [rng.random(400)])), tau=8.0)
        assert 0.0 < res.features[FEATURES_FULL.index("gate_conf")] <= 1.0
        assert 0.0 <= res.features[FEATURES_FULL.index("range_overlap")] <= 1.0

    def test_infers_aggregation_on_spiky_data(self, encoders):
        """A max-aggregated chart over spiky data must not gate to 'id'."""
        line_enc, denc = encoders
        rng = np.random.default_rng(6)
        col = np.cumsum(rng.standard_normal(400))
        spikes = rng.random(400) < 0.1
        col[spikes] += rng.standard_normal(int(spikes.sum())) * 20
        agg = aggregate_series(col, "max", 8)
        q = line_enc.encode(extract(render_chart([agg])))
        (ce,) = encode_table_reference(denc, LakeTable("t", [col]))
        _, _, op, _, _ = moe_column_score(
            q.line_embs[0], ce, tau=8.0,
            line_range=(float(agg.min()), float(agg.max())),
        )
        assert op != "id"
        assert match_fine(q, denc.encode_table(LakeTable("t", [col])), tau=8.0).inferred_ops == [op]


def _query_for(rng: np.random.Generator, table: LakeTable, m: int) -> ExtractedQuery:
    """M chart-width lines traced from the table's columns (some aggregated,
    all slightly noisy), the last one unrelated with probability 0.3."""
    lines = []
    for _ in range(m):
        col = table.columns[rng.integers(table.n_cols)]
        if rng.random() < 0.5 and col.size >= 8:
            col = aggregate_series(col, str(rng.choice(ALL_OPS[1:])), int(rng.choice([2, 4, 8])))
        line = resample(col, 480)
        lines.append(line + rng.standard_normal(480) * 0.01 * (np.ptp(line) + 1.0))
    if rng.random() < 0.3:
        lines[-1] = rng.standard_normal(480) * 100.0
    lo = min(float(t.min()) for t in lines)
    hi = max(float(t.max()) for t in lines)
    return ExtractedQuery(lines=lines, y_range=(lo, hi), raster=None)


class TestAgainstReference:
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        table=tables(),
        m=st.integers(1, 9),
        variant=st.sampled_from(["full", "no_da"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_match_fine(self, table, m, variant, seed):
        model = make_model(FCMConfig(), variant)
        te = model.encode_table(table)
        eq = _query_for(np.random.default_rng(seed), table, m)
        q = model.encode_query(eq)
        with np.errstate(invalid="raise", divide="raise"):
            res = match_fine(q, te, tau=model.cfg.attn_tau)
        ref = encode_table_reference(model.dataset_encoder, table)
        feats, pairs, ops, kept = match_reference(q, eq.lines, te, ref, tau=model.cfg.attn_tau)
        np.testing.assert_allclose(res.features, feats, rtol=0, atol=1e-12)
        assert res.pairs == pairs
        assert res.inferred_ops == ops
        assert res.kept_col_ids == kept


class TestNonFinite:
    @pytest.fixture()
    def model(self):
        return make_model(FCMConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_bad_column_table_scores_finite(self, model, bad):
        col = np.cumsum(np.random.default_rng(0).standard_normal(160))
        col[40] = bad
        te = model.encode_table(LakeTable("t", [col]))
        q = model.encode_query(extract(render_chart([np.linspace(2, 8, 50)])))
        assert filter_columns(q, te) == []
        assert model.score(q, te) == 0.0
        assert make_model(FCMConfig(), "no_hcman").score(q, te) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_bad_column_scores_like_table_without_it(self, model, bad):
        rng = np.random.default_rng(1)
        cols = [np.cumsum(rng.standard_normal(160)) + 10 * i for i in range(3)]
        dirty = [c.copy() for c in cols]
        dirty[1][5] = bad
        q = model.encode_query(extract(render_chart([cols[0], cols[2]])))
        clean_te = model.encode_table(LakeTable("clean", [cols[0], cols[2]]))
        dirty_te = model.encode_table(LakeTable("dirty", dirty))
        assert 1 not in match_fine(q, dirty_te, tau=8.0).kept_col_ids
        assert model.score(q, dirty_te) == pytest.approx(model.score(q, clean_te), rel=0, abs=1e-12)
