"""Tests for the segment-level line chart and dataset encoders."""
import pickle
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chartsim.extractor import ExtractedQuery, extract
from repro.chartsim.renderer import render_chart
from repro.config import AGG_OPS, ALL_OPS, FCMConfig
from repro.core.data import LakeTable, interval_keys
from repro.core.dataset_encoder import DatasetEncoder, HMRL, HMRL_MIX, TableEncoding
from repro.core.features import Projector, feature_dim, unit_rows, znorm
from repro.core.line_encoder import LineChartEncoder


# -- the per-series encoder: one column, one variant, one segment at a time ----
# The oracle for the stacked encoders, which must agree with it to 1e-12.
def _resample_ref(a: np.ndarray, n: int) -> np.ndarray:
    if a.size == n:
        return a.copy()
    if a.size == 1:
        return np.full(n, a[0])
    return np.interp(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, a.size), a)


def _znorm_ref(s: np.ndarray):
    mu, sigma = float(s.mean()), float(s.std())
    if sigma < 1e-12:
        sigma = 1.0
    return (s - mu) / sigma, mu, sigma


def _split_ref(s: np.ndarray, seg_len: int) -> np.ndarray:
    n = max(1, int(round(s.size / seg_len)))
    if s.size != n * seg_len:
        s = _resample_ref(s, n * seg_len)
    return s.reshape(n, seg_len)


def _pooled_ref(row: np.ndarray, n: int) -> np.ndarray:
    if row.size <= n:
        return _resample_ref(row, n)
    q = int(np.ceil(row.size / n))
    if row.size != q * n:
        row = _resample_ref(row, q * n)
    return row.reshape(n, q).mean(axis=1)


def _features_ref(segs: np.ndarray, mu: float, sigma: float, n_profile: int) -> np.ndarray:
    n = segs.shape[0]
    prof = np.vstack([_pooled_ref(row, n_profile) for row in segs])
    xs = np.arange(n_profile, dtype=np.float64)
    xs -= xs.mean()
    denom = float((xs**2).sum()) or 1.0
    slope = (prof * xs).sum(axis=1) / denom
    if n_profile >= 3:
        curv = np.abs(np.diff(prof, n=2, axis=1)).mean(axis=1)
    else:
        curv = np.zeros(n)
    pos = (np.arange(n) + 0.5) / n * 0.5
    centered = prof - prof.mean(axis=1, keepdims=True)
    crossings = (np.diff(np.sign(centered), axis=1) != 0).mean(axis=1)
    tv = np.abs(np.diff(prof, axis=1)).sum(axis=1) / n_profile
    base = np.column_stack(
        [
            prof.mean(axis=1), prof.std(axis=1), slope * n_profile,
            prof.min(axis=1), prof.max(axis=1), prof[:, 0], prof[:, -1],
            curv, pos, crossings, tv,
        ]
    )
    scale = np.tile(np.array([np.log1p(abs(mu)), np.log1p(sigma)]) * 0.25, (n, 1))
    return np.hstack([base, prof, scale])


def _attention_ref(e: np.ndarray, att) -> np.ndarray:
    """Temperature 4 and residual mix 0.3, the encoders' attention."""
    logits = (e @ att.wq) @ (e @ att.wk).T / (4.0 * np.sqrt(e.shape[1]))
    logits -= logits.max(axis=1, keepdims=True)
    a = np.exp(logits)
    a /= a.sum(axis=1, keepdims=True)
    return e + 0.3 * (a @ e)


def encode_series_reference(series: np.ndarray, seg_len: int, enc) -> np.ndarray:
    """One series -> (N, K) with ``enc``'s projection and attention."""
    z, mu, sigma = _znorm_ref(series)
    feats = _features_ref(_split_ref(z, seg_len), mu, sigma, enc.cfg.n_profile)
    return _attention_ref(feats @ enc.projector.w, enc.attention)


def _hmrl_ref(series: np.ndarray, seg_len: int, enc: DatasetEncoder) -> np.ndarray:
    z, mu, sigma = _znorm_ref(series)
    segs = _split_ref(z, seg_len)
    n = segs.shape[0]
    leaves = _split_ref(segs.reshape(-1), max(1, seg_len // 2**enc.cfg.beta))
    emb = _features_ref(leaves, mu, sigma, enc.cfg.n_profile) @ enc.projector.w
    level = emb.reshape(n, emb.shape[0] // n, -1)
    while level.shape[1] > 1:
        if level.shape[1] % 2 == 1:
            level = np.concatenate(
                [enc.hmrl.combine(level[:, :-1:2], level[:, 1:-1:2]), level[:, -1:]],
                axis=1,
            )
        else:
            level = enc.hmrl.combine(level[:, ::2], level[:, 1::2])
    return level[:, 0]


def _aggregate_ref(a: np.ndarray, op: str, window: int) -> np.ndarray:
    window = min(window, a.size)
    n_full = a.size // window
    f = {"avg": np.mean, "sum": np.sum, "max": np.max, "min": np.min}[op]
    out = f(a[: n_full * window].reshape(n_full, window), axis=1)
    tail = a[n_full * window :]
    return np.append(out, f(tail)) if tail.size else out


@dataclass
class RefVariant:
    """One expert's view of a column: raw (not unit-norm) segment rows."""

    op: str
    window: int
    emb: np.ndarray  # (N2_variant, K)
    value_range: tuple[float, float]  # range of the transformed series


@dataclass
class RefColumn:
    col_id: int
    interval: tuple[float, float]
    value_range: tuple[float, float]
    mean_emb: np.ndarray
    variants: list[RefVariant]


def encode_table_reference(enc: DatasetEncoder, table: LakeTable) -> list[RefColumn]:
    """Every column, every (op, window) variant, encoded on its own."""
    cfg = enc.cfg
    out = []
    for col_id, col in enumerate(table.columns):
        emb = encode_series_reference(col, cfg.p2, enc)
        if cfg.da_enabled and cfg.p2 >= 2**cfg.beta and col.size >= cfg.p2:
            emb = (1 - HMRL_MIX) * emb + HMRL_MIX * _hmrl_ref(col, cfg.p2, enc)
        variants = [RefVariant("id", 1, emb, (float(col.min()), float(col.max())))]
        if cfg.da_enabled:
            for op in AGG_OPS:
                for w in cfg.da_windows:
                    if w >= col.size or col.size // w < 4:
                        continue
                    agg = _aggregate_ref(col, op, w)
                    emb = encode_series_reference(agg, max(2, cfg.p2 // w), enc)
                    variants.append(
                        RefVariant(op, w, emb, (float(agg.min()), float(agg.max())))
                    )
        out.append(
            RefColumn(
                col_id=col_id,
                # the key is row-wise: a column's own one-row key (checked
                # against every run sum in tests/test_data.py)
                interval=tuple(float(b[0]) for b in interval_keys(col[None])),
                value_range=(float(col.min()), float(col.max())),
                mean_emb=variants[0].emb.mean(axis=0),
                variants=variants,
            )
        )
    return out


def packed_variants(te: TableEncoding, j: int) -> list[tuple[str, np.ndarray, float, float]]:
    """Column ``j``'s variants as stored in ``te.packed``: ``(op, unit
    segment rows, range lo, range hi)`` each, in packed order."""
    pk = te.packed
    return [
        (ALL_OPS[pk.op[v]], pk.emb[pk.offsets[v] : pk.offsets[v + 1]], pk.lo[v], pk.hi[v])
        for v in np.flatnonzero(pk.col == j)
    ]


# -- generated tables and queries (shared with tests/test_matcher.py) ---------
COLUMN_KINDS = ("walk", "const", "neg", "huge")


def make_column(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    walk = np.cumsum(rng.standard_normal(n)) + rng.uniform(-20.0, 20.0)
    if kind == "const":
        return np.full(n, rng.uniform(-5.0, 5.0))
    if kind == "neg":
        return -np.abs(walk) - 1.0
    if kind == "huge":
        return 5e12 + 1e11 * walk
    return walk


@st.composite
def tables(draw) -> LakeTable:
    """1-9 columns of mixed kinds; 2 rows, fewer rows than P2, or an odd
    row count (a multiple of no window)."""
    n = draw(
        st.one_of(
            st.just(2), st.integers(3, 63), st.integers(32, 170).map(lambda k: 2 * k + 1)
        )
    )
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return LakeTable("t", [make_column(rng, k, n) for k in kinds])


def model_config(variant: str) -> FCMConfig:
    return FCMConfig() if variant == "full" else FCMConfig().without_da()


def assert_columns_close(te: TableEncoding, want: list[RefColumn]) -> None:
    """The first ``len(want)`` columns of ``te`` against the reference:
    the records exactly or to 1e-15, each packed variant slice against the
    reference rows made unit-norm to 1e-12."""
    for j, w in enumerate(want):
        g = te.columns[j]
        assert g.col_id == w.col_id
        np.testing.assert_allclose(g.interval, w.interval, rtol=1e-15)
        np.testing.assert_allclose(g.value_range, w.value_range, rtol=1e-15)
        np.testing.assert_allclose(g.mean_emb, w.mean_emb, rtol=0, atol=1e-12)
        assert g.variants == [(v.op, v.window) for v in w.variants]
        got = packed_variants(te, j)
        assert [op for op, *_ in got] == [v.op for v in w.variants]
        for (_, emb, lo, hi), wv in zip(got, w.variants):
            assert emb.shape == wv.emb.shape
            np.testing.assert_allclose(emb, unit_rows(wv.emb), rtol=0, atol=1e-12)
            np.testing.assert_allclose((lo, hi), wv.value_range, rtol=1e-15)


class TestAgainstReference:
    @settings(max_examples=30, deadline=None)
    @given(table=tables(), variant=st.sampled_from(["full", "no_da"]))
    def test_encode_table(self, table, variant):
        enc = DatasetEncoder(model_config(variant))
        with np.errstate(invalid="raise", divide="raise"):
            got = enc.encode_table(table)
        assert got.n_cols == table.n_cols
        assert_columns_close(got, encode_table_reference(enc, table))
        assert got.packed.finite.all()

    @settings(max_examples=20, deadline=None)
    @given(m=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_line_encoder(self, m, seed):
        rng = np.random.default_rng(seed)
        enc = LineChartEncoder(FCMConfig())
        lines = [
            make_column(rng, COLUMN_KINDS[i % len(COLUMN_KINDS)], 480) for i in range(m)
        ]
        with np.errstate(invalid="raise", divide="raise"):
            q = enc.encode(ExtractedQuery(lines=lines, y_range=(0.0, 1.0), raster=None))
        for got, line in zip(q.line_embs, lines):
            want = encode_series_reference(line, enc.cfg.p1, enc)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_one_column_table(self, cfg, rng):
        enc = DatasetEncoder(cfg)
        col = rng.random(300)
        te = enc.encode_table(LakeTable("t", [col]))
        assert te.n_cols == 1 and te.packed.offsets[-1] == te.packed.emb.shape[0]
        assert_columns_close(te, encode_table_reference(enc, LakeTable("t", [col])))


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_bad_column_flagged_without_warnings(self, cfg, rng, bad):
        cols = [rng.random(200), rng.random(200)]
        cols[1][17] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            te = DatasetEncoder(cfg).encode_table(LakeTable("t", cols))
        assert te.packed.finite.tolist() == [True, False]
        assert [c.col_id for c in te.finite_columns] == [0]
        assert np.isnan(te.columns[1].interval).all()
        assert all(np.isfinite(emb).all() for _, emb, _, _ in packed_variants(te, 1))
        # the good column encodes as it would on its own
        assert_columns_close(
            te, encode_table_reference(DatasetEncoder(cfg), LakeTable("t", cols[:1]))
        )


@pytest.fixture()
def cfg():
    return FCMConfig()


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class TestLineChartEncoder:
    def test_segment_count(self, cfg, rng):
        enc = LineChartEncoder(cfg)
        eq = extract(render_chart([rng.random(200)]))
        q = enc.encode(eq)
        # chart width 480, P1=60 -> 8 segments per line
        assert q.line_embs[0].shape == (480 // cfg.p1, cfg.k)

    def test_multi_line(self, cfg, rng):
        enc = LineChartEncoder(cfg)
        data = [np.cumsum(rng.standard_normal(150)) + 40 * i for i in range(3)]
        eq = extract(render_chart(data))
        q = enc.encode(eq)
        assert q.m == 3
        want = [[float(np.min(t)), float(np.max(t))] for t in eq.lines]
        assert q.line_ranges.tolist() == want

    def test_y_range_passthrough(self, cfg):
        enc = LineChartEncoder(cfg)
        eq = extract(render_chart([np.linspace(0, 10, 50)]))
        q = enc.encode(eq)
        assert q.y_range == eq.y_range

    def test_empty_query_raises(self, cfg):
        enc = LineChartEncoder(cfg)
        from repro.chartsim.extractor import ExtractedQuery

        with pytest.raises(ValueError):
            enc.encode(ExtractedQuery(lines=[], y_range=(0, 1), raster=np.zeros((2, 2))))

    def test_p1_controls_granularity(self, rng):
        s = rng.random(200)
        eq = extract(render_chart([s]))
        fine = LineChartEncoder(FCMConfig(p1=30)).encode(eq)
        coarse = LineChartEncoder(FCMConfig(p1=120)).encode(eq)
        assert fine.line_embs[0].shape[0] == 16
        assert coarse.line_embs[0].shape[0] == 4


def encode_one(enc: DatasetEncoder, col: np.ndarray) -> TableEncoding:
    return enc.encode_table(LakeTable("t", [col]))


class TestDatasetEncoder:
    def test_identity_variant_always_first(self, cfg, rng):
        te = encode_one(DatasetEncoder(cfg), rng.random(256))
        assert te.columns[0].variants[0] == ("id", 1)
        assert packed_variants(te, 0)[0][0] == "id"

    def test_da_variants_cover_all_ops(self, cfg, rng):
        te = encode_one(DatasetEncoder(cfg), rng.random(512))
        assert {op for op, _ in te.columns[0].variants} == set(ALL_OPS)
        assert {op for op, *_ in packed_variants(te, 0)} == set(ALL_OPS)

    def test_no_da_config_only_identity(self, rng):
        te = encode_one(DatasetEncoder(FCMConfig().without_da()), rng.random(512))
        assert te.columns[0].variants == [("id", 1)]
        assert [op for op, *_ in packed_variants(te, 0)] == ["id"]

    def test_variant_segment_alignment(self, cfg, rng):
        # aggregated variants keep (roughly) the identity's segment count
        te = encode_one(DatasetEncoder(cfg), rng.random(640))
        (_, id_emb, _, _), *_ = packed_variants(te, 0)
        for (_, w), (_, emb, _, _) in zip(te.columns[0].variants, packed_variants(te, 0)):
            if w <= 16:
                assert abs(emb.shape[0] - id_emb.shape[0]) <= 1

    def test_interval_is_min_sum_hull(self, cfg):
        te = encode_one(DatasetEncoder(cfg), np.array([1.0, 2.0, 3.0] * 40))
        lo, hi = te.columns[0].interval
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(240.0)  # sum dominates max

    def test_value_range_plain(self, cfg):
        te = encode_one(DatasetEncoder(cfg), np.array([-5.0, 7.0] * 60))
        assert te.columns[0].value_range == (-5.0, 7.0)

    def test_variant_value_ranges_reflect_op(self, cfg, rng):
        te = encode_one(DatasetEncoder(cfg), rng.random(512) + 1.0)
        vlo, vhi = te.columns[0].value_range
        for (op, w), (_, _, lo, hi) in zip(te.columns[0].variants, packed_variants(te, 0)):
            if op == "sum" and w >= 8:
                assert hi > vhi
            if op == "min":
                assert lo >= vlo - 1e-9

    def test_table_encoding_shape(self, cfg, rng):
        enc = DatasetEncoder(cfg)
        t = LakeTable("t", [rng.random(200) for _ in range(3)])
        te = enc.encode_table(t)
        assert te.n_cols == 3
        assert te.table_id == "t"
        assert all(c.mean_emb.shape == (cfg.k,) for c in te.columns)

    def test_deterministic(self, cfg, rng):
        col = rng.random(300)
        a = encode_one(DatasetEncoder(cfg), col)
        b = encode_one(DatasetEncoder(cfg), col.copy())
        np.testing.assert_allclose(a.packed.emb, b.packed.emb)

    def test_short_column_no_crash(self, cfg):
        te = encode_one(DatasetEncoder(cfg), np.array([1.0, 2.0, 3.0]))
        assert packed_variants(te, 0)[0][1].shape[0] == 1

    def test_each_segment_row_stored_once(self, cfg, rng):
        """The pickled encoding is its packed matrix plus small records:
        no second copy of the segment rows rides along."""
        t = LakeTable("t", [np.cumsum(rng.standard_normal(512)) for _ in range(10)])
        te = DatasetEncoder(cfg).encode_table(t)
        assert len(pickle.dumps(te)) < 1.25 * te.packed.emb.nbytes


class TestHMRL:
    def test_roots_shape(self, cfg, rng):
        p = Projector(feature_dim(cfg.n_profile), cfg.k, seed=0)
        h = HMRL(cfg.k, seed=1)
        z, mu, sigma = znorm(rng.random(256))
        roots = h.roots(z, 64, beta=3, n_profile=cfg.n_profile, projector=p, mu=mu, sigma=sigma)
        assert roots.shape == (4, cfg.k)

    def test_combine_bounded(self, cfg, rng):
        h = HMRL(cfg.k, seed=1)
        l, r = rng.standard_normal((2, 5, cfg.k))
        out = h.combine(l, r)
        assert np.all(np.abs(out) <= 1.0)

    def test_multiscale_differs_from_plain(self, cfg, rng):
        # HMRL blending must change the embedding (it adds information)
        col = rng.random(512)
        e_da = DatasetEncoder(FCMConfig())
        e_plain = DatasetEncoder(FCMConfig().without_da())
        a = packed_variants(encode_one(e_da, col), 0)[0][1]
        b = packed_variants(encode_one(e_plain, col), 0)[0][1]
        assert not np.allclose(a, b)
