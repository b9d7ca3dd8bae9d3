"""Tests for the baseline methods (CML, Qetch*, LineNet, DeepEye, combos)."""
import numpy as np
import pytest

from repro.baselines.cml import CML
from repro.baselines.combos import DeepEyeLineNet, OptLineNet
from repro.baselines.deepeye import column_goodness, recommend
from repro.baselines.linenet import embed_raster
from repro.baselines.qetch import QetchStar
from repro.chartsim.extractor import ExtractedQuery, extract
from repro.chartsim.renderer import render_chart
from repro.chartsim.spec import VisSpec, underlying_data
from repro.core.bipartite import mean_matching
from repro.core.data import LakeTable
from repro.core.dtw import resample
from repro.core.features import cosine, znorm


def qetch_line_cost(line: np.ndarray, col: np.ndarray) -> float:
    """Oracle: best local-window Qetch cost between one line and one column,
    one window at a time (``QetchStar`` builds the windows once per table)."""
    sk, _, _ = znorm(resample(line, 48))
    dsk = np.diff(sk)
    z, _, _ = znorm(col)
    n = z.size
    best = np.inf
    for frac in (0.33, 0.5, 0.75, 1.0):
        w = max(8, int(round(n * frac)))
        if w > n:
            continue
        starts = np.unique(np.linspace(0, n - w, num=min(8, n - w + 1), dtype=int))
        for s in starts:
            win, _, _ = znorm(resample(z[s : s + w], 48))
            dwin = np.diff(win)
            cost = 0.6 * np.abs(sk - win).mean() + 0.4 * np.abs(dsk - dwin).mean()
            best = min(best, float(cost))
    return best


def qetch_reference(eq: ExtractedQuery, table: LakeTable) -> float:
    """Oracle Qetch* score: per-pair ``1 / (1 + cost)`` over the finite
    columns, then the mean max-weight matching."""
    cols = [c for c in table.columns if np.isfinite(c).all()]
    return mean_matching(
        np.array([[1.0 / (1.0 + qetch_line_cost(line, c)) for c in cols] for line in eq.lines])
    )


def score_raw(method, eq: ExtractedQuery, table: LakeTable) -> float:
    """End-to-end score of one extracted query against one table."""
    return method.score(method.prepare_query(eq), method.encode_table(table))


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def world(rng):
    def walk(base):
        return base + np.cumsum(rng.standard_normal(240)) * 5

    src = LakeTable("src", [walk(50), walk(-20)])
    other = LakeTable("other", [walk(400), walk(900)])
    spec = VisSpec(y_cols=(0, 1))
    eq = extract(render_chart(underlying_data(src, spec)), query_id="q")
    return src, other, spec, eq


class TestCML:
    def test_source_beats_other(self, world):
        src, other, _, eq = world
        m = CML()
        assert score_raw(m, eq, src) > score_raw(m, eq, other)

    def test_score_bounded(self, world):
        src, _, _, eq = world
        s = score_raw(CML(), eq, src)
        assert -1.0 <= s <= 1.0

    def test_deterministic(self, world):
        src, _, _, eq = world
        m = CML()
        assert score_raw(m, eq, src) == pytest.approx(score_raw(m, eq, src))


class TestQetch:
    def test_cost_zero_for_identical_shape(self, rng):
        s = np.cumsum(rng.standard_normal(100))
        assert qetch_line_cost(s, s) < 0.15  # resampling tolerance

    def test_cost_higher_for_different_shape(self, rng):
        a = np.sin(np.linspace(0, 6, 100))
        b = np.linspace(0, 1, 100)
        assert qetch_line_cost(a, a) < qetch_line_cost(a, b)

    def test_local_match_found(self, rng):
        # the line equals a fragment of the column: local matching scores
        # it far better than an unrelated column
        col = np.cumsum(rng.standard_normal(300))
        line = col[100:200].copy()
        other = np.sin(np.linspace(0, 20, 300))
        assert qetch_line_cost(line, col) < qetch_line_cost(line, other)
        assert qetch_line_cost(line, col) < 0.6

    def test_source_beats_other(self, world):
        src, other, _, eq = world
        m = QetchStar()
        assert score_raw(m, eq, src) > score_raw(m, eq, other)

    def test_score_normalised_by_lines(self, world):
        src, _, _, eq = world
        s = score_raw(QetchStar(), eq, src)
        assert 0.0 < s <= 1.0

    @pytest.mark.parametrize(
        "case", ["src", "other", "short", "one_row", "more_lines", "constant", "nan_column"]
    )
    def test_score_equals_oracle(self, world, case):
        """The window stacks built once per table score exactly as the
        per-pair, per-window loop does, on tables with no window too."""
        src, other, _, eq = world
        rng = np.random.default_rng(7)
        nan = np.cumsum(rng.standard_normal(240))
        nan[11] = np.nan
        eq, table = {
            "src": (eq, src),
            "other": (eq, other),
            "short": (eq, LakeTable("t", [rng.random(6), rng.random(6)])),
            "one_row": (eq, LakeTable("t", [rng.random(1)])),
            "more_lines": (
                ExtractedQuery(eq.lines * 2, eq.y_range, eq.raster),
                LakeTable("t", [src.columns[0], rng.random(240)]),
            ),
            "constant": (eq, LakeTable("t", [np.full(240, 3.0), src.columns[1]])),
            "nan_column": (eq, LakeTable("t", [nan, src.columns[0], rng.random(240)])),
        }[case]
        m = QetchStar()
        assert m.score(m.prepare_query(eq), m.encode_table(table)) == qetch_reference(eq, table)


class TestLineNet:
    def test_identical_rasters_similarity_one(self, rng):
        chart = render_chart([rng.random(100)])
        e = embed_raster(chart.raster)
        assert cosine(e, e) == pytest.approx(1.0)

    def test_similar_charts_score_higher(self, rng):
        s = np.cumsum(rng.standard_normal(200))
        near = s * 1.02
        far = -s[::-1]
        e0 = embed_raster(render_chart([s]).raster)
        e1 = embed_raster(render_chart([near]).raster)
        e2 = embed_raster(render_chart([far]).raster)
        assert cosine(e0, e1) > cosine(e0, e2)

    def test_embedding_shape_fixed(self, rng):
        e = embed_raster(render_chart([rng.random(57)]).raster)
        assert e.shape == (24 * 48,)


class TestDeepEye:
    def test_goodness_prefers_trendy(self, rng):
        trendy = np.cumsum(rng.standard_normal(200))
        noise = rng.standard_normal(200)
        assert column_goodness(trendy) > column_goodness(noise)

    def test_recommend_count(self, rng):
        t = LakeTable("t", [rng.random(100) for _ in range(6)])
        specs = recommend(t)
        assert 1 <= len(specs) <= 5

    def test_recommend_valid_columns(self, rng):
        t = LakeTable("t", [rng.random(100) for _ in range(3)])
        for spec in recommend(t):
            assert all(0 <= c < 3 for c in spec.y_cols)

    def test_single_column_table(self, rng):
        t = LakeTable("t", [rng.random(50)])
        specs = recommend(t)
        assert specs and specs[0].y_cols == (0,)


class TestCombos:
    def test_de_ln_source_beats_other(self, world):
        src, other, _, eq = world
        m = DeepEyeLineNet()
        assert score_raw(m, eq, src) > score_raw(m, eq, other)

    def test_opt_ln_uses_true_spec(self, world):
        src, other, spec, eq = world
        m = OptLineNet({"src": spec, "other": VisSpec(y_cols=(0,))})
        assert score_raw(m, eq, src) > score_raw(m, eq, other)

    def test_opt_ln_missing_spec_fallback(self, world):
        src, _, _, eq = world
        m = OptLineNet({})
        s = score_raw(m, eq, src)
        assert -1.0 <= s <= 1.0

    def test_methods_picklable(self, world):
        import pickle

        src, _, spec, eq = world
        for m in (CML(), QetchStar(), DeepEyeLineNet(), OptLineNet({"src": spec})):
            m2 = pickle.loads(pickle.dumps(m))
            assert score_raw(m2, eq, src) == pytest.approx(score_raw(m, eq, src))


METHODS = {
    "CML": CML,
    "Qetch*": QetchStar,
    "DE-LN": DeepEyeLineNet,
    "Opt-LN": lambda: OptLineNet({}),
}
BAD_CELLS = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}


@pytest.mark.parametrize("bad", sorted(BAD_CELLS))
@pytest.mark.parametrize("name", sorted(METHODS))
class TestNonFiniteColumns:
    """A baseline scores only a table's finite columns; a table with none
    scores 0.0."""

    def test_bad_column_is_ignored(self, world, name, bad):
        src, _, _, eq = world
        col = np.linspace(0.0, 1.0, src.n_rows)
        col[7] = BAD_CELLS[bad]
        dirty = LakeTable("src", [src.columns[0], col, src.columns[1]])
        m = METHODS[name]()
        got = score_raw(m, eq, dirty)
        assert np.isfinite(got)
        assert got == score_raw(m, eq, src)

    def test_all_bad_table_scores_zero(self, world, name, bad):
        src, _, _, eq = world
        cols = [c.copy() for c in src.columns]
        cols[0][3] = BAD_CELLS[bad]
        cols[1][-1] = np.nan
        assert score_raw(METHODS[name](), eq, LakeTable("src", cols)) == 0.0
