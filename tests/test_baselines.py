"""Tests for the baseline methods (CML, Qetch*, LineNet, DeepEye, combos)."""
import numpy as np
import pytest

from repro.baselines.cml import CML
from repro.baselines.combos import DeepEyeLineNet, OptLineNet
from repro.baselines.deepeye import column_goodness, recommend
from repro.baselines.linenet import embed_raster
from repro.baselines.qetch import QetchStar, qetch_line_cost
from repro.chartsim.extractor import ExtractedQuery, extract
from repro.chartsim.renderer import render_chart
from repro.chartsim.spec import VisSpec, underlying_data
from repro.core.data import LakeTable
from repro.core.features import cosine


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
