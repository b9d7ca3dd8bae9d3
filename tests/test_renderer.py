"""Tests for repro.chartsim.renderer (the Plotly-substitute rasterizer)."""
import numpy as np
import pytest

from repro.chartsim.renderer import (
    AXIS,
    BACKGROUND,
    LineChart,
    line_intensities,
    nice_ticks,
    render_chart,
)
from repro.config import ChartConfig


def row_to_value(rows, vlo: float, vhi: float, h: int):
    """Inverse of the renderer's ``_value_to_row`` (the round-trip oracle)."""
    frac = 1.0 - np.asarray(rows, dtype=np.float64) / (h - 1)
    return vlo + frac * (vhi - vlo)


@pytest.fixture()
def cfg():
    return ChartConfig()


class TestLineIntensities:
    def test_distinct_levels(self, cfg):
        for m in (1, 2, 5, 10):
            levels = line_intensities(m, cfg)
            assert len(set(levels.tolist())) == m

    def test_levels_within_grey_bounds(self, cfg):
        levels = line_intensities(10, cfg)
        assert levels.min() >= 10 and levels.max() <= 240

    def test_zero_lines_raises(self, cfg):
        with pytest.raises(ValueError):
            line_intensities(0, cfg)


class TestNiceTicks:
    def test_count_and_span(self):
        t = nice_ticks(0.0, 10.0, 5)
        assert len(t) == 5
        assert t[0] == 0.0 and t[-1] == 10.0

    def test_degenerate_range(self):
        t = nice_ticks(3.0, 3.0, 4)
        assert t[0] == 3.0 and t[-1] > 3.0


class TestRenderChart:
    def test_raster_geometry(self, cfg):
        chart = render_chart([np.sin(np.linspace(0, 6, 200))], cfg)
        assert chart.raster.shape == (cfg.height, cfg.margin_left + cfg.width)
        assert chart.raster.dtype == np.uint8
        assert chart.masks.shape == chart.raster.shape

    def test_background_dominates(self, cfg):
        chart = render_chart([np.linspace(0, 1, 100)], cfg)
        assert (chart.raster == BACKGROUND).mean() > 0.5

    def test_axis_column_drawn(self, cfg):
        chart = render_chart([np.linspace(0, 1, 100)], cfg)
        assert np.all(chart.raster[:, cfg.margin_left - 1] == AXIS)

    def test_ticks_recorded_and_drawn(self, cfg):
        data = [np.linspace(-5, 5, 50)]
        chart = render_chart(data, cfg)
        assert len(chart.ticks) == cfg.n_ticks
        for row, _val in chart.ticks:
            assert np.all(chart.raster[row, : cfg.margin_left - 1] == AXIS)

    def test_y_range_covers_data(self, cfg):
        data = [np.linspace(-5, 5, 50)]
        chart = render_chart(data, cfg)
        vals = [v for _, v in chart.ticks]
        lo, hi = min(vals), max(vals)
        assert lo <= -5 and hi >= 5

    def test_each_line_present_in_masks(self, cfg):
        data = [np.linspace(i, i + 1, 80) for i in range(3)]
        chart = render_chart(data, cfg)
        present = set(np.unique(chart.masks).tolist())
        assert {1, 2, 3} <= present

    def test_later_line_occludes(self, cfg):
        # two identical series: the second paints over the first
        s = np.linspace(0, 1, 100)
        chart = render_chart([s, s.copy()], cfg)
        body = chart.masks[:, cfg.margin_left :]
        assert (body == 2).sum() > 0
        assert (body == 1).sum() == 0  # fully occluded

    def test_constant_series_renders(self, cfg):
        chart = render_chart([np.full(60, 7.0)], cfg)
        assert isinstance(chart, LineChart)
        assert (chart.plot_area != BACKGROUND).sum() >= cfg.width

    def test_deterministic(self, cfg):
        data = [np.sin(np.linspace(0, 3, 123))]
        a = render_chart(data, cfg).raster
        b = render_chart(data, cfg).raster
        np.testing.assert_array_equal(a, b)

    def test_empty_data_raises(self, cfg):
        with pytest.raises(ValueError):
            render_chart([], cfg)

    def test_row_value_roundtrip(self):
        vlo, vhi, h = -2.0, 8.0, 240
        vals = np.linspace(vlo, vhi, 7)
        from repro.chartsim.renderer import _value_to_row

        rows = _value_to_row(vals, vlo, vhi, h)
        back = row_to_value(rows, vlo, vhi, h)
        np.testing.assert_allclose(back, vals, atol=(vhi - vlo) / (h - 1))

    def test_pixel_trace_tracks_series(self, cfg):
        # an increasing series must produce decreasing pixel rows
        chart = render_chart([np.linspace(0, 10, cfg.width)], cfg)
        rows = []
        for px in range(0, cfg.width, 40):
            col = chart.plot_area[:, px]
            hit = np.flatnonzero(col != BACKGROUND)
            rows.append(hit.mean())
        assert rows[0] > rows[-1]
