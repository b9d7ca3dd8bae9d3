"""Tests for repro.chartsim.extractor (LCSeg analog round-trips)."""
import numpy as np
import pytest

from repro.chartsim.extractor import (
    detect_tick_rows,
    extract,
    fit_calibration,
)
from repro.chartsim.renderer import AXIS, BACKGROUND, LineChart, render_chart
from repro.config import ChartConfig
from repro.core.dtw import resample


def segmentation_iou(chart: LineChart, predicted_masks: np.ndarray) -> float:
    """Mean per-class IoU of a predicted mask vs the LineChartSeg ground
    truth — the metric a trained LCSeg would report."""
    gt = chart.masks
    classes = [c for c in np.unique(gt) if c > 0]
    ious = []
    for c in classes:
        g, p = gt == c, predicted_masks == c
        union = np.logical_or(g, p).sum()
        if union == 0:
            continue
        ious.append(np.logical_and(g, p).sum() / union)
    return float(np.mean(ious)) if ious else 0.0


def predict_masks(chart: LineChart) -> np.ndarray:
    """Grey-level instance segmentation emitting LineChartSeg-style masks."""
    plot = chart.raster
    out = np.zeros_like(chart.masks)
    out[plot == AXIS] = -1
    body = plot[(plot != BACKGROUND) & (plot != AXIS)]
    for i, grey in enumerate(np.unique(body)):
        out[plot == grey] = i + 1
    return out


@pytest.fixture()
def cfg():
    return ChartConfig()


def _rel_err(series: np.ndarray, trace: np.ndarray) -> float:
    ref = resample(series, trace.size)
    span = np.ptp(ref) or 1.0
    return float(np.abs(ref - trace).mean() / span)


class TestTickCalibration:
    def test_detects_all_ticks(self, cfg):
        chart = render_chart([np.linspace(0, 1, 50)], cfg)
        rows = set(detect_tick_rows(chart))
        assert {r for r, _ in chart.ticks} <= rows

    def test_calibration_linear_fit(self):
        # value = -2*row + 100
        ticks = [(0, 100.0), (10, 80.0), (20, 60.0)]
        a, b = fit_calibration(ticks)
        assert a == pytest.approx(-2.0)
        assert b == pytest.approx(100.0)

    def test_calibration_needs_two_ticks(self):
        with pytest.raises(ValueError):
            fit_calibration([(0, 1.0)])


class TestExtractRoundTrip:
    def test_single_line_accuracy(self, cfg):
        rng = np.random.default_rng(0)
        s = np.cumsum(rng.standard_normal(300)) * 5 + 40
        eq = extract(render_chart([s], cfg))
        assert eq.m == 1
        assert _rel_err(s, eq.lines[0]) < 0.03

    def test_multi_line_accuracy(self, cfg):
        rng = np.random.default_rng(1)
        data = [np.cumsum(rng.standard_normal(200)) + 30 * i for i in range(4)]
        eq = extract(render_chart(data, cfg))
        assert eq.m == 4
        for s, trace in zip(data, eq.lines):
            assert _rel_err(s, trace) < 0.06

    def test_line_order_preserved(self, cfg):
        # line 0 low, line 1 high: extractor must keep index order
        data = [np.zeros(50), np.full(50, 100.0)]
        eq = extract(render_chart(data, cfg))
        assert eq.lines[0].mean() < eq.lines[1].mean()

    def test_occluded_lines_recovered(self, cfg):
        # crossing lines occlude each other at the intersection
        x = np.linspace(0, 1, 200)
        data = [x * 10, 10 - x * 10]
        eq = extract(render_chart(data, cfg))
        assert eq.m == 2
        assert _rel_err(data[0], eq.lines[0]) < 0.05
        assert _rel_err(data[1], eq.lines[1]) < 0.05

    def test_y_range_from_ticks(self, cfg):
        s = np.linspace(-7, 13, 100)
        eq = extract(render_chart([s], cfg))
        lo, hi = eq.y_range
        assert lo <= -7 and hi >= 13
        assert lo > -7 - 4 and hi < 13 + 4  # only ~5% pad

    def test_values_in_data_space(self, cfg):
        s = np.full(80, 1234.5)
        eq = extract(render_chart([s], cfg))
        assert abs(eq.lines[0].mean() - 1234.5) / 1234.5 < 0.05

    def test_query_id_passthrough(self, cfg):
        eq = extract(render_chart([np.ones(10)], cfg), query_id="q7")
        assert eq.query_id == "q7"

    def test_many_lines(self, cfg):
        rng = np.random.default_rng(2)
        data = [np.cumsum(rng.standard_normal(150)) + 50 * i for i in range(9)]
        eq = extract(render_chart(data, cfg))
        assert eq.m == 9


class TestSegmentationMasks:
    def test_predicted_masks_high_iou(self, cfg):
        rng = np.random.default_rng(3)
        data = [np.cumsum(rng.standard_normal(100)) + 25 * i for i in range(3)]
        chart = render_chart(data, cfg)
        iou = segmentation_iou(chart, predict_masks(chart))
        assert iou > 0.95

    def test_perfect_prediction_iou_one(self, cfg):
        chart = render_chart([np.linspace(0, 1, 60)], cfg)
        assert segmentation_iou(chart, chart.masks) == pytest.approx(1.0)
