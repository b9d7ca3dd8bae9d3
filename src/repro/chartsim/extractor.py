"""Visual element extractor (LCSeg analog, Sec. IV-A).

Recovers the two essential visual elements from a rendered chart:

* **Lines** — per-line value traces, one value per plot-area pixel column.
  Lines are separated by grey-level clustering (our stand-in for the
  Mask R-CNN instance segmentation trained on LineChartSeg); pixels lost to
  occlusion are linearly interpolated, mirroring how a segmentation model
  must hallucinate occluded spans.
* **Y-axis ticks** — tick mark rows are detected in the axis gutter, their
  values read from the chart's machine-readable tick metadata (OCR
  substitution, DESIGN.md §2), and a linear row→value calibration is fit
  so pixel traces can be mapped back into data space.

The output :class:`ExtractedQuery` is the sole query-side input of every
downstream method — no method ever touches the underlying data at query
time, exactly as in the paper.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chartsim.renderer import AXIS, BACKGROUND, LineChart


@dataclass
class ExtractedQuery:
    """What the extractor recovers from a line chart query.

    ``lines`` are value-space traces (one float per pixel column, already
    calibrated via the ticks). ``y_range`` is the tick-derived value range
    used for column filtering and the interval-index probe (Sec. VI-A).
    ``raster`` is kept for perception-only baselines (LineNet).
    """

    lines: list[np.ndarray]
    y_range: tuple[float, float]
    raster: np.ndarray
    query_id: str = ""

    @property
    def m(self) -> int:
        return len(self.lines)


def detect_tick_rows(chart: LineChart) -> list[int]:
    """Find tick-mark pixel rows in the axis gutter (dark full-width runs)."""
    gutter = chart.raster[:, : chart.cfg.margin_left - 1]
    dark = (gutter == AXIS).all(axis=1)
    return [int(r) for r in np.flatnonzero(dark)]


def fit_calibration(ticks: list[tuple[int, float]]) -> tuple[float, float]:
    """Least-squares linear fit value = a*row + b from tick points."""
    if len(ticks) < 2:
        raise ValueError("need at least two ticks to calibrate")
    rows = np.array([r for r, _ in ticks], dtype=np.float64)
    vals = np.array([v for _, v in ticks], dtype=np.float64)
    a, b = np.polyfit(rows, vals, 1)
    return float(a), float(b)


def extract(chart: LineChart, query_id: str = "") -> ExtractedQuery:
    """Run the full extraction pipeline on a rendered chart."""
    cfg = chart.cfg
    plot = chart.plot_area

    # --- tick detection + calibration -----------------------------------
    detected = set(detect_tick_rows(chart))
    # associate metadata values with detected rows (OCR substitution):
    ticks = [(r, v) for r, v in chart.ticks if r in detected]
    if len(ticks) < 2:       # degenerate renders: fall back to metadata
        ticks = list(chart.ticks)
    a, b = fit_calibration(ticks)

    # --- line instance segmentation by grey level ------------------------
    body = plot[(plot != BACKGROUND) & (plot != AXIS)]
    levels = np.unique(body)
    h, w = plot.shape
    lines: list[np.ndarray] = []
    for grey in levels:
        hits = plot == grey
        counts = hits.sum(axis=0)
        rows_sum = (hits * np.arange(h)[:, None]).sum(axis=0)
        trace_rows = np.full(w, np.nan)
        nz = counts > 0
        trace_rows[nz] = rows_sum[nz] / counts[nz]
        trace_rows = _interp_gaps(trace_rows)
        lines.append(a * trace_rows + b)
    # darker grey = earlier line index (renderer paints in index order with
    # increasing intensity), so sorting by grey preserves line order.
    vals = [v for _, v in ticks]
    return ExtractedQuery(
        lines=lines,
        y_range=(min(vals), max(vals)),
        raster=chart.raster.copy(),
        query_id=query_id,
    )


def _interp_gaps(trace: np.ndarray) -> np.ndarray:
    """Fill NaN gaps (occluded pixels) by linear interpolation."""
    nz = np.flatnonzero(~np.isnan(trace))
    if nz.size == 0:
        raise ValueError("empty line trace: nothing to extract")
    xs = np.arange(trace.size)
    return np.interp(xs, xs[nz], trace[nz])
