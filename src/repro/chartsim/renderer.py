"""Pure-numpy line-chart rasterizer (Plotly/matplotlib substitute).

Renders underlying data series into a greyscale uint8 raster with an axis
gutter and y-tick marks, and emits the per-pixel ground-truth masks that
constitute our *LineChartSeg* analog (Sec. IV-A). The raster is genuinely
lossy — value quantization to pixel rows, occlusion where lines overlap —
so the downstream extractor has real work to do.

Greys: background 255; axis/ticks 0; line ``i`` gets a distinct grey level
(standing in for distinct colors collapsed to greyscale, Sec. IV-B).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ChartConfig
from repro.core.dtw import resample

BACKGROUND = 255
AXIS = 0
#: mask codes: 0 background, -1 axis/ticks, i+1 line i (top-most wins)
MASK_BG, MASK_AXIS = 0, -1


def line_intensities(m: int, cfg: ChartConfig) -> np.ndarray:
    """Distinct grey levels for ``m`` lines, clamped into (AXIS, BACKGROUND)."""
    if m < 1:
        raise ValueError("need at least one line")
    step = cfg.intensity_step
    if m > 1:
        step = min(step, max(2, (230 - cfg.base_intensity) // (m - 1)))
    levels = cfg.base_intensity + step * np.arange(m)
    return np.clip(levels, 10, 240).astype(np.uint8)


def nice_ticks(lo: float, hi: float, n: int) -> np.ndarray:
    """Evenly spaced tick values over [lo, hi] (labels are exact values)."""
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, n)


@dataclass
class LineChart:
    """A rendered line chart: pixels + the machine-readable tick metadata.

    ``ticks`` is a list of (pixel_row, value) pairs — the substitution for
    tick-label OCR (DESIGN.md §2): the geometry→value calibration is left
    to the extractor. ``masks`` is the LineChartSeg ground truth.
    """

    raster: np.ndarray            # uint8, (H, margin+W)
    masks: np.ndarray             # int8/int16, same shape
    ticks: list[tuple[int, float]]
    cfg: ChartConfig

    @property
    def plot_area(self) -> np.ndarray:
        return self.raster[:, self.cfg.margin_left :]


def render_chart(data: list[np.ndarray], cfg: ChartConfig | None = None) -> LineChart:
    """Render underlying data D (list of y-series) into a LineChart.

    Every series is resampled to the plot width, mapped to pixel rows via
    the shared y-range (5% padded), and painted in order — later lines
    occlude earlier ones, exactly the ambiguity a segmentation model faces.
    """
    cfg = cfg or ChartConfig()
    if not data:
        raise ValueError("no data series to render")
    h, w, ml = cfg.height, cfg.width, cfg.margin_left
    total_w = ml + w
    raster = np.full((h, total_w), BACKGROUND, dtype=np.uint8)
    masks = np.zeros((h, total_w), dtype=np.int16)

    lo = min(float(np.min(d)) for d in data)
    hi = max(float(np.max(d)) for d in data)
    if hi <= lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    vlo, vhi = lo - pad, hi + pad

    # axis + ticks in the gutter
    raster[:, ml - 1] = AXIS
    masks[:, ml - 1] = MASK_AXIS
    ticks = []
    for tv in nice_ticks(vlo, vhi, cfg.n_ticks):
        row = _value_to_row(tv, vlo, vhi, h)
        raster[row, : ml - 1] = AXIS
        masks[row, : ml - 1] = MASK_AXIS
        ticks.append((int(row), float(tv)))

    levels = line_intensities(len(data), cfg)
    for i, series in enumerate(data):
        ys = resample(series, w)
        rows = _value_to_row(ys, vlo, vhi, h)
        grey = int(levels[i])
        prev = rows[0]
        for px in range(w):
            r = rows[px]
            r0, r1 = (prev, r) if prev <= r else (r, prev)
            raster[r0 : r1 + 1, ml + px] = grey
            masks[r0 : r1 + 1, ml + px] = i + 1
            prev = r
    return LineChart(raster=raster, masks=masks, ticks=ticks, cfg=cfg)


def _value_to_row(v, vlo: float, vhi: float, h: int):
    """Map data value(s) to pixel row(s); row 0 is the top (largest value)."""
    frac = (np.asarray(v, dtype=np.float64) - vlo) / (vhi - vlo)
    rows = np.rint((1.0 - frac) * (h - 1)).astype(np.int64)
    rows = np.clip(rows, 0, h - 1)
    return rows if rows.ndim else int(rows)
