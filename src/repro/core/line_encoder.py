"""Segment-level line chart encoder (Sec. IV-B).

Consumes the extractor's value-space line traces (one value per pixel
column) and produces, per line, a sequence of ``N1 = W / P1`` segment
embeddings. The trace is already calibrated into data space via the
y-ticks, so chart-side and dataset-side embeddings live in one space.
Of the traces themselves the matcher reads only each line's value range.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chartsim.extractor import ExtractedQuery
from repro.config import FCMConfig
from repro.core.features import encode_series, seeded_layers


@dataclass
class QueryEncoding:
    """Encoded line chart query: E_V plus what matching reads of the chart."""

    query_id: str
    line_embs: list[np.ndarray]     # per line: (N1, K)
    line_ranges: np.ndarray         # (M, 2): each line's [min, max] value
    y_range: tuple[float, float]    # tick-derived value range

    @property
    def m(self) -> int:
        return len(self.line_embs)


class LineChartEncoder:
    """Shared-parameter encoder for chart lines (ViT analog)."""

    def __init__(self, cfg: FCMConfig) -> None:
        self.cfg = cfg
        self.projector, self.attention = seeded_layers(cfg)

    def encode(self, eq: ExtractedQuery) -> QueryEncoding:
        if not eq.lines:
            raise ValueError("query has no extracted lines")
        # the extractor's lines share the plot width: one stack of M lines
        traces = np.vstack([np.asarray(t, dtype=np.float64) for t in eq.lines])
        embs = encode_series(
            traces,
            self.cfg.p1,
            n_profile=self.cfg.n_profile,
            projector=self.projector,
            attention=self.attention,
        )
        return QueryEncoding(
            query_id=eq.query_id,
            line_embs=list(embs),
            line_ranges=np.column_stack([traces.min(axis=1), traces.max(axis=1)]),
            y_range=eq.y_range,
        )
