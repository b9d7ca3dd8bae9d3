"""Visualization specifications (the Plotly "visualization configuration").

A :class:`VisSpec` says how a line chart is produced from a table: which
columns become lines, and which aggregation operator / window (if any) is
applied first (Sec. II "Underlying Data"). ``underlying_data`` materialises
the data series ``D = {d_1..d_M}`` that the chart presents.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.data import LakeTable, aggregate_series


@dataclass(frozen=True)
class VisSpec:
    """How to draw a line chart from a table.

    ``y_cols`` are the table column indices plotted as lines (M = len).
    ``agg_op`` in {"id","avg","sum","max","min"}; ``window`` is the
    tumbling-window size (ignored for "id"). ``row_range`` optionally
    restricts the chart to a contiguous slice of the rows — this models a
    user plotting part of a column and is what makes *locality matching*
    (Example 1 of the paper) necessary.
    """

    y_cols: tuple[int, ...]
    agg_op: str = "id"
    window: int = 1
    row_range: tuple[int, int] | None = None

    @property
    def m(self) -> int:
        return len(self.y_cols)

    @property
    def is_da(self) -> bool:
        return self.agg_op != "id" and self.window > 1


def underlying_data(table: LakeTable, spec: VisSpec) -> list[np.ndarray]:
    """Materialise the underlying data series D for (table, spec)."""
    if not spec.y_cols:
        raise ValueError("spec has no y columns")
    out = []
    for ci in spec.y_cols:
        c = table.columns[ci]
        if spec.row_range is not None:
            lo, hi = spec.row_range
            c = c[lo:hi]
        out.append(aggregate_series(c, spec.agg_op, spec.window))
    return out


@dataclass(frozen=True)
class ChartRecord:
    """A (table, spec) pair from the corpus — one Plotly-lite record."""

    table: LakeTable
    spec: VisSpec
