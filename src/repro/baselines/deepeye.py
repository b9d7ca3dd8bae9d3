"""DeepEye analog: heuristic visualization recommendation (Sec. VII-B).

DeepEye ranks candidate visualizations of a table by learned "goodness".
Our heuristic scores every column by chartability — trendiness (lag-1
autocorrelation), smoothness, and value spread — and recommends up to
five line charts: the top single-column charts plus one multi-line chart
of the best columns, mirroring how VisRec systems favour a handful of
clean line views per table.
"""
from __future__ import annotations

import numpy as np

from repro.chartsim.spec import VisSpec
from repro.core.data import LakeTable
from repro.core.features import znorm

#: line charts recommended per table (DE-LN compares each with the query)
N_CHARTS = 5


def column_goodness(col: np.ndarray) -> float:
    """Chartability score of a column (higher = more line-chart worthy)."""
    z, _, sd = znorm(col)
    if z.size < 3:
        return 0.0
    ac = float(np.corrcoef(z[:-1], z[1:])[0, 1]) if z.std() > 0 else 0.0
    if not np.isfinite(ac):
        ac = 0.0
    rough = float(np.abs(np.diff(z)).mean())
    spread = float(np.tanh(np.log1p(sd)))
    return 0.6 * max(ac, 0.0) + 0.2 * (1.0 - min(rough, 1.0)) + 0.2 * spread


def recommend(table: LakeTable) -> list[VisSpec]:
    """The top :data:`N_CHARTS` recommended line-chart specs for a table."""
    scores = np.array([column_goodness(c) for c in table.columns])
    order = list(np.argsort(-scores))
    specs: list[VisSpec] = []
    for ci in order[: N_CHARTS - 1]:
        specs.append(VisSpec(y_cols=(int(ci),)))
    if table.n_cols >= 2:
        top = tuple(int(c) for c in order[: min(3, table.n_cols)])
        specs.append(VisSpec(y_cols=top))
    return specs[:N_CHARTS] or [VisSpec(y_cols=(0,))]
