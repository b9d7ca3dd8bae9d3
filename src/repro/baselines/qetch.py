"""Qetch* baseline (Sec. VII-B (2)).

Qetch matches a hand-drawn sketch against time-series *segments*,
tolerating local x/y distortions; it is local-pattern oriented. The
paper's Qetch* extension extracts every line from the chart, runs the
Qetch matching algorithm between each line and each column, and
aggregates line-column scores with max-weight bipartite matching.

Our Qetch analog implements the defining behaviour: the (z-normalised)
line shape is slid over candidate windows of the column at several window
widths; the per-window cost is Qetch's shape distance — mean absolute
difference of value and of local slope after per-window rescaling — and
the *best local window* wins. Because only the best local fragment
matters, global structure is under-weighted, which is the documented
failure mode versus FCM.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.base import Method, finite_column_ids
from repro.chartsim.extractor import ExtractedQuery
from repro.core.bipartite import mean_matching
from repro.core.data import LakeTable
from repro.core.dtw import resample
from repro.core.features import znorm

_SKETCH_LEN = 48
_WIDTH_FRACS = (0.33, 0.5, 0.75, 1.0)
_N_OFFSETS = 8


def qetch_line_cost(line: np.ndarray, col: np.ndarray) -> float:
    """Best local-window Qetch cost between one line and one column."""
    sk, _, _ = znorm(resample(line, _SKETCH_LEN))
    dsk = np.diff(sk)
    z, _, _ = znorm(col)
    n = z.size
    best = np.inf
    for frac in _WIDTH_FRACS:
        w = max(8, int(round(n * frac)))
        if w > n:
            continue
        starts = np.unique(
            np.linspace(0, n - w, num=min(_N_OFFSETS, n - w + 1), dtype=int)
        )
        for s in starts:
            win, _, _ = znorm(resample(z[s : s + w], _SKETCH_LEN))
            dwin = np.diff(win)
            cost = 0.6 * np.abs(sk - win).mean() + 0.4 * np.abs(dsk - dwin).mean()
            best = min(best, float(cost))
    return best


class QetchStar(Method):
    name = "Qetch*"

    def prepare_query(self, eq: ExtractedQuery) -> list[np.ndarray]:
        return [np.asarray(t, dtype=np.float64) for t in eq.lines]

    def encode_table(self, table: LakeTable) -> list[np.ndarray]:
        return [table.columns[i] for i in finite_column_ids(table)]

    def score(self, query_prep: list[np.ndarray], table_enc: list[np.ndarray]) -> float:
        m, nc = len(query_prep), len(table_enc)
        w = np.empty((m, nc))
        for i, line in enumerate(query_prep):
            for j, col in enumerate(table_enc):
                w[i, j] = 1.0 / (1.0 + qetch_line_cost(line, col))
        return mean_matching(w)
