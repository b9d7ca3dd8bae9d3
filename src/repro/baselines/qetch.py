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
failure mode versus FCM. The windows depend only on the column, so each
is built once per table and ``score`` is one broadcast over all of them.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.base import Method
from repro.chartsim.extractor import ExtractedQuery
from repro.core.bipartite import mean_matching
from repro.core.data import LakeTable
from repro.core.dtw import resample
from repro.core.features import znorm

_SKETCH_LEN = 48
_WIDTH_FRACS = (0.33, 0.5, 0.75, 1.0)
_N_OFFSETS = 8


def _column_windows(col: np.ndarray) -> np.ndarray:
    """A column's z-normalised windows resampled to sketch length, as an
    ``(n_windows, _SKETCH_LEN)`` stack; none below 8 rows."""
    z, _, _ = znorm(col)
    n = z.size
    stacks = [np.empty((0, _SKETCH_LEN))]
    for frac in _WIDTH_FRACS:
        w = max(8, int(round(n * frac)))
        if w > n:
            continue
        starts = np.unique(
            np.linspace(0, n - w, num=min(_N_OFFSETS, n - w + 1), dtype=int)
        )
        stacks.append(resample(z[starts[:, None] + np.arange(w)], _SKETCH_LEN))
    # row-major, so each window's mean and std reduce as a lone series does
    windows, _, _ = znorm(np.ascontiguousarray(np.concatenate(stacks)))
    return windows


class QetchStar(Method):
    name = "Qetch*"

    def prepare_query(self, eq: ExtractedQuery) -> np.ndarray:
        """The ``(M, _SKETCH_LEN)`` stack of z-normalised line sketches."""
        sketches, _, _ = znorm(np.stack([resample(t, _SKETCH_LEN) for t in eq.lines]))
        return sketches

    def encode_table(self, table: LakeTable) -> list[np.ndarray]:
        return [_column_windows(c) for c in table.columns[table.finite]]

    def score(self, query_prep: np.ndarray, table_enc: list[np.ndarray]) -> float:
        n = np.array([len(windows) for windows in table_enc], dtype=int)
        w = np.zeros((len(query_prep), n.size))
        if n.sum():
            sk, win = query_prep[:, None, :], np.concatenate(table_enc)[None]
            dsk, dwin = np.diff(sk), np.diff(win)
            cost = 0.6 * np.abs(sk - win).mean(axis=-1) + 0.4 * np.abs(dsk - dwin).mean(axis=-1)
            has = n > 0  # a column with no window keeps weight 0
            w[:, has] = 1.0 / (1.0 + np.minimum.reduceat(cost, (np.cumsum(n) - n)[has], axis=1))
        return mean_matching(w)
