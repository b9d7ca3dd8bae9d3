"""Ground-truth relevance Rel(D, T) (Sec. III-A).

Low level: ``rel(d, C) = 1 / (1 + DTW(d, C))`` on y-values only (x-axis
values are ignored, per the paper). High level: max-weight bipartite
matching between the data series of D and the columns of T; Rel(D, T) is
the mean matched-edge weight (normalising by the number of matched series
keeps Rel comparable across charts with different M).

:func:`rel_scores` is the one path: it scores many (D, T) pairs at once,
so every (series, column) pair of the batch shares the DTW kernel's
stacks. The single-pair functions run the same code on one pair.
"""
from __future__ import annotations

import numpy as np

from repro.core.bipartite import mean_matching
from repro.core.data import LakeTable
from repro.core.dtw import dtw_distances, fit_length

#: (series, column) pairs per DTW kernel call. Per-pair cost stops
#: falling at a few hundred pairs; at ``max_len`` 128 a stack of this
#: many pairs holds about 4 MB.
STACK_PAIRS = 512
#: Sakoe-Chiba band and series length cap of the ground truth's DTW
GT_BAND = 16
GT_MAX_LEN = 128


def _rel_weights(
    series: list[np.ndarray],
    columns: list[np.ndarray],
    keep: np.ndarray,
    *,
    band: int | None,
    max_len: int | None,
) -> np.ndarray:
    """rel(s, c) for every ``keep[s, c]`` pair; the rest stay 0.0.

    Each series and column is resampled once. Pairs are grouped by
    (len_a, len_b) and each shape goes through the kernel in stacks of
    :data:`STACK_PAIRS`.
    """
    series = [fit_length(s, max_len) for s in series]
    columns = [fit_length(c, max_len) for c in columns]
    rel = np.zeros((len(series), len(columns)))
    s_len = np.array([s.size for s in series])
    c_len = np.array([c.size for c in columns])
    for n in np.unique(s_len):
        s_idx = np.flatnonzero(s_len == n)
        a_all = np.stack([series[i] for i in s_idx])
        for m in np.unique(c_len):
            c_idx = np.flatnonzero(c_len == m)
            b_all = np.stack([columns[j] for j in c_idx])
            ii, jj = np.nonzero(keep[np.ix_(s_idx, c_idx)])
            for lo in range(0, ii.size, STACK_PAIRS):
                i, j = ii[lo : lo + STACK_PAIRS], jj[lo : lo + STACK_PAIRS]
                d = dtw_distances(a_all[i], b_all[j], band=band)
                rel[s_idx[i], c_idx[j]] = 1.0 / (1.0 + d)
    return rel


def rel_scores(
    datas: list[list[np.ndarray]],
    tables: list[LakeTable],
    *,
    band: int | None = GT_BAND,
    max_len: int | None = GT_MAX_LEN,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Rel(D, T) of every (data, table) pair: a ``(len(datas), len(tables))``
    array.

    ``mask`` (same shape, bool) limits the work to the pairs it marks;
    the other entries are 0.0. Every (series, column) pair of the batch
    is scored in one set of kernel stacks, which is what makes the
    kernel fast, then each (D, T) is finished with the matching.
    """
    if any(not d for d in datas):
        raise ValueError("empty underlying data")
    if mask is None:
        mask = np.ones((len(datas), len(tables)), dtype=bool)
    s_off = np.cumsum([0] + [len(d) for d in datas])
    c_off = np.cumsum([0] + [t.n_cols for t in tables])
    keep = np.zeros((s_off[-1], c_off[-1]), dtype=bool)
    for q, t in zip(*np.nonzero(mask)):
        keep[s_off[q] : s_off[q + 1], c_off[t] : c_off[t + 1]] = True
    w_all = _rel_weights(
        [s for d in datas for s in d],
        [c for t in tables for c in t.columns],
        keep,
        band=band,
        max_len=max_len,
    )
    out = np.zeros(mask.shape)
    for q, t in zip(*np.nonzero(mask)):
        w = w_all[s_off[q] : s_off[q + 1], c_off[t] : c_off[t + 1]]
        out[q, t] = mean_matching(w)
    return out


def relevance_matrix(data: list[np.ndarray], table: LakeTable) -> np.ndarray:
    """rel(d_i, C_j) for every data series x column pair, as the ground
    truth scores it."""
    keep = np.ones((len(data), table.n_cols), dtype=bool)
    return _rel_weights(data, table.columns, keep, band=GT_BAND, max_len=GT_MAX_LEN)


def rel_score(data: list[np.ndarray], table: LakeTable) -> float:
    """Rel(D, T): mean weight of the max-weight bipartite matching."""
    return float(rel_scores([data], [table])[0, 0])
