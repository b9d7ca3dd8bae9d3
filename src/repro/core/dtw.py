"""Dynamic time warping distance (Sec. III-A low-level relevance).

The paper scores ``rel(d, C) = 1 / (1 + DTW(d, C))``. scipy is not
available, so this is a pure-numpy implementation:

* :func:`dtw_distances` — the one DTW kernel: the classic O(n·m) banded
  dynamic program run over a *stack* of same-shape pairs. Python walks
  the cells of one pair and numpy does each cell for every pair of the
  stack at once, so the interpreter's per-cell cost is paid once per
  stack, not once per pair (the UCR-suite view, Rakthanmanon et al.
  KDD 2012: exact DTW is fast once its loop overhead is amortised).
  Stacks of a few hundred pairs are needed for that to pay off; a stack
  of one is slower than a scalar loop.
* :func:`fit_length` / :func:`resample` — linear-interpolation resampling
  used to cap series length before DTW (documented substitution: the
  paper runs exact DTW on full-length series; we cap at ``max_len`` for
  repository-scale sweeps, which preserves DTW's ordering on smooth
  chartable series).

A pair with a non-finite value (NaN or ±inf) in either series has
distance ``inf``, so its ``rel`` is 0.0: such a column is scored as
unrelated to every series instead of poisoning a ranking with NaN.
"""
from __future__ import annotations

import numpy as np


def resample(a: np.ndarray, n: int) -> np.ndarray:
    """Linearly resample a series, or each row of a ``(..., L)`` stack, to
    exactly ``n`` points.

    Each output point is computed with ``np.interp``'s own formula (slope
    times offset from the left knot, the knot itself on an exact hit, the
    last value at the end, and its NaN fallbacks), so a row of a stack is
    bit-identical to ``np.interp`` on that row alone.
    """
    a = np.asarray(a, dtype=np.float64)
    size = a.shape[-1]
    if size == 0:
        raise ValueError("cannot resample an empty series")
    if size == n:
        return a.copy()
    if size == 1:
        return np.repeat(a, n, axis=-1)
    src = np.linspace(0.0, 1.0, size)
    dst = np.linspace(0.0, 1.0, n)
    j = np.searchsorted(src, dst, side="right") - 1
    at_end = j == size - 1
    j = np.minimum(j, size - 2)
    lo, hi = a[..., j], a[..., j + 1]
    # np.interp is silent on non-finite input; so is this
    with np.errstate(invalid="ignore"):
        slope = (hi - lo) / (src[j + 1] - src[j])
        out = slope * (dst - src[j]) + lo
        nan = np.isnan(out)
        if nan.any():
            back = slope * (dst - src[j + 1]) + hi
            back = np.where(np.isnan(back) & (lo == hi), lo, back)
            out = np.where(nan, back, out)
    out = np.where(dst == src[j], lo, out)
    return np.where(at_end, a[..., -1:], out)


def fit_length(a: np.ndarray, max_len: int | None) -> np.ndarray:
    """A series as DTW sees it: float64, resampled down to ``max_len``
    points if it is longer.

    A series with a non-finite value keeps its length: resampling could
    step over the bad point, and :func:`dtw_distances` must see it.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    if a.size == 0:
        raise ValueError("DTW of an empty series is undefined")
    if max_len is not None and a.size > max_len and np.isfinite(a).all():
        return resample(a, max_len)
    return a


def dtw_distances(a: np.ndarray, b: np.ndarray, *, band: int | None) -> np.ndarray:
    """DTW distance, absolute-difference local cost, of each row pair.

    Parameters
    ----------
    a, b : ``(P, n)`` and ``(P, m)`` stacks; pair ``p`` is
        ``(a[p], b[p])``.
    band : Sakoe-Chiba band half-width (in steps of the longer series);
        ``None`` means unconstrained. Widened to ``|n - m|`` so the end
        cell stays reachable.

    Returns the ``(P,)`` distances; ``inf`` for a pair with a non-finite
    value. Each cell is ``|a_i - b_j| + min`` of its three neighbours
    and ``min`` is exact, so a pair's distance does not depend on the
    stack it is computed in.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ValueError("a and b must be (P, n) and (P, m) stacks")
    n, m = a.shape[1], b.shape[1]
    if n == 0 or m == 0:
        raise ValueError("DTW of an empty series is undefined")
    if band is not None:
        band = max(band, abs(n - m))
    out = np.full(a.shape[0], np.inf)
    ok = np.isfinite(a).all(axis=1) & np.isfinite(b).all(axis=1)
    if not ok.any():
        return out
    # cells of one column of the DP for every pair are contiguous
    at = np.ascontiguousarray(a[ok].T)
    bt = np.ascontiguousarray(b[ok].T)
    prev = np.full((m + 1, at.shape[1]), np.inf)
    prev[0] = 0.0
    cur = np.empty_like(prev)
    # row views made once: the cell loop below is the hot path
    prev_rows, cur_rows = list(prev), list(cur)
    for i in range(1, n + 1):
        cur.fill(np.inf)
        if band is None:
            lo, hi = 1, m
        else:
            c = int(round(i * m / n))
            lo, hi = max(1, c - band), min(m, c + band)
        cost = np.abs(at[i - 1] - bt[lo - 1 : hi])
        # cur[j] = cost + min(prev[j], prev[j-1], cur[j-1]); the cur[j-1]
        # term is a left-to-right scan over j, the rest is one array op
        base = np.minimum(prev[lo : hi + 1], prev[lo - 1 : hi])
        left = cur_rows[lo - 1]
        for cell, base_j, cost_j in zip(cur_rows[lo : hi + 1], base, cost):
            np.minimum(base_j, left, out=cell)
            np.add(cell, cost_j, out=cell)
            left = cell
        prev, cur = cur, prev
        prev_rows, cur_rows = cur_rows, prev_rows
    out[ok] = prev[m]
    return out
