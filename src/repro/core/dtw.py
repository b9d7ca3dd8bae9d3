"""Dynamic time warping distance (Sec. III-A low-level relevance).

The paper scores ``rel(d, C) = 1 / (1 + DTW(d, C))``. scipy is not
available, so this is a pure-numpy implementation:

* :func:`dtw_distances` — the one DTW kernel: the classic O(n·m) banded
  dynamic program run over a *stack* of same-shape pairs. Python walks
  the anti-diagonals of one pair, and numpy does each diagonal's in-band
  cells for every pair of the stack at once, so the interpreter pays
  ``n + m - 1`` steps per stack, not one per in-band cell (the UCR-suite
  view, Rakthanmanon et al. KDD 2012: exact DTW is fast once its loop
  overhead is amortised). Stacks of a few hundred pairs are needed for
  that to pay off fully.
* :func:`fit_lengths` / :func:`resample` — linear-interpolation resampling
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


def fit_lengths(series: list[np.ndarray], max_len: int | None) -> list[np.ndarray]:
    """Each series as DTW sees it: float64, resampled down to ``max_len``
    points if it is longer.

    Series of one length are resampled in one :func:`resample` call (a
    row of a stack is bit-identical to that row alone). A series with a
    non-finite value keeps its length: resampling could step over the bad
    point, and :func:`dtw_distances` must see it.
    """
    out = [np.asarray(s, dtype=np.float64).ravel() for s in series]
    sizes = np.array([s.size for s in out], dtype=np.int64)
    if (sizes == 0).any():
        raise ValueError("DTW of an empty series is undefined")
    if max_len is None:
        return out
    for size in np.unique(sizes[sizes > max_len]):
        idx = np.flatnonzero(sizes == size)
        stack = np.stack([out[k] for k in idx])
        fit = np.isfinite(stack).all(axis=1)
        for k, row in zip(idx[fit], resample(stack[fit], max_len)):
            out[k] = row
    return out


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
    value. Each cell is ``|a_i - b_j| + min`` of its three neighbours;
    ``min`` is exact and the one addition commutes, so a pair's distance
    does not depend on the stack it is computed in, nor on the order the
    cells are computed in.

    The sweep goes by anti-diagonals ``d = i + j``: a cell needs only
    cells of diagonals ``d - 1`` and ``d - 2``, so every in-band cell of a
    diagonal, for every pair of the stack, is one numpy step.
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
    # at[i - 1] is a_i and br[m - j] is b_j of every pair: the in-band
    # cells of a diagonal, by ascending i, read one slice of each
    at = np.ascontiguousarray(a[ok].T)
    br = np.ascontiguousarray(b[ok][:, ::-1].T)
    # in-band columns [lo_i, hi_i] of each row i = 1..n
    if band is None:
        lo, hi = np.ones(n, dtype=np.int64), np.full(n, m, dtype=np.int64)
    else:
        c = np.array([int(round(i * m / n)) for i in range(1, n + 1)], dtype=np.int64)
        lo, hi = np.maximum(1, c - band), np.minimum(m, c + band)
    # i + lo_i and i + hi_i strictly increase, so the in-band rows of
    # diagonal d are one range [s_d, e_d], and s_d, e_d grow by 0 or 1
    rows = np.arange(1, n + 1)
    diags = np.arange(2, n + m + 1)
    starts = (np.searchsorted(rows + hi, diags, side="left") + 1).tolist()
    ends = np.searchsorted(rows + lo, diags, side="right").tolist()
    # three rotating diagonals indexed by row i = 0..n+1: diagonal 0 holds
    # the corner cell (0, 0) = 0, every other cell off the band is inf
    buf = np.full((3, n + 2, at.shape[1]), np.inf)
    buf[0, 0] = 0.0
    bufs = list(buf)
    cost = np.empty_like(at)
    for d, s, e in zip(diags.tolist(), starts, ends):
        cur, up, diag = bufs[d % 3], bufs[(d - 1) % 3], bufs[(d - 2) % 3]
        # cell (i, j) = |a_i - b_j| + min(up (i-1, j), left (i, j-1),
        # diagonal (i-1, j-1)); rows s..e of diagonal d
        cell = cur[s : e + 1]
        np.minimum(up[s - 1 : e], up[s : e + 1], out=cell)
        np.minimum(cell, diag[s - 1 : e], out=cell)
        step = np.subtract(at[s - 1 : e], br[m - d + s : m - d + e + 1], out=cost[: e + 1 - s])
        np.abs(step, out=step)
        np.add(step, cell, out=cell)
        # the next two diagonals read rows s - 1 .. e + 1 of this one.
        # Rows above e were never written (e_d never falls), so they are
        # still inf; row s - 1 may hold a cell of diagonal d - 3.
        cur[s - 1] = np.inf
    out[ok] = bufs[(n + m) % 3][n]
    return out
