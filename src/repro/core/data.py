"""Core data model: tables, underlying data, and aggregation operators.

* :class:`LakeTable` — an in-memory table: a column matrix with its keys
  and finite mask. The resident Spark lake holds these objects whole
  (``lake/resident.py``), and the long-format DataFrame of
  ``lake/repository.py`` is decoded back into them in the embedding UDF.
* :func:`aggregate_series` — tumbling-window aggregation (Sec. II: avg,
  sum, max, min over a window size), the operator family behind DA-based
  queries.
* The interval rule (Sec. IV-C, VI-A), the one definition the index
  probe and the matcher's column filter share: :func:`interval_keys`
  (each column's key), :func:`pad_query_range` (the query side) and
  :func:`overlaps` (the closed-interval test between them).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import AGG_OPS

_OP_FUNCS = {
    "avg": np.mean,
    "sum": np.sum,
    "max": np.max,
    "min": np.min,
}


def aggregate_series(a: np.ndarray, op: str, window: int) -> np.ndarray:
    """Tumbling-window aggregation of a 1-D series, or of each row of a
    ``(..., n)`` stack.

    The series is split into consecutive windows of ``window`` points
    (the final partial window is kept) and each window is reduced with
    ``op``. ``op='id'`` or ``window<=1`` returns a copy.
    """
    a = np.asarray(a, dtype=np.float64)
    if op == "id" or window <= 1:
        return a.copy()
    if op not in _OP_FUNCS:
        raise ValueError(f"unknown aggregation operator {op!r}; expected {AGG_OPS}")
    size = a.shape[-1]
    window = min(window, size)
    n_full = size // window
    f = _OP_FUNCS[op]
    out = f(a[..., : n_full * window].reshape(*a.shape[:-1], n_full, window), axis=-1)
    tail = a[..., n_full * window :]
    if tail.shape[-1]:
        out = np.concatenate([out, f(tail, axis=-1, keepdims=True)], axis=-1)
    return out


def interval_keys(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index key ``[lo, hi]`` of each row of a ``(C, n)`` column stack:
    the least and the greatest sum of a contiguous run of its values
    (Sec. VI-A).

    The paper indexes each column by the value range any aggregation of
    it can reach. Every tumbling-window ``sum`` is a contiguous-run sum,
    and every ``avg``, ``min`` or ``max`` lies between the smallest and
    the largest single value, which are runs of length one. With prefix
    sums ``c`` (``c_0 = 0``), ``hi = max_j (c_j - min_{i<j} c_i)`` and
    ``lo = min_j (c_j - max_{i<j} c_i)``. On a column without mixed signs
    this is ``[min, sum]`` (or ``[sum, max]``). Both bounds then move out
    by ``2 n eps sum|x|``, a bound on the rounding error of an ``n``-term
    float sum, so the key holds for window results as computed, not only
    for exact sums. A row with a NaN or ±inf value has no key: both
    bounds are NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    finite = np.isfinite(x).all(axis=1)
    # zero the non-finite rows first, so no reduction sees inf - inf
    x = np.where(finite[:, None], x, 0.0)
    c = np.concatenate([np.zeros((len(x), 1)), np.cumsum(x, axis=1)], axis=1)
    hi = (c[:, 1:] - np.minimum.accumulate(c[:, :-1], axis=1)).max(axis=1)
    lo = (c[:, 1:] - np.maximum.accumulate(c[:, :-1], axis=1)).min(axis=1)
    tol = 2 * x.shape[1] * np.finfo(np.float64).eps * np.abs(x).sum(axis=1)
    lo, hi = lo - tol, hi + tol
    lo[~finite] = hi[~finite] = np.nan
    return lo, hi


#: share of the tick range added on each side of a query's y-range: the
#: slack for tick rounding, in the index probe and in the matcher's filter
QUERY_PAD = 0.25


def pad_query_range(y_range: tuple[float, float], pad: float = QUERY_PAD) -> tuple[float, float]:
    """Pad the tick-derived y-range before probing (tick rounding slack)."""
    lo, hi = y_range
    span = max(hi - lo, 1e-12)
    return lo - pad * span, hi + pad * span


def overlaps(lo, hi, qlo: float, qhi: float):
    """Whether the closed key ``[lo, hi]`` meets the closed query range
    ``[qlo, qhi]``. The bounds may be scalars or arrays; a NaN key meets
    nothing."""
    return (lo <= qhi) & (hi >= qlo)


@dataclass
class LakeTable:
    """An in-memory numeric table (the unit of discovery), and the one
    place that decides which of its columns are usable.

    ``columns`` is stored as one read-only, C-contiguous ``(C, n_rows)``
    float64 matrix. ``key_lo``/``key_hi`` are its :func:`interval_keys` (the
    only caller), and ``finite`` marks a column usable exactly when its key
    is not NaN: it holds no NaN or ±inf cell. Every consumer reads these.
    """

    table_id: str
    columns: np.ndarray
    finite: np.ndarray = field(init=False, repr=False)
    key_lo: np.ndarray = field(init=False, repr=False)
    key_hi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cols = [np.asarray(c, dtype=np.float64).ravel() for c in self.columns]
        if not cols:
            raise ValueError(f"table {self.table_id}: at least one column required")
        lens = {c.size for c in cols}
        if len(lens) != 1:
            raise ValueError(f"table {self.table_id}: ragged columns {lens}")
        if 0 in lens:
            raise ValueError(f"table {self.table_id}: columns have no rows")
        self.columns = np.vstack(cols)
        self.key_lo, self.key_hi = interval_keys(self.columns)
        self.finite = ~np.isnan(self.key_lo)
        # computed once for every consumer: none may change them
        for a in (self.columns, self.key_lo, self.key_hi, self.finite):
            a.flags.writeable = False

    @property
    def n_cols(self) -> int:
        return self.columns.shape[0]

    @property
    def n_rows(self) -> int:
        return self.columns.shape[1]
