"""Core data model: tables, underlying data, and aggregation operators.

* :class:`LakeTable` — an in-memory table (list of numeric columns). The
  resident Spark lake holds these objects whole (``lake/resident.py``), and
  the long-format DataFrame of ``lake/repository.py`` is decoded back into
  them inside the embedding job's pandas UDF.
* :func:`aggregate_series` — tumbling-window aggregation (Sec. II: avg,
  sum, max, min over a window size), the operator family behind DA-based
  queries.
* :func:`interval_hulls` — the per-column index interval (Sec. VI-A), the
  one definition shared by the interval tree and the dataset encoder.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def interval_hulls(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index interval ``[min(min, sum), max(max, sum)]`` of each row of a
    ``(C, n)`` column stack (Sec. VI-A).

    The paper indexes each column by the value range any aggregation of
    it can reach: min under ``min``, sum under ``sum``. When a column has
    negative values its plain sum can undershoot the min, so the key is
    the hull of {min, max, sum}. A row with a NaN or ±inf value has no
    interval: both bounds are NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    finite = np.isfinite(x).all(axis=1)
    # zero the non-finite rows first, so no reduction sees inf - inf
    x = np.where(finite[:, None], x, 0.0)
    total = x.sum(axis=1)
    lo = np.minimum(x.min(axis=1), total)
    hi = np.maximum(x.max(axis=1), total)
    lo[~finite] = hi[~finite] = np.nan
    return lo, hi


@dataclass
class LakeTable:
    """An in-memory numeric table (the unit of discovery).

    ``columns`` holds the numeric columns as float64 arrays; all columns
    share the same length (``n_rows``).
    """

    table_id: str
    columns: list[np.ndarray]

    def __post_init__(self) -> None:
        self.columns = [np.asarray(c, dtype=np.float64).ravel() for c in self.columns]
        if not self.columns:
            raise ValueError(f"table {self.table_id}: at least one column required")
        lens = {c.size for c in self.columns}
        if len(lens) != 1:
            raise ValueError(f"table {self.table_id}: ragged columns {lens}")
        if 0 in lens:
            raise ValueError(f"table {self.table_id}: columns have no rows")

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    @property
    def n_rows(self) -> int:
        return int(self.columns[0].size)
