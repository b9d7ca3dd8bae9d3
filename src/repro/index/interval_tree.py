"""Interval index (Sec. VI-A).

Each repository column is indexed by its interval key (the value range
any supported aggregation of the column can reach), which its
:class:`~repro.core.data.LakeTable` computed once, and a dataset is a
candidate for a query iff at least one of its columns' keys overlaps the
query's padded y-tick range (:func:`repro.core.data.overlaps`, the test
the matcher's column filter applies too). A column the table marks
unusable (``LakeTable.finite``: a NaN or ±inf value) is not indexed.
Because the filter is conservative it admits no false negatives on
finite columns, so effectiveness equals a linear scan (paper Table VIII).

The paper stores the keys in an interval tree. Here a probe admits
nearly every table, so :class:`TableIntervals` keeps them as flat arrays
and a probe is one vectorised overlap test over all of them, on the
driver.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.data import QUERY_PAD, LakeTable, overlaps, pad_query_range


@dataclass(frozen=True)
class TableIntervals:
    """The key ``[lo, hi]`` of every finite column, and its table."""

    lo: np.ndarray               # (N,) float
    hi: np.ndarray               # (N,) float
    tix: np.ndarray              # (N,) int: the column's table in ``table_ids``
    table_ids: tuple[str, ...]


def build_table_interval_tree(tables: dict[str, LakeTable]) -> TableIntervals:
    """Index the interval key of every finite column of every table."""
    ts = tables.values()
    keep = np.concatenate([np.empty(0, dtype=bool), *(t.finite for t in ts)])
    lo = np.concatenate([np.empty(0), *(t.key_lo for t in ts)])
    hi = np.concatenate([np.empty(0), *(t.key_hi for t in ts)])
    tix = np.repeat(np.arange(len(ts)), [t.n_cols for t in ts])
    return TableIntervals(lo[keep], hi[keep], tix[keep], tuple(tables))


def interval_tree_candidates(
    index: TableIntervals, y_range: tuple[float, float], pad: float = QUERY_PAD
) -> set[str]:
    """Ids of the tables with a column key overlapping the padded y-range."""
    qlo, qhi = pad_query_range(y_range, pad)
    hit = np.zeros(len(index.table_ids), dtype=bool)
    hit[index.tix[overlaps(index.lo, index.hi, qlo, qhi)]] = True
    return {index.table_ids[i] for i in np.flatnonzero(hit).tolist()}
