"""Interval tree index (Sec. VI-A).

Each repository column is indexed by its interval hull
(:func:`repro.core.data.interval_hulls`: ``[min(min, sum), max(max, sum)]``,
the value range any supported aggregation of the column can reach), and
a dataset is a candidate for a query iff at least one of its columns'
intervals overlaps the query's padded y-tick range. A column with a NaN
or ±inf value has no interval and is not indexed. Because the filter is
conservative it admits no false negatives on finite columns, so
effectiveness equals a linear scan (paper Table VIII).

:class:`IntervalTree` is a classic centered interval tree, built and
probed on the driver with O(log n + out) overlap queries.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.data import LakeTable, interval_hulls


@dataclass
class _Node:
    center: float
    by_lo: list[tuple[float, float, Any]]
    by_hi: list[tuple[float, float, Any]]
    left: "_Node | None" = None
    right: "_Node | None" = None


@dataclass
class IntervalTree:
    """Centered interval tree over (lo, hi, payload) intervals."""

    intervals: list[tuple[float, float, Any]]
    root: _Node | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        for lo, hi, _ in self.intervals:
            # also rejects NaN bounds, which would corrupt the tree
            if not lo <= hi:
                raise ValueError(f"invalid interval [{lo}, {hi}]")
        self.root = self._build(list(self.intervals))

    def _build(self, items: list[tuple[float, float, Any]]) -> _Node | None:
        if not items:
            return None
        endpoints = sorted({x for lo, hi, _ in items for x in (lo, hi)})
        center = endpoints[len(endpoints) // 2]
        here, left, right = [], [], []
        for iv in items:
            lo, hi, _ = iv
            if hi < center:
                left.append(iv)
            elif lo > center:
                right.append(iv)
            else:
                here.append(iv)
        node = _Node(
            center=center,
            by_lo=sorted(here, key=lambda iv: iv[0]),
            by_hi=sorted(here, key=lambda iv: -iv[1]),
        )
        node.left = self._build(left)
        node.right = self._build(right)
        return node

    def query(self, qlo: float, qhi: float) -> list[Any]:
        """Payloads of all intervals overlapping [qlo, qhi] (closed)."""
        if qhi < qlo:
            raise ValueError("query interval reversed")
        out: list[Any] = []
        self._query(self.root, qlo, qhi, out)
        return out

    def _query(self, node: _Node | None, qlo: float, qhi: float, out: list[Any]) -> None:
        if node is None:
            return
        if qhi < node.center:
            # only intervals whose lo <= qhi can overlap
            for lo, hi, payload in node.by_lo:
                if lo > qhi:
                    break
                out.append(payload)
            self._query(node.left, qlo, qhi, out)
        elif qlo > node.center:
            for lo, hi, payload in node.by_hi:
                if hi < qlo:
                    break
                out.append(payload)
            self._query(node.right, qlo, qhi, out)
        else:
            for _, _, payload in node.by_lo:
                out.append(payload)
            self._query(node.left, qlo, qhi, out)
            self._query(node.right, qlo, qhi, out)


#: share of the tick range added on each side of a query's y-range: the
#: slack for tick rounding, in the tree probe and in the matcher's filter
QUERY_PAD = 0.25


def pad_query_range(y_range: tuple[float, float], pad: float = QUERY_PAD) -> tuple[float, float]:
    """Pad the tick-derived y-range before probing (tick rounding slack)."""
    lo, hi = y_range
    span = max(hi - lo, 1e-12)
    return lo - pad * span, hi + pad * span


def build_table_interval_tree(tables: dict[str, LakeTable]) -> IntervalTree:
    """Index the interval hull of every finite column of every table;
    payload = table_id."""
    items: list[tuple[float, float, Any]] = []
    for tid, t in tables.items():
        lo, hi = interval_hulls(np.vstack(t.columns))
        keep = ~np.isnan(lo)
        items.extend((l, h, tid) for l, h in zip(lo[keep].tolist(), hi[keep].tolist()))
    return IntervalTree(items)


def interval_tree_candidates(
    tree: IntervalTree, y_range: tuple[float, float], pad: float = QUERY_PAD
) -> set[str]:
    qlo, qhi = pad_query_range(y_range, pad)
    return set(tree.query(qlo, qhi))
