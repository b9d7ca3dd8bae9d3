"""Tests for the interval rule of repro.core.data and the index built on it
in repro.index.interval_tree."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.config import AGG_OPS, FCMConfig
from repro.core.data import LakeTable, aggregate_series, overlaps, pad_query_range
from repro.core.dataset_encoder import DatasetEncoder
from repro.core.line_encoder import QueryEncoding
from repro.core.matcher import filter_columns
from repro.index.interval_tree import (
    TableIntervals,
    build_table_interval_tree,
    interval_tree_candidates,
)


@pytest.fixture(scope="module")
def encoder():
    return DatasetEncoder(FCMConfig().without_da())


class TestIntervalTree:
    """The closed-interval predicate, and a probe of the index record."""

    def test_basic_overlap(self):
        index = TableIntervals(
            lo=np.array([0.0, 20.0, 5.0, 1.0]),
            hi=np.array([10.0, 30.0, 25.0, 2.0]),
            tix=np.array([0, 1, 2, 0]),
            table_ids=("a", "b", "c"),
        )
        # table "a" has two keys; a probe names it once
        assert interval_tree_candidates(index, (8.0, 9.0), pad=0.0) == {"a", "c"}
        assert interval_tree_candidates(index, (26.0, 40.0), pad=0.0) == {"b"}
        assert interval_tree_candidates(index, (0.0, 40.0), pad=0.0) == {"a", "b", "c"}

    def test_touching_endpoints_included(self):
        assert overlaps(0.0, 10.0, 10.0, 20.0)
        assert overlaps(0.0, 10.0, -5.0, 0.0)

    def test_disjoint_query_empty(self):
        assert not overlaps(0.0, 10.0, 11.0, 20.0)
        assert not overlaps(0.0, 10.0, -20.0, -1.0)

    def test_point_intervals(self):
        assert overlaps(5.0, 5.0, 5.0, 5.0)
        assert not overlaps(5.0, 5.0, 4.9, 4.99)

    @pytest.mark.parametrize("lo,hi", [(np.nan, np.nan), (np.nan, 1.0), (0.0, np.nan)])
    def test_nan_key_meets_nothing(self, lo, hi):
        assert not overlaps(lo, hi, -np.inf, np.inf)

    def test_arrays_match_scalars(self):
        lo = np.array([0.0, 20.0, 5.0, np.nan, 9.0])
        hi = np.array([10.0, 30.0, 25.0, np.nan, 9.0])
        got = overlaps(lo, hi, 8.0, 9.0)
        assert got.tolist() == [overlaps(a, b, 8.0, 9.0) for a, b in zip(lo, hi)]
        assert got.tolist() == [True, False, True, False, True]

    def test_empty_tree(self):
        index = build_table_interval_tree({})
        assert index.lo.size == index.hi.size == index.tix.size == 0
        assert interval_tree_candidates(index, (0.0, 1.0)) == set()


class TestTableIndexing:
    def test_no_false_negatives(self):
        """The interval filter must never prune the true table — this is
        why Table VIII shows identical effectiveness to a linear scan."""
        rng = np.random.default_rng(1)
        tables = {}
        for i in range(20):
            cols = [rng.uniform(-100, 100) + rng.random(50) * 10 for _ in range(3)]
            tables[f"t{i}"] = LakeTable(f"t{i}", cols)
        index = build_table_interval_tree(tables)
        for tid, t in tables.items():
            c = t.columns[0]
            y_range = (float(c.min()), float(c.max()))
            cands = interval_tree_candidates(index, y_range)
            assert tid in cands

    def test_far_range_pruned(self):
        t = LakeTable("t", [np.linspace(0, 1, 50)])
        index = build_table_interval_tree({"t": t})
        assert interval_tree_candidates(index, (1e6, 2e6)) == set()

    def test_pad_query_range(self):
        lo, hi = pad_query_range((0.0, 10.0), pad=0.1)
        assert lo == pytest.approx(-1.0)
        assert hi == pytest.approx(11.0)

    def test_non_finite_columns_not_indexed(self):
        """A NaN or ±inf column has no key; it must neither enter the
        index nor corrupt the probes of the finite columns."""
        tables = {
            "fin": LakeTable("fin", [np.arange(5.0)]),  # key [0, 10]
            "nan": LakeTable("nan", [np.array([1.0, np.nan, 3.0])]),
            "inf": LakeTable("inf", [np.array([1.0, 2.0, np.inf])]),
            "mix": LakeTable("mix", [np.array([1.0, np.nan, 3.0]), np.array([100.0, 101.0, 102.0])]),
        }
        index = build_table_interval_tree(tables)
        assert index.lo == pytest.approx([0.0, 100.0])
        assert index.hi == pytest.approx([10.0, 303.0])
        assert [index.table_ids[i] for i in index.tix] == ["fin", "mix"]
        assert interval_tree_candidates(index, (-1e9, -1e9 + 1), pad=0.0) == set()
        assert interval_tree_candidates(index, (5.0, 6.0), pad=0.0) == {"fin"}
        assert interval_tree_candidates(index, (200.0, 400.0), pad=0.0) == {"mix"}

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float64, st.integers(1, 250), elements=st.floats(-1e6, 1e6)))
    def test_aggregated_query_covered(self, encoder, col):
        """For every operator and window 2..100 of a signed column, a chart
        of the aggregate probes its table and the column filter keeps the
        column. A far decoy column keeps the filter from falling back to
        all columns."""
        table = LakeTable("t", [col, np.full(col.size, 1e9)])
        index = build_table_interval_tree({"t": table})
        encoding = encoder.encode_table(table)
        for op in AGG_OPS:
            for w in range(2, 101):
                agg = aggregate_series(col, op, w)
                y_range = (float(agg.min()), float(agg.max()))
                assert interval_tree_candidates(index, y_range) == {"t"}, (op, w)
                query = QueryEncoding("q", [], np.empty((0, 2)), y_range)
                assert [c.col_id for c in filter_columns(query, encoding)] == [0], (op, w)
