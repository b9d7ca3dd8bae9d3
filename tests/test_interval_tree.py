"""Tests for repro.index.interval_tree."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.data import LakeTable
from repro.index.interval_tree import (
    IntervalTree,
    build_table_interval_tree,
    interval_tree_candidates,
    pad_query_range,
)


def brute_force_overlaps(intervals, qlo, qhi):
    """Reference linear scan: payloads of all intervals meeting [qlo, qhi]."""
    return [p for lo, hi, p in intervals if lo <= qhi and hi >= qlo]


class TestIntervalTree:
    def test_basic_overlap(self):
        tree = IntervalTree([(0, 10, "a"), (20, 30, "b"), (5, 25, "c")])
        assert sorted(tree.query(8, 9)) == ["a", "c"]
        assert sorted(tree.query(26, 40)) == ["b"]
        assert sorted(tree.query(0, 40)) == ["a", "b", "c"]

    def test_touching_endpoints_included(self):
        tree = IntervalTree([(0, 10, "a")])
        assert tree.query(10, 20) == ["a"]
        assert tree.query(-5, 0) == ["a"]

    def test_disjoint_query_empty(self):
        tree = IntervalTree([(0, 10, "a")])
        assert tree.query(11, 20) == []

    def test_point_intervals(self):
        tree = IntervalTree([(5, 5, "p")])
        assert tree.query(5, 5) == ["p"]
        assert tree.query(4.9, 4.99) == []

    def test_invalid_interval_raises(self):
        with pytest.raises(ValueError):
            IntervalTree([(10, 0, "x")])

    @pytest.mark.parametrize("lo,hi", [(np.nan, np.nan), (np.nan, 1.0), (0.0, np.nan)])
    def test_nan_interval_raises(self, lo, hi):
        with pytest.raises(ValueError):
            IntervalTree([(0.0, 10.0, "a"), (lo, hi, "x")])

    def test_reversed_query_raises(self):
        tree = IntervalTree([(0, 1, "a")])
        with pytest.raises(ValueError):
            tree.query(2, 1)

    def test_empty_tree(self):
        assert IntervalTree([]).query(0, 1) == []

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-100, 100), st.floats(0, 50)),
            min_size=0,
            max_size=40,
        ),
        st.floats(-120, 120),
        st.floats(0, 60),
    )
    def test_matches_brute_force(self, raw, qlo, qspan):
        intervals = [(lo, lo + span, i) for i, (lo, span) in enumerate(raw)]
        tree = IntervalTree(intervals)
        got = sorted(tree.query(qlo, qlo + qspan))
        want = sorted(brute_force_overlaps(intervals, qlo, qlo + qspan))
        assert got == want

    def test_large_tree_logarithmic_shape(self):
        rng = np.random.default_rng(0)
        intervals = [(lo, lo + rng.random() * 5, i) for i, lo in enumerate(rng.random(5000) * 1000)]
        tree = IntervalTree(intervals)
        got = sorted(tree.query(100, 105))
        want = sorted(brute_force_overlaps(intervals, 100, 105))
        assert got == want


class TestTableIndexing:
    def test_no_false_negatives(self):
        """The interval filter must never prune the true table — this is
        why Table VIII shows identical effectiveness to a linear scan."""
        rng = np.random.default_rng(1)
        tables = {}
        for i in range(20):
            cols = [rng.uniform(-100, 100) + rng.random(50) * 10 for _ in range(3)]
            tables[f"t{i}"] = LakeTable(f"t{i}", cols)
        tree = build_table_interval_tree(tables)
        for tid, t in tables.items():
            c = t.columns[0]
            y_range = (float(c.min()), float(c.max()))
            cands = interval_tree_candidates(tree, y_range)
            assert tid in cands

    def test_aggregated_query_covered(self):
        """Even a sum-aggregated chart's range is inside [min, sum]."""
        rng = np.random.default_rng(2)
        col = rng.random(200) + 1.0
        t = LakeTable("t", [col])
        tree = build_table_interval_tree({"t": t})
        from repro.core.data import aggregate_series

        agg = aggregate_series(col, "sum", 20)
        cands = interval_tree_candidates(tree, (float(agg.min()), float(agg.max())))
        assert "t" in cands

    def test_far_range_pruned(self):
        t = LakeTable("t", [np.linspace(0, 1, 50)])
        tree = build_table_interval_tree({"t": t})
        assert interval_tree_candidates(tree, (1e6, 2e6)) == set()

    def test_pad_query_range(self):
        lo, hi = pad_query_range((0.0, 10.0), pad=0.1)
        assert lo == pytest.approx(-1.0)
        assert hi == pytest.approx(11.0)

    def test_non_finite_columns_not_indexed(self):
        """A NaN or ±inf column has no interval; it must neither enter the
        tree nor corrupt the probes of the finite columns."""
        tables = {
            "fin": LakeTable("fin", [np.arange(5.0)]),  # interval [0, 10]
            "nan": LakeTable("nan", [np.array([1.0, np.nan, 3.0])]),
            "inf": LakeTable("inf", [np.array([1.0, 2.0, np.inf])]),
            "mix": LakeTable("mix", [np.array([1.0, np.nan, 3.0]), np.array([100.0, 101.0, 102.0])]),
        }
        tree = build_table_interval_tree(tables)
        assert tree.intervals == [(0.0, 10.0, "fin"), (100.0, 303.0, "mix")]
        assert tree.query(-1e9, -1e9 + 1) == []
        assert tree.query(5.0, 6.0) == ["fin"]
        assert tree.query(200.0, 400.0) == ["mix"]
