"""Tests for repro.chartsim.spec (VisSpec + underlying data)."""
import numpy as np
import pytest

from repro.chartsim.spec import ChartRecord, VisSpec, underlying_data
from repro.core.data import LakeTable


@pytest.fixture()
def table():
    return LakeTable("t", [np.arange(100.0), np.arange(100.0) * 2, np.ones(100)])


class TestVisSpec:
    def test_m(self):
        assert VisSpec(y_cols=(0, 2)).m == 2

    def test_is_da(self):
        assert VisSpec(y_cols=(0,), agg_op="avg", window=5).is_da
        assert not VisSpec(y_cols=(0,)).is_da
        assert not VisSpec(y_cols=(0,), agg_op="avg", window=1).is_da
        assert not VisSpec(y_cols=(0,), agg_op="id", window=9).is_da

    def test_frozen(self):
        spec = VisSpec(y_cols=(0,))
        with pytest.raises(Exception):
            spec.window = 3


class TestUnderlyingData:
    def test_plain_selects_columns(self, table):
        d = underlying_data(table, VisSpec(y_cols=(1, 0)))
        np.testing.assert_allclose(d[0], table.columns[1])
        np.testing.assert_allclose(d[1], table.columns[0])

    def test_row_range_slice(self, table):
        d = underlying_data(table, VisSpec(y_cols=(0,), row_range=(10, 20)))
        np.testing.assert_allclose(d[0], np.arange(10.0, 20.0))

    def test_aggregation_applied(self, table):
        d = underlying_data(table, VisSpec(y_cols=(0,), agg_op="sum", window=10))
        assert d[0].size == 10
        assert d[0][0] == pytest.approx(np.arange(10).sum())

    def test_row_range_before_aggregation(self, table):
        d = underlying_data(
            table, VisSpec(y_cols=(0,), agg_op="max", window=5, row_range=(0, 50))
        )
        assert d[0].size == 10

    def test_empty_spec_raises(self, table):
        with pytest.raises(ValueError):
            underlying_data(table, VisSpec(y_cols=()))


class TestChartRecord:
    def test_holds_pair(self, table):
        rec = ChartRecord(table=table, spec=VisSpec(y_cols=(0,)))
        assert rec.table.table_id == "t"
        assert rec.spec.y_cols == (0,)
