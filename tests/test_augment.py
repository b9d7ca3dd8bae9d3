"""The Sec. IV-A data augmentations as the extractor's robustness suite.

The paper augments LineChartSeg by transforming the *tabular* data (not
the pixels) and re-rendering, preserving chart semantics, to train its
segmentation model. Our extractor is deterministic rather than trained
(DESIGN.md §2), so the three operators — reverse, partitioning,
down-sampling — live here and validate it instead of training it.
"""
import numpy as np
import pytest

from repro.chartsim.extractor import extract
from repro.chartsim.renderer import render_chart
from repro.config import ChartConfig
from repro.core.data import LakeTable
from repro.core.dtw import resample


def reverse(table: LakeTable, table_id: str | None = None) -> LakeTable:
    """Reverse every column: (a_1..a_n) -> (a_n..a_1)."""
    return LakeTable(
        table_id or f"{table.table_id}__rev",
        [c[::-1].copy() for c in table.columns],
    )


def partition(
    table: LakeTable, split: int | None = None, rng: np.random.Generator | None = None
) -> tuple[LakeTable, LakeTable]:
    """Split every column at ``split`` into two tables (random if None)."""
    n = table.n_rows
    if split is None:
        rng = rng or np.random.default_rng(0)
        split = int(rng.integers(max(1, n // 4), max(2, 3 * n // 4)))
    if not (0 < split < n):
        raise ValueError(f"split {split} out of range (0, {n})")
    a = LakeTable(f"{table.table_id}__p0", [c[:split].copy() for c in table.columns])
    b = LakeTable(f"{table.table_id}__p1", [c[split:].copy() for c in table.columns])
    return a, b


def down_sample(table: LakeTable, rho: int, table_id: str | None = None) -> LakeTable:
    """Keep one point per ``rho`` consecutive points in every column."""
    if rho < 1:
        raise ValueError("rho must be >= 1")
    return LakeTable(
        table_id or f"{table.table_id}__ds{rho}",
        [c[::rho].copy() for c in table.columns],
    )


@pytest.fixture()
def table():
    rng = np.random.default_rng(0)
    return LakeTable("t", [np.cumsum(rng.standard_normal(120)) for _ in range(2)])


class TestOperators:
    def test_reverse_round_trip(self, table):
        rr = reverse(reverse(table))
        for a, b in zip(rr.columns, table.columns):
            np.testing.assert_allclose(a, b)

    def test_reverse_id(self, table):
        assert reverse(table).table_id == "t__rev"

    def test_partition_lengths(self, table):
        a, b = partition(table, split=40)
        assert a.n_rows == 40 and b.n_rows == 80
        np.testing.assert_allclose(
            np.concatenate([a.columns[0], b.columns[0]]), table.columns[0]
        )

    def test_partition_bad_split_raises(self, table):
        with pytest.raises(ValueError):
            partition(table, split=0)
        with pytest.raises(ValueError):
            partition(table, split=120)

    def test_partition_random_split_seeded(self, table):
        a1, _ = partition(table, rng=np.random.default_rng(5))
        a2, _ = partition(table, rng=np.random.default_rng(5))
        assert a1.n_rows == a2.n_rows

    def test_down_sample_ratio(self, table):
        d = down_sample(table, rho=3)
        assert d.n_rows == 40
        np.testing.assert_allclose(d.columns[0], table.columns[0][::3])

    def test_down_sample_rho_one_identity(self, table):
        d = down_sample(table, rho=1)
        np.testing.assert_allclose(d.columns[0], table.columns[0])

    def test_down_sample_bad_rho(self, table):
        with pytest.raises(ValueError):
            down_sample(table, rho=0)


class TestExtractorRobustness:
    """The paper trains LCSeg on augmented charts; our deterministic
    extractor must survive the same transformations."""

    def _err(self, series, trace):
        ref = resample(series, trace.size)
        return float(np.abs(ref - trace).mean() / (np.ptp(ref) or 1.0))

    @pytest.mark.parametrize("op", ["reverse", "down", "part"])
    def test_extraction_survives_augmentation(self, table, op):
        cfg = ChartConfig()
        if op == "reverse":
            t = reverse(table)
        elif op == "down":
            t = down_sample(table, rho=2)
        else:
            t, _ = partition(table, split=60)
        eq = extract(render_chart([t.columns[0]], cfg))
        assert self._err(t.columns[0], eq.lines[0]) < 0.04
