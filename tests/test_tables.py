"""Tests for repro.bench.tables (paper-number transcription sanity)."""
from repro.bench.plotly_lite import M_BUCKETS, WINDOW_BUCKETS
from repro.bench.tables import (
    METHOD_ORDER,
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_TABLE5,
    PAPER_TABLE6,
    PAPER_TABLE7,
    PAPER_TABLE8,
    PAPER_TABLE9,
    fmt_row,
)


class TestPaperNumbers:
    def test_table2_headline_claim(self):
        """FCM beats the best baseline by 30.1% prec / 41.0% ndcg."""
        row_p = PAPER_TABLE2[("Overall", "prec")]
        row_n = PAPER_TABLE2[("Overall", "ndcg")]
        best_p = max(v for k, v in row_p.items() if k != "FCM")
        best_n = max(v for k, v in row_n.items() if k != "FCM")
        assert abs(row_p["FCM"] / best_p - 1.301) < 0.01
        assert abs(row_n["FCM"] / best_n - 1.410) < 0.01

    def test_table2_fcm_always_best(self):
        for row in PAPER_TABLE2.values():
            assert max(row, key=row.get) == "FCM"

    def test_table3_degrades_with_m(self):
        for method in METHOD_ORDER:
            precs = [PAPER_TABLE3[(b, "prec")][method] for b in M_BUCKETS]
            assert precs[0] > precs[-1]

    def test_table4_collapse_past_p2(self):
        """prec drops sharply once window > 60 (~P2=64), every operator."""
        for op, row in PAPER_TABLE4.items():
            small = max(row[b] for b in ("0-20", "20-40", "40-60"))
            large = max(row[b] for b in ("60-80", "80-100"))
            assert small > large

    def test_table5_fcm_beats_ablation(self):
        for bucket in ("Overall", *M_BUCKETS):
            assert PAPER_TABLE5[(bucket, "FCM")][0] > PAPER_TABLE5[(bucket, "FCM-HCMAN")][0]

    def test_table6_da_layers_matter_most_on_da(self):
        gap_da = PAPER_TABLE6[("FCM", "With DA")][0] - PAPER_TABLE6[("FCM-DA", "With DA")][0]
        gap_noda = abs(
            PAPER_TABLE6[("FCM", "Without DA")][0] - PAPER_TABLE6[("FCM-DA", "Without DA")][0]
        )
        assert gap_da > 0.2 > gap_noda

    def test_table7_peak_at_60_64(self):
        assert max(PAPER_TABLE7, key=PAPER_TABLE7.get) == (60, 64)

    def test_table8_speedup_ladder(self):
        times = [PAPER_TABLE8[s][2] for s in ("none", "interval", "lsh", "hybrid")]
        assert times == sorted(times, reverse=True)
        assert PAPER_TABLE8["none"][0] == PAPER_TABLE8["interval"][0]  # lossless
        assert PAPER_TABLE8["none"][2] / PAPER_TABLE8["hybrid"][2] > 30  # ~41x

    def test_table9_rises_then_plateaus(self):
        assert PAPER_TABLE9[3][0] > PAPER_TABLE9[1][0]
        assert abs(PAPER_TABLE9[6][0] - PAPER_TABLE9[3][0]) < 0.01
        assert PAPER_TABLE9[8][0] <= PAPER_TABLE9[6][0]


class TestFormatting:
    def test_fmt_row_handles_missing(self):
        s = fmt_row("x", {"FCM": 0.5})
        assert "0.500" in s and "nan" in s

    def test_window_buckets_order(self):
        assert list(WINDOW_BUCKETS) == ["0-20", "20-40", "40-60", "60-80", "80-100"]

    def test_bucket_labels_are_the_papers(self):
        assert list(PAPER_TABLE1["Query"])[1:] == list(M_BUCKETS)
        assert all(list(row) == list(WINDOW_BUCKETS) for row in PAPER_TABLE4.values())
