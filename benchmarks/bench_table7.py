"""Table VII benchmark: encoding cost as a function of P1 / P2.

The paper's complexity analysis (Sec. V-F) predicts smaller segment
lengths (more segments) cost more in self-attention; these benchmarks
expose that scaling on both encoders.
"""
import dataclasses

import numpy as np
import pytest

from repro.chartsim.extractor import extract
from repro.chartsim.renderer import render_chart
from repro.config import FCMConfig
from repro.core.data import LakeTable
from repro.core.dataset_encoder import DatasetEncoder
from repro.core.line_encoder import LineChartEncoder


@pytest.fixture(scope="module")
def query():
    rng = np.random.default_rng(0)
    return extract(render_chart([np.cumsum(rng.standard_normal(400))]))


@pytest.mark.parametrize("p1", [15, 60, 240])
def test_line_encoding_vs_p1(benchmark, query, p1):
    enc = LineChartEncoder(dataclasses.replace(FCMConfig(), p1=p1))
    q = benchmark(enc.encode, query)
    assert q.line_embs[0].shape[0] == 480 // p1


@pytest.mark.parametrize("p2", [16, 64, 256])
def test_column_encoding_vs_p2(benchmark, p2):
    rng = np.random.default_rng(1)
    col = np.cumsum(rng.standard_normal(512))
    enc = DatasetEncoder(dataclasses.replace(FCMConfig(), p2=p2))
    te = benchmark(enc.encode_table, LakeTable("t", [col]))
    # the identity variant is the column's first packed variant
    assert te.packed.offsets[1] == max(1, round(512 / p2))
