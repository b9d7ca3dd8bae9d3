"""``benchmarks/kernels.py`` runs, and its production kernels agree with
the oracles, on a small slice of the tiny benchmark.

The script writes ``BENCH_kernels.json`` from these rows; this test keeps
it importable and its row functions callable. ``kernel_rows`` (random DTW
stacks timed at every size) is left to the script.
"""
import dataclasses

from benchmarks import kernels
from repro.bench.benchmark import build_benchmark
from repro.config import tiny_benchmark_config
from repro.core.fcm import make_model


def test_rows_on_a_small_slice():
    bench = build_benchmark(tiny_benchmark_config(seed=13))
    small = dataclasses.replace(
        bench,
        repository=dict(list(bench.repository.items())[:6]),
        queries=bench.queries[:2],
    )
    model = make_model(small.cfg.fcm)
    assert kernels.ground_truth_row(small)["rel_bit_identical"]
    assert kernels.encoder_row(small, model)["max_abs_delta_embedding"] <= 1e-12
    assert kernels.matcher_row(small, model)["pairs_ops_kept_identical"]
    assert kernels.qetch_row(small)["bit_identical"]
