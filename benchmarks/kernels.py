"""Per-pair cost of the DTW kernel against the scalar one-pair oracle.

Writes ``BENCH_kernels.json`` at the repository root. For each of the
benchmark's DTW shapes (series length × column length after resampling
to 128, band 16) it times the scalar oracle of ``tests/test_dtw.py`` and
``dtw_distances`` at stack sizes 1, 9 and ``STACK_PAIRS``, and checks the
two agree bit for bit. It then builds the tiny benchmark's local ground
truth both ways (``rel_scores`` in one call, and the oracle one (query,
table) pair at a time) and checks the rankings are identical.

Run from the repository root (about a minute on 4 cores):

    PYTHONPATH=src python benchmarks/kernels.py
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from repro.bench.benchmark import build_benchmark  # noqa: E402
from repro.config import tiny_benchmark_config  # noqa: E402
from repro.core.dtw import dtw_distances  # noqa: E402
from repro.core.relevance import STACK_PAIRS, rel_scores  # noqa: E402
from tests.test_dtw import dtw_reference  # noqa: E402
from tests.test_relevance import rel_reference  # noqa: E402

BAND = 16
SHAPES = [(128, 128), (80, 128), (40, 128), (20, 128), (10, 128)]
STACKS = [1, 9, STACK_PAIRS]
SCALAR_PAIRS = 9
REPEATS = 5


def _median_s(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def kernel_rows(rng: np.random.Generator) -> list[dict]:
    rows = []
    for n, m in SHAPES:
        a = np.cumsum(rng.standard_normal((STACK_PAIRS, n)), axis=1)
        b = np.cumsum(rng.standard_normal((STACK_PAIRS, m)), axis=1)
        scalar = _median_s(
            lambda: [dtw_reference(a[p], b[p], band=BAND) for p in range(SCALAR_PAIRS)]
        ) / SCALAR_PAIRS
        kernel = {
            str(p): 1e6 * _median_s(lambda: dtw_distances(a[:p], b[:p], band=BAND)) / p
            for p in STACKS
        }
        want = [dtw_reference(a[p], b[p], band=BAND) for p in range(SCALAR_PAIRS)]
        got = dtw_distances(a, b, band=BAND)[:SCALAR_PAIRS].tolist()
        rows.append(
            {
                "shape": f"{n}x{m}",
                "scalar_us_per_pair": round(1e6 * scalar, 1),
                "kernel_us_per_pair": {k: round(v, 1) for k, v in kernel.items()},
                "speedup_at_largest_stack": round(1e6 * scalar / kernel[str(STACK_PAIRS)], 1),
                "bit_identical": got == want,
            }
        )
        print(rows[-1], flush=True)
    return rows


def ground_truth_row(seed: int = 13) -> dict:
    bench = build_benchmark(tiny_benchmark_config(seed=seed))
    tids = list(bench.repository)
    tables = list(bench.repository.values())
    datas = [q.data for q in bench.queries]
    t = time.perf_counter()
    rel = rel_scores(datas, tables)
    batched_s = time.perf_counter() - t
    t = time.perf_counter()
    ref = np.array([[rel_reference(d, tb) for tb in tables] for d in datas])
    oracle_s = time.perf_counter() - t

    def topk(r):
        return [sorted(zip(tids, row), key=lambda x: (-x[1], x[0]))[: bench.cfg.k] for row in r]

    return {
        "config": f"tiny_benchmark_config(seed={seed})",
        "queries": len(datas),
        "tables": len(tables),
        "series_column_pairs": int(sum(len(d) for d in datas) * sum(tb.n_cols for tb in tables)),
        "oracle_s": round(oracle_s, 2),
        "rel_scores_s": round(batched_s, 2),
        "speedup": round(oracle_s / batched_s, 1),
        "rel_bit_identical": bool(np.array_equal(rel, ref)),
        "rankings_identical": topk(rel) == topk(ref),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> None:
    out = {
        "what": "DTW kernel us per (series, column) pair vs the scalar oracle; "
        "tiny-benchmark local ground truth, batched vs one pair at a time",
        "band": BAND,
        "stack_pairs": STACKS,
        "timing": f"median of {REPEATS} runs; scalar over {SCALAR_PAIRS} pairs",
        "hardware": {
            "cpu": _cpu_model(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "kernel": kernel_rows(np.random.default_rng(0)),
        "ground_truth": ground_truth_row(),
    }
    print(out["ground_truth"], flush=True)
    with open(os.path.join(ROOT, "BENCH_kernels.json"), "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
