"""Cost of the batched kernels against the scalar oracles in ``tests/``.

Writes ``BENCH_kernels.json`` at the repository root.

* ``kernel``: for each of the benchmark's DTW shapes (series length ×
  column length after resampling to 128, band 16) it times the scalar
  oracle of ``tests/test_dtw.py`` and ``dtw_distances`` at stack sizes 1,
  9 and ``STACK_PAIRS``, and checks the two agree bit for bit.
* ``ground_truth``: the tiny benchmark's local ground truth both ways
  (``rel_scores`` in one call, and the oracle one (query, table) pair at
  a time), with identical rankings required.
* ``encoder``: ms per table of ``DatasetEncoder.encode_table`` (one
  column stack per variant) against ``encode_table_reference`` of
  ``tests/test_encoders.py`` (one column, one variant at a time) over
  the tiny benchmark's lake, with the largest embedding difference (the
  packed unit-norm segment rows against the oracle's rows made unit-norm,
  and the column mean embeddings).
* ``matcher``: ms per (query, table) pair of ``match_fine`` (one packed
  matmul per pair) against ``match_reference`` of
  ``tests/test_matcher.py`` (one cosine matrix per line, column and
  variant, over the oracle encoder's rows), all tiny-benchmark queries ×
  all tables, with the largest
  feature and score differences and whether pairs, inferred operators,
  kept columns and top-k rankings are identical.
* ``qetch``: ms per (query, table) pair of ``QetchStar.score`` (one
  broadcast over the table's window stacks) against ``qetch_reference``
  of ``tests/test_baselines.py`` (one window at a time), and
  ``QetchStar.encode_table`` ms per table, all tiny-benchmark queries ×
  all tables, with whether every score is ``==`` the oracle's.

Run from the repository root (about three minutes on 4 cores):

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

from repro.baselines.qetch import QetchStar  # noqa: E402
from repro.bench.benchmark import build_benchmark  # noqa: E402
from repro.config import tiny_benchmark_config  # noqa: E402
from repro.core.dtw import dtw_distances  # noqa: E402
from repro.core.features import unit_rows  # noqa: E402
from repro.core.fcm import make_model  # noqa: E402
from repro.core.matcher import match_fine  # noqa: E402
from repro.core.relevance import STACK_PAIRS, rel_scores  # noqa: E402
from tests.test_baselines import qetch_reference  # noqa: E402
from tests.test_dtw import dtw_reference  # noqa: E402
from tests.test_encoders import encode_table_reference, packed_variants  # noqa: E402
from tests.test_matcher import match_reference  # noqa: E402
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


def _topk(tids: list[str], scores, k: int) -> list[list[str]]:
    return [
        [t for t, _ in sorted(zip(tids, row), key=lambda x: (-x[1], x[0]))[:k]]
        for row in scores
    ]


def ground_truth_row(bench) -> dict:
    tids = list(bench.repository)
    tables = list(bench.repository.values())
    datas = [q.data for q in bench.queries]
    t = time.perf_counter()
    rel = rel_scores(datas, tables)
    batched_s = time.perf_counter() - t
    t = time.perf_counter()
    ref = np.array([[rel_reference(d, tb) for tb in tables] for d in datas])
    oracle_s = time.perf_counter() - t
    return {
        "queries": len(datas),
        "tables": len(tables),
        "series_column_pairs": int(sum(len(d) for d in datas) * sum(tb.n_cols for tb in tables)),
        "oracle_s": round(oracle_s, 2),
        "rel_scores_s": round(batched_s, 2),
        "speedup": round(oracle_s / batched_s, 1),
        "rel_bit_identical": bool(np.array_equal(rel, ref)),
        "rankings_identical": _topk(tids, rel, bench.cfg.k) == _topk(tids, ref, bench.cfg.k),
    }


def encoder_row(bench, model) -> dict:
    enc = model.dataset_encoder
    tables = list(bench.repository.values())
    t = time.perf_counter()
    ref = [encode_table_reference(enc, tb) for tb in tables]
    oracle_s = time.perf_counter() - t
    prod_s = _median_s(lambda: [enc.encode_table(tb) for tb in tables])
    delta = 0.0
    for tb, want in zip(tables, ref):
        te = enc.encode_table(tb)
        for j, w in enumerate(want):
            delta = max(delta, float(np.abs(te.columns[j].mean_emb - w.mean_emb).max()))
            for (_, emb, _, _), wv in zip(packed_variants(te, j), w.variants):
                delta = max(delta, float(np.abs(emb - unit_rows(wv.emb)).max()))
    return {
        "tables": len(tables),
        "columns": sum(tb.n_cols for tb in tables),
        "oracle_ms_per_table": round(1e3 * oracle_s / len(tables), 2),
        "encode_table_ms_per_table": round(1e3 * prod_s / len(tables), 2),
        "speedup": round(oracle_s / prod_s, 1),
        "max_abs_delta_embedding": delta,
    }


def matcher_row(bench, model) -> dict:
    tau = model.cfg.attn_tau
    tids = list(bench.repository)
    encs = [model.encode_table(tb) for tb in bench.repository.values()]
    refs = [encode_table_reference(model.dataset_encoder, tb) for tb in bench.repository.values()]
    lines = [q.extracted.lines for q in bench.queries]
    queries = [model.encode_query(q.extracted) for q in bench.queries]
    n_pairs = len(queries) * len(encs)
    t = time.perf_counter()
    ref = [
        [match_reference(q, ln, e, r, tau) for e, r in zip(encs, refs)]
        for q, ln in zip(queries, lines)
    ]
    oracle_s = time.perf_counter() - t
    prod_s = _median_s(lambda: [[match_fine(q, e, tau) for e in encs] for q in queries])
    got = [[match_fine(q, e, tau) for e in encs] for q in queries]
    pairs = [(g, r) for gr, rr in zip(got, ref) for g, r in zip(gr, rr)]
    score_ref = [[model.head(r[0]) for r in row] for row in ref]
    score_got = [[model.head(g.features) for g in row] for row in got]
    return {
        "queries": len(queries),
        "tables": len(encs),
        "pairs": n_pairs,
        "oracle_ms_per_pair": round(1e3 * oracle_s / n_pairs, 3),
        "match_fine_ms_per_pair": round(1e3 * prod_s / n_pairs, 3),
        "speedup": round(oracle_s / prod_s, 1),
        "max_abs_delta_feature": max(float(np.abs(g.features - r[0]).max()) for g, r in pairs),
        "max_abs_delta_score": float(np.abs(np.array(score_got) - np.array(score_ref)).max()),
        "pairs_ops_kept_identical": all(
            (g.pairs, g.inferred_ops, g.kept_col_ids) == tuple(r[1:]) for g, r in pairs
        ),
        "rankings_identical": _topk(tids, score_got, bench.cfg.k) == _topk(tids, score_ref, bench.cfg.k),
    }


def qetch_row(bench) -> dict:
    method = QetchStar()
    tids = list(bench.repository)
    tables = list(bench.repository.values())
    eqs = [q.extracted for q in bench.queries]
    n_pairs = len(eqs) * len(tables)
    t = time.perf_counter()
    ref = [[qetch_reference(eq, tb) for tb in tables] for eq in eqs]
    oracle_s = time.perf_counter() - t
    encode_s = _median_s(lambda: [method.encode_table(tb) for tb in tables])
    encs = [method.encode_table(tb) for tb in tables]
    preps = [method.prepare_query(eq) for eq in eqs]
    score_s = _median_s(lambda: [[method.score(p, e) for e in encs] for p in preps])
    got = [[method.score(p, e) for e in encs] for p in preps]
    return {
        "queries": len(eqs),
        "tables": len(tables),
        "pairs": n_pairs,
        "oracle_ms_per_pair": round(1e3 * oracle_s / n_pairs, 3),
        "score_ms_per_pair": round(1e3 * score_s / n_pairs, 3),
        "encode_table_ms_per_table": round(1e3 * encode_s / len(tables), 3),
        "speedup_with_encode": round(oracle_s / (score_s + encode_s), 1),
        "bit_identical": got == ref,
        "rankings_identical": _topk(tids, got, bench.cfg.k) == _topk(tids, ref, bench.cfg.k),
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


def main(seed: int = 13) -> None:
    bench = build_benchmark(tiny_benchmark_config(seed=seed))
    model = make_model(bench.cfg.fcm)
    out = {
        "what": "DTW kernel us per (series, column) pair vs the scalar oracle; "
        "tiny-benchmark local ground truth, batched vs one pair at a time; "
        "dataset encoder ms per table and HCMAN matcher ms per (query, table) "
        "pair, stacked vs the per-column / per-variant oracles; Qetch* ms per "
        "(query, table) pair over window stacks built once per table vs the "
        "per-window oracle",
        "config": f"tiny_benchmark_config(seed={seed}), full FCM, default head",
        "band": BAND,
        "stack_pairs": STACKS,
        "timing": f"median of {REPEATS} runs; scalar DTW over {SCALAR_PAIRS} pairs; "
        "encoder, matcher and Qetch* oracles one run",
        "hardware": {
            "cpu": _cpu_model(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "kernel": kernel_rows(np.random.default_rng(0)),
        "ground_truth": ground_truth_row(bench),
        "encoder": encoder_row(bench, model),
        "matcher": matcher_row(bench, model),
        "qetch": qetch_row(bench),
    }
    for key in ("ground_truth", "encoder", "matcher", "qetch"):
        print(key, out[key], flush=True)
    with open(os.path.join(ROOT, "BENCH_kernels.json"), "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
