"""Table IV — DA-query breakdown: prec@k by operator x window bucket.

The bench-scale benchmark has a limited number of DA queries, so this job
generates an *extra* set of DA queries sweeping all four operators and
the five window buckets over the existing query tables (same repository
and ground-truth machinery), giving every (op, bucket) cell support.
"""
from __future__ import annotations

import numpy as np
from _common import setup, trained_fcm

from repro.bench.benchmark import Benchmark, Query, compute_ground_truth, make_query
from repro.bench.harness import FCMMethod, da_breakdown_metrics, run_method
from repro.bench.plotly_lite import WINDOW_BUCKETS
from repro.bench.tables import PAPER_TABLE4
from repro.chartsim.spec import VisSpec
from repro.config import AGG_OPS

#: query tables swept, and base tables kept as distractors
N_TABLES = 6
N_DISTRACTORS = 80


def sweep_queries(bench: Benchmark, rng: np.random.Generator) -> list[Query]:
    """One DA query per (query table, operator, window bucket)."""
    out = []
    for tid in sorted({q.source_table_id for q in bench.queries})[:N_TABLES]:
        table = bench.repository[tid]
        base = next(q for q in bench.queries if q.source_table_id == tid)
        y_cols = base.spec.y_cols
        for op in AGG_OPS:
            for lo, hi in WINDOW_BUCKETS.values():
                lo = max(lo, 2)  # a window of 1 is no aggregation
                hi_eff = min(hi, max(3, table.n_rows // 2))
                if hi_eff <= lo:
                    continue
                w = int(rng.integers(lo, hi_eff))
                spec = VisSpec(y_cols=y_cols, agg_op=op, window=w)
                out.append(make_query(table, spec, f"{tid}_sw_{op}_{lo}", bench.cfg.chart))
    return out


def run(spark, bench) -> dict:
    rng = np.random.default_rng(bench.cfg.seed + 99)
    sweep = sweep_queries(bench, rng)
    # restrict the repository to the swept tables' duplicate families plus
    # distractors — the sweep compares operators/windows, and the full
    # 240-query x 734-table ground truth would dominate the suite runtime
    keep_src = {q.source_table_id for q in sweep}
    keep = {
        tid
        for tid in bench.repository
        if any(tid.startswith(src) for src in keep_src)
    }
    keep |= set([t for t in bench.repository if t.startswith("rep")][:N_DISTRACTORS])
    repo = {tid: bench.repository[tid] for tid in keep}
    swept = Benchmark(
        cfg=bench.cfg,
        repository=repo,
        repo_specs={tid: bench.repo_specs[tid] for tid in keep},
        queries=sweep,
        train_records=bench.train_records,
        val_records=bench.val_records,
    )
    swept.ground_truth = compute_ground_truth(swept, spark=spark)
    model, _ = trained_fcm(bench)
    mr = run_method(spark, swept, FCMMethod(model))
    return da_breakdown_metrics(mr, swept)


def main(argv=None):
    spark, bench, _ = setup(argv)
    cells = run(spark, bench)
    print(f"\nTable IV — DA breakdown, FCM prec@{bench.cfg.k} (ours | paper)")
    print(f"{'':6s}" + "".join(f"{b:>16s}" for b in WINDOW_BUCKETS))
    for op in ("min", "max", "sum", "avg"):
        row = ""
        for b in WINDOW_BUCKETS:
            ours = cells.get((op, b), float("nan"))
            row += f"  {ours:5.3f} |{PAPER_TABLE4[op][b]:5.3f} "
        print(f"{op:6s}{row}")
    return cells


if __name__ == "__main__":
    main()
