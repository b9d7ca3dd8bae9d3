"""Experiment harness: run methods over the benchmark, bucket the results.

Provides the glue used by jobs/ and benchmarks/: the FCM Method adapter,
head training on the benchmark's training split, per-query metric
break-downs (by line count M, by DA operator / window — Tables II-VI),
and the timed scoring run of one method (:func:`run_method`). The
index-strategy sweep of Table VIII is ``jobs/table8_indexing.py``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.baselines.base import Method
from repro.baselines.cml import CML
from repro.baselines.combos import DeepEyeLineNet, OptLineNet
from repro.baselines.qetch import QetchStar
from repro.bench.benchmark import Benchmark, make_queries
from repro.bench.metrics import ndcg_at_k, prec_at_k
from repro.bench.plotly_lite import m_bucket_label, window_bucket_label
from repro.chartsim.extractor import ExtractedQuery
from repro.config import BenchmarkConfig
from repro.core.fcm import FCMModel, make_model
from repro.core.train import EPOCHS, N_NEG, STRATEGY, Triplet, train_model
from repro.lake.search import ranked_topk, score_with_method


class FCMMethod(Method):
    """Method-protocol adapter around an FCMModel variant. It encodes with the
    model's ``DatasetEncoder``, whose pickle alone keys the resident encodings."""

    def __init__(self, model: FCMModel, name: str | None = None) -> None:
        self.model = model
        self.encode_table = model.dataset_encoder.encode_table
        self.name = name or {"full": "FCM", "no_hcman": "FCM-HCMAN", "no_da": "FCM-DA"}[
            model.variant
        ]

    def prepare_query(self, eq: ExtractedQuery):
        return self.model.encode_query(eq)

    def score(self, query_prep, table_enc) -> float:
        return self.model.score(query_prep, table_enc)


def default_methods(bench: Benchmark, fcm: FCMModel | None = None) -> list[Method]:
    """The five methods of Table II (FCM last)."""
    return [
        CML(bench.cfg.fcm),
        DeepEyeLineNet(cfg=bench.cfg.chart),
        OptLineNet(bench.repo_specs, cfg=bench.cfg.chart),
        QetchStar(),
        FCMMethod(fcm or make_model(bench.cfg.fcm)),
    ]


def sub_benchmark(
    bench: Benchmark, *, n_queries: int, n_distractors: int = 100
) -> Benchmark:
    """A reduced evaluation slice for expensive sweeps (Tables VII/IX).

    Keeps the first ``n_queries`` queries, their full ground-truth tables
    (so prec@k is well defined) plus ``n_distractors`` base tables.
    """
    queries = bench.queries[:n_queries]
    keep = {t for q in queries for t in bench.ground_truth[q.query_id]}
    keep |= {q.source_table_id for q in queries}
    base = [t for t in bench.repository if t.startswith("rep")][:n_distractors]
    keep |= set(base)
    repo = {tid: bench.repository[tid] for tid in keep}
    return Benchmark(
        cfg=bench.cfg,
        repository=repo,
        repo_specs={tid: bench.repo_specs[tid] for tid in keep},
        queries=queries,
        ground_truth={q.query_id: bench.ground_truth[q.query_id] for q in queries},
        train_records=bench.train_records,
        val_records=bench.val_records,
    )


# --------------------------------------------------------------------------
# training
# --------------------------------------------------------------------------
def build_triplets(bench: Benchmark, model: FCMModel):
    """(V, D, T) triplets + table encodings from the train/val splits: a
    plain and a DA chart per table."""
    rng = np.random.default_rng(bench.cfg.seed + 17)
    records = bench.train_records + bench.val_records
    cfg = BenchmarkConfig(charts_per_table=2, chart=bench.cfg.chart, seed=bench.cfg.seed)
    queries = make_queries(records, cfg, rng)
    tables = {r.table.table_id: r.table for r in records}
    encs = {tid: model.encode_table(t) for tid, t in tables.items()}
    triplets = [
        Triplet(
            query=model.encode_query(q.extracted),
            data=q.data,
            table_id=q.source_table_id,
        )
        for q in queries
    ]
    return triplets, encs, tables


def train_fcm(
    bench: Benchmark,
    model: FCMModel,
    *,
    n_neg: int = N_NEG,
    strategy: str = STRATEGY,
    epochs: int = EPOCHS,
    seed: int = 0,
):
    """Train the model's head on the benchmark training split in-place."""
    triplets, encs, tables = build_triplets(bench, model)
    return train_model(
        model, triplets, encs, tables,
        n_neg=n_neg, strategy=strategy, epochs=epochs, seed=seed,
    )


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------
@dataclass
class MethodRun:
    method: str
    rankings: dict[str, list[str]]        # query_id -> ranked table ids
    seconds: float                        # scoring stage wall time, with any encode it built
    n_pairs: int                          # (query, table) pairs scored


def run_method(
    spark: SparkSession,
    bench: Benchmark,
    method: Method,
    *,
    candidates: dict[str, set[str]] | None = None,
) -> MethodRun:
    """Score the benchmark with a method (optionally index-pruned)."""
    t0 = time.perf_counter()
    scores = score_with_method(
        spark, bench.repository, bench.queries, method, candidates=candidates
    )
    rankings = ranked_topk(scores, bench.cfg.k)
    seconds = time.perf_counter() - t0
    if candidates is None:
        n_pairs = len(bench.queries) * len(bench.repository)
    else:
        n_pairs = sum(len(v) for v in candidates.values())
    for q in bench.queries:  # queries pruned to zero candidates rank empty
        rankings.setdefault(q.query_id, [])
    return MethodRun(method=method.name, rankings=rankings, seconds=seconds, n_pairs=n_pairs)


def per_query_metrics(
    run: MethodRun, bench: Benchmark
) -> dict[str, dict[str, float]]:
    """prec@k / ndcg@k per query."""
    k = bench.cfg.k
    rel = bench.relevant_sets
    return {
        qid: {
            "prec": prec_at_k(ranked, rel[qid], k),
            "ndcg": ndcg_at_k(ranked, rel[qid], k),
        }
        for qid, ranked in run.rankings.items()
    }


def bucketed_metrics(run: MethodRun, bench: Benchmark, bucket_fn) -> dict:
    """Mean metrics per bucket; bucket_fn(Query) -> label or None (skip)."""
    pq = per_query_metrics(run, bench)
    buckets: dict = {}
    for q in bench.queries:
        label = bucket_fn(q)
        if label is None:
            continue
        buckets.setdefault(label, []).append(pq[q.query_id])
    return {
        label: {
            "prec": float(np.mean([m["prec"] for m in ms])),
            "ndcg": float(np.mean([m["ndcg"] for m in ms])),
        }
        for label, ms in buckets.items()
    }


def overall_metrics(run: MethodRun, bench: Benchmark) -> dict[str, float]:
    return bucketed_metrics(run, bench, lambda q: "overall")["overall"]


def da_split_metrics(run: MethodRun, bench: Benchmark) -> dict[str, dict[str, float]]:
    """Overall / With DA / Without DA split (Table II rows)."""
    out = {"Overall": overall_metrics(run, bench)}
    by_da = bucketed_metrics(
        run, bench, lambda q: "With DA" if q.is_da else "Without DA"
    )
    out.update(by_da)
    return out


def m_bucket_metrics(run: MethodRun, bench: Benchmark) -> dict[str, dict[str, float]]:
    """Per line-count bucket (Table III / V rows)."""
    return bucketed_metrics(run, bench, lambda q: m_bucket_label(q.m))


def da_breakdown_metrics(run: MethodRun, bench: Benchmark) -> dict[tuple[str, str], float]:
    """prec@k per (operator, window bucket) of the DA queries — Table IV."""

    def cell(q) -> tuple[str, str] | None:
        bucket = window_bucket_label(q.spec.window) if q.is_da else None
        return None if bucket is None else (q.spec.agg_op, bucket)

    return {key: m["prec"] for key, m in bucketed_metrics(run, bench, cell).items()}
