"""Benchmark inputs: one seeded lake and query pool per run.

The lake, the query charts and their underlying data come from the
repository's own corpus generator (``repro.bench.benchmark`` over
``repro.bench.plotly_lite``). The program under test is handed only what
a user would hand it: chart rasters (with their tick metadata), lake
tables, and, for query-by-data search, the underlying series. The query
provenance (source table, planted duplicates) stays with the benchmark
and is used only to score the answers.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

#: Lake shapes. A seed changes the lake's content, never its amount of
#: work: each size fixes the line count M of every table and the row count,
#: so throughput differences between seeds are not differences in size.
#: ``full``: 20 base tables in the generator's Table I line-count mix
#: (36/25/21/18 % over the buckets 1, 2-4, 5-7, 8-10, at each bucket's
#: middle M), 4 query tables, one per bucket, each with 6 noisy
#: duplicates: 48 tables, about 6 in each of the 8 groups that
#: ``score_with_method`` and ``spark_ground_truth`` repartition into
#: (2 x local[4]). Each query table gives a plain chart over all its rows
#: and a data-aggregation chart with the operator drawn from the seed and
#: the window fixed per table (``da_windows``): the window sets the
#: aggregated series' length, and with it the DTW cost. 8 queries.
#: ``smoke`` is a seconds-scale lake for the benchmark's own tests.
SIZES = {
    "full": dict(
        base_m=(1,) * 7 + (3,) * 5 + (6,) * 4 + (9,) * 4,
        query_m=(1, 3, 6, 9), da_windows=(2, 4, 8, 16), train_m=(1, 3, 6), val_m=(3,),
        n_dupes=6, k=6, rows=160,
    ),
    "smoke": dict(
        base_m=(1, 3, 1, 3), query_m=(1, 3), da_windows=(4, 8), train_m=(1, 3), val_m=(1,),
        n_dupes=2, k=3, rows=128,
    ),
}


@dataclass
class ChartQuery:
    """One query as the program receives it: a chart and its data."""

    query_id: str
    chart: object                 # repro.chartsim.renderer.LineChart
    data: list[np.ndarray]        # underlying series (query-by-data only)


@dataclass
class Lake:
    """A generated lake, its query pool and the benchmark-side truth."""

    cfg: object                   # repro.config.BenchmarkConfig
    repository: dict              # table_id -> LakeTable
    queries: list[ChartQuery]
    source: dict[str, str]        # query_id -> source table id (truth)
    train: object                 # a generator Benchmark holding the train split

    def data_view(self, queries: list[ChartQuery]):
        """A benchmark-shaped view holding only ids, data and tables, as
        ``spark_ground_truth`` and ``compute_ground_truth`` read it."""
        return SimpleNamespace(
            cfg=self.cfg,
            repository=self.repository,
            queries=[SimpleNamespace(query_id=q.query_id, data=q.data) for q in queries],
        )


def lake_config(size: str, seed: int):
    from repro.config import BenchmarkConfig

    shape = SIZES[size]
    return BenchmarkConfig(
        n_base_tables=len(shape["base_m"]), n_query_tables=len(shape["query_m"]),
        charts_per_table=2, n_dupes=shape["n_dupes"], k=shape["k"],
        n_train_tables=len(shape["train_m"]), n_val_tables=len(shape["val_m"]),
        min_rows=shape["rows"], max_rows=shape["rows"], seed=seed,
    )


def generate(size: str, seed: int) -> Lake:
    """Build the lake for ``seed`` from the generator's parts.

    This follows ``build_benchmark`` step by step (corpora, noisy
    duplicates, rendered query charts) with the size's fixed line counts,
    row counts and windows in place of sampled ones. Its DTW ground truth
    is not computed here: it is evaluation-only (see :func:`reference_topk`).
    """
    from repro.bench.benchmark import Benchmark, make_duplicate
    from repro.bench.plotly_lite import gen_table
    from repro.chartsim.renderer import render_chart
    from repro.chartsim.spec import VisSpec, underlying_data
    from repro.config import AGG_OPS

    shape = SIZES[size]
    cfg = lake_config(size, seed)

    def corpus(prefix: str, ms, offset: int):
        rng = np.random.default_rng(seed + offset)
        return [
            gen_table(rng, f"{prefix}{i:05d}", m=m, min_rows=cfg.min_rows, max_rows=cfg.max_rows)
            for i, m in enumerate(ms)
        ]

    base = corpus("rep", shape["base_m"], 1)
    qrecs = corpus("qry", shape["query_m"], 2)
    rng = np.random.default_rng(seed)
    repository = {rec.table.table_id: rec.table for rec in base + qrecs}
    for rec in qrecs:
        for d in range(cfg.n_dupes):
            tid = f"{rec.table.table_id}_d{d:03d}"
            repository[tid], _ = make_duplicate(rec, rng, cfg, tid)
    queries, source = [], {}
    for rec, window in zip(qrecs, shape["da_windows"]):
        da = VisSpec(y_cols=rec.spec.y_cols, agg_op=str(rng.choice(AGG_OPS)), window=window)
        for j, spec in enumerate((rec.spec, da)):
            qid = f"{rec.table.table_id}_q{j}"
            data = underlying_data(rec.table, spec)
            queries.append(ChartQuery(qid, render_chart(data, cfg.chart), data))
            source[qid] = rec.table.table_id
    train = Benchmark(
        cfg=cfg, repository=repository, repo_specs={}, queries=[],
        train_records=corpus("trn", shape["train_m"], 3),
        val_records=corpus("val", shape["val_m"], 4),
    )
    return Lake(cfg=cfg, repository=repository, queries=queries, source=source, train=train)


def source_hash(root: str) -> str:
    """Hash of the program sources and the benchmark sources.

    Keys every cache entry, so a change to DTW, the encoders, the
    generator or the benchmark's lake sizes never reuses a stale entry.
    """
    h = hashlib.sha256()
    for sub in (os.path.join("src", "repro"), "perfbench"):
        base = os.path.join(root, sub)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def reference_topk(spark, lake: Lake, path: str) -> dict[str, list[str]]:
    """Rel(D, T) top-k of every pool query (the evaluation reference).

    Computed with the Spark ground-truth path, or read from ``path``: a
    JSON file in the run's cache, named by size, seed and
    :func:`source_hash`.
    """
    from repro.lake.search import spark_ground_truth

    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    ref = spark_ground_truth(spark, lake.data_view(lake.queries))
    save_reference(path, ref)
    return ref


def save_reference(path: str, ref: dict[str, list[str]]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as f:
        json.dump(ref, f)
    os.replace(tmp, path)


def dupe_recall(ranking: list[str], source: str, k: int, n_dupes: int) -> float:
    """Share of a query's source table and its noisy duplicates in the
    top-k, out of the ``min(k, 1 + n_dupes)`` that fit."""
    hits = sum(1 for t in ranking[:k] if t == source or t.startswith(f"{source}_d"))
    return hits / min(k, 1 + n_dupes)
