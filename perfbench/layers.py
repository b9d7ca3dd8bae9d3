"""Per-layer metrics of a traced run.

A layer on the workload's request path is measured from the spans of the
traced loop. A layer the path does not call (for example DTW on
``scan_batch``, or the encoders inside ``spark_ground_truth``, which has
no injection point) is replayed in-process on the same run's inputs by
:func:`replay`, which times each layer around calls into its public
functions. ``SOURCES`` in the output says which applied.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from perfbench.spans import variants_compared
from perfbench.workloads import (
    LSH_BITS, LSH_TABLES, State, column_embeddings, hybrid_sound, trained_model,
)

now = time.perf_counter

#: name -> unit of every per-layer metric
UNITS = {
    "extractor.extract_us": "us",
    "line_encoder.encode_query_us": "us",
    "dataset_encoder.encode_table_ms": "ms",
    "dataset_encoder.encodes_per_table": "count",
    "dataset_encoder.variants_per_column": "count",
    "matcher.match_ms": "ms",
    "matcher.variants_compared": "count",
    "matcher.columns_kept_ratio": "fraction",
    "fcm.head_us": "us",
    "fcm.pairs_scored": "count",
    "bipartite.hungarian_us": "us",
    "dtw.distance_us": "us",
    "dtw.calls_per_pair": "count",
    "relevance.rel_score_ms": "ms",
    "lake.embed_repository_s": "s",
    "index.build_s": "s",
    "setup.spark_start_s": "s",
    "setup.train_head_s": "s",
    "index.probe_us": "us",
    "index.candidate_ratio": "fraction",
    "index.gt_recall": "fraction",
    "lake.repository_df_s": "s",
    "lake.rows_shipped": "count",
    "search.stage_s": "s",
    "search.udf_busy_frac": "fraction",
    "search.group_skew": "ratio",
    "trace.overhead_frac": "fraction",
    "quality.prec_at_k": "fraction",
    "quality.ndcg_at_k": "fraction",
    "quality.gt_dupe_recall": "fraction",
}

#: replayed (query, table) pairs per pool query for the matcher and head
REPLAY_TABLES_PER_QUERY = 2
#: sampled lake tables for the dataset encoder replay
REPLAY_TABLES = 8


def n_groups(parallelism: int) -> int:
    """Groups ``score_with_method`` / ``spark_ground_truth`` repartition into."""
    return max(parallelism * 2, 8)


def shipped_tables(state: State, loop) -> list[set[str]]:
    """The lake tables each first-pass request shipped to the scoring UDF."""
    repo = set(state.lake.repository)
    if state.workload == "indexed_stream":
        return [s.candidates for s in loop.first.values()]
    return [repo] * len(loop.sizes)


def replay(state: State, reference: dict[str, list[str]], rel_queries, shipped) -> tuple[dict, dict]:
    """Time every layer in-process on this run's inputs.

    Returns raw per-layer values and two checks: the replayed Rel(D, T)
    equals ``rel_score``, and every hybrid candidate set is within
    interval ∩ LSH.
    """
    from repro.chartsim.extractor import extract
    from repro.core.bipartite import hungarian_max, matching_weight
    from repro.core.relevance import rel_score, relevance_matrix
    from repro.index.hybrid import build_hybrid_index, query_line_embeddings
    from repro.lake.repository import repository_df

    lake, spark = state.lake, state.spark
    repo = lake.repository
    out: dict[str, float] = {}
    model = state.model
    if model is None:
        t = now()
        model = trained_model(lake)
        out["setup.train_head_s"] = now() - t

    # query side: every pool chart
    t_ext, t_enc, qencs = [], [], {}
    for q in lake.queries:
        t = now()
        eq = extract(q.chart, query_id=q.query_id)
        t_ext.append(now() - t)
        t = now()
        qencs[q.query_id] = model.encode_query(eq)
        t_enc.append(now() - t)
    out["extractor.extract_us"] = 1e6 * statistics.mean(t_ext)
    out["line_encoder.encode_query_us"] = 1e6 * statistics.mean(t_enc)

    # table side: a seeded sample of lake tables, each encoded once
    rng = np.random.default_rng(lake.cfg.seed + 31)
    tids = sorted(rng.choice(sorted(repo), size=min(REPLAY_TABLES, len(repo)), replace=False))
    encs, t_tab, n_var, n_col = {}, [], 0, 0
    for tid in tids:
        t = now()
        encs[tid] = model.encode_table(repo[tid])
        t_tab.append(now() - t)
        n_var += sum(len(c.variants) for c in encs[tid].columns)
        n_col += encs[tid].n_cols
    out["dataset_encoder.encode_table_ms"] = 1e3 * statistics.mean(t_tab)
    out["dataset_encoder.variants_per_column"] = n_var / n_col

    # matcher + head: each pool query against REPLAY_TABLES_PER_QUERY tables
    t_match, t_head, variants, kept, total = [], [], [], 0, 0
    for i, q in enumerate(lake.queries):
        qe = qencs[q.query_id]
        for j in range(REPLAY_TABLES_PER_QUERY):
            enc = encs[tids[(i * REPLAY_TABLES_PER_QUERY + j) % len(tids)]]
            t = now()
            res = model.match(qe, enc)
            t_match.append(now() - t)
            t = now()
            model.head(res.features)
            t_head.append(now() - t)
            variants.append(variants_compared(qe, enc, res.kept_col_ids))
            kept += len(set(res.kept_col_ids))
            total += enc.n_cols
    out["matcher.match_ms"] = 1e3 * statistics.mean(t_match)
    out["fcm.head_us"] = 1e6 * statistics.mean(t_head)
    out["matcher.variants_compared"] = statistics.mean(variants)
    out["matcher.columns_kept_ratio"] = kept / total

    # Rel(D, T) as rel_score computes it, split into its DTW matrix and
    # its Hungarian matching, for ``rel_queries`` against every table
    t_dtw, t_hung, calls, rel_ok = [], [], [], True
    per_table: dict[str, float] = {}
    for q in rel_queries:
        for n, (tid, table) in enumerate(sorted(repo.items())):
            t = now()
            w = relevance_matrix(q.data, table)
            t1 = now()
            pairs = hungarian_max(w)
            t2 = now()
            t_dtw.append(t1 - t)
            t_hung.append(t2 - t1)
            calls.append(w.size)
            per_table[tid] = per_table.get(tid, 0.0) + (t2 - t)
            if n == 0:
                rel = matching_weight(w, pairs) / len(q.data) if pairs else 0.0
                rel_ok &= rel == rel_score(q.data, table)
    out["dtw.distance_us"] = 1e6 * sum(t_dtw) / sum(calls)
    out["dtw.calls_per_pair"] = statistics.mean(calls)
    out["bipartite.hungarian_us"] = 1e6 * statistics.mean(t_hung)
    out["relevance.rel_score_ms"] = 1e3 * (sum(t_dtw) + sum(t_hung)) / len(t_dtw)
    out["_rel_per_table"] = per_table

    # index: build it unless set-up did, then probe with every pool query
    index = state.index
    if index is None:
        t = now()
        embs = column_embeddings(spark, lake)
        out["lake.embed_repository_s"] = now() - t
        t = now()
        index = build_hybrid_index(repo, embs, n_bits=LSH_BITS, n_tables=LSH_TABLES, seed=lake.cfg.seed)
        out["index.build_s"] = now() - t
    t_probe, ratio, recall, probed = [], [], [], {}
    for q in lake.queries:
        qe = qencs[q.query_id]
        t = now()
        cands = index.candidates(
            "hybrid", y_range=qe.y_range, line_embs=query_line_embeddings(model, qe)
        )
        t_probe.append(now() - t)
        probed[q.query_id] = cands
        ratio.append(len(cands) / len(repo))
        ref = set(reference.get(q.query_id, ()))
        if ref:
            recall.append(len(cands & ref) / len(ref))
    out["index.probe_us"] = 1e6 * statistics.mean(t_probe)
    out["index.candidate_ratio"] = statistics.mean(ratio)
    out["index.gt_recall"] = statistics.mean(recall)

    # repository_df: the long-format DataFrame each request ships
    t_df = []
    for tables in shipped:
        t = now()
        repository_df(spark, {tid: repo[tid] for tid in sorted(tables)})
        t_df.append(now() - t)
    out["lake.repository_df_s"] = statistics.mean(t_df)
    checks = {
        "replayed_rel_equals_rel_score": rel_ok,
        "hybrid_within_interval_and_lsh": hybrid_sound(index, model, lake, probed),
    }
    return out, checks


def group_partitions(spark, table_ids, parallelism: int) -> dict[str, int]:
    """Partition of each table id under ``repartition(n, "table_id")``."""
    from pyspark.sql import functions as F

    df = spark.createDataFrame([(t,) for t in sorted(table_ids)], "table_id string")
    rows = df.repartition(n_groups(parallelism), "table_id").select(
        "table_id", F.spark_partition_id().alias("p")
    ).collect()
    return {r["table_id"]: r["p"] for r in rows}


def skew(per_partition: dict[int, float], groups: int) -> float:
    """Slowest group's busy time over the mean over all groups."""
    total = sum(per_partition.values())
    return max(per_partition.values()) / (total / groups) if total > 0 else 1.0


def layer_metrics(
    state: State, spans: list[dict], loop, reference: dict[str, list[str]],
    replayed: dict, setup_medians: dict, spark_start_s: float,
    overhead_frac: float, quality: dict[str, float],
) -> tuple[dict, dict]:
    """Every per-layer metric and the source it was taken from."""
    by: dict[str, list[dict]] = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def dur(name: str) -> list[float]:
        return [s["end"] - s["start"] for s in by.get(name, ())]

    vals: dict[str, float] = {}
    src: dict[str, str] = {}

    def put(name, value, source):
        vals[name] = float(value)
        src[name] = source

    for name, value in replayed.items():
        if not name.startswith("_"):
            put(name, value, "replay")
    put("setup.spark_start_s", spark_start_s, "setup")
    for part, metric in (("train", "setup.train_head_s"), ("embed", "lake.embed_repository_s"),
                         ("index", "index.build_s")):
        if part in setup_medians:
            put(metric, setup_medians[part], "setup")
    put("trace.overhead_frac", overhead_frac, "path")
    for name, value in quality.items():
        put(f"quality.{name}", value, "path")

    ext = by.get("extractor.extract", [])
    if ext:
        put("extractor.extract_us", 1e6 * sum(dur("extractor.extract")) / sum(s["n"] for s in ext), "path")
    if by.get("line_encoder.encode_query"):
        put("line_encoder.encode_query_us", 1e6 * statistics.mean(dur("line_encoder.encode_query")), "path")
    if by.get("index.probe"):
        put("index.probe_us", 1e6 * statistics.mean(dur("index.probe")), "path")
        cands = [s.candidates for s in loop.first.values()]
        n = len(state.lake.repository)
        put("index.candidate_ratio", statistics.mean(len(c) / n for c in cands), "path")
    stages = by.get("search.stage", [])
    put("search.stage_s", statistics.mean(dur("search.stage")), "path")

    repo = state.lake.repository
    groups = n_groups(state.parallelism)
    enc = by.get("dataset_encoder.encode_table", [])
    if enc:  # the scoring UDF ran through TracedMethod
        put("dataset_encoder.encode_table_ms", 1e3 * statistics.mean(dur("dataset_encoder.encode_table")), "path")
        put("dataset_encoder.encodes_per_table", len(enc) / len({s["table_id"] for s in enc}), "path")
        put("dataset_encoder.variants_per_column",
            sum(s["n_variants"] for s in enc) / sum(s["n_cols"] for s in enc), "path")
        match = by["matcher.match"]
        put("matcher.match_ms", 1e3 * statistics.mean(dur("matcher.match")), "path")
        put("matcher.variants_compared", statistics.mean(s["variants"] for s in match), "path")
        put("matcher.columns_kept_ratio", sum(s["kept"] for s in match) / sum(s["n_cols"] for s in match), "path")
        put("fcm.head_us", 1e6 * statistics.mean(dur("fcm.head")), "path")
        put("fcm.pairs_scored", len(match) / loop.attempted, "path")
        udf = enc + match + by["fcm.head"]
        busy = sum(s["end"] - s["start"] for s in udf)
        wall = sum(s["end"] - s["start"] for s in stages)
        put("search.udf_busy_frac", busy / (wall * state.parallelism), "path")
        per_stage: dict[str, dict[int, float]] = {}
        for s in udf:
            parts = per_stage.setdefault(s["parent"], {})
            parts[s["partition"]] = parts.get(s["partition"], 0.0) + (s["end"] - s["start"])
        put("search.group_skew", statistics.mean(skew(p, groups) for p in per_stage.values()), "path")
    else:  # spark_ground_truth: no table is encoded and no pair goes to the FCM
        put("dataset_encoder.encodes_per_table", 0.0, "path")
        put("fcm.pairs_scored", 0.0, "path")
        # It has no injection point: its UDF time is the in-process replay
        # of the first request, against the traced stages of that request.
        per_table = replayed["_rel_per_table"]
        part = group_partitions(state.spark, repo, state.parallelism)
        per_partition: dict[int, float] = {}
        for tid, t in per_table.items():
            per_partition[part[tid]] = per_partition.get(part[tid], 0.0) + t
        put("search.group_skew", skew(per_partition, groups), "replay")
        n_requests = len(loop.sizes)
        wall = statistics.mean(
            s["end"] - s["start"] for s in stages if int(s["request"][1:]) % n_requests == 0
        )
        put("search.udf_busy_frac", sum(per_table.values()) / (wall * state.parallelism), "replay")
    if state.workload == "indexed_stream":
        recall = [
            len(s.candidates & set(reference[q])) / len(reference[q])
            for q, s in loop.first.items() if reference.get(q)
        ]
        put("index.gt_recall", statistics.mean(recall), "path")
    shipped = shipped_tables(state, loop)
    put("lake.rows_shipped", statistics.mean(sum(repo[t].n_cols for t in s) for s in shipped), "path")
    missing = set(UNITS) - set(vals)
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")
    return {k: {"value": vals[k], "unit": UNITS[k]} for k in UNITS}, src
