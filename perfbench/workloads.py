"""The three workloads: set-up, request path, checks and metrics.

Every workload is a closed loop with one client: the next request is sent
only after the previous one returns. A request goes through the same
public functions the jobs call:

* ``scan_batch``: a batch of chart rasters -> ``extract`` ->
  ``score_with_method`` over every lake table (no index) -> ``ranked_topk``.
* ``indexed_stream``: one chart raster -> ``extract`` -> ``encode_query``
  -> ``HybridIndex.candidates("hybrid")`` -> ``score_with_method`` on the
  candidates -> ``ranked_topk``.
* ``ground_truth``: one query's underlying data -> ``spark_ground_truth``
  (DTW + Hungarian Rel(D, T) against every lake table).
"""
from __future__ import annotations

import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from perfbench.lakes import Lake, dupe_recall, generate

WORKLOADS = ("scan_batch", "indexed_stream", "ground_truth")
#: set-ups per run; setup_s reports the median
SETUP_REPEATS = 3
#: full passes over the request sequence per measured loop, at least
MIN_PASSES = 3
#: the Table VIII index parameters (jobs/table8_indexing.py)
LSH_BITS, LSH_TABLES = 24, 4
#: pad of the interval-tree probe, as HybridIndex.candidates defaults it
PROBE_PAD = 0.25

now = time.perf_counter


@dataclass
class Served:
    """One query's answer from one request."""

    ranking: list[str]
    failed: bool
    candidates: set[str] | None = None


@dataclass
class State:
    """Everything a run holds after set-up."""

    spark: object
    workload: str
    lake: Lake
    tracer: object
    parallelism: int
    model: object = None
    index: object = None
    method: object = None
    setup_parts: dict[str, list[float]] = field(default_factory=dict)


@dataclass
class Loop:
    """The outcome of one measured closed loop."""

    first: dict[str, Served]          # first answer per pool query
    sizes: list[int]                  # queries per request, in pass order
    passes: list[list[float]]         # request latencies, one list per full pass
    attempted: int
    failed: int

    def query_latencies(self, passes: list[list[float]] | None = None) -> list[float]:
        """One sample per query: a batch's latency counts for each query in it."""
        return [
            lat for p in (self.passes if passes is None else passes)
            for lat, n in zip(p, self.sizes) for _ in range(n)
        ]


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------
def column_embeddings(spark, lake: Lake) -> dict:
    from repro.lake.repository import embed_repository, repository_df

    rows = embed_repository(repository_df(spark, lake.repository), lake.cfg.fcm).collect()
    return {(r["table_id"], r["col_id"]): np.asarray(r["emb"]) for r in rows}


def trained_model(lake: Lake):
    from repro.bench.harness import train_fcm
    from repro.core.fcm import make_model

    model = make_model(lake.cfg.fcm)
    train_fcm(lake.train, model)
    return model


def setup(spark, workload: str, size: str, seed: int, tracer, parallelism: int):
    """Set the workload up ``SETUP_REPEATS`` times.

    Returns the state of the first set-up, the wall time of each, and
    whether every repetition built the same lake, head and embeddings.
    """
    from repro.index.hybrid import build_hybrid_index

    times: list[float] = []
    parts: dict[str, list[float]] = {"train": [], "embed": [], "index": []}
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = now()
        lake = generate(size, seed)
        model = index = embs = None
        if workload != "ground_truth":
            t = now()
            model = trained_model(lake)
            parts["train"].append(now() - t)
        if workload == "indexed_stream":
            t = now()
            embs = column_embeddings(spark, lake)
            parts["embed"].append(now() - t)
            t = now()
            index = build_hybrid_index(
                lake.repository, embs, n_bits=LSH_BITS, n_tables=LSH_TABLES,
                seed=lake.cfg.seed,
            )
            parts["index"].append(now() - t)
        times.append(now() - t0)
        builds.append((lake, model, index, embs))
    lake, model, index, _ = builds[0]
    consistent = all(_same_build(builds[0], b) for b in builds[1:])
    state = State(
        spark=spark, workload=workload, lake=lake, tracer=tracer,
        parallelism=parallelism, model=model, index=index,
        setup_parts={k: v for k, v in parts.items() if v},
    )
    return state, times, consistent


def _same_build(a, b) -> bool:
    (la, ma, _, ea), (lb, mb, _, eb) = a, b
    if la.repository.keys() != lb.repository.keys():
        return False
    for tid, t in la.repository.items():
        u = lb.repository[tid]
        if len(t.columns) != len(u.columns) or not all(
            np.array_equal(x, y) for x, y in zip(t.columns, u.columns)
        ):
            return False
    if ma is not None:
        ha, hb = ma.head, mb.head
        if ha.b != hb.b or not all(
            np.array_equal(getattr(ha, f), getattr(hb, f)) for f in ("w", "x_mean", "x_scale")
        ):
            return False
    if ea is not None:
        if ea.keys() != eb.keys() or not all(np.array_equal(ea[k], eb[k]) for k in ea):
            return False
    return True


# --------------------------------------------------------------------------
# requests
# --------------------------------------------------------------------------
def requests(state: State) -> list[list]:
    """The request sequence the client cycles through.

    ``scan_batch`` and ``ground_truth`` send one batch per chart kind: the
    plain charts of the four query tables (one per line-count bucket),
    then their data-aggregation charts, so every request carries the same
    line-count mix. ``indexed_stream`` sends one chart at a time.
    """
    pool = state.lake.queries
    if state.workload == "indexed_stream":
        return [[q] for q in pool]
    kinds = sorted({q.query_id.rsplit("_", 1)[1] for q in pool})
    return [[q for q in pool if q.query_id.endswith(f"_{kind}")] for kind in kinds]


def _extracted(tracer, batch):
    from repro.chartsim.extractor import extract

    with tracer.span("extractor.extract", n=len(batch)):
        return [
            SimpleNamespace(query_id=q.query_id, extracted=extract(q.chart, query_id=q.query_id))
            for q in batch
        ]


def _score(state: State, queries, candidates):
    """score_with_method + ranked_topk, then an untimed finite-score count.

    Returns the request-path end time and the per-query answers. A query
    with any non-finite score fails: ``ranked_topk`` sorts NaN above every
    number, so its ranking must not be scored.
    """
    from pyspark.sql import functions as F

    from repro.lake.search import ranked_topk, score_with_method

    tracer = state.tracer
    stage = tracer.next_id() if tracer.enabled else None
    if tracer.enabled:
        state.method.request, state.method.parent = tracer.request, stage
    with tracer.span("search.score_with_method"):
        scores = score_with_method(
            state.spark, state.lake.repository, queries, state.method,
            candidates=candidates,
        ).persist()
    try:
        with tracer.span("search.stage", sid=stage):
            ranked = ranked_topk(scores, state.lake.cfg.k)
        t1 = now()
        nonfinite = F.col("score").isin(float("inf"), float("-inf")) | F.isnan("score")
        bad = {
            r["query_id"]: r["count"]
            for r in scores.filter(nonfinite).groupBy("query_id").count().collect()
        }
    finally:
        scores.unpersist()
    return t1, {
        q.query_id: Served(ranked.get(q.query_id, []), bad.get(q.query_id, 0) > 0)
        for q in queries
    }


def serve_scan(state: State, batch):
    return _score(state, _extracted(state.tracer, batch), None)


def serve_indexed(state: State, batch):
    from repro.index.hybrid import query_line_embeddings

    tracer = state.tracer
    (query,) = _extracted(tracer, batch)
    with tracer.span("line_encoder.encode_query"):
        qe = state.model.encode_query(query.extracted)
    with tracer.span("index.probe"):
        cands = state.index.candidates(
            "hybrid", y_range=qe.y_range,
            line_embs=query_line_embeddings(state.model, qe),
        )
    t1, out = _score(state, [query], {query.query_id: cands})
    out[query.query_id].candidates = cands
    return t1, out


def serve_ground_truth(state: State, batch):
    from repro.lake.search import spark_ground_truth

    with state.tracer.span("search.stage"):
        ranked = spark_ground_truth(state.spark, state.lake.data_view(batch))
    t1 = now()
    want = min(state.lake.cfg.k, len(state.lake.repository))
    return t1, {
        q.query_id: Served(ranked.get(q.query_id, []), len(ranked.get(q.query_id, [])) != want)
        for q in batch
    }


SERVE = {
    "scan_batch": serve_scan,
    "indexed_stream": serve_indexed,
    "ground_truth": serve_ground_truth,
}


def serve_timed(state: State, batch) -> tuple[float, dict[str, Served]]:
    """One request; an exception fails every query in it."""
    t0 = now()
    try:
        t1, out = SERVE[state.workload](state, batch)
    except Exception:  # the loop must go on and count the failure
        traceback.print_exc(file=sys.stderr)
        return now() - t0, {q.query_id: Served([], True) for q in batch}
    return t1 - t0, out


def run_loop(state: State, reqs: list[list], seconds: float) -> Loop:
    """Closed loop of whole passes over ``reqs``: at least ``MIN_PASSES``,
    and passes until ``seconds`` have gone by."""
    first: dict[str, Served] = {}
    passes: list[list[float]] = []
    attempted = failed = 0
    start = now()
    while len(passes) < MIN_PASSES or now() - start < seconds:
        lats = []
        for j, batch in enumerate(reqs):
            state.tracer.request = f"r{len(passes) * len(reqs) + j}"
            latency, out = serve_timed(state, batch)
            lats.append(latency)
            attempted += len(batch)
            failed += sum(o.failed for o in out.values())
            if not passes:
                first.update(out)
        passes.append(lats)
    state.tracer.request = None
    return Loop(first, [len(b) for b in reqs], passes, attempted, failed)


# --------------------------------------------------------------------------
# checks and end-to-end metrics
# --------------------------------------------------------------------------
def answered(first: dict[str, Served]) -> dict[str, list[str]]:
    """Rankings to score; a failed query scores as an empty ranking."""
    return {qid: ([] if s.failed else s.ranking) for qid, s in first.items()}


def ranking_quality(rankings, reference, lake: Lake) -> dict[str, float]:
    from repro.bench.metrics import ndcg_at_k, prec_at_k

    k = lake.cfg.k
    qids = sorted(reference)
    return {
        "prec_at_k": float(np.mean([prec_at_k(rankings.get(q, []), set(reference[q]), k) for q in qids])),
        "ndcg_at_k": float(np.mean([ndcg_at_k(rankings.get(q, []), set(reference[q]), k) for q in qids])),
    }


def mean_dupe_recall(rankings, lake: Lake) -> float:
    cfg = lake.cfg
    return float(np.mean([
        dupe_recall(rankings.get(q.query_id, []), lake.source[q.query_id], cfg.k, cfg.n_dupes)
        for q in lake.queries
    ]))


def hybrid_sound(index, model, lake: Lake, candidates: dict[str, set[str]]) -> bool:
    """Every hybrid candidate set is within interval ∩ LSH."""
    from repro.chartsim.extractor import extract
    from repro.index.hybrid import query_line_embeddings
    from repro.index.interval_tree import interval_tree_candidates

    for q in lake.queries:
        qe = model.encode_query(extract(q.chart, query_id=q.query_id))
        s1 = interval_tree_candidates(index.tree, qe.y_range, PROBE_PAD)
        s2 = set().union(*(index.lsh.query(e) for e in query_line_embeddings(model, qe)))
        if not candidates[q.query_id] <= (s1 & s2):
            return False
    return True


def gt_sample(lake: Lake, seed: int, n: int = 1) -> list:
    """Queries re-checked against the local ground-truth path: drawn from
    the one- to four-line queries, whose local DTW takes a few seconds."""
    small = [q for q in lake.queries if len(q.data) <= 4]
    rng = np.random.default_rng(seed + 29)
    return [small[i] for i in sorted(rng.choice(len(small), size=min(n, len(small)), replace=False))]


def local_ground_truth(lake: Lake, sample) -> dict[str, list[str]]:
    from repro.bench.benchmark import compute_ground_truth

    return compute_ground_truth(lake.data_view(sample))


def tail(latencies: list[float]) -> tuple[float, str, int]:
    """The highest percentile with at least ten samples beyond it; the
    maximum when that percentile would not be above the median."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 21:
        return xs[-1], "max", n
    idx = n - 11
    return xs[idx], f"p{100.0 * (idx + 1) / n:.1f}", n


def end_to_end(loop: Loop, setup_s: float, rss_mb: float):
    """The end-to-end metrics of a loop.

    Throughput is the pool's query count over the sum of each request's
    median latency across passes, so one slow pass does not decide it.
    The tail is taken over the first ``MIN_PASSES`` passes, a fixed
    sample count, so its percentile level is the same in every run.
    """
    value, level, n = tail(loop.query_latencies(loop.passes[:MIN_PASSES]))
    per_request = [statistics.median(lats) for lats in zip(*loop.passes)]
    metrics = {
        "setup_s": (setup_s, "s"),
        "queries_per_s": (sum(loop.sizes) / sum(per_request), "queries/s"),
        "query_p50_s": (statistics.median(loop.query_latencies()), "s"),
        "query_tail_s": (value, "s"),
        "success_rate": ((loop.attempted - loop.failed) / loop.attempted, "fraction"),
        "driver_peak_rss_mb": (rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, level, n
