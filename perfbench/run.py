"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload scan_batch --seed 1 --seconds 8 --trace 0

Run from the root of a checkout. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same inputs untraced and then traced and
prints the per-layer metrics, the tracing overhead, and writes the spans
to ``.perfbench/trace_<workload>_<seed>.json``. ``--size smoke`` is a
seconds-scale lake for the benchmark's own tests. See README.md here.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("scan_batch", "indexed_stream", "ground_truth"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=8.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    return p.parse_args(argv)


def start_spark(parallelism: int, tmp: str):
    """A local[n] session whose scratch files stay under ``tmp``."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{parallelism}]")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.bindAddress", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", str(2 * parallelism))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.local.dir", os.path.join(tmp, "spark"))
        .config("spark.sql.warehouse.dir", os.path.join(tmp, "warehouse"))
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp}")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    spark.range(1).count()
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers) to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources under {ROOT}/src/repro", file=sys.stderr)
        return 2
    tmp = os.path.join(WORK, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    os.environ["PYSPARK_PYTHON"] = os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)  # start_spark sets the whole configuration
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = os.path.join(tmp, "spark")
    try:
        result = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(args, tmp: str) -> dict:
    from perfbench import lakes, workloads as wl
    from perfbench.spans import Tracer
    from repro.bench.harness import FCMMethod

    parallelism = max(1, min(4, os.cpu_count() or 1))
    t0 = time.perf_counter()
    spark = start_spark(parallelism, tmp)
    spark_start_s = time.perf_counter() - t0
    try:
        tracer = Tracer(enabled=False)
        state, setup_times, consistent = wl.setup(
            spark, args.workload, args.size, args.seed, tracer, parallelism
        )
        setup_s = spark_start_s + statistics.median(setup_times)
        lake = state.lake
        if state.model is not None:
            state.method = FCMMethod(state.model)
        sample = wl.gt_sample(lake, args.seed)
        reqs = wl.requests(state)
        checks = {"setup_repeats_identical": consistent}

        ref_path = os.path.join(
            WORK, "cache", f"reference_{args.size}_{args.seed}_{lakes.source_hash(ROOT)}.json"
        )
        if args.workload != "ground_truth":
            reference = lakes.reference_topk(spark, lake, ref_path)

        wl.serve_timed(state, reqs[0])  # warm-up, untimed
        loop = wl.run_loop(state, reqs, args.seconds)
        rankings = wl.answered(loop.first)

        if args.workload == "ground_truth":
            local = wl.local_ground_truth(lake, sample)
            checks["spark_ground_truth_equals_local"] = all(
                loop.first[q].ranking == local[q] for q in local
            )
            quality = wl.ranking_quality(rankings, local, lake)
            served_reference = rankings
            if checks["spark_ground_truth_equals_local"] and not any(
                s.failed for s in loop.first.values()
            ):  # the first pass is the reference of the other workloads
                lakes.save_reference(ref_path, rankings)
        else:
            quality = wl.ranking_quality(rankings, reference, lake)
            served_reference = reference
        quality["gt_dupe_recall"] = wl.mean_dupe_recall(rankings, lake)
        if args.workload == "indexed_stream":
            checks["hybrid_within_interval_and_lsh"] = wl.hybrid_sound(
                state.index, state.model, lake,
                {q: s.candidates for q, s in loop.first.items()},
            )

        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, level, n = wl.end_to_end(loop, setup_s, rss_mb)
        info = {
            "workload": args.workload, "seed": args.seed, "lake_tables": len(lake.repository),
            "queries": len(lake.queries), "k": lake.cfg.k, "quality": quality,
            "query_tail_level": level,
            "latency_samples": n, "request_latencies_s": loop.passes,
            "setup_runs_s": setup_times, "spark_start_s": spark_start_s,
            "checks": checks,
        }

        if args.trace:
            metrics = traced(args, state, reqs, loop, served_reference, sample,
                             setup_s, spark_start_s, metrics, quality, checks, info)
        print(json.dumps(info))
        return {
            "correct": all(checks.values()),
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": metrics,
        }
    finally:
        stop_spark(spark)


def traced(args, state, reqs, untraced_loop, reference, sample, setup_s,
           spark_start_s, untraced_metrics, quality, checks, info) -> dict:
    """The traced loop on the same inputs, then the layer replay."""
    from perfbench import layers, workloads as wl
    from perfbench.spans import TracedMethod

    tracer = state.tracer
    span_dir = os.path.join(os.environ["TMPDIR"], "spans")
    os.makedirs(span_dir, exist_ok=True)
    if state.model is not None:
        state.method = TracedMethod(state.model, span_dir, tracer)
    tracer.enabled = True
    loop = wl.run_loop(state, reqs, args.seconds)
    tracer.enabled = False
    tracer.add_executor_spans(span_dir)
    checks["traced_rankings_equal_untraced"] = all(
        loop.first[q].ranking == untraced_loop.first[q].ranking for q in loop.first
    )
    traced_e2e, _, _ = wl.end_to_end(loop, setup_s, 0.0)
    untraced_rate = untraced_metrics["queries_per_s"]["value"]
    overhead = untraced_rate / traced_e2e["queries_per_s"]["value"] - 1.0
    # on ground_truth the Rel layers are the workload: replay its first request
    rel_queries = reqs[0] if args.workload == "ground_truth" else sample
    replayed, replay_checks = layers.replay(
        state, reference, rel_queries, layers.shipped_tables(state, loop)
    )
    checks.update(replay_checks)
    medians = {k: statistics.median(v) for k, v in state.setup_parts.items()}
    metrics, sources = layers.layer_metrics(
        state, tracer.spans, loop, reference, replayed, medians, spark_start_s,
        overhead, quality,
    )
    info["trace_overhead"] = {
        name: {"untraced": untraced_metrics[name]["value"], "traced": traced_e2e[name]["value"],
               "traced_minus_untraced": traced_e2e[name]["value"] - untraced_metrics[name]["value"]}
        for name in ("queries_per_s", "query_p50_s", "query_tail_s")
    }
    info["per_layer_sources"] = sources
    path = os.path.join(WORK, f"trace_{args.workload}_{args.seed}.json")
    tracer.dump(path)
    info["trace_file"] = os.path.relpath(path, ROOT)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
