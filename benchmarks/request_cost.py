"""Fixed cost of a request on the resident lake, apart from its per-pair cost.

Writes (or updates) ``BENCH_requests.json`` at the repository root, one
entry per ``--label``. For two lakes, the tiny benchmark (seed 13) and the
perfbench ``full`` lake (seed 1), it takes the median latency of
``REQUESTS`` requests of each kind, after one warm-up request that builds
the resident artefacts:

* ``noop_raw_s`` / ``noop_encoded_s``: a job over every partition of the
  resident raw / encoded artefact that reads each record and returns
  nothing but its task timings, shipped like a request's task (one
  broadcast, :func:`repro.lake.resident._no_zip_rescan` first): the fixed
  cost of one request;
* ``scan_s``: ``score_with_method`` + ``ranked_topk`` for a batch of
  ``BATCH`` queries against every table (full FCM, default head);
* ``ground_truth_s``: ``spark_ground_truth`` for the same batch;
* ``task_floor``: inside each no-op task, the time from the Python
  worker's entry to ``pyspark.worker.main`` (where it waits for the
  task's first byte) to the start of the UDF, and the part of it before
  the task's command is read (``boot_to_init_s``, which holds
  ``setup_spark_files`` and its ``importlib.invalidate_caches()``), and
  the cost of one ``invalidate_caches()`` call with the zip rescan that
  request tasks turn off put back (``invalidate_caches_s``: what a
  reused worker skips), timed in a separate job so that it does not add
  to the no-op latencies.

``*_per_pair_ms`` is a request's latency above the no-op job over the
artefact it reads, per (query, table) pair.

Run from the repository root, once per source tree; ``PYTHONPATH``
selects the tree (a few minutes on 4 cores):

    PYTHONPATH=src python benchmarks/request_cost.py --label change

The ``parent`` entry of ``BENCH_requests.json`` times the lake before it
was held as RDDs (persisted DataFrames read by ``mapInPandas``); it was
recorded with a version of :func:`noop_job` that also drained a
DataFrame artefact, which this one no longer does. The entries before
``rescan_change`` ran their no-op tasks without the hook, in a plain
``mapPartitions`` job, and timed ``invalidate_caches()`` as the worker
had it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.append(ROOT)  # perfbench; repro comes from PYTHONPATH

PARALLELISM = 4
REQUESTS = 15
BATCH = 4
OUT = os.path.join(ROOT, "BENCH_requests.json")


def task_timings() -> tuple[float, float]:
    """(boot_to_init_s, boot_to_udf_s) of the running task, read from the
    locals ``boot_time`` and ``init_time`` of ``pyspark.worker.main`` up
    the stack (PySpark 4.1). Raises if that frame or those locals are not
    there, rather than report wrong numbers."""
    udf_start = time.time()
    frame = sys._getframe()
    while frame is not None and not (
        frame.f_code.co_name == "main"
        and frame.f_code.co_filename.endswith(os.path.join("pyspark", "worker.py"))
    ):
        frame = frame.f_back
    if frame is None:
        raise RuntimeError("no pyspark.worker.main frame above the task function")
    missing = {"boot_time", "init_time"} - set(frame.f_locals)
    if missing:
        raise RuntimeError(f"pyspark.worker.main has no local {sorted(missing)}: "
                           "this PySpark times its tasks differently")
    boot = frame.f_locals["boot_time"]
    return frame.f_locals["init_time"] - boot, udf_start - boot


def noop_job(spark, artefact) -> list[tuple[float, float]]:
    """Read every record of a resident artefact, return each task's timings."""
    from repro.lake.search import _collect

    def drain(_, records):
        timings = task_timings()
        for _ in records:
            pass
        yield timings

    return _collect(spark, artefact, drain, None)


def invalidate_caches_s(spark) -> float:
    """Median seconds of one ``importlib.invalidate_caches()`` in a Python
    worker, the call ``setup_spark_files`` makes for every task, with the
    original ``zipimporter.invalidate_caches`` put back for the call; the
    worker keeps the request tasks' no-op afterwards."""

    def once(_):
        import importlib
        import zipimport

        from repro.lake.resident import _no_zip_rescan, _zip_rescan

        zipimport.zipimporter.invalidate_caches = _zip_rescan
        try:
            t = time.perf_counter()
            importlib.invalidate_caches()
            yield time.perf_counter() - t
        finally:
            _no_zip_rescan()

    sc = spark.sparkContext
    runs = [sc.parallelize(range(PARALLELISM), PARALLELISM).mapPartitions(once).collect() for _ in range(3)]
    return statistics.median(t for run in runs for t in run)


def timed(fn, n: int = REQUESTS) -> tuple[float, list]:
    fn()
    times, outs = [], []
    for _ in range(n):
        t = time.perf_counter()
        outs.append(fn())
        times.append(time.perf_counter() - t)
    return statistics.median(times), outs


def measure(spark, repository, queries, k: int) -> dict:
    """Every request kind over one lake; ``queries`` carry ``query_id``,
    ``data`` and ``extracted``."""
    from repro.bench.harness import FCMMethod
    from repro.core.fcm import make_model
    from repro.lake.resident import resident_encodings, resident_repository
    from repro.lake.search import ranked_topk, score_with_method, spark_ground_truth

    batch = queries[:BATCH]
    method = FCMMethod(make_model())
    view = SimpleNamespace(cfg=SimpleNamespace(k=k), repository=repository, queries=batch)
    pairs = len(batch) * len(repository)
    out = {
        "tables": len(repository),
        "columns": sum(t.n_cols for t in repository.values()),
        "queries_per_request": len(batch),
        "pairs_per_request": pairs,
    }
    out["noop_raw_s"], raw_tasks = timed(lambda: noop_job(spark, resident_repository(spark, repository)))
    out["noop_encoded_s"], enc_tasks = timed(
        lambda: noop_job(spark, resident_encodings(spark, repository, method.encode_table))
    )
    out["scan_s"], _ = timed(
        lambda: ranked_topk(score_with_method(spark, repository, batch, method), k)
    )
    out["ground_truth_s"], _ = timed(lambda: spark_ground_truth(spark, view))
    out["scan_per_pair_ms"] = 1e3 * (out["scan_s"] - out["noop_encoded_s"]) / pairs
    out["ground_truth_per_pair_ms"] = 1e3 * (out["ground_truth_s"] - out["noop_raw_s"]) / pairs
    tasks = [t for req in raw_tasks + enc_tasks for t in req]
    out["task_floor"] = {
        "tasks": len(tasks),
        "boot_to_init_s": statistics.median(t[0] for t in tasks),
        "boot_to_udf_s": statistics.median(t[1] for t in tasks),
        "invalidate_caches_s": invalidate_caches_s(spark),
    }
    return out


def tiny_lake():
    from repro.bench.benchmark import build_benchmark
    from repro.config import tiny_benchmark_config

    bench = build_benchmark(tiny_benchmark_config(seed=13))
    return bench.repository, bench.queries, bench.cfg.k


def perfbench_lake(seed: int = 1):
    from perfbench.lakes import generate
    from repro.chartsim.extractor import extract

    lake = generate("full", seed)
    queries = [
        SimpleNamespace(query_id=q.query_id, data=q.data, extracted=extract(q.chart, query_id=q.query_id))
        for q in lake.queries
    ]
    return lake.repository, queries, lake.cfg.k


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="entry name, e.g. parent or change")
    args = p.parse_args(argv)

    from perfbench.run import start_spark, stop_spark

    tmp = os.path.join(ROOT, ".perfbench", f"request-cost-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    os.environ["PYSPARK_PYTHON"] = os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    spark = start_spark(PARALLELISM, tmp)
    try:
        run = {
            "tiny_seed13": measure(spark, *tiny_lake()),
            "perfbench_full_seed1": measure(spark, *perfbench_lake(1)),
        }
    finally:
        stop_spark(spark)
    print(json.dumps(run, indent=1), flush=True)

    doc = {}
    if os.path.exists(OUT):
        with open(OUT) as f:
            doc = json.load(f)
    doc.update(
        what="median latency of one request of each kind on the resident lake, "
        "its fixed cost (a no-op job over the artefact it reads) and the PySpark per-task floor",
        config=f"local[{PARALLELISM}], {REQUESTS} requests per kind after one warm-up, "
        f"{BATCH} queries per request; full FCM with its default head",
        hardware={
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    )
    doc.setdefault("runs", {})[args.label] = run
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
