"""Shared infrastructure for the spark-submit job entrypoints.

Each jobs/tableN_*.py reproduces one table of the paper's evaluation at
"bench" scale (configurable via --tiny for smoke runs);
table2_overall.py also prints Tables III, V and VI from the same scoring
runs. The constructed benchmark (repository + queries + DTW ground truth)
is expensive, so it is cached on disk keyed by the source and its config;
all six jobs share one build, and a build deletes the pickles of older
sources.
``rm -rf .bench_cache`` forces a cold run.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import os
import pickle
import sys
from typing import Any, Callable

sys.path.insert(0, os.path.dirname(__file__))  # allow jobs importing _common

from pyspark.sql import SparkSession

import repro
from repro.bench.benchmark import Benchmark, build_benchmark
from repro.config import BenchmarkConfig, tiny_benchmark_config
from repro.core.train import N_NEG, STRATEGY

CACHE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".bench_cache")
SRC_DIR = os.path.dirname(os.path.abspath(repro.__file__))


def get_spark() -> SparkSession:
    """Session for standalone spark-submit runs.

    It mirrors conftest's confs except ``spark.sql.shuffle.partitions``:
    no request shuffles, and adaptive query execution sizes the small
    TPC-H-lite ``GROUP BY`` of the repository build.
    """
    return (
        SparkSession.builder.appName("repro-jobs")
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--tiny", action="store_true", help="unit-test scale")
    p.add_argument("--seed", type=int, default=13)
    return p.parse_args(argv)


def _cfg_key(cfg: BenchmarkConfig) -> str:
    """Cache key ``{source}_{config}``. The source part hashes every
    ``src/repro`` file, so a change to the generator, DTW, the encoders or
    the head never reuses a pickle built by older code."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC_DIR, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, SRC_DIR).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return f"{h.hexdigest()[:16]}_{hashlib.sha256(repr(cfg).encode()).hexdigest()[:16]}"


def _evict_other_sources(key: str) -> None:
    """Delete the cached pickles of every other source, which no job can
    read; those of other configs from this source (``--tiny`` beside bench
    scale) stay."""
    os.makedirs(CACHE_DIR, exist_ok=True)
    source = key.split("_")[0]
    for path in glob.glob(os.path.join(CACHE_DIR, "*.pkl")):
        if f"_{source}_" not in os.path.basename(path):
            os.remove(path)


def _cached(key: str, name: str, build: Callable[[], Any]) -> Any:
    """The pickle ``{name}.pkl`` in the cache, or ``build()``'s result,
    dumped there after the pickles of other sources are evicted."""
    path = os.path.join(CACHE_DIR, f"{name}.pkl")
    if os.path.exists(path):
        with open(path, "rb") as f:
            return pickle.load(f)
    _evict_other_sources(key)
    obj = build()
    with open(path, "wb") as f:
        pickle.dump(obj, f)
    return obj


def load_benchmark(spark: SparkSession, cfg: BenchmarkConfig, *, with_tpch: bool) -> Benchmark:
    """Build (or load the cached) benchmark for a config."""

    def build() -> Benchmark:
        from repro.lake.repository import tpch_derived_tables

        extra = tpch_derived_tables(spark, sf=0.001, seed=cfg.seed) if with_tpch else None
        return build_benchmark(cfg, spark=spark, extra_tables=extra)

    key = _cfg_key(cfg)
    return _cached(key, f"bench_{key}", build)


def trained_fcm(
    bench: Benchmark,
    *,
    variant: str = "full",
    n_neg: int = N_NEG,
    strategy: str = STRATEGY,
):
    """A head-trained FCM variant for a benchmark (cached per config)."""
    from repro.bench.harness import train_fcm
    from repro.core.fcm import make_model

    def build():
        model = make_model(bench.cfg.fcm, variant=variant)
        return model, train_fcm(bench, model, n_neg=n_neg, strategy=strategy)

    key = _cfg_key(bench.cfg)
    return _cached(key, f"fcm_{key}_{variant}_{n_neg}_{strategy}", build)


def setup(argv=None):
    """Common job prologue: args -> (spark, benchmark, args)."""
    args = parse_args(argv)
    spark = get_spark()
    # bench scale: DESIGN.md §2, ~15x smaller than the paper
    cfg = tiny_benchmark_config(args.seed) if args.tiny else BenchmarkConfig(seed=args.seed)
    bench = load_benchmark(spark, cfg, with_tpch=not args.tiny)
    print(
        f"[bench] repository={len(bench.repository)} tables, "
        f"queries={len(bench.queries)}, k={bench.cfg.k}",
        flush=True,
    )
    return spark, bench, args
