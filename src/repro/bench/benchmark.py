"""Benchmark construction (Sec. VII-A), Plotly-lite edition.

Reproduces the paper's pipeline:

1. **Corpus**: seeded Plotly-lite records (tables + viz specs), split into
   repository distractors, T_train, T_val and T_test (query tables).
2. **Query selection**: for each query table, ``charts_per_table`` line
   charts — one from the plain spec (sometimes a partial row range) and
   one aggregation-based (random operator, window ~ U[2, min(100, N_R/10)])
   — rendered by chartsim and passed through the visual element extractor.
3. **Ground truth**: for each query table, ``n_dupes`` noise-injected
   near-duplicates (``C' = C * sigma``, sigma ~ U(0.9, 1.1)) are added to
   the repository; each query's relevant set is the top-k repository
   tables by the ground-truth relevance Rel(D, T) (DTW + bipartite
   matching). Rel computation is Spark-distributed when a session is
   given (`lake/search.py`), else local.
4. **Training triplets** (V_i, D_i, T_i) from T_train/T_val for head
   training (Def. 2).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chartsim.extractor import ExtractedQuery, extract
from repro.chartsim.renderer import render_chart
from repro.chartsim.spec import ChartRecord, VisSpec, underlying_data
from repro.config import BenchmarkConfig, ChartConfig
from repro.core.data import LakeTable
from repro.core.relevance import rel_scores
from repro.bench.metrics import top_k
from repro.bench.plotly_lite import da_spec, gen_corpus, partial_spec


@dataclass
class Query:
    query_id: str
    source_table_id: str
    spec: VisSpec
    extracted: ExtractedQuery
    data: list[np.ndarray]          # underlying data D (GT/training only)

    @property
    def m(self) -> int:
        return self.spec.m

    @property
    def is_da(self) -> bool:
        return self.spec.is_da


@dataclass
class Benchmark:
    cfg: BenchmarkConfig
    repository: dict[str, LakeTable]
    repo_specs: dict[str, VisSpec]     # per repository table: its viz spec
    queries: list[Query]
    ground_truth: dict[str, list[str]] = field(default_factory=dict)
    train_records: list[ChartRecord] = field(default_factory=list)
    val_records: list[ChartRecord] = field(default_factory=list)

    @property
    def relevant_sets(self) -> dict[str, set[str]]:
        return {q: set(v) for q, v in self.ground_truth.items()}


def make_duplicate(
    rec: ChartRecord, rng: np.random.Generator, cfg: BenchmarkConfig, tid: str
) -> tuple[LakeTable, VisSpec]:
    """A relevant near-duplicate of a query table (Sec. VII-A hardened).

    Every source column gets the paper's multiplicative noise
    (sigma ~ U(0.9, 1.1)) — so the DTW ground truth still ranks the
    duplicates top — but the duplicate also gains 1-3 fresh distractor
    columns and a random column permutation. A table-level global
    fingerprint (mean over all column embeddings) is therefore diluted,
    while line-to-column fine-grained matching is unaffected: this is the
    Example-1 property of real near-duplicate tables (same plotted
    series, different table composition).
    """
    from repro.bench.plotly_lite import FAMILIES, gen_column

    src = rec.table
    cols: list[np.ndarray] = [
        c * rng.uniform(cfg.noise_lo, cfg.noise_hi, size=c.size)
        for c in src.columns
    ]
    scale = float(np.mean([np.std(c) or 1.0 for c in src.columns]))
    base = float(np.mean([np.mean(c) for c in src.columns]))
    for _ in range(int(rng.integers(1, 4))):
        fam = str(rng.choice(list(FAMILIES)))
        cols.append(
            gen_column(rng, src.n_rows, fam, scale, base + rng.uniform(-1, 1) * scale * 2)
        )
    perm = rng.permutation(len(cols))
    cols = [cols[i] for i in perm]
    inv = {int(old): new for new, old in enumerate(perm)}
    spec = VisSpec(
        y_cols=tuple(inv[c] for c in rec.spec.y_cols),
        agg_op=rec.spec.agg_op,
        window=rec.spec.window,
        row_range=rec.spec.row_range,
    )
    return LakeTable(tid, cols), spec


def make_query(table: LakeTable, spec: VisSpec, query_id: str, chart: ChartConfig) -> Query:
    """Render a table's chart by ``spec`` and extract it: one query."""
    data = underlying_data(table, spec)
    eq = extract(render_chart(data, chart), query_id=query_id)
    return Query(
        query_id=query_id,
        source_table_id=table.table_id,
        spec=spec,
        extracted=eq,
        data=data,
    )


def make_queries(
    records: list[ChartRecord], cfg: BenchmarkConfig, rng: np.random.Generator
) -> list[Query]:
    """Render + extract the line chart queries for the query tables."""
    queries: list[Query] = []
    for rec in records:
        specs: list[VisSpec] = []
        base = rec.spec
        if rng.random() < 0.3 and rec.table.n_rows >= 60:
            base = partial_spec(rng, rec)
        specs.append(base)
        if cfg.charts_per_table >= 2:
            specs.append(da_spec(rng, rec))
        for j, spec in enumerate(specs[: cfg.charts_per_table]):
            queries.append(
                make_query(rec.table, spec, f"{rec.table.table_id}_q{j}", cfg.chart)
            )
    return queries


def build_benchmark(
    cfg: BenchmarkConfig,
    *,
    spark=None,
    extra_tables: dict[str, LakeTable] | None = None,
) -> Benchmark:
    """Build the full benchmark; ground truth via Spark when provided.

    ``extra_tables`` lets callers add non-synthetic distractors (e.g. the
    TPC-H-lite derived tables from the lake module).
    """
    rng = np.random.default_rng(cfg.seed)
    base = gen_corpus(cfg, cfg.n_base_tables, prefix="rep", seed=cfg.seed + 1)
    qrecs = gen_corpus(
        cfg, cfg.n_query_tables, prefix="qry", seed=cfg.seed + 2, stratify=True
    )
    train = gen_corpus(cfg, cfg.n_train_tables, prefix="trn", seed=cfg.seed + 3)
    val = gen_corpus(cfg, cfg.n_val_tables, prefix="val", seed=cfg.seed + 4)

    repository: dict[str, LakeTable] = {}
    repo_specs: dict[str, VisSpec] = {}
    for rec in base + qrecs:
        repository[rec.table.table_id] = rec.table
        repo_specs[rec.table.table_id] = rec.spec
    for tid, t in (extra_tables or {}).items():
        repository[tid] = t
        repo_specs[tid] = VisSpec(y_cols=tuple(range(min(3, t.n_cols))))

    # noisy duplicates per query table (ground-truth construction)
    for rec in qrecs:
        for d in range(cfg.n_dupes):
            tid = f"{rec.table.table_id}_d{d:03d}"
            dup, spec = make_duplicate(rec, rng, cfg, tid)
            repository[tid] = dup
            repo_specs[tid] = spec

    queries = make_queries(qrecs, cfg, rng)
    bench = Benchmark(
        cfg=cfg,
        repository=repository,
        repo_specs=repo_specs,
        queries=queries,
        train_records=train,
        val_records=val,
    )
    bench.ground_truth = compute_ground_truth(bench, spark=spark)
    return bench


def compute_ground_truth(bench: Benchmark, *, spark=None) -> dict[str, list[str]]:
    """Top-k repository tables by Rel(D, T) per query, ranked by
    :func:`repro.bench.metrics.top_k` on both paths."""
    if spark is not None:
        from repro.lake.search import spark_ground_truth

        return spark_ground_truth(spark, bench)
    rel = rel_scores([q.data for q in bench.queries], list(bench.repository.values()))
    return top_k(
        (
            (q.query_id, tid, score)
            for q, row in zip(bench.queries, rel)
            for tid, score in zip(bench.repository, row)
        ),
        bench.cfg.k,
    )
