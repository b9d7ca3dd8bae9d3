"""Plotly-lite: the synthetic (table, viz-spec) corpus (DESIGN.md §2).

The paper's benchmark is built from the Plotly corpus — millions of real
tables with visualization configurations. Offline we generate a seeded
corpus of *chartable* tables instead: every column is a time-series drawn
from one of six shape families (random walk, trend, seasonal, spiky walk,
mean-reverting AR(1), level shifts), composed so that tables within a
family are plausible distractors for one another. Each table carries a
:class:`VisSpec` (which columns to draw, optional aggregation) — the
corpus is a drop-in for Plotly's (table, visualization-specification)
records.

The M-line distribution of specs matches the paper's Table I repository
mix: M=1 (36%), 2-4 (25%), 5-7 (21%), >7 (18%).
"""
from __future__ import annotations

import numpy as np

from repro.chartsim.spec import ChartRecord, VisSpec
from repro.config import AGG_OPS, BenchmarkConfig
from repro.core.data import LakeTable

#: Tables I/III/V's line-count buckets: label -> (fewest, most) lines the
#: generator draws; :func:`m_bucket_label` files any larger M in the last.
M_BUCKETS = {"1": (1, 1), "2-4": (2, 4), "5-7": (5, 7), ">7": (8, 10)}
#: Table I repository proportions per M bucket.
M_BUCKET_WEIGHTS = (0.36, 0.25, 0.21, 0.18)
#: Table IV's DA-window buckets: label -> (lo, hi). A window w is in the
#: bucket with lo <= w < hi; the last also holds w == hi, the largest
#: window :func:`da_spec` draws.
WINDOW_BUCKETS = {
    f"{lo}-{hi}": (lo, hi) for lo, hi in ((0, 20), (20, 40), (40, 60), (60, 80), (80, 100))
}


def m_bucket_label(m: int) -> str:
    """Bucket label for a line count, matching Tables I/III/V."""
    *first, last = M_BUCKETS
    return next((label for label in first if m <= M_BUCKETS[label][1]), last)


def window_bucket_label(window: int) -> str | None:
    """Table IV bucket label for a DA window; None past the last bucket."""
    *_, last = WINDOW_BUCKETS
    for label, (lo, hi) in WINDOW_BUCKETS.items():
        if lo <= window < hi or (label == last and window == hi):
            return label
    return None


# --------------------------------------------------------------------------
# column shape families
# --------------------------------------------------------------------------
def _walk(rng, n, scale, base):
    return base + np.cumsum(rng.standard_normal(n)) * scale


def _trend(rng, n, scale, base):
    slope = rng.uniform(-2, 2) * scale / max(n, 1)
    return base + slope * np.arange(n) * 8 + rng.standard_normal(n) * scale * 0.6


def _seasonal(rng, n, scale, base):
    # period >= n/8: at most ~8 cycles per chart, so the oscillation
    # survives rasterization (a 30-cycle line is unreadable at 480 px,
    # for our extractor and for humans alike)
    period = rng.integers(max(12, n // 8), max(13, n // 3))
    phase = rng.uniform(0, 2 * np.pi)
    amp = scale * rng.uniform(3, 10)
    return (
        base
        + amp * np.sin(2 * np.pi * np.arange(n) / period + phase)
        + rng.standard_normal(n) * scale
    )


def _spiky(rng, n, scale, base):
    s = _walk(rng, n, scale, base)
    mask = rng.random(n) < 0.07
    s[mask] += rng.standard_normal(int(mask.sum())) * scale * 12
    return s


def _ar1(rng, n, scale, base):
    out = np.empty(n)
    x = 0.0
    phi = rng.uniform(0.85, 0.99)
    for i in range(n):
        x = phi * x + rng.standard_normal() * scale
        out[i] = x
    return base + out


def _steps(rng, n, scale, base):
    n_steps = int(rng.integers(3, 9))
    edges = np.sort(rng.choice(np.arange(1, n), size=n_steps - 1, replace=False))
    levels = base + np.cumsum(rng.standard_normal(n_steps)) * scale * 6
    out = np.empty(n)
    prev = 0
    for lev, e in zip(levels, list(edges) + [n]):
        out[prev:e] = lev
        prev = e
    return out + rng.standard_normal(n) * scale * 0.3


FAMILIES = {
    "walk": _walk,
    "trend": _trend,
    "seasonal": _seasonal,
    "spiky": _spiky,
    "ar1": _ar1,
    "steps": _steps,
}


def gen_column(rng: np.random.Generator, n: int, family: str, scale: float, base: float) -> np.ndarray:
    return FAMILIES[family](rng, n, scale, base)


def gen_table(
    rng: np.random.Generator,
    table_id: str,
    *,
    m: int,
    min_rows: int,
    max_rows: int,
) -> ChartRecord:
    """One corpus record: a table of m + extra columns and its viz spec."""
    n = int(rng.integers(min_rows, max_rows + 1))
    n_extra = int(rng.integers(0, 3))
    n_cols = m + n_extra
    family = str(rng.choice(list(FAMILIES)))
    scale = float(10.0 ** rng.uniform(-1, 2))
    base = float(rng.uniform(-1, 1) * scale * rng.uniform(0, 40))
    cols = []
    for _ in range(n_cols):
        # Columns of one table share a family/scale "style" with jitter,
        # like real dashboards plotting comparable series; the tight base
        # spread makes multi-line charts overlap and occlude, so (as in
        # the paper) extraction and matching get harder as M grows.
        fam = family if rng.random() < 0.8 else str(rng.choice(list(FAMILIES)))
        cols.append(
            gen_column(rng, n, fam, scale * rng.uniform(0.6, 1.6), base + rng.uniform(-1, 1) * scale * 1.5)
        )
    table = LakeTable(table_id, cols)
    y_cols = tuple(int(i) for i in rng.choice(n_cols, size=m, replace=False))
    spec = VisSpec(y_cols=y_cols)
    return ChartRecord(table=table, spec=spec)


def sample_m(rng: np.random.Generator) -> int:
    """Draw a line count from the Table I bucket mix."""
    b = rng.choice(len(M_BUCKETS), p=np.asarray(M_BUCKET_WEIGHTS))
    lo, hi = list(M_BUCKETS.values())[b]
    return int(rng.integers(lo, hi + 1))


def gen_corpus(
    cfg: BenchmarkConfig,
    n_tables: int,
    *,
    prefix: str,
    seed: int,
    stratify: bool = False,
) -> list[ChartRecord]:
    """Generate ``n_tables`` corpus records with the Table I M-mix.

    ``stratify=True`` rotates through the four M buckets instead of
    sampling them — used for the query tables so every bucket of
    Tables III/V has query support even at small scale.
    """
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_tables):
        if stratify:
            lo, hi = list(M_BUCKETS.values())[i % len(M_BUCKETS)]
            m = int(rng.integers(lo, hi + 1))
        else:
            m = sample_m(rng)
        out.append(
            gen_table(
                rng,
                f"{prefix}{i:05d}",
                m=m,
                min_rows=cfg.min_rows,
                max_rows=cfg.max_rows,
            )
        )
    return out


def da_spec(rng: np.random.Generator, record: ChartRecord) -> VisSpec:
    """A DA variant of a record's spec (Sec. VII-A query selection): a
    random operator and a window uniform in [2, min(100, N_R/10)]."""
    n_r = record.table.n_rows
    w_hi = max(3, min(100, n_r // 10))
    window = int(rng.integers(2, w_hi + 1))
    op = str(rng.choice(list(AGG_OPS)))
    base = record.spec
    return VisSpec(y_cols=base.y_cols, agg_op=op, window=window, row_range=base.row_range)


def partial_spec(rng: np.random.Generator, record: ChartRecord) -> VisSpec:
    """A partial-range (locality) variant: plot a contiguous row slice."""
    n = record.table.n_rows
    lo = int(rng.integers(0, n // 3))
    hi = int(rng.integers(2 * n // 3, n))
    return VisSpec(y_cols=record.spec.y_cols, row_range=(lo, hi))
