"""Hybrid indexing strategy (Sec. VI-A): interval index ∩ LSH.

At query time the tick-derived y-range probes the interval index (set S1)
and each extracted line's mean embedding probes the LSH index (set S2);
only tables in S1 ∩ S2 are scored with the relevance model. The four
strategies of Table VIII are: no index (scan), interval index only, LSH
only, and the hybrid intersection.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.data import LakeTable
from repro.index.interval_tree import (
    TableIntervals,
    build_table_interval_tree,
    interval_tree_candidates,
)
from repro.index.lsh import LSHIndex

STRATEGIES = ("none", "interval", "lsh", "hybrid")
#: the LSH shape Table VIII builds. 24-bit codes: our untrained embeddings
#: are directionally concentrated (every column shares positional/scale
#: channels), so the paper-style short codes collide on almost everything
LSH_BITS = 24
LSH_TABLES = 4


@dataclass
class HybridIndex:
    tree: TableIntervals
    lsh: LSHIndex
    all_tables: set[str]
    build_seconds: dict[str, float]

    def candidates(
        self,
        strategy: str,
        *,
        y_range: tuple[float, float],
        line_embs: list[np.ndarray],
    ) -> set[str]:
        """Candidate table ids for one query under a strategy."""
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; expected {STRATEGIES}")
        if strategy == "none":
            return set(self.all_tables)
        s1 = s2 = None
        if strategy in ("interval", "hybrid"):
            s1 = interval_tree_candidates(self.tree, y_range)
        if strategy in ("lsh", "hybrid"):
            s2 = set()
            for emb in line_embs:
                s2 |= self.lsh.query(emb)
        if strategy == "interval":
            return s1
        if strategy == "lsh":
            return s2
        return s1 & s2


def build_hybrid_index(
    tables: dict[str, LakeTable],
    column_embs: dict[tuple[str, int], np.ndarray],
    *,
    n_bits: int,
    n_tables: int,
    seed: int,
) -> HybridIndex:
    """Build both indexes; ``column_embs`` maps (table_id, col_id) to the
    column-level embedding from the dataset encoder (the Spark
    ``embed_repository`` output collected, or computed locally)."""
    t0 = time.perf_counter()
    tree = build_table_interval_tree(tables)
    t_tree = time.perf_counter() - t0
    if not column_embs:
        raise ValueError("no column embeddings provided")
    dim = len(next(iter(column_embs.values())))
    t0 = time.perf_counter()
    lsh = LSHIndex(dim, n_bits=n_bits, n_tables=n_tables, seed=seed)
    for (tid, _cid), emb in column_embs.items():
        lsh.add(tid, np.asarray(emb, dtype=np.float64))
    t_lsh = time.perf_counter() - t0
    return HybridIndex(
        tree=tree,
        lsh=lsh,
        all_tables=set(tables),
        build_seconds={"interval": t_tree, "lsh": t_lsh},
    )


def query_line_embeddings(model, query_enc) -> list[np.ndarray]:
    """Per-line mean segment embeddings (the LSH probe vectors, Sec. VI-A)."""
    return [e.mean(axis=0) for e in query_enc.line_embs]
