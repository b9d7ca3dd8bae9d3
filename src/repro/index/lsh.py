"""Random-hyperplane LSH over column embeddings (Sec. VI-A).

The paper hashes each column's mean segment embedding into ``L`` binary
codes of ``B`` bits each (one per hash table); a dataset is indexed under
every code of every column. A query line's mean embedding is hashed the
same way; any dataset colliding on at least one code is a candidate.
SimHash (sign of a random projection) realises the rounded-cosine bit of
the paper. LSH can prune relevant tables (false negatives), which is the
source of the small effectiveness drop in Table VIII.

:class:`LSHIndex` is built and probed on the driver; the column
embeddings it hashes come from the distributed ``embed_repository`` job.
"""
from __future__ import annotations

from collections import defaultdict

import numpy as np


class LSHIndex:
    """SimHash index: L tables x B bits, payloads bucketed by code."""

    def __init__(self, dim: int, *, n_bits: int, n_tables: int, seed: int) -> None:
        if dim < 1 or n_bits < 1 or n_tables < 1:
            raise ValueError("dim, n_bits, n_tables must be positive")
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((n_tables, n_bits, dim))
        self.dim = dim
        self.n_bits = n_bits
        self.n_tables = n_tables
        self.buckets: list[dict[int, set]] = [defaultdict(set) for _ in range(n_tables)]

    def codes(self, vec: np.ndarray) -> list[int]:
        """One packed binary code per hash table."""
        v = np.asarray(vec, dtype=np.float64).ravel()
        if v.size != self.dim:
            raise ValueError(f"vector dim {v.size} != index dim {self.dim}")
        bits = (np.einsum("tbd,d->tb", self.planes, v) >= 0).astype(np.int64)
        weights = 1 << np.arange(self.n_bits, dtype=np.int64)
        return [int(b @ weights) for b in bits]

    def add(self, payload, vec: np.ndarray) -> None:
        for t, code in enumerate(self.codes(vec)):
            self.buckets[t][code].add(payload)

    def query(self, vec: np.ndarray) -> set:
        out: set = set()
        for t, code in enumerate(self.codes(vec)):
            out |= self.buckets[t].get(code, set())
        return out
