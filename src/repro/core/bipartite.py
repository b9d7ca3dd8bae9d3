"""Maximum-weight bipartite matching (Sec. III-A high-level relevance).

The paper maps data series of the underlying data ``D`` onto columns of a
candidate table ``T`` by solving max-weight bipartite matching over the
``rel(d_i, C_j)`` weight matrix. scipy is unavailable, so we implement the
Hungarian algorithm (Jonker-style O(n^3) potentials formulation) in numpy.
"""
from __future__ import annotations

import numpy as np


def hungarian_max(weights: np.ndarray) -> list[tuple[int, int]]:
    """Max-weight matching of a rectangular weight matrix.

    Returns a list of (row, col) pairs; every row of the smaller side is
    matched (weights may be negative — all rows are still assigned, which
    matches the classic assignment-problem semantics; callers who want
    "skip bad edges" filter pairs by weight afterwards).
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("weights must be 2-D")
    if w.size == 0:
        return []
    transposed = False
    if w.shape[0] > w.shape[1]:
        w = w.T
        transposed = True
    n, m = w.shape
    # Hungarian algorithm on cost = -w, potentials formulation
    # (1-indexed internal arrays, standard e-maxx implementation).
    cost = -w
    INF = np.inf
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    p = np.zeros(m + 1, dtype=np.int64)  # p[j] = row matched to column j
    way = np.zeros(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(m + 1, INF)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = -1
            cur = cost[i0 - 1, :] - u[i0] - v[1:]
            for j in range(1, m + 1):
                if used[j]:
                    continue
                c = cur[j - 1]
                if c < minv[j]:
                    minv[j] = c
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(0, m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    pairs = []
    for j in range(1, m + 1):
        if p[j] != 0:
            r, c = int(p[j] - 1), j - 1
            pairs.append((c, r) if transposed else (r, c))
    pairs.sort()
    return pairs


def matching_weight(weights: np.ndarray, pairs: list[tuple[int, int]]) -> float:
    """Total weight of a matching."""
    w = np.asarray(weights, dtype=np.float64)
    return float(sum(w[i, j] for i, j in pairs))


def mean_matching(weights: np.ndarray) -> float:
    """Max-weight matching weight divided by the number of rows, 0.0 when
    nothing matches.

    A row the matching leaves out (a data series or chart line of a table
    with fewer columns than rows) counts as 0: Rel(D, T) (Sec. III-A) and
    Qetch* both aggregate this way.
    """
    pairs = hungarian_max(weights)
    if not pairs:
        return 0.0
    return matching_weight(weights, pairs) / len(weights)
