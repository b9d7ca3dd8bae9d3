"""Ranking effectiveness metrics: prec@k and ndcg@k (Sec. VII-B).

Binary relevance against the ground-truth relevant set (the top-k tables
by Rel(D, T), Sec. VII-A): ``prec@k`` counts relevant tables among the
top-k returned; ``ndcg@k`` applies the standard positional log discount
with the ideal DCG of ``min(k, |relevant|)`` leading hits.
"""
from __future__ import annotations

import numpy as np


def prec_at_k(ranked: list[str], relevant: set[str], k: int) -> float:
    if k <= 0:
        raise ValueError("k must be positive")
    top = ranked[:k]
    return sum(1 for t in top if t in relevant) / k


def ndcg_at_k(ranked: list[str], relevant: set[str], k: int) -> float:
    if k <= 0:
        raise ValueError("k must be positive")
    gains = np.array([1.0 if t in relevant else 0.0 for t in ranked[:k]])
    discounts = 1.0 / np.log2(np.arange(2, gains.size + 2))
    dcg = float((gains * discounts).sum())
    ideal_hits = min(k, len(relevant))
    if ideal_hits == 0:
        return 0.0
    idcg = float((1.0 / np.log2(np.arange(2, ideal_hits + 2))).sum())
    return dcg / idcg
