"""The top-k ranking (Sec. II) and its effectiveness metrics, prec@k and
ndcg@k (Sec. VII-B).

:func:`top_k` is the one ranking rule: the ground truth and every
method's answers are ranked by it, on the driver. The metrics use binary
relevance against the ground-truth relevant set (the top-k tables by
Rel(D, T), Sec. VII-A): ``prec@k`` counts relevant tables among the
top-k returned; ``ndcg@k`` applies the standard positional log discount
with the ideal DCG of ``min(k, |relevant|)`` leading hits.
"""
from __future__ import annotations

import math
from typing import Iterable

import numpy as np


def top_k(
    rows: Iterable[tuple[str, str, float | None]], k: int
) -> dict[str, list[str]]:
    """Top-k table ids per query from ``(query_id, table_id, score)`` rows.

    The highest score ranks first and equal scores break on ``table_id``.
    A NaN or null score ranks below every number, ``-inf`` included: a
    pandas NaN crosses Arrow into Spark as a null.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    by_query: dict[str, list[tuple[bool, float, str]]] = {}
    for qid, tid, score in rows:
        missing = score is None or math.isnan(score)
        by_query.setdefault(qid, []).append((missing, 0.0 if missing else -score, tid))
    return {qid: [tid for *_, tid in sorted(keys)[:k]] for qid, keys in by_query.items()}


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
