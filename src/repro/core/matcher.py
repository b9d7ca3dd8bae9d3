"""Cross-modal matcher — HCMAN analog (Sec. IV-D) plus the MoE gate.

Two matching levels, as in the paper:

* **Segment level (SL-SAN)**: scaled-dot-product attention between line
  segment embeddings and column segment embeddings; a line-column score is
  an attention-pooled similarity, so fine-grained (partial/offset) matches
  are rewarded.
* **Line-to-column level (LL-SAN)**: the line x column score matrix is
  resolved with max-weight bipartite matching — the discrete analog of the
  paper's relevance-weighted reconstruction — and the matched edges are
  summarised into a fixed-size statistics vector.

The statistics vector is squashed to ``Rel'(V,T)`` by a logistic head
(:class:`LogisticHead`), which is the *trained* component (Sec. V-E).
The MoE gate (Sec. V-D) softmax-weighs the per-operator experts of each
column by their match quality; its argmax is the inferred operator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ALL_OPS
from repro.core.bipartite import hungarian_max
from repro.core.data import overlaps, pad_query_range
from repro.core.dataset_encoder import ColumnEncoding, TableEncoding
from repro.core.features import cosine_matrix, unit_rows
from repro.core.line_encoder import QueryEncoding

#: feature names of the full (fine-grained) matcher
FEATURES_FULL = (
    "mean_matched",
    "min_matched",
    "max_matched",
    "mean_fwd",
    "coverage",
    "range_overlap",
    "gate_conf",
)
#: feature names of the global (FCM-HCMAN ablation) matcher
FEATURES_GLOBAL = ("global_cos", "range_overlap", "coverage")

_GATE_TAU = 12.0
#: weight of the range-consistency (IoU) bonus inside the matching score
_RANGE_W = 0.6
#: identity-expert prior added before the MoE gate softmax: on smooth data
#: a tiny-window aggregate is numerically identical to the raw column, so
#: near-ties must resolve to "no aggregation" (the learned gate of the
#: paper encodes the same prior through the non-DA transformation layer)
_ID_PRIOR = 0.02
_ID = ALL_OPS.index("id")


def range_iou(a: tuple, b: tuple) -> np.ndarray:
    """Intersection-over-union of value ranges ``a = (lo, hi)`` and ``b``.

    The bounds may be arrays; they broadcast against each other.
    """
    inter = np.minimum(a[1], b[1]) - np.maximum(a[0], b[0])
    union = np.maximum(a[1], b[1]) - np.minimum(a[0], b[0])
    degenerate = union <= 1e-12  # both ranges degenerate and coincident
    return np.where(
        degenerate, 1.0, np.clip(inter / np.where(degenerate, 1.0, union), 0.0, 1.0)
    )


def filter_columns(query: QueryEncoding, table: TableEncoding) -> list[ColumnEncoding]:
    """Tick-based column filter (Sec. IV-C): keep finite columns whose
    interval key overlaps the padded query y-range, by the same
    :func:`~repro.core.data.overlaps` test the index probe applies; fall
    back to all finite columns if the filter empties the table."""
    qlo, qhi = pad_query_range(query.y_range)
    finite = table.finite_columns
    kept = [c for c in finite if overlaps(*c.interval, qlo, qhi)]
    return kept or finite


@dataclass
class MatchResult:
    features: np.ndarray
    pairs: list[tuple[int, int]]          # (line idx, kept-column idx)
    inferred_ops: list[str]               # per matched line
    kept_col_ids: list[int]


def match_fine(query: QueryEncoding, table: TableEncoding, tau: float) -> MatchResult:
    """Full fine-grained HCMAN matching -> FEATURES_FULL vector.

    One pass over the table's packed variants: a single matmul of every
    line segment against every kept variant segment, per-variant
    reductions with ``reduceat``, then the MoE gate over all (line,
    column) pairs at once. A table with no finite column matches nothing
    and gets an all-zero vector.
    """
    cols = filter_columns(query, table)
    if not cols:
        return MatchResult(np.zeros(len(FEATURES_FULL)), [], [], [])
    m, nc = query.m, len(cols)
    kept_ids = np.array([c.col_id for c in cols])  # ascending, = positions
    pk = table.packed
    sizes = np.diff(pk.offsets)
    keep = np.isin(pk.col, kept_ids)
    n_var = sizes[keep]
    var_start = np.cumsum(n_var) - n_var
    col, op = pk.col[keep], pk.op[keep]

    # -- SL-SAN: per (line, variant) segment score, a blend of max-pooled
    # and attention-pooled similarities in both directions ------------------
    n_line = np.array([e.shape[0] for e in query.line_embs])
    line_start = np.cumsum(n_line) - n_line
    s = unit_rows(np.vstack(query.line_embs)) @ pk.emb[np.repeat(keep, sizes)].T
    row_max = np.maximum.reduceat(s, var_start, axis=1)
    # attention pooling over each variant's segments; rounding is monotone,
    # so tau * row_max is exactly the max of the logits
    a = np.exp(s * tau - np.repeat(row_max * tau, n_var, axis=1))
    fwd_rows = np.add.reduceat(a * s, var_start, axis=1) / np.add.reduceat(
        a, var_start, axis=1
    )
    col_max = np.maximum.reduceat(s, line_start, axis=0)

    def line_mean(x: np.ndarray) -> np.ndarray:
        return np.add.reduceat(x, line_start, axis=0) / n_line[:, None]

    fwd = line_mean(fwd_rows)
    seg = (
        0.5 * line_mean(row_max)
        + 0.3 * fwd
        + 0.2 * np.add.reduceat(col_max, var_start, axis=1) / n_var
    )
    # range-consistency bonus: the transformed series should live where the
    # line lives (the value-space evidence the y-ticks provide)
    line_lo, line_hi = query.line_ranges[:, :1], query.line_ranges[:, 1:]
    iou = range_iou((line_lo, line_hi), (pk.lo[keep], pk.hi[keep]))
    total = seg + _RANGE_W * iou

    # -- experts: each (column, op) run of variants keeps its best window,
    # the first one on ties ------------------------------------------------
    new = np.r_[True, (col[1:] != col[:-1]) | (op[1:] != op[:-1])]
    first_var = np.flatnonzero(new)
    best = np.maximum.reduceat(total, first_var, axis=1)
    at_best = total == best[:, np.cumsum(new) - 1]
    pick_var = np.minimum.reduceat(
        np.where(at_best, np.arange(col.size), col.size), first_var, axis=1
    )
    line_ix = np.arange(m)[:, None]
    gc, go = np.searchsorted(kept_ids, col[first_var]), op[first_var]
    present = np.zeros((nc, len(ALL_OPS)), dtype=bool)
    present[gc, go] = True
    expert = np.zeros((3, m, nc, len(ALL_OPS)))
    expert[:, :, gc, go] = (
        best + _ID_PRIOR * (go == _ID),
        fwd[line_ix, pick_var],
        iou[line_ix, pick_var],
    )
    e_score, e_fwd, e_iou = expert

    # -- MoE gate: a softmax over each (line, column)'s experts, all pairs at
    # once; its argmax is the inferred operator. An absent expert has weight
    # exactly 0 and score 0, so no -inf * 0 arises
    logits = np.where(present, e_score * _GATE_TAU, -np.inf)
    g = np.exp(logits - logits.max(axis=-1, keepdims=True))
    g /= g.sum(axis=-1, keepdims=True)
    score = (g * e_score).sum(axis=-1)
    fwd_c = (g * e_fwd).sum(axis=-1)
    top = g.argmax(axis=-1)[..., None]
    conf = np.take_along_axis(g, top, axis=-1)[..., 0]
    iou_c = np.take_along_axis(e_iou, top, axis=-1)[..., 0]

    # -- LL-SAN: bipartite line -> column assignment ----------------------------
    pairs = hungarian_max(score)
    matched = np.array([score[i, j] for i, j in pairs])
    # Normalise by M (the number of lines), like Rel(D, T) in Sec. III-A:
    # a table that cannot cover every line pays for each unmatched line.
    coverage = len(pairs) / m
    feats = np.array(
        [
            matched.sum() / m,
            matched.min() if len(pairs) == m else 0.0,
            matched.max(),
            float(np.sum([fwd_c[i, j] for i, j in pairs])) / m,
            coverage,
            float(np.sum([iou_c[i, j] for i, j in pairs])) / m,
            float(np.mean([conf[i, j] for i, j in pairs])),
        ]
    )
    return MatchResult(
        features=feats,
        pairs=pairs,
        inferred_ops=[ALL_OPS[top[i, j, 0]] for i, j in pairs],
        kept_col_ids=[c.col_id for c in cols],
    )


def match_global(query: QueryEncoding, table: TableEncoding) -> MatchResult:
    """FCM-HCMAN ablation (Sec. VII-D.1): averaged representations and a
    single global cosine — no segment-level or line-level matching."""
    cols = table.finite_columns
    if not cols:
        return MatchResult(np.zeros(len(FEATURES_GLOBAL)), [], [], [])
    v = np.mean([e.mean(axis=0) for e in query.line_embs], axis=0)
    t = np.mean([c.mean_emb for c in cols], axis=0)
    cos = float(cosine_matrix(v[None, :], t[None, :])[0, 0])
    # one global range check: union of line ranges vs union of column ranges
    qlo = float(query.line_ranges[:, 0].min())
    qhi = float(query.line_ranges[:, 1].max())
    clo = min(c.value_range[0] for c in cols)
    chi = max(c.value_range[1] for c in cols)
    ro = range_iou((qlo, qhi), (clo, chi))
    cov = min(len(cols), query.m) / query.m
    return MatchResult(
        features=np.array([cos, ro, cov]),
        pairs=[],
        inferred_ops=[],
        kept_col_ids=[c.col_id for c in cols],
    )


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    """The head's logistic function, of a logit or an array of them,
    clipped to [-30, 30]."""
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))


@dataclass
class LogisticHead:
    """The trained scoring head: Rel' = sigmoid(w . std(f) + b).

    ``x_mean``/``x_scale`` standardize the feature vector before the
    linear map (baked in at training time so the head is self-contained;
    identity for the hand-set default heads).
    """

    w: np.ndarray
    b: float
    x_mean: np.ndarray | None = None
    x_scale: np.ndarray | None = None

    def __call__(self, feats: np.ndarray) -> float:
        f = np.asarray(feats, dtype=np.float64)
        if self.x_mean is not None:
            f = (f - self.x_mean) / self.x_scale
        return float(sigmoid(float(np.dot(self.w, f) + self.b)))

    @staticmethod
    def default_full() -> "LogisticHead":
        """Sane hand-set weights so FCM ranks before any training; jobs
        replace this with a trained head (core/train.py)."""
        w = np.array([4.0, 1.5, 0.5, 1.0, 1.0, 1.0, 0.5])
        return LogisticHead(w=w, b=-4.0)

    @staticmethod
    def default_global() -> "LogisticHead":
        return LogisticHead(w=np.array([4.0, 1.0, 1.0]), b=-3.0)
