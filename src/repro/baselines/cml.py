"""CML baseline (Sec. VII-B (1)).

The paper's CML pairs a Vision Transformer (chart side) with TURL (table
side) and ranks by cosine similarity of the two *global* representations.
Our analog keeps exactly that limitation: each extracted line is encoded
as ONE whole-series feature vector, averaged over lines into a single
chart vector; each column likewise into a single table vector; relevance
is their cosine. No segment-level matching, no line-to-column assignment,
no aggregation handling — which is why CML trails FCM, especially on
multi-line and DA queries.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.base import Method, finite_column_ids
from repro.chartsim.extractor import ExtractedQuery
from repro.config import FCMConfig
from repro.core.data import LakeTable
from repro.core.features import (
    Attention,
    Projector,
    feature_dim,
    segment_features,
    znorm,
)


def _global_embed(series: np.ndarray, projector: Projector) -> np.ndarray:
    """One whole-series embedding per row of an equal-length ``(S, L)``
    stack: each series is a single 'segment'."""
    z, mu, sigma = znorm(series)
    feats = segment_features(z[:, None, :], mu, sigma, n_profile=12)
    return projector(feats)[:, 0, :]


class CML(Method):
    name = "CML"

    def __init__(self, cfg: FCMConfig | None = None) -> None:
        cfg = cfg or FCMConfig()
        base = feature_dim(12)
        # Shared projection on both sides (stands in for contrastively
        # trained cross-modal alignment, same substitution as FCM).
        self.projector = Projector(base, cfg.k, seed=cfg.seed)
        self.attention = Attention(cfg.k, seed=cfg.seed + 1)

    def prepare_query(self, eq: ExtractedQuery):
        vecs = _global_embed(np.vstack(eq.lines), self.projector)
        lo = min(float(np.min(t)) for t in eq.lines)
        hi = max(float(np.max(t)) for t in eq.lines)
        return self.attention(vecs).mean(axis=0), (lo, hi)

    def encode_table(self, table: LakeTable):
        cols = [table.columns[i] for i in finite_column_ids(table)]
        if not cols:
            return None
        vecs = _global_embed(np.vstack(cols), self.projector)
        lo = min(float(c.min()) for c in cols)
        hi = max(float(c.max()) for c in cols)
        return self.attention(vecs).mean(axis=0), (lo, hi)

    def score(self, query_prep, table_enc) -> float:
        """0.7 cosine + 0.3 global range IoU — a trained global model
        captures absolute value location through the tick channel, so the
        untrained analog gets the equivalent global (not fine-grained)
        value signal."""
        if table_enc is None:
            return 0.0
        qv, qr = query_prep
        tv, tr = table_enc
        num = float(np.dot(qv, tv))
        den = float(np.linalg.norm(qv) * np.linalg.norm(tv)) + 1e-12
        inter = min(qr[1], tr[1]) - max(qr[0], tr[0])
        union = max(qr[1], tr[1]) - min(qr[0], tr[0])
        iou = float(np.clip(inter / union, 0.0, 1.0)) if union > 1e-12 else 1.0
        return 0.7 * (num / den) + 0.3 * iou
