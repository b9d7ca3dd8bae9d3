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

from repro.baselines.base import Method
from repro.chartsim.extractor import ExtractedQuery
from repro.config import FCMConfig
from repro.core.data import LakeTable
from repro.core.features import cosine, seeded_layers, segment_features, znorm
from repro.core.matcher import range_iou


class CML(Method):
    name = "CML"

    def __init__(self, cfg: FCMConfig | None = None) -> None:
        self.cfg = cfg or FCMConfig()
        # Shared projection on both sides (stands in for contrastively
        # trained cross-modal alignment, same substitution as FCM).
        self.projector, self.attention = seeded_layers(self.cfg)

    def _embed(self, series: np.ndarray):
        """The one global vector and the value range of a ``(S, n)``
        stack of series: each series is a single 'segment', and the
        attended series embeddings are averaged."""
        z, mu, sigma = znorm(series)
        feats = segment_features(z[:, None, :], mu, sigma, self.cfg.n_profile)
        vecs = self.projector(feats)[:, 0, :]
        return self.attention(vecs).mean(axis=0), (float(series.min()), float(series.max()))

    def prepare_query(self, eq: ExtractedQuery):
        return self._embed(np.vstack(eq.lines))

    def encode_table(self, table: LakeTable):
        return self._embed(table.columns[table.finite]) if table.finite.any() else None

    def score(self, query_prep, table_enc) -> float:
        """0.7 cosine + 0.3 global range IoU — a trained global model
        captures absolute value location through the tick channel, so the
        untrained analog gets the equivalent global (not fine-grained)
        value signal."""
        if table_enc is None:
            return 0.0
        qv, qr = query_prep
        tv, tr = table_enc
        return 0.7 * cosine(qv, tv) + 0.3 * float(range_iou(qr, tr))
