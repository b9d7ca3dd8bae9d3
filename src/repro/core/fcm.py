"""FCM — the Fine-grained Cross-modal relevance learning Model.

Assembles extractor -> encoders -> matcher -> head into the three variants
evaluated in the paper:

* ``FCM`` — full model (fine-grained HCMAN matching + DA layers);
* ``FCM-HCMAN`` — ablation with averaged global representations
  (Sec. VII-D.1);
* ``FCM-DA`` — ablation without the DA layers (Sec. VII-D.2).

A model instance is picklable (numpy arrays only) so it can be broadcast
to Spark executors and used inside their Python tasks.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.chartsim.extractor import ExtractedQuery
from repro.config import FCMConfig
from repro.core.data import LakeTable
from repro.core.dataset_encoder import DatasetEncoder, TableEncoding
from repro.core.line_encoder import LineChartEncoder, QueryEncoding
from repro.core.matcher import (
    LogisticHead,
    MatchResult,
    match_fine,
    match_global,
)

VARIANTS = ("full", "no_hcman", "no_da")


@dataclass
class FCMModel:
    """A ready-to-score FCM instance (one of the three variants)."""

    cfg: FCMConfig
    variant: str = "full"
    head: LogisticHead = field(init=False)

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected {VARIANTS}")
        cfg = self.cfg if self.variant != "no_da" else self.cfg.without_da()
        self.cfg = cfg
        self.line_encoder = LineChartEncoder(cfg)
        self.dataset_encoder = DatasetEncoder(cfg)
        self.head = (
            LogisticHead.default_global()
            if self.variant == "no_hcman"
            else LogisticHead.default_full()
        )

    # -- encoding --------------------------------------------------------
    def encode_query(self, eq: ExtractedQuery) -> QueryEncoding:
        return self.line_encoder.encode(eq)

    def encode_table(self, table: LakeTable) -> TableEncoding:
        return self.dataset_encoder.encode_table(table)

    # -- matching --------------------------------------------------------
    def match(self, query: QueryEncoding, table_enc: TableEncoding) -> MatchResult:
        if self.variant == "no_hcman":
            return match_global(query, table_enc)
        return match_fine(query, table_enc, tau=self.cfg.attn_tau)

    def score(self, query: QueryEncoding, table_enc: TableEncoding) -> float:
        """Rel'(V, T); 0.0 for a table with no finite column to match."""
        res = self.match(query, table_enc)
        return self.head(res.features) if res.kept_col_ids else 0.0


def make_model(cfg: FCMConfig | None = None, variant: str = "full") -> FCMModel:
    return FCMModel(cfg=cfg or FCMConfig(), variant=variant)
