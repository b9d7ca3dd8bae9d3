"""Segment-level dataset encoder with the three DA layers (Sec. IV-C, V).

Each column is seen through a list of ``(op, window)`` variants:

* the **identity expert** ``("id", 1)``: segment embeddings of the raw
  column (``P2``-point segments), optionally enriched by the HMRL
  multi-scale layer (Sec. V-C) — a binary tree over ``2**beta``
  sub-segments whose bottom-up pooling injects information from window
  sizes ``P2/2**beta .. P2`` into each segment embedding;
* four **aggregation experts** (Sec. V-B transformation layers): the
  column transformed by each operator at a family of tumbling windows
  (our exact-simulation substitution for the learned per-operator MLP —
  DESIGN.md §2), each transformed series encoded like a raw column.

The MoE gate (Sec. V-D) lives in the matcher: it weighs experts by match
quality at query time, which is how "infer the most likely aggregation
operator" is realised here.

A table is encoded as one ``(C, n_rows)`` stack, one featurizer pass per
(op, window) variant. Its :class:`TableEncoding` holds each segment
embedding once, in the :class:`PackedVariants` the matcher consumes:
every variant's unit-norm segment embeddings in one matrix. Beside it,
one :class:`ColumnEncoding` per column records what the indexes and the
global matcher need: the interval key (the matcher's column filter,
Sec. IV-C), the value range, the mean identity segment embedding (LSH,
Sec. VI-A) and the column's ``(op, window)`` variants in packed order.
The key and the finite mask are the ones the :class:`LakeTable` made; the
encoder only reads them. A column the table marks unusable (a NaN or
infinite value) is encoded as zeros in a copy and flagged non-finite;
its interval and value range are NaN and it is never matched.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import AGG_OPS, ALL_OPS, FCMConfig
from repro.core.data import LakeTable, aggregate_series
from repro.core.features import (
    Projector,
    encode_series,
    seeded_layers,
    segment_features,
    split_segments,
    unit_rows,
    znorm,
)

HMRL_MIX = 0.2  # blend weight of the HMRL root into the identity segment embedding


@dataclass
class ColumnEncoding:
    """What the indexes and the global matcher read of one column; its
    segment embeddings live in the table's :class:`PackedVariants`."""

    col_id: int
    interval: tuple[float, float]        # LakeTable key: every window aggregate's range
    value_range: tuple[float, float]     # plain [min, max]
    mean_emb: np.ndarray                 # column-level embedding (LSH / FCM-HCMAN)
    variants: list[tuple[str, int]]      # (op, window) per variant, packed order


@dataclass
class PackedVariants:
    """Every variant of every column of a table, packed for the matcher.

    Variant ``v`` owns rows ``offsets[v]:offsets[v + 1]`` of ``emb``;
    variants are in column order, and within a column in
    ``ColumnEncoding.variants`` order.
    """

    emb: np.ndarray       # (R, K) segment embeddings, unit L2 rows
    offsets: np.ndarray   # (V + 1,) row offsets
    col: np.ndarray       # (V,) column position in the table
    op: np.ndarray        # (V,) index into ALL_OPS
    lo: np.ndarray        # (V,) value range of the transformed series
    hi: np.ndarray        # (V,)
    finite: np.ndarray    # (C,) LakeTable.finite: the others never match


@dataclass
class TableEncoding:
    table_id: str
    columns: list[ColumnEncoding]
    packed: PackedVariants

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    @property
    def finite_columns(self) -> list[ColumnEncoding]:
        """The columns a match may use: those with no NaN / inf value."""
        return [c for c, ok in zip(self.columns, self.packed.finite) if ok]


class HMRL:
    """Hierarchical multi-scale representation layer (Sec. V-C).

    Splits each segment into ``2**beta`` sub-segment leaves, featurizes and
    projects each leaf, then pools pairs bottom-up with a seeded nonlinear
    combine (the MLP ``f`` of the paper, untrained). The root carries
    information from every scale; it is blended into the plain segment
    embedding.
    """

    def __init__(self, k: int, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.wc = rng.standard_normal((k, k)) / np.sqrt(k)

    def combine(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return np.tanh((left + right) @ self.wc)

    def roots(
        self,
        z: np.ndarray,
        seg_len: int,
        beta: int,
        n_profile: int,
        projector: Projector,
        mu: np.ndarray | float,
        sigma: np.ndarray | float,
    ) -> np.ndarray:
        """Per-segment multi-scale root embeddings of a z-normalised series
        ``(L,)`` or stack ``(..., L)``: shape ``(..., N, K)``."""
        n_leaves = 2**beta
        sub_len = max(1, seg_len // n_leaves)
        segs = split_segments(z, seg_len)
        n = segs.shape[-2]
        leaves = split_segments(segs.reshape(*segs.shape[:-2], -1), sub_len)
        emb = projector(segment_features(leaves, mu, sigma, n_profile))
        per_seg = emb.shape[-2] // n
        level = emb.reshape(*emb.shape[:-2], n, per_seg, emb.shape[-1])
        while level.shape[-2] > 1:
            pairs = self.combine(level[..., :-1:2, :], level[..., 1::2, :])
            if level.shape[-2] % 2 == 1:  # odd count: carry the last node up
                pairs = np.concatenate([pairs, level[..., -1:, :]], axis=-2)
            level = pairs
        return level[..., 0, :]


class DatasetEncoder:
    """Segment-level dataset encoder (shared parameters with nothing —
    the chart and dataset encoders are separate models, as in the paper)."""

    def __init__(self, cfg: FCMConfig) -> None:
        self.cfg = cfg
        # the same layers as the line chart encoder (seeded_layers)
        self.projector, self.attention = seeded_layers(cfg)
        self.hmrl = HMRL(cfg.k, seed=cfg.seed + 4)

    def _encode_raw(
        self, series: np.ndarray, seg_len: int, with_hmrl: bool
    ) -> np.ndarray:
        """``(C, L)`` equal-length series -> ``(C, N, K)`` embeddings."""
        emb = encode_series(
            series,
            seg_len,
            n_profile=self.cfg.n_profile,
            projector=self.projector,
            attention=self.attention,
        )
        if with_hmrl and seg_len >= 2 ** self.cfg.beta and series.shape[-1] >= seg_len:
            z, mu, sigma = znorm(series)
            roots = self.hmrl.roots(
                z, seg_len, self.cfg.beta, self.cfg.n_profile,
                self.projector, mu, sigma,
            )
            emb = (1 - HMRL_MIX) * emb + HMRL_MIX * roots
        return emb

    def encode_table(self, table: LakeTable) -> TableEncoding:
        """Encode every column at once: ``LakeTable`` columns share one
        length, so each (op, window) variant is one pass over the
        ``(C, n_rows)`` stack."""
        cfg = self.cfg
        # an unusable column is encoded as zeros, so no NaN reaches the
        # stack; the packed finite mask keeps it out of every match
        x = np.where(table.finite[:, None], table.columns, 0.0)
        n = x.shape[1]
        # one (op, window, embeddings, range lo, range hi) entry per variant
        views = [
            (
                "id", 1, self._encode_raw(x, cfg.p2, with_hmrl=cfg.da_enabled),
                x.min(axis=1), x.max(axis=1),
            )
        ]
        if cfg.da_enabled:
            for op in AGG_OPS:
                for w in cfg.da_windows:
                    if w >= n or n // w < 4:
                        continue
                    agg = aggregate_series(x, op, w)
                    # Aggregation by a window of w shrinks the series by w,
                    # so the segment length shrinks with it: the variant
                    # keeps the SAME segment count (and the same fraction
                    # of the series per segment) as the identity encoding.
                    # This is the paper's within-segment transformation
                    # layer: window >= P2 degenerates to 2-point segments,
                    # which is exactly the Table IV collapse past P2.
                    seg_len_v = max(2, cfg.p2 // w)
                    views.append(
                        (
                            op, w, self._encode_raw(agg, seg_len_v, with_hmrl=False),
                            agg.min(axis=1), agg.max(axis=1),
                        )
                    )
        c = x.shape[0]
        n_seg = np.array([emb.shape[1] for _, _, emb, _, _ in views])
        packed = PackedVariants(
            # column-major: column j's variants, each its segment rows
            emb=unit_rows(
                np.concatenate([emb for _, _, emb, _, _ in views], axis=1).reshape(-1, cfg.k)
            ),
            offsets=np.concatenate([[0], np.cumsum(np.tile(n_seg, c))]),
            col=np.repeat(np.arange(c), len(views)),
            op=np.tile([ALL_OPS.index(op) for op, *_ in views], c),
            lo=np.column_stack([lo for *_, lo, _ in views]).ravel(),
            hi=np.column_stack([hi for *_, hi in views]).ravel(),
            finite=table.finite,
        )
        _, _, ident, vmin, vmax = views[0]
        columns = [
            ColumnEncoding(
                col_id=j,
                interval=(float(table.key_lo[j]), float(table.key_hi[j])),
                value_range=(float(vmin[j]), float(vmax[j])) if table.finite[j] else (np.nan, np.nan),
                mean_emb=ident[j].mean(axis=0),
                variants=[(op, w) for op, w, *_ in views],
            )
            for j in range(c)
        ]
        return TableEncoding(table_id=table.table_id, columns=columns, packed=packed)
