"""Segment featurization and numpy encoders (ViT / transformer analog).

The paper's encoders are trained transformers over line-segment images and
column segments. Our substitution (DESIGN.md §2) keeps the same interface
— a sequence of segment embeddings per line / column — built from:

1. a deterministic segment featurizer (:func:`segment_features`):
   segment-local moments, slope/curvature, extremes, a resampled shape
   profile, a positional channel, and (down-weighted) global-scale
   channels;
2. a seeded random linear projection (:class:`Projector`) — the
   "trainable linear projection layer" of Sec. IV-B, untrained;
3. one numpy self-attention layer (:class:`Attention`) mixing
   neighbouring segments — the transformer's cross-segment context.

Every step takes a stack of equal-length series (leading axes of any
shape), so a table's columns or a chart's lines are encoded in one pass;
a single series is a stack with no leading axis. This is the one
featurizer: the line encoder, the dataset encoder (with its HMRL leaves)
and the CML baseline all call it.

All series are z-normalised *globally per series* before segmentation, so
a segment embedding encodes "where this segment sits and how it moves
within its series", which is what fine-grained cross-modal matching needs.
"""
from __future__ import annotations

import numpy as np

from repro.config import FCMConfig
from repro.core.dtw import resample

#: weight of the global-scale channels relative to shape channels
_SCALE_W = 0.25
#: weight of the positional channel
_POS_W = 0.5
#: attention temperature, and weight of the attended mix in the residual
_ATTN_TAU = 4.0
_ATTN_MIX = 0.3


def znorm(series: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Global z-normalisation of a series, or of each row of a ``(..., L)``
    stack; returns (z, mu, sigma) with sigma floor."""
    s = np.asarray(series, dtype=np.float64)
    mu = s.mean(axis=-1)
    sigma = s.std(axis=-1)
    sigma = np.where(sigma < 1e-12, 1.0, sigma)
    return (s - mu[..., None]) / sigma[..., None], mu, sigma


def pooled_profile(rows: np.ndarray, n: int) -> np.ndarray:
    """Bucket-mean pooling of each segment (the last axis) down to ``n``
    profile points."""
    rows = np.asarray(rows, dtype=np.float64)
    size = rows.shape[-1]
    if size <= n:
        return resample(rows, n)
    q = -(-size // n)
    if size != q * n:
        rows = resample(rows, q * n)
    return rows.reshape(*rows.shape[:-1], n, q).mean(axis=-1)


def split_segments(series: np.ndarray, seg_len: int) -> np.ndarray:
    """Split a series into ``N x seg_len`` segments (each row of a
    ``(..., L)`` stack into ``(..., N, seg_len)``).

    ``N = max(1, round(len/seg_len))``; the series is resampled to
    ``N * seg_len`` first so every segment has the same length (the paper
    assumes divisibility; resampling is the natural generalisation).
    """
    s = np.asarray(series, dtype=np.float64)
    if seg_len < 1:
        raise ValueError("seg_len must be >= 1")
    size = s.shape[-1]
    n = max(1, int(round(size / seg_len)))
    if size != n * seg_len:
        s = resample(s, n * seg_len)
    return s.reshape(*s.shape[:-1], n, seg_len)


def segment_features(
    segs: np.ndarray, mu: np.ndarray | float, sigma: np.ndarray | float, n_profile: int
) -> np.ndarray:
    """Featurize every segment of z-normalised series — the one featurizer.

    ``segs`` is ``(..., N, L)`` z-space values: N segments per series, any
    number of leading stack axes; ``mu``/``sigma`` hold each series' scale
    (shape ``segs.shape[:-2]``, or scalars for one series). Output is
    ``(..., N, 11 + n_profile + 2)``: [mean, std, slope, min, max, first,
    last, curvature, position, crossings, total variation] + shape profile
    + scaled [log-mu, log-sigma] global channels.
    """
    segs = np.asarray(segs, dtype=np.float64)
    n = segs.shape[-2]
    # All moments are computed on the fixed-length pooled profile, NOT the
    # raw segment: the chart side sees a rendering-smoothed trace, so
    # raw-granularity statistics (std/curvature of a noisy 64-point
    # segment) would never match their pixel-space counterparts. The
    # profile uses bucket-MEAN pooling (not point sampling) so
    # high-frequency content is antialiased identically on both sides and
    # elementwise noise averages out instead of decorrelating duplicates.
    prof = pooled_profile(segs, n_profile)
    xs = np.arange(n_profile, dtype=np.float64)
    xs -= xs.mean()
    denom = float((xs**2).sum()) or 1.0
    slope = (prof * xs).sum(axis=-1) / denom
    if n_profile >= 3:
        curv = np.abs(np.diff(prof, n=2, axis=-1)).mean(axis=-1)
    else:
        curv = np.zeros(prof.shape[:-1])
    pos = np.broadcast_to((np.arange(n) + 0.5) / n * _POS_W, prof.shape[:-1])
    # oscillation features: mean-crossing rate and total variation of the
    # profile separate periodic series from level-shift series, which the
    # low-order moments alone cannot (both computed at the shared profile
    # granularity so chart and data sides agree).
    centered = prof - prof.mean(axis=-1, keepdims=True)
    crossings = (np.diff(np.sign(centered), axis=-1) != 0).mean(axis=-1)
    tv = np.abs(np.diff(prof, axis=-1)).sum(axis=-1) / n_profile
    base = np.stack(
        [
            prof.mean(axis=-1),
            prof.std(axis=-1),
            slope * n_profile,  # slope over the whole segment, not per step
            prof.min(axis=-1),
            prof.max(axis=-1),
            prof[..., 0],
            prof[..., -1],
            curv,
            pos,
            crossings,
            tv,
        ],
        axis=-1,
    )
    scale = np.stack([np.log1p(np.abs(mu)), np.log1p(sigma)], axis=-1) * _SCALE_W
    scale = np.broadcast_to(scale[..., None, :], prof.shape[:-1] + (2,))
    return np.concatenate([base, prof, scale], axis=-1)


def feature_dim(n_profile: int) -> int:
    return 11 + n_profile + 2


class Projector:
    """Seeded random linear projection base_dim -> K (untrained analog of
    the trainable projection layer; a JL-style rotation preserves cosine
    structure)."""

    def __init__(self, base_dim: int, k: int, seed: int) -> None:
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((base_dim, k)) / np.sqrt(base_dim)
        self.w = w
        self.base_dim = base_dim
        self.k = k

    def __call__(self, feats: np.ndarray) -> np.ndarray:
        """Project ``(..., base_dim)`` features to ``(..., K)``.

        One matmul per series (the last two axes): BLAS rounds a row by
        its place in the matrix, so flattening the stack would make a
        series' embedding depend on the series stacked with it."""
        feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
        if feats.shape[-1] != self.base_dim:
            raise ValueError(
                f"feature dim {feats.shape[-1]} != projector base_dim {self.base_dim}"
            )
        return feats @ self.w


class Attention:
    """One seeded (untrained) self-attention layer with residual mixing."""

    def __init__(self, k: int, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.wq = rng.standard_normal((k, k)) / np.sqrt(k)
        self.wk = rng.standard_normal((k, k)) / np.sqrt(k)

    def __call__(self, e: np.ndarray) -> np.ndarray:
        """Mix the segments (axis -2) of each ``(..., N, K)`` sequence."""
        e = np.atleast_2d(e)
        q, kk = e @ self.wq, e @ self.wk
        logits = q @ np.swapaxes(kk, -1, -2) / (_ATTN_TAU * np.sqrt(e.shape[-1]))
        logits -= logits.max(axis=-1, keepdims=True)
        a = np.exp(logits)
        a /= a.sum(axis=-1, keepdims=True)
        return e + _ATTN_MIX * (a @ e)


def seeded_layers(cfg: FCMConfig) -> tuple[Projector, Attention]:
    """The seeded projection and attention layers of an encoder.

    The line encoder, the dataset encoder and CML build them from the same
    seeds: the paper aligns the chart and dataset embedding spaces by joint
    training; with untrained parameters the spaces only align if they are
    the same map (DESIGN.md §2)."""
    return (
        Projector(feature_dim(cfg.n_profile), cfg.k, seed=cfg.seed),
        Attention(cfg.k, seed=cfg.seed + 1),
    )


def encode_series(
    series: np.ndarray,
    seg_len: int,
    *,
    n_profile: int,
    projector: Projector,
    attention: Attention,
) -> np.ndarray:
    """Full encoder for one series, or each row of a ``(..., L)`` stack of
    equal-length series: znorm -> segment -> featurize -> project ->
    contextualize. Returns ``(..., N, K)`` segment embeddings."""
    z, mu, sigma = znorm(series)
    segs = split_segments(z, seg_len)
    feats = segment_features(segs, mu, sigma, n_profile)
    return attention(projector(feats))


def unit_rows(a: np.ndarray) -> np.ndarray:
    """Rows of ``a`` scaled to unit L2 norm (``+1e-12`` keeps a zero row
    zero)."""
    return a / (np.linalg.norm(a, axis=-1, keepdims=True) + 1e-12)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors (``+1e-12`` makes a zero vector's
    similarity 0.0)."""
    num = float(np.dot(a, b))
    den = float(np.linalg.norm(a) * np.linalg.norm(b)) + 1e-12
    return num / den


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity between rows of a (N,K) and b (M,K)."""
    return unit_rows(np.atleast_2d(a)) @ unit_rows(np.atleast_2d(b)).T
