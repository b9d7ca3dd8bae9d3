"""LineNet analog: perception-level line-chart similarity (Sec. VII-B).

LineNet learns image representations of line charts for similarity
search. Our analog embeds a chart raster directly in pixel space:
mean-pool the greyscale plot area down to a coarse grid, z-normalise,
flatten; similarity is the cosine (``core.features.cosine``) of two such
embeddings. Purely perceptual — it never sees the data — which is the
information loss the paper attributes to chart-search-based pipelines.
"""
from __future__ import annotations

import numpy as np

from repro.core.features import znorm

_GRID_H, _GRID_W = 24, 48


def embed_raster(raster: np.ndarray) -> np.ndarray:
    """Pixel-space embedding of a chart raster (any H x W)."""
    img = np.asarray(raster, dtype=np.float64)
    h, w = img.shape
    rh = np.linspace(0, h, _GRID_H + 1).astype(int)
    rw = np.linspace(0, w, _GRID_W + 1).astype(int)
    out = np.empty((_GRID_H, _GRID_W))
    for i in range(_GRID_H):
        rows = img[rh[i] : max(rh[i] + 1, rh[i + 1])]
        for j in range(_GRID_W):
            out[i, j] = rows[:, rw[j] : max(rw[j] + 1, rw[j + 1])].mean()
    return znorm(out.ravel())[0]
