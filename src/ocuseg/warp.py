"""Geometric resampling helpers: bilinear and nearest-neighbor resizing.

All mappings use half-pixel centers, ``src = (dst + 0.5) * scale - 0.5``,
so a resize to the same size reproduces the input exactly.  Bilinear sampling clamps to the frame edge; nearest-neighbor
sampling preserves the input's value set.
"""

from __future__ import annotations

import numpy as np


def _sample_bilinear(img: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    h, w = img.shape
    r0 = np.clip(np.floor(rows).astype(np.int64), 0, h - 1)
    c0 = np.clip(np.floor(cols).astype(np.int64), 0, w - 1)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = np.clip(rows, 0, h - 1) - r0
    fc = np.clip(cols, 0, w - 1) - c0
    top = img[r0, c0] * (1 - fc) + img[r0, c1] * fc
    bot = img[r1, c0] * (1 - fc) + img[r1, c1] * fc
    return top * (1 - fr) + bot * fr


def _sample_nearest(img: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    h, w = img.shape
    r = np.clip(np.floor(rows + 0.5).astype(np.int64), 0, h - 1)
    c = np.clip(np.floor(cols + 0.5).astype(np.int64), 0, w - 1)
    return img[r, c]


def _grid(h_out: int, w_out: int) -> tuple[np.ndarray, np.ndarray]:
    rr, cc = np.meshgrid(np.arange(h_out, dtype=np.float64),
                         np.arange(w_out, dtype=np.float64), indexing="ij")
    return rr, cc


def resize_bilinear(img: np.ndarray, h_out: int, w_out: int) -> np.ndarray:
    h, w = img.shape
    rr, cc = _grid(h_out, w_out)
    src_r = (rr + 0.5) * (h / h_out) - 0.5
    src_c = (cc + 0.5) * (w / w_out) - 0.5
    return _sample_bilinear(img, src_r, src_c)


def resize_nearest(img: np.ndarray, h_out: int, w_out: int) -> np.ndarray:
    h, w = img.shape
    rr, cc = _grid(h_out, w_out)
    src_r = (rr + 0.5) * (h / h_out) - 0.5
    src_c = (cc + 0.5) * (w / w_out) - 0.5
    return _sample_nearest(img, src_r, src_c)

