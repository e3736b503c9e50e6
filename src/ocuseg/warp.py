"""Geometric resampling helpers: bilinear and nearest-neighbor resizing.

All mappings use half-pixel centers, ``src = (dst + 0.5) * scale - 0.5``,
so a resize to the same size reproduces the input exactly.  Bilinear
sampling clamps to the frame edge; nearest-neighbor sampling preserves the
input's value set.

A resize is separable: each axis maps its output indices to source
coordinates once, as a 1-D array, and the 2-D result is built one axis at
a time.  The per-axis indices and weights depend only on ``(n_in, n_out)``,
so they are cached, read-only.
"""

from __future__ import annotations

import functools

import numpy as np


def _source_coords(n_in: int, n_out: int) -> np.ndarray:
    """Source coordinate of each output index along one axis."""
    return (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=128)
def _bilinear_taps(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge-clamped neighbor indices ``i0``, ``i1`` and the weight of ``i1``."""
    src = _source_coords(n_in, n_out)
    i0 = np.clip(np.floor(src).astype(np.int64), 0, n_in - 1)
    i1 = np.minimum(i0 + 1, n_in - 1)
    return _read_only(i0), _read_only(i1), _read_only(np.clip(src, 0, n_in - 1) - i0)


@functools.lru_cache(maxsize=128)
def _nearest_index(n_in: int, n_out: int) -> np.ndarray:
    src = _source_coords(n_in, n_out)
    return _read_only(np.clip(np.floor(src + 0.5).astype(np.int64), 0, n_in - 1))


def resize_bilinear(img: np.ndarray, h_out: int, w_out: int) -> np.ndarray:
    h, w = img.shape
    r0, r1, fr = _bilinear_taps(h, h_out)
    c0, c1, fc = _bilinear_taps(w, w_out)
    # interpolate every source row at the output columns once, then blend
    # row pairs: the same products and sums as a per-pixel four-tap gather
    rows = img[:, c0] * (1 - fc) + img[:, c1] * fc
    fr = fr[:, None]
    return rows[r0] * (1 - fr) + rows[r1] * fr


def resize_nearest(img: np.ndarray, h_out: int, w_out: int) -> np.ndarray:
    h, w = img.shape
    # rows, then columns: the 2-D gather ``img[ri[:, None], ci]`` at a fifth
    # of its cost; ``take`` keeps the result C-ordered, ``[:, ci]`` would not
    return img[_nearest_index(h, h_out)].take(_nearest_index(w, w_out), axis=1)
