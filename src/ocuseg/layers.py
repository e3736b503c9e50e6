"""Dense-tensor layers with hand-derived backward passes.

Tensors are float64 numpy arrays.  Activations use the ``[C, N, H, W]``
layout (channels outermost); ``conv2d`` wraps the batched convolution for
one ``[C, H, W]`` image.

Convolutions are cross-correlations with zero padding and mandatory
"same" geometry: the kernel side must be odd and ``pad == (k - 1) // 2``.
Both conv passes are GEMMs over im2col slabs (Chellapilla et al. 2006),
built for one image and one band of output rows at a time so that each
slab (about ``_BAND_BYTES``) stays in cache and no batch-sized slab ever
exists.  The forward pass runs one GEMM per band; the kernel gradient
rebuilds the same bands from the kept input and sums one GEMM per band.
The input gradient is itself a same-size convolution of the output
gradient (the transposed convolution: spatially flipped kernel, in/out
channels swapped).  A caller can ask for only the leading input channels
of that gradient, or for none, when the rest feeds frozen or absent inputs.

Spatial size changes happen only through ``pool2x_batch`` /
``upsample2x_batch``, which are adjoint up to a factor of 4 (pool averages
a 2x2 block, upsample duplicates; the pool backward spreads grad/4, the
upsample backward sums the block).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .checkpoint import model_tensor


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


# ---------------------------------------------------------------------------
# batched primitives on [C, N, H, W]
# ---------------------------------------------------------------------------

# Byte budget of one band's im2col slab: small enough to stay in L2 between
# the copy that fills it and the GEMM that reads it.
_BAND_BYTES = 1 << 20


def _check_conv(x: np.ndarray, kernel: np.ndarray, pad: int) -> None:
    c_in = x.shape[0]
    _, kc_in, kh, kw = kernel.shape
    _require(kc_in == c_in,
             f"kernel expects {kc_in} input channels, input has {c_in}")
    _require(kh == kw and kh % 2 == 1, f"kernel must be odd square, got {kh}x{kw}")
    _require(pad == (kh - 1) // 2, f"same-size conv needs pad={(kh - 1) // 2}, got {pad}")


def _bands(x: np.ndarray, k: int):
    """Yield ``(i, r0, r1, cols)`` for each image ``i`` of ``x [C_in,N,H,W]``
    and each band of output rows ``r0:r1``.

    ``cols`` is the band's ``[C_in*k*k, (r1-r0)*W]`` im2col slab for a k x k
    same-size conv, filled by one copy from a sliding-window view of the
    zero-padded image.  One buffer of at most ``_BAND_BYTES`` (but at least
    one row) is reused for every band, so it is overwritten on the next step.
    """
    c_in, n, h, w = x.shape
    pad = (k - 1) // 2
    rows = max(1, min(h, _BAND_BYTES // (8 * c_in * k * k * w)))
    xp = np.zeros((c_in, h + 2 * pad, w + 2 * pad))
    windows = sliding_window_view(xp, (k, k), axis=(1, 2)).transpose(0, 3, 4, 1, 2)
    buf = np.empty(c_in * k * k * rows * w)
    for i in range(n):
        xp[:, pad:pad + h, pad:pad + w] = x[:, i]
        for r0 in range(0, h, rows):
            r1 = min(r0 + rows, h)
            cols = buf[:c_in * k * k * (r1 - r0) * w].reshape(c_in, k, k, r1 - r0, w)
            np.copyto(cols, windows[:, :, :, r0:r1])
            yield i, r0, r1, cols.reshape(c_in * k * k, -1)


def conv2d_batch(x: np.ndarray, kernel: np.ndarray, pad: int) -> np.ndarray:
    """Cross-correlate ``x [C_in,N,H,W]`` with ``kernel [C_out,C_in,k,k]``.

    Returns ``[C_out, N, H, W]``, one GEMM per band of ``_bands``.  Every
    output element is the same length-``C_in*k*k`` dot product as in a
    whole-batch im2col GEMM.
    """
    _check_conv(x, kernel, pad)
    c_out = kernel.shape[0]
    _, n, h, w = x.shape
    k2 = kernel.reshape(c_out, -1)
    out = np.empty((c_out, n, h * w))
    for i, r0, r1, cols in _bands(x, kernel.shape[2]):
        np.matmul(k2, cols, out=out[:, i, r0 * w:r1 * w])
    return out.reshape(c_out, n, h, w)


def conv2d_batch_backward(grad_out: np.ndarray, x: np.ndarray, kernel: np.ndarray,
                          input_channels: int | None = None
                          ) -> tuple[np.ndarray | None, np.ndarray]:
    """Gradients of ``conv2d_batch`` at input ``x``: (grad_input, grad_kernel).

    ``grad_kernel`` sums one GEMM of ``grad_out`` against each band's im2col
    slab of ``x``.  ``grad_input`` is the same-size convolution of
    ``grad_out`` with the kernel flipped in both spatial axes and with its
    in/out channel axes swapped (the transposed convolution), so it needs
    no gradient slab and no scatter.  Only the first ``input_channels``
    input channels are computed (default: all); ``0`` skips the input
    gradient and returns ``None`` in its place.
    """
    c_in, n, _, w = x.shape
    c_out, _, kh, kw = kernel.shape
    m = c_in if input_channels is None else input_channels
    _require(0 <= m <= c_in, f"input_channels must be in 0..{c_in}, got {m}")

    g = grad_out.reshape(c_out, n, -1)
    grad_kernel = np.zeros((c_out, c_in * kh * kw))
    for i, r0, r1, cols in _bands(x, kh):
        grad_kernel += g[:, i, r0 * w:r1 * w] @ cols.T
    grad_kernel = grad_kernel.reshape(kernel.shape)
    if m == 0:
        return None, grad_kernel
    flipped = kernel[:, :m, ::-1, ::-1].transpose(1, 0, 2, 3)
    return conv2d_batch(grad_out, flipped, (kh - 1) // 2), grad_kernel


def relu_batch(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_batch_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    return grad_out * (x > 0.0)


def pool2x_batch(x: np.ndarray) -> np.ndarray:
    """2x2 average pooling over the trailing two axes (must be even)."""
    h, w = x.shape[-2:]
    _require(h % 2 == 0 and w % 2 == 0, f"pool2x needs even spatial dims, got {h}x{w}")
    return 0.25 * (x[..., 0::2, 0::2] + x[..., 0::2, 1::2]
                   + x[..., 1::2, 0::2] + x[..., 1::2, 1::2])


def pool2x_batch_backward(grad_out: np.ndarray) -> np.ndarray:
    g = 0.25 * grad_out
    return g.repeat(2, axis=-2).repeat(2, axis=-1)


def upsample2x_batch(x: np.ndarray) -> np.ndarray:
    """Nearest-neighbor 2x duplication over the trailing two axes."""
    return x.repeat(2, axis=-2).repeat(2, axis=-1)


def upsample2x_batch_backward(grad_out: np.ndarray) -> np.ndarray:
    return (grad_out[..., 0::2, 0::2] + grad_out[..., 0::2, 1::2]
            + grad_out[..., 1::2, 0::2] + grad_out[..., 1::2, 1::2])


def softplus(x: np.ndarray) -> np.ndarray:
    """ln(1 + exp(x)) without overflow (logaddexp form)."""
    return np.logaddexp(0.0, x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-stable softmax over axis 0 of ``[K, M]`` (per-pixel class probs)."""
    z = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


# ---------------------------------------------------------------------------
# single-image convolution
# ---------------------------------------------------------------------------

def conv2d(x: np.ndarray, kernel: np.ndarray, pad: int) -> np.ndarray:
    """Same-size conv of one image ``[C_in,H,W] -> [C_out,H,W]``."""
    _require(x.ndim == 3, f"input must be [C,H,W], got shape {x.shape}")
    return conv2d_batch(x[:, None], kernel, pad)[:, 0]


# ---------------------------------------------------------------------------
# layer objects holding parameters + workspace
# ---------------------------------------------------------------------------

class Conv2d:
    """3x3 same-padding conv layer with bias, on [C,N,H,W] activations.

    ``forward`` keeps a reference to its input, from which ``backward``
    rebuilds the im2col bands for the kernel gradient.
    """

    def __init__(self, name: str, c_in: int, c_out: int):
        self.name = name
        self.c_in, self.c_out, self.k = c_in, c_out, 3
        self.pad = 1
        self.kernel = np.zeros((c_out, c_in, self.k, self.k))
        self.bias = np.zeros(c_out)
        self._x: np.ndarray | None = None

    def init_he(self, rng) -> None:
        fan_in = self.c_in * self.k * self.k
        std = np.sqrt(2.0 / fan_in)
        self.kernel = rng.normal_array(self.kernel.size, 0.0, std).reshape(self.kernel.shape)
        self.bias = np.zeros(self.c_out)

    def params(self) -> dict[str, np.ndarray]:
        return {f"{self.name}.kernel": self.kernel, f"{self.name}.bias": self.bias}

    def set_params(self, values: dict[str, np.ndarray]) -> None:
        self.kernel = model_tensor(values, f"{self.name}.kernel", self.kernel.shape)
        self.bias = model_tensor(values, f"{self.name}.bias", self.bias.shape)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        out = conv2d_batch(x, self.kernel, self.pad)
        out += self.bias[:, None, None, None]
        return out

    def backward(self, grad_out: np.ndarray, *, input_channels: int | None = None
                 ) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
        """(grad_input, param grads); see ``conv2d_batch_backward`` for
        ``input_channels``."""
        gi, gk = conv2d_batch_backward(grad_out, self._x, self.kernel, input_channels)
        gb = grad_out.sum(axis=(1, 2, 3))
        return gi, {f"{self.name}.kernel": gk, f"{self.name}.bias": gb}
