"""Dense-tensor layers with hand-derived backward passes.

Tensors are float64 numpy arrays.  The public single-image ops take
``[C, H, W]`` (or flat) arrays; the batched layer classes used by the
networks keep activations in ``[C, N, H, W]`` layout (channels outermost)
so that im2col slabs feed BLAS directly, and reuse preallocated scratch
buffers across batches.

Convolutions are cross-correlations with zero padding and mandatory
"same" geometry: the kernel side must be odd and ``pad == (k - 1) // 2``.
Both conv passes are GEMMs over an im2col slab (Chellapilla et al. 2006):
the kernel gradient reuses the slab the forward pass kept, and the input
gradient is itself a same-size convolution of the output gradient (the
transposed convolution: spatially flipped kernel, in/out channels
swapped).  A caller can ask for only the leading input channels of that
gradient, or for none, when the rest feeds frozen or absent inputs.

Spatial size changes happen only through ``pool2x`` / ``upsample2x``,
which are adjoint up to a factor of 4 (pool averages a 2x2 block,
upsample duplicates; pool_backward spreads grad/4, upsample_backward
sums the block).
"""

from __future__ import annotations

import numpy as np

from .checkpoint import model_tensor


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


# ---------------------------------------------------------------------------
# batched primitives on [C, N, H, W]
# ---------------------------------------------------------------------------

def conv2d_batch(x: np.ndarray, kernel: np.ndarray, pad: int,
                 cols_out: np.ndarray | None = None) -> np.ndarray:
    """Cross-correlate ``x [C_in,N,H,W]`` with ``kernel [C_out,C_in,k,k]``.

    Returns ``[C_out, N, H, W]``.  If ``cols_out`` is given it receives the
    im2col slab ``[C_in, k, k, N, H, W]`` for reuse in the backward pass.
    """
    c_in, n, h, w = x.shape
    c_out, kc_in, kh, kw = kernel.shape
    _require(kc_in == c_in,
             f"kernel expects {kc_in} input channels, input has {c_in}")
    _require(kh == kw and kh % 2 == 1, f"kernel must be odd square, got {kh}x{kw}")
    _require(pad == (kh - 1) // 2, f"same-size conv needs pad={(kh - 1) // 2}, got {pad}")

    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    if cols_out is None:
        cols_out = np.empty((c_in, kh, kw, n, h, w))
    for di in range(kh):
        for dj in range(kw):
            cols_out[:, di, dj] = xp[:, :, di:di + h, dj:dj + w]
    out = kernel.reshape(c_out, -1) @ cols_out.reshape(c_in * kh * kw, -1)
    return out.reshape(c_out, n, h, w)


def conv2d_batch_backward(grad_out: np.ndarray, x_shape: tuple, kernel: np.ndarray,
                          cols: np.ndarray, input_channels: int | None = None
                          ) -> tuple[np.ndarray | None, np.ndarray]:
    """Gradients of ``conv2d_batch``: returns (grad_input, grad_kernel).

    ``grad_kernel`` is one GEMM of ``grad_out`` against the forward im2col
    slab ``cols``.  ``grad_input`` is the same-size convolution of
    ``grad_out`` with the kernel flipped in both spatial axes and with its
    in/out channel axes swapped (the transposed convolution), so it needs
    no gradient slab and no scatter.  Only the first ``input_channels``
    input channels are computed (default: all); ``0`` skips the input
    gradient and returns ``None`` in its place.
    """
    c_in = x_shape[0]
    c_out, _, kh, kw = kernel.shape
    m = c_in if input_channels is None else input_channels
    _require(0 <= m <= c_in, f"input_channels must be in 0..{c_in}, got {m}")

    grad_kernel = (grad_out.reshape(c_out, -1)
                   @ cols.reshape(c_in * kh * kw, -1).T).reshape(kernel.shape)
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


# ---------------------------------------------------------------------------
# public single-image ops
# ---------------------------------------------------------------------------

def conv2d(x: np.ndarray, kernel: np.ndarray, pad: int) -> np.ndarray:
    """Same-size conv of one image ``[C_in,H,W] -> [C_out,H,W]``."""
    _require(x.ndim == 3, f"input must be [C,H,W], got shape {x.shape}")
    return conv2d_batch(x[:, None], kernel, pad)[:, 0]


def conv2d_backward(grad_out: np.ndarray, x: np.ndarray, kernel: np.ndarray,
                    pad: int) -> tuple[np.ndarray, np.ndarray]:
    """(grad_input, grad_kernel) for the single-image conv."""
    xb = x[:, None]
    cols = np.empty((x.shape[0], kernel.shape[2], kernel.shape[3],
                     1, x.shape[1], x.shape[2]))
    conv2d_batch(xb, kernel, pad, cols_out=cols)
    gi, gk = conv2d_batch_backward(grad_out[:, None], xb.shape, kernel, cols)
    return gi[:, 0], gk


def activation(x: np.ndarray, kind: str) -> np.ndarray:
    """Elementwise nonlinearity, ``kind`` in {"relu", "softplus"}."""
    if kind == "relu":
        return relu_batch(x)
    if kind == "softplus":
        return softplus(x)
    raise ValueError(f"unknown activation kind {kind!r}")


def activation_backward(grad_out: np.ndarray, x: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return relu_batch_backward(grad_out, x)
    if kind == "softplus":
        return grad_out * sigmoid(x)
    raise ValueError(f"unknown activation kind {kind!r}")


def pool2x(x: np.ndarray) -> np.ndarray:
    return pool2x_batch(x)


def pool2x_backward(grad_out: np.ndarray) -> np.ndarray:
    return pool2x_batch_backward(grad_out)


def upsample2x(x: np.ndarray) -> np.ndarray:
    return upsample2x_batch(x)


def upsample2x_backward(grad_out: np.ndarray) -> np.ndarray:
    return upsample2x_batch_backward(grad_out)


def softmax_vec(logits: np.ndarray) -> np.ndarray:
    """Stable softmax of a length-K vector (K >= 2)."""
    _require(logits.ndim == 1 and logits.shape[0] >= 2,
             f"softmax_vec needs a vector of length >= 2, got shape {logits.shape}")
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-stable softmax over axis 0 of ``[K, M]`` (per-pixel class probs)."""
    z = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


# ---------------------------------------------------------------------------
# layer objects holding parameters + workspace
# ---------------------------------------------------------------------------

class Conv2d:
    """3x3 same-padding conv layer with bias, on [C,N,H,W] activations.

    The im2col scratch buffer is kept between calls and regrown only when
    the batch geometry changes.
    """

    def __init__(self, name: str, c_in: int, c_out: int, k: int = 3):
        self.name = name
        self.c_in, self.c_out, self.k = c_in, c_out, k
        self.pad = (k - 1) // 2
        self.kernel = np.zeros((c_out, c_in, k, k))
        self.bias = np.zeros(c_out)
        self._cols: np.ndarray | None = None
        self._x_shape: tuple | None = None

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
        shape = (self.c_in, self.k, self.k) + (x.shape[1],) + x.shape[2:]
        if self._cols is None or self._cols.shape != shape:
            self._cols = np.empty(shape)
        self._x_shape = x.shape
        out = conv2d_batch(x, self.kernel, self.pad, cols_out=self._cols)
        out += self.bias[:, None, None, None]
        return out

    def backward(self, grad_out: np.ndarray, *, input_channels: int | None = None
                 ) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
        """(grad_input, param grads); see ``conv2d_batch_backward`` for
        ``input_channels``."""
        gi, gk = conv2d_batch_backward(grad_out, self._x_shape, self.kernel, self._cols,
                                       input_channels)
        gb = grad_out.sum(axis=(1, 2, 3))
        return gi, {f"{self.name}.kernel": gk, f"{self.name}.bias": gb}
