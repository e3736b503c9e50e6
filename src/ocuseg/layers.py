"""Dense-tensor layers with hand-derived backward passes.

Activations use the ``[C, N, H, W]`` layout (channels outermost).
``conv2d`` wraps the batched convolution for one ``[C, H, W]`` image; no
code in the package calls it, and it stays only because the bench traces
it as ``synth.conv2d``.

Every activation follows the dtype of its input: the pipeline runs on
float32 crops, the gradchecks on float64.  That covers the slab buffers,
conv outputs, input gradients, the upsampled and pooled maps and the
pointwise functions.  Parameters stay float64; a conv casts its kernel
taps and bias to the activation dtype for each pass.  The kernel and
bias gradients are reduced into float64, so an optimizer only ever sees
float64.

Convolutions are cross-correlations with "same" geometry: the kernel
side ``k`` must be odd, and the input is zero-padded by ``(k - 1) // 2``
on each side, so the output has the input's height and width.
Every conv pass is a set of GEMMs over row-shift slabs (``_shift_bands``),
built for one image and one band of output rows at a time, so that each
slab (about ``_BAND_BYTES``) stays in cache and no batch-sized slab ever
exists.  A slab holds the band's zero-padded rows plus ``k-1`` halo rows,
flattened on the padded width and shifted by each column offset: k copies
of the input, where im2col (Chellapilla et al. 2006) makes k*k.  Kernel
row ``dy`` reads the slab from padded row ``dy`` on, and each pass below
matches an im2col GEMM to rounding (about 1e-15 relative).

- Forward: the sum over ``dy`` of one GEMM of kernel row ``dy`` against
  the slab, keeping ``W`` of each row's ``W + k - 1`` columns.
- Kernel gradient: for each ``dy``, one GEMM of the output gradient, laid
  on the padded width with zeros in the pad columns, against the slab.
- Input gradient: the forward pass of the output gradient with the
  transposed kernel (spatially flipped, in/out channels swapped).  A
  caller can ask for only its leading input channels, or for none, when
  the rest feeds frozen or absent inputs.

A conv reads its input either as one ``[C_in, N, H, W]`` array or as a
``ChannelStack``: the channel concatenation of parts read in place, where a
part at half the height and width is read nearest-upsampled 2x.  The slab
builder fills its per-image padded buffer straight from the parts, so a
skip join builds neither the upsampled copy nor the concatenation; the
buffer holds the same values as for the materialized input, so the result
is bit-identical.  The input gradient is still one ``[C_in, N, H, W]``
array.

Buffer ownership: a forward-only ``Conv2d.forward`` (``keep_cache=False``)
writes into an output buffer the layer owns and reuses while the input's
shape and dtype stay the same, so a run of same-shape batches allocates
no conv output.  Its result is valid until the same layer's next
forward-only call; a caller that needs it longer copies it.  A training
forward (``keep_cache=True``) returns a fresh array, which ``backward``
and the caller's caches may hold.  Only ``in_place_relu`` writes over its
argument; the other pointwise functions write only into arrays passed as
their ``out`` (or ``work``).

Spatial size changes otherwise happen through ``pool2x_batch`` /
``upsample2x_batch``, which are adjoint up to a factor of 4 (pool averages
a 2x2 block, upsample duplicates; the pool backward spreads grad/4, the
upsample backward sums the block).  ``upsample2x_batch`` and the slab
builder's reads of a half-size part share one writer, ``_upsample2x_into``.
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

def _upsample2x_into(dst: np.ndarray, x: np.ndarray) -> None:
    """Write the nearest-neighbor 2x duplication of ``x [..., h, w]`` into
    ``dst [..., 2h, 2w]``, which may be a strided view."""
    dst[..., 0::2, 0::2] = x
    dst[..., 0::2, 1::2] = x
    dst[..., 1::2, :] = dst[..., 0::2, :]


class ChannelStack:
    """The channel concatenation of ``parts``, read in place by the slab
    builder of every conv pass.

    Each part is ``[C_i, N, H, W]`` or ``[C_i, N, H/2, W/2]``; a half-size
    part stands for its nearest-neighbor 2x upsampling.  ``shape`` is that
    of the concatenation, ``(sum C_i, N, H, W)``, with ``H, W`` the largest
    part's.  Raises ValueError naming the shapes if the parts disagree in N
    or a part is neither full nor exactly half size.
    """

    def __init__(self, *parts: np.ndarray):
        shapes = [p.shape for p in parts]
        n = parts[0].shape[1]
        _require(all(p.shape[1] == n for p in parts),
                 f"stack parts disagree in N: shapes {shapes}")
        h, w = max(p.shape[2:] for p in parts)
        for p in parts:
            ph, pw = p.shape[2:]
            _require((ph, pw) == (h, w) or (2 * ph, 2 * pw) == (h, w),
                     f"stack part {p.shape} is neither full ({h}x{w}) nor half size: "
                     f"shapes {shapes}")
        self.parts = parts
        self.shape = (sum(p.shape[0] for p in parts), n, h, w)
        self.dtype = np.result_type(*parts)


# Byte budget of one band's float64 row-shift slab: small enough to stay in L2
# between the copy that fills it and the GEMM that reads it.  The band's row
# count is set from this budget at 8 bytes per value whatever the dtype, so a
# float32 band has the same rows in half the bytes.  Scaling the rows by the
# itemsize instead (a float32 band of the full budget) made the float32 kernel
# gradient slower than the float64 one.
_BAND_BYTES = 1 << 20


def _shift_bands(x: np.ndarray | ChannelStack, k: int):
    """Yield ``(i, r0, r1, slab)`` for each image ``i`` of ``x [C_in,N,H,W]``
    (an array or a ``ChannelStack``) and each band of output rows ``r0:r1``
    of a k x k same-size conv.

    With ``wp = W + k - 1`` the padded width, ``slab`` is
    ``[C_in*k, (r1-r0+k-1)*wp]``: its row ``(c, dx)`` is channel ``c`` of
    the zero-padded image, flattened from padded row ``r0`` on and shifted
    left by ``dx`` columns.  Columns ``dy*wp + (r-r0)*wp + x`` of it then
    hold the input at tap ``(dy, dx)`` of output pixel ``(r, x)`` for every
    ``x < W``; for ``x >= W`` they hold wrapped values the caller must
    drop or weight by zero.  The padded image has one spare zero row so
    that the last band's shift stays in bounds.  One buffer of ``x``'s
    dtype, with the rows of at most ``_BAND_BYTES`` of float64 (but at
    least one row and its ``k-1`` halo rows), is reused for every band, so
    it is overwritten on the next step.
    """
    c_in, n, h, w = x.shape
    pad = (k - 1) // 2
    wp = w + k - 1
    rows = max(1, min(h, _BAND_BYTES // (8 * c_in * k * wp) - (k - 1)))
    xp = np.zeros((c_in, h + k, wp), dtype=x.dtype)
    flat = xp.reshape(c_in, -1)
    buf = np.empty(c_in * k * (rows + k - 1) * wp, dtype=x.dtype)
    parts = x.parts if isinstance(x, ChannelStack) else (x,)
    for i in range(n):
        c0 = 0
        for p in parts:
            c1 = c0 + p.shape[0]
            dst = xp[c0:c1, pad:pad + h, pad:pad + w]
            if p.shape[2] == h:
                dst[...] = p[:, i]
            else:
                _upsample2x_into(dst, p[:, i])
            c0 = c1
        for r0 in range(0, h, rows):
            r1 = min(r0 + rows, h)
            span = (r1 - r0 + k - 1) * wp
            slab = buf[:c_in * k * span].reshape(c_in, k, span)
            for dx in range(k):
                slab[:, dx] = flat[:, r0 * wp + dx:r0 * wp + dx + span]
            yield i, r0, r1, slab.reshape(c_in * k, span)


def conv2d_batch(x: np.ndarray | ChannelStack, kernel: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Cross-correlate ``x [C_in,N,H,W]`` (an array or a ``ChannelStack``)
    with ``kernel [C_out,C_in,k,k]``.

    Returns ``[C_out, N, H, W]`` in ``x``'s dtype, to which the kernel is
    cast: ``out`` when given (every element is overwritten), else a new
    array.  For each band of ``_shift_bands`` it adds, over kernel rows
    ``dy``, one GEMM of ``kernel[:, :, dy]`` (as ``[C_out, C_in*k]``)
    against the slab columns from padded row ``dy`` on, and keeps the
    first ``W`` of each row's ``W + k - 1`` columns.
    """
    c_out, c_in, k, kw = kernel.shape
    _require(c_in == x.shape[0],
             f"kernel {kernel.shape} expects {c_in} input channels, "
             f"input {x.shape} has {x.shape[0]}")
    _require(k == kw and k % 2 == 1, f"kernel must be odd square, got {k}x{kw}")
    _, n, h, w = x.shape
    wp = w + k - 1
    taps = [kernel[:, :, dy].reshape(c_out, c_in * k).astype(x.dtype) for dy in range(k)]
    if out is None:
        out = np.empty((c_out, n, h, w), dtype=x.dtype)
    _require(out.shape == (c_out, n, h, w) and out.dtype == x.dtype,
             f"out {out.shape} {out.dtype} does not fit the result "
             f"{(c_out, n, h, w)} {x.dtype}")
    for i, r0, r1, slab in _shift_bands(x, k):
        span = (r1 - r0) * wp
        band = taps[0] @ slab[:, :span]
        for dy in range(1, k):
            band += taps[dy] @ slab[:, dy * wp:dy * wp + span]
        out[:, i, r0:r1] = band.reshape(c_out, r1 - r0, wp)[:, :, :w]
    return out


def conv2d_batch_backward(grad_out: np.ndarray, x: np.ndarray | ChannelStack,
                          kernel: np.ndarray,
                          input_channels: int | None = None
                          ) -> tuple[np.ndarray | None, np.ndarray]:
    """Gradients of ``conv2d_batch`` at input ``x``: (grad_input, grad_kernel).

    ``grad_kernel`` adds, for each band of ``_shift_bands`` and each kernel
    row ``dy``, one GEMM of the band's ``grad_out`` (laid on the padded
    width, zeros in the pad columns) against the slab columns from padded
    row ``dy`` on.  ``grad_input`` is the same-size convolution of
    ``grad_out`` with the kernel flipped in both spatial axes and with its
    in/out channel axes swapped (the transposed convolution), so it needs
    no gradient slab and no scatter.  Only the first ``input_channels``
    input channels are computed (default: all); ``0`` skips the input
    gradient and returns ``None`` in its place.  ``grad_input`` has
    ``grad_out``'s dtype; the GEMMs run in ``x``'s dtype and
    ``grad_kernel`` sums them in float64.
    """
    c_in, _, h, w = x.shape
    c_out, _, kh, kw = kernel.shape
    m = c_in if input_channels is None else input_channels
    _require(0 <= m <= c_in, f"input_channels must be in 0..{c_in}, got {m}")

    wp = w + kw - 1
    g = np.zeros((c_out, h, wp), dtype=x.dtype)
    gflat = g.reshape(c_out, -1)
    grad_kernel = np.zeros(kernel.shape)
    for i, r0, r1, slab in _shift_bands(x, kh):
        if r0 == 0:
            g[:, :, :w] = grad_out[:, i]
        g_band = gflat[:, r0 * wp:r1 * wp]
        for dy in range(kh):
            tap_row = g_band @ slab[:, dy * wp:(dy + r1 - r0) * wp].T
            grad_kernel[:, :, dy] += tap_row.reshape(c_out, c_in, kw)
    if m == 0:
        return None, grad_kernel
    flipped = kernel[:, :m, ::-1, ::-1].transpose(1, 0, 2, 3)
    return conv2d_batch(grad_out, flipped), grad_kernel


def in_place_relu(x: np.ndarray) -> np.ndarray:
    """ReLU written over ``x``: for a conv's own output, which nothing reads
    unrectified (``relu_batch_backward``'s mask ``x > 0`` is the same on the
    rectified values)."""
    return np.maximum(x, 0.0, out=x)


def relu_batch_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    return grad_out * (x > 0.0)


def pool2x_batch(x: np.ndarray) -> np.ndarray:
    """2x2 average pooling over the trailing two axes (must be even)."""
    h, w = x.shape[-2:]
    _require(h % 2 == 0 and w % 2 == 0, f"pool2x needs even spatial dims, got {h}x{w}")
    return 0.25 * (x[..., 0::2, 0::2] + x[..., 0::2, 1::2]
                   + x[..., 1::2, 0::2] + x[..., 1::2, 1::2])


def upsample2x_batch(x: np.ndarray) -> np.ndarray:
    """Nearest-neighbor 2x duplication over the trailing two axes, written
    straight into the one output array."""
    h, w = x.shape[-2:]
    out = np.empty(x.shape[:-2] + (2 * h, 2 * w), dtype=x.dtype)
    _upsample2x_into(out, x)
    return out


def pool2x_batch_backward(grad_out: np.ndarray) -> np.ndarray:
    return upsample2x_batch(0.25 * grad_out)


def upsample2x_batch_backward(grad_out: np.ndarray) -> np.ndarray:
    return (grad_out[..., 0::2, 0::2] + grad_out[..., 0::2, 1::2]
            + grad_out[..., 1::2, 0::2] + grad_out[..., 1::2, 1::2])


def softplus(x: np.ndarray, out: np.ndarray | None = None,
             work: np.ndarray | None = None) -> np.ndarray:
    """ln(1 + exp(x)) without overflow: max(x, 0) + ln(1 + exp(-|x|)).

    About twice as fast as ``np.logaddexp(0, x)``.  Both are within 2 ulp
    of the exact value, but numpy's SIMD exp rounds differently from the
    libm one behind logaddexp, so the two differ by up to 3 ulp.

    The result goes into ``out`` (which may be ``x``) and ``ln(1 +
    exp(-|x|))`` into ``work``, an array of ``x``'s shape and dtype; each
    is allocated when not given, with the same values either way."""
    e = np.abs(x, out=work)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.log1p(e, out=e)
    return np.add(np.maximum(x, 0.0, out=out), e, out=out)


def softplus_with_slope(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``softplus(x)`` and its slope ``sigmoid(x)``, sharing ``e = exp(-|x|)``.

    The slope is ``1 / (1 + e)`` for ``x >= 0`` and ``e / (1 + e)`` below,
    the two overflow-free branches of the sigmoid.  ``exp(min(x, 0))`` is
    that numerator without a branch: exactly 1 above zero and ``exp(x)``
    below, and several times faster than selecting it with ``np.where``."""
    e = np.exp(-np.abs(x))
    return (np.maximum(x, 0.0) + np.log1p(e),
            np.exp(np.minimum(x, 0.0)) / (1.0 + e))


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-stable softmax over axis 0 of ``[K, M]`` (per-pixel class probs)."""
    z = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


# ---------------------------------------------------------------------------
# single-image convolution
# ---------------------------------------------------------------------------

def conv2d(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Same-size conv of one image ``[C_in,H,W] -> [C_out,H,W]``."""
    _require(x.ndim == 3, f"input must be [C,H,W], got shape {x.shape}")
    return conv2d_batch(x[:, None], kernel)[:, 0]


# ---------------------------------------------------------------------------
# layer objects holding parameters + workspace
# ---------------------------------------------------------------------------

def reuse_buffer(buf: np.ndarray | None, shape: tuple[int, ...], dtype) -> np.ndarray:
    """``buf`` if it has ``shape`` and ``dtype``, else a new uninitialized
    array of them: the owner's next forward-only output goes there."""
    if buf is not None and buf.shape == shape and buf.dtype == dtype:
        return buf
    return np.empty(shape, dtype=dtype)


class Conv2d:
    """3x3 same-padding conv layer with bias, on [C,N,H,W] activations.

    ``forward(x, keep_cache=True)`` keeps a reference to its input (an
    array or a ``ChannelStack``), from which ``backward`` builds the kernel
    gradient, and returns a new array.  A forward-only call drops any input
    kept before and writes into an output buffer the layer owns, reused
    while the output's shape and dtype stay the same: its result is valid
    until this layer's next forward-only call, which overwrites it.
    """

    def __init__(self, name: str, c_in: int, c_out: int):
        self.name = name
        self.c_in, self.c_out, self.k = c_in, c_out, 3
        self.kernel = np.zeros((c_out, c_in, self.k, self.k))
        self.bias = np.zeros(c_out)
        self._x: np.ndarray | ChannelStack | None = None
        self._out: np.ndarray | None = None

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

    def forward(self, x: np.ndarray | ChannelStack, *, keep_cache: bool = False
                ) -> np.ndarray:
        if keep_cache:
            self._x = x
            out = conv2d_batch(x, self.kernel)
        else:
            self._x = None
            self._out = reuse_buffer(self._out, (self.c_out,) + x.shape[1:], x.dtype)
            out = conv2d_batch(x, self.kernel, self._out)
        out += self.bias.astype(out.dtype)[:, None, None, None]
        return out

    def backward(self, grad_out: np.ndarray, *, input_channels: int | None = None
                 ) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
        """(grad_input, param grads); see ``conv2d_batch_backward`` for
        ``input_channels``."""
        if self._x is None:
            raise RuntimeError(f"{self.name}.backward needs a forward with keep_cache=True")
        gi, gk = conv2d_batch_backward(grad_out, self._x, self.kernel, input_channels)
        gb = grad_out.sum(axis=(1, 2, 3), dtype=np.float64)
        return gi, {f"{self.name}.kernel": gk, f"{self.name}.bias": gb}
