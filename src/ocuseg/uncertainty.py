"""Uncertainty projection head, its two training losses, and the score.

The head maps backbone stage features to a per-pixel diagonal covariance
(variances through softplus plus a small floor, so they stay positive).
Two losses train it against one variance target, ``variance_targets``'s
t = (c_y - z)^2: the squared residual of the latent code to its class template.

  original:  mean over pixels of  0.5 sum_d t_d / s_d + 0.5 ln det diag(s)
             + (D/2) ln 2pi   -- the prior/posterior cross-entropy; its
             gradient in s decays like 1/s^2, flattening at large variances
  surrogate: mean over pixels of  || s - t ||^2  -- least squares on the
             known per-dimension optimum s_d = t_d

The per-image uncertainty score is the sum over pixels of the
log-determinant of the predicted covariance (diagonal: sum of log
variances); constants that do not affect ranking are dropped.

The head's activations, variances and targets follow the backbone's
dtype (float32 in the pipeline); the losses, the score and the training
log's means are summed in float64.
"""

from __future__ import annotations

import math

import numpy as np

from .config import RunConfig
from .layers import (ChannelStack, Conv2d, pool2x_batch, pool2x_batch_backward,
                     reuse_buffer, softplus, upsample2x_batch_backward)
from .optim import clip_grad_norm, fit
from .rng import Rng
from .segnet import SegModel, StageFeatures

LN_2PI = math.log(2.0 * math.pi)

# the positive floor under every predicted variance
EPS_FLOOR = 1e-6


class UncHead:
    """Bottleneck head: one downsampling and two upsampling steps with skips.

        a = relu(h1(stage2))                               [u, H/2]
        c = relu(h2(pool2x_batch(a)))                      [u, H/4]
        e = relu(h3(concat(upsample2x_batch(c), a)))       [u, H/2]
        pre = h4(concat(upsample2x_batch(e), stage1, z))   [D, H]
        cov = softplus(pre) + EPS_FLOOR

    h3 and h4 read their concatenations in place, as ``ChannelStack(c, a)``
    and ``ChannelStack(e, stage1, z)``: no upsampled or concatenated copy is
    built.  Stage features and z are treated as constants (no gradient
    reaches the backbone), matching the staged training procedure.

    h1 to h3 rectify their outputs in place (``relu=True``).  A pass returns
    the variances in h4's own output buffer, valid until the head's next
    forward.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        w1, w2 = config.widths
        u = config.head_width
        d = config.d
        self.h1 = Conv2d("h1", w2, u, relu=True)
        self.h2 = Conv2d("h2", u, u, relu=True)
        self.h3 = Conv2d("h3", 2 * u, u, relu=True)
        self.h4 = Conv2d("h4", u + w1 + d, d)
        self.convs = (self.h1, self.h2, self.h3, self.h4)
        self._work: np.ndarray | None = None    # softplus's work array, forward-only
        self._slope: np.ndarray | None = None   # softplus's slope, kept for backward

    def init_params(self, rng: Rng) -> None:
        for conv in self.convs:
            conv.init_he(rng)

    def params(self) -> dict[str, np.ndarray]:
        return {k: v for conv in self.convs for k, v in conv.params().items()}

    def set_params(self, values: dict[str, np.ndarray]) -> None:
        for conv in self.convs:
            conv.set_params(values)

    def forward(self, stages: StageFeatures, keep_cache: bool = False) -> np.ndarray:
        """StageFeatures -> variances [D, N, H, W], all >= EPS_FLOOR."""
        h = stages.stage1.shape[2]
        if stages.stage2.shape[2] != h // 2 or stages.z.shape[2] != h:
            raise ValueError(
                f"stage shapes inconsistent: stage1 {stages.stage1.shape}, "
                f"stage2 {stages.stage2.shape}, z {stages.z.shape}")
        a = self.h1.forward(stages.stage2, keep_cache=keep_cache)
        c = self.h2.forward(pool2x_batch(a), keep_cache=keep_cache)
        e = self.h3.forward(ChannelStack(c, a), keep_cache=keep_cache)
        g_pre = self.h4.forward(ChannelStack(e, stages.stage1, stages.z),
                                keep_cache=keep_cache)
        # a training pass keeps softplus's slope, all backward needs of g_pre;
        # its work array is freed on return, not owned, so that it adds
        # nothing to the memory held through backward
        if keep_cache:
            work, self._slope = None, np.empty_like(g_pre)
        else:
            work = self._work = reuse_buffer(self._work, g_pre.shape, g_pre.dtype)
            self._slope = None
        cov = softplus(g_pre, out=g_pre, work=work, slope=self._slope)
        cov += EPS_FLOOR
        return cov

    def backward(self, grad_cov: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter gradients from dL/dcov, after a ``forward`` with
        ``keep_cache``."""
        u = self.config.head_width
        # only the upsampled-e channels of h4's input: stage1 and z are frozen
        dg_in, g4 = self.h4.backward(grad_cov * self._slope, input_channels=u)
        de_in, g3 = self.h3.backward(upsample2x_batch_backward(dg_in))
        db, g2 = self.h2.backward(upsample2x_batch_backward(de_in[:u]))
        da = de_in[u:] + pool2x_batch_backward(db)
        _, g1 = self.h1.backward(da, input_channels=0)   # stage2 is frozen
        return {**g1, **g2, **g3, **g4}


# ---------------------------------------------------------------------------
# losses on per-pixel variance targets
# ---------------------------------------------------------------------------

def variance_targets(z: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """t = (c_y - z)^2 per pixel, the variance the head learns; z [D, N, H, W],
    labels [N, H, W] -> [D, N, H, W] in z's dtype.  ``centers`` is
    [N_CLASSES, D]: row c is class c's template, as in the segmentation head."""
    t = centers.T.astype(z.dtype)[:, labels] - z        # a fresh [D, N, H, W] array
    t *= t
    return t


def original_loss_batch(cov: np.ndarray, t: np.ndarray) -> tuple[float, np.ndarray]:
    """Prior/posterior CE for the target ``t``, mean over pixels, and its gradient wrt cov."""
    if cov.min() <= 0.0:
        raise ValueError(f"non-positive variance: min {cov.min()}")
    d = cov.shape[0]
    npix = cov[0].size
    loss = float((0.5 * (t / cov) + 0.5 * np.log(cov)).sum(dtype=np.float64) / npix
                 + 0.5 * d * LN_2PI)
    grad = (0.5 / cov - 0.5 * t / (cov * cov)) / npix
    return loss, grad


def surrogate_loss_batch(cov: np.ndarray, t: np.ndarray) -> tuple[float, np.ndarray]:
    """Least squares on the variance target ``t``, mean over pixels, and its
    gradient wrt cov."""
    npix = cov[0].size
    diff = cov - t
    loss = float((diff * diff).sum(dtype=np.float64) / npix)
    return loss, 2.0 * diff / npix


def unc_score(cov: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-crop sum over pixels of ln det(diag covariance), i.e. of the log
    variances: ``[D, N, H, W] -> [N]`` float64.  The log variances go into
    ``out`` (which may be ``cov``) when given, else into a new array.

    The floor is compared in ``cov``'s dtype: a float32 variance at the
    floor is ``float32(EPS_FLOOR)``, which lies below ``EPS_FLOOR``."""
    lowest = cov.min()
    if lowest < cov.dtype.type(EPS_FLOOR):
        raise ValueError(f"variance below floor: min {lowest}")
    return np.log(cov, out=out).sum(axis=(0, 2, 3), dtype=np.float64)


def loss_probe(v: np.ndarray, cov: np.ndarray) -> dict[str, float]:
    """Both training losses and the norms of their gradients wrt the
    diagonal variances ``cov`` for the residual ``v`` (target v*v) of one pixel."""
    t = np.square(np.asarray(v, dtype=np.float64)).reshape(-1, 1, 1, 1)
    cov = np.asarray(cov, dtype=np.float64).reshape(t.shape)
    orig, g_orig = original_loss_batch(cov, t)
    surr, g_surr = surrogate_loss_batch(cov, t)
    return {"orig_loss": orig, "orig_gnorm": float(np.linalg.norm(g_orig)),
            "surr_loss": surr, "surr_gnorm": float(np.linalg.norm(g_surr))}


def landscape_grid(v: np.ndarray, w_range: tuple[float, float], n: int) -> list[dict]:
    """``loss_probe`` of a single 2-D pixel on an n x n grid over its two
    diagonal variances (w1, w2); a non-finite v or row value raises."""
    lo, hi = w_range
    if not 0.0 < lo < hi:
        raise ValueError(f"grid range must start above 0 and below its end, got {lo},{hi}")
    if n < 10:
        raise ValueError(f"grid needs n >= 10, got {n}")
    # n^2 row dicts: n = 500 took 11 s and 270 MB on one x86 core, and an n
    # in the tens of thousands would run until memory is gone
    if n > 500:
        raise ValueError(f"grid needs n <= 500, got {n}")
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (2,):
        raise ValueError(f"landscape is over 2 free variables, got v shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"v must be finite, got {v.tolist()}")
    # an overflow or a zero divisor shows as a non-finite value, rejected below
    with np.errstate(all="ignore"):
        ws = np.linspace(lo, hi, n)
        rows = [{"w1": float(w1), "w2": float(w2), **loss_probe(v, [w1, w2])}
                for w1 in ws for w2 in ws]
    for row in rows:
        if not all(math.isfinite(x) for x in row.values()):
            raise ValueError(f"non-finite value on the grid: {row}")
    return rows


# ---------------------------------------------------------------------------
# head training (backbone frozen)
# ---------------------------------------------------------------------------

# base learning rate, crops per step and gradient-norm ceiling of the head
UNC_LR = 1e-3
UNC_BATCH = 8
UNC_CLIP_NORM = 500.0


def _softplus_inverse(y: np.ndarray) -> np.ndarray:
    y = np.maximum(y, 1e-3)
    # np.where evaluates both branches; capping expm1's input keeps the
    # unused one finite without changing either branch's value
    return np.where(y > 30.0, y, np.log(np.expm1(np.minimum(y, 30.0))))


def train_unc(images: np.ndarray, labels: np.ndarray, seg_model: SegModel,
              loss_kind: str, config: RunConfig
              ) -> tuple[UncHead, list[tuple[int, float, float]]]:
    """``optim.fit`` of the head parameters only; the segmentation model is
    frozen and supplies stage features, latent codes, and class centers.

    Returns the head and one (epoch, mean_loss, target_abs_err) row per
    epoch, both batch means; ``target_abs_err`` is the mean of |cov - t|.

    The frozen latent of every crop is computed once, before the first
    epoch, into an ``[D, N, H, W]`` cache of the crops' dtype (float32
    crops: N*D*H*W*4 bytes, 295 KB per 96x96 crop at the default D=8, so
    38 MB for 128 crops and about 590 MB for 2000); each step then reruns
    ``seg_model.stages`` (conv1 and conv2) for the stage features.  Every
    conv runs one image at a time, so a crop's cached latent is
    bit-identical to the one its training batch would compute.  The cache
    saves conv3 forwards from the second epoch on, so nothing at
    ``unc_epochs == 1``.

    The output bias is warm-started so initial variances match the mean
    variance target of the first batch per dimension (the residual scale
    is a property of the frozen backbone and can sit decades away from
    softplus(0); starting there would waste the whole budget on a scale
    march).  Deterministic given (seed, data).
    """
    if loss_kind not in ("original", "surrogate"):
        raise ValueError(f"loss_kind must be original|surrogate, got {loss_kind!r}")
    head = UncHead(config)
    head.init_params(Rng(config.seed).derive("unc-init"))
    loss_fn = original_loss_batch if loss_kind == "original" else surrogate_loss_batch
    n, b = len(images), UNC_BATCH

    z = np.empty((config.d,) + images.shape, dtype=images.dtype)
    for i in range(0, n, b):
        z[:, i:i + b] = seg_model.forward_batch(images[i:i + b]).z
    t0 = variance_targets(z[:, :b], labels[:b], seg_model.head)
    head.h4.bias = _softplus_inverse(t0.mean(axis=(1, 2, 3), dtype=np.float64))

    def step_batch(idx: list[int]) -> tuple:
        # forward-only stages: conv1's and conv2's own buffers, which h4 and
        # h1 keep for this step's backward; the next step's stages call
        # overwrites them only after that backward
        stages = StageFeatures(*seg_model.stages(images[idx]), z=z[:, idx])
        t = variance_targets(stages.z, labels[idx], seg_model.head)
        cov = head.forward(stages, keep_cache=True)
        loss, dcov = loss_fn(cov, t)
        return loss, head.backward(dcov), float(np.abs(cov - t).mean(dtype=np.float64))

    epochs = fit(step_batch, head.params(), n, epochs=config.unc_epochs,
                 batch=UNC_BATCH, lr=UNC_LR,
                 shuffler=Rng(config.seed).derive("unc-shuffle"),
                 clip=lambda grads: clip_grad_norm(grads, UNC_CLIP_NORM))
    return head, [(epoch, *means) for epoch, means in epochs]


def head_flops(config: RunConfig) -> int:
    """Forward FLOPs of the head's convs on one crop, by ``count_flops``'s
    rule; h1 to h4 run at 1/2, 1/4, 1/2 and full resolution."""
    h, w = config.crop_h, config.crop_w
    return sum(2 * conv.kernel.size * (h // s) * (w // s)
               for conv, s in zip(UncHead(config).convs, (2, 4, 2, 1)))
