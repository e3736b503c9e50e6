"""Uncertainty projection head, its two training losses, and the score.

The head maps backbone stage features to a per-pixel diagonal covariance
(variances through softplus plus a small floor, so they stay positive).
Two losses train it against the residual v = c_y - z between the latent
code and the true class template:

  original:  mean over pixels of  0.5 v^T diag(s)^-1 v + 0.5 ln det diag(s)
             + (D/2) ln 2pi   -- the prior/posterior cross-entropy; its
             gradient in s decays like 1/s^2, flattening at large variances
  surrogate: mean over pixels of  || s - v x v ||^2  -- least squares on
             the known per-dimension optimum s_d = v_d^2

Both share the optimum s = v x v, which ``optimal_cov_oracle`` returns in
closed form and ``brute_force_optimal_cov`` recovers independently by
per-dimension golden-section search (the 1-D summands separate).

The per-image uncertainty score is the sum over pixels of the
log-determinant of the predicted covariance (diagonal: sum of log
variances); constants that do not affect ranking are dropped.
"""

from __future__ import annotations

import math

import numpy as np

from .config import RunConfig
from .layers import (Conv2d, pool2x_batch, pool2x_batch_backward, relu_batch,
                     relu_batch_backward, sigmoid, softplus, upsample2x_batch,
                     upsample2x_batch_backward)
from .optim import clip_grad_norm, fit
from .rng import Rng
from .segnet import SegModel, StageFeatures, class_centers

LN_2PI = math.log(2.0 * math.pi)


class UncHead:
    """Bottleneck head: one downsampling and two upsampling steps with skips.

        a = relu(h1(stage2))                               [u, H/2]
        c = relu(h2(pool2x_batch(a)))                      [u, H/4]
        e = relu(h3(concat(upsample2x_batch(c), a)))       [u, H/2]
        pre = h4(concat(upsample2x_batch(e), stage1, z))   [D, H]
        cov = softplus(pre) + eps_floor

    Stage features and z are treated as constants (no gradient reaches the
    backbone), matching the staged training procedure.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        w1, w2 = config.widths
        u = config.head_width
        d = config.d
        self.h1 = Conv2d("h1", w2, u)
        self.h2 = Conv2d("h2", u, u)
        self.h3 = Conv2d("h3", 2 * u, u)
        self.h4 = Conv2d("h4", u + w1 + d, d)
        self.eps_floor = config.eps_floor
        self._cache: dict = {}

    def init_params(self, rng: Rng) -> None:
        for conv in (self.h1, self.h2, self.h3, self.h4):
            conv.init_he(rng)

    def params(self) -> dict[str, np.ndarray]:
        out = {}
        for conv in (self.h1, self.h2, self.h3, self.h4):
            out.update(conv.params())
        return out

    def set_params(self, values: dict[str, np.ndarray]) -> None:
        for conv in (self.h1, self.h2, self.h3, self.h4):
            conv.set_params(values)

    def forward(self, stages: StageFeatures, keep_cache: bool = False) -> np.ndarray:
        """StageFeatures -> variances [D, N, H, W], all >= eps_floor."""
        h = stages.stage1.shape[2]
        if stages.stage2.shape[2] != h // 2 or stages.z.shape[2] != h:
            raise ValueError(
                f"stage shapes inconsistent: stage1 {stages.stage1.shape}, "
                f"stage2 {stages.stage2.shape}, z {stages.z.shape}")
        a_pre = self.h1.forward(stages.stage2)
        a = relu_batch(a_pre)
        c_pre = self.h2.forward(pool2x_batch(a))
        c = relu_batch(c_pre)
        e_in = np.concatenate([upsample2x_batch(c), a], axis=0)
        e_pre = self.h3.forward(e_in)
        e = relu_batch(e_pre)
        g_in = np.concatenate([upsample2x_batch(e), stages.stage1, stages.z], axis=0)
        g_pre = self.h4.forward(g_in)
        if keep_cache:
            self._cache = {"a_pre": a_pre, "c_pre": c_pre, "e_pre": e_pre,
                           "g_pre": g_pre}
        return softplus(g_pre) + self.eps_floor

    def backward(self, grad_cov: np.ndarray) -> dict[str, np.ndarray]:
        u = self.config.head_width
        cache = self._cache
        dg_pre = grad_cov * sigmoid(cache["g_pre"])
        # only the upsampled-e channels of h4's input: stage1 and z are frozen
        dg_in, g4 = self.h4.backward(dg_pre, input_channels=u)
        de = upsample2x_batch_backward(dg_in)
        de_pre = relu_batch_backward(de, cache["e_pre"])
        de_in, g3 = self.h3.backward(de_pre)
        dc = upsample2x_batch_backward(de_in[:u])
        dc_pre = relu_batch_backward(dc, cache["c_pre"])
        db, g2 = self.h2.backward(dc_pre)
        da = de_in[u:] + pool2x_batch_backward(db)
        da_pre = relu_batch_backward(da, cache["a_pre"])
        _, g1 = self.h1.backward(da_pre, input_channels=0)   # stage2 is frozen
        grads = {}
        for g in (g1, g2, g3, g4):
            grads.update(g)
        return grads


# ---------------------------------------------------------------------------
# losses on per-pixel residuals
# ---------------------------------------------------------------------------

def residual_targets(z: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """v = c_y - z per pixel; z [D, N, H, W], labels [N, H, W] -> [D, N, H, W]."""
    ctr = centers.T[:, labels]          # [D, N, H, W]
    return ctr - z


def _check_cov(cov: np.ndarray) -> None:
    if cov.min() <= 0.0:
        raise ValueError(f"non-positive variance: min {cov.min()}")


def original_loss_batch(cov: np.ndarray, v: np.ndarray) -> tuple[float, np.ndarray]:
    """Prior/posterior CE, mean over pixels, and its gradient wrt cov."""
    _check_cov(cov)
    d = cov.shape[0]
    npix = cov[0].size
    v2 = v * v
    loss = float((0.5 * (v2 / cov) + 0.5 * np.log(cov)).sum() / npix
                 + 0.5 * d * LN_2PI)
    grad = (0.5 / cov - 0.5 * v2 / (cov * cov)) / npix
    return loss, grad


def surrogate_loss_batch(cov: np.ndarray, v: np.ndarray) -> tuple[float, np.ndarray]:
    """Least squares on the variance target v*v, mean over pixels, and its
    gradient wrt cov."""
    npix = cov[0].size
    diff = cov - v * v
    loss = float((diff * diff).sum() / npix)
    return loss, 2.0 * diff / npix


# ---------------------------------------------------------------------------
# closed-form optimum, brute-force verification, and identities
# ---------------------------------------------------------------------------

def optimal_cov_oracle(v: np.ndarray) -> np.ndarray:
    """Per-dimension minimizer of the CE summand: variances v*v (its trace
    is exactly ||v||^2)."""
    v = np.asarray(v, dtype=np.float64)
    return v * v


def brute_force_optimal_cov(v: np.ndarray, iters: int = 100) -> np.ndarray:
    """Numerically minimize the CE summand per dimension by golden-section
    search on sigma^2 in [1e-8, 1e4 * v_d^2 + 1]; independent of the closed
    form it is used to verify."""
    orig_shape = np.asarray(v).shape
    v2 = (np.asarray(v, dtype=np.float64) ** 2).reshape(-1)
    lo = np.full_like(v2, 1e-8)
    hi = 1e4 * v2 + 1.0
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0

    def f(s2: np.ndarray) -> np.ndarray:
        return 0.5 * v2 / s2 + 0.5 * np.log(s2)

    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        left = f1 < f2                      # minimum in [lo, x2]
        hi = np.where(left, x2, hi)
        lo = np.where(left, lo, x1)
        x1 = hi - inv_phi * (hi - lo)
        x2 = lo + inv_phi * (hi - lo)
        f1, f2 = f(x1), f(x2)
    return ((lo + hi) / 2.0).reshape(orig_shape)


def grad_vanishing_probe(v: np.ndarray, scale: float) -> tuple[float, float]:
    """Gradient norms of both losses wrt the diagonal at cov = scale * I,
    for the residual ``v`` of a single pixel."""
    if scale <= 0.0:
        raise ValueError(f"scale must be > 0, got {scale}")
    v = np.asarray(v, dtype=np.float64).reshape(-1, 1, 1, 1)
    cov = np.full_like(v, scale)
    g_orig = original_loss_batch(cov, v)[1]
    g_surr = surrogate_loss_batch(cov, v)[1]
    return float(np.linalg.norm(g_orig)), float(np.linalg.norm(g_surr))


def quad_form_trace_check(v: np.ndarray) -> float:
    """Quadratic form v^T diag(v*v)^-1 v at the optimal covariance; equals
    the dimensionality exactly."""
    v = np.asarray(v, dtype=np.float64)
    if np.any(v == 0.0):
        raise ValueError("quadratic-form check undefined: some v_d is zero "
                         "(singular optimal covariance)")
    v2 = v * v
    return float((v2 / v2).sum())


def unc_score(cov: np.ndarray, eps_floor: float = 0.0) -> np.ndarray:
    """Per-crop sum over pixels of ln det(diag covariance), i.e. of the log
    variances: ``[D, N, H, W] -> [N]``."""
    lowest = cov.min()
    if lowest < eps_floor or lowest <= 0.0:
        raise ValueError(f"variance below floor: min {lowest}")
    return np.log(cov).sum(axis=(0, 2, 3))


def landscape_grid(v: np.ndarray, w_range: tuple[float, float], n: int) -> list[dict]:
    """Evaluate both training losses and their gradient norms for a single
    2-D pixel on an n x n grid over the two diagonal variances (w1, w2)."""
    lo, hi = w_range
    if not 0.0 < lo < hi:
        raise ValueError(f"grid range must start above 0 and below its end, got {lo},{hi}")
    if n < 10:
        raise ValueError(f"grid needs n >= 10, got {n}")
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (2,):
        raise ValueError(f"landscape is over 2 free variables, got v shape {v.shape}")
    v = v.reshape(2, 1, 1, 1)
    ws = np.linspace(lo, hi, n)
    rows = []
    for w1 in ws:
        for w2 in ws:
            w = np.array([w1, w2]).reshape(2, 1, 1, 1)
            orig, og = original_loss_batch(w, v)
            surr, sg = surrogate_loss_batch(w, v)
            rows.append({"w1": float(w1), "w2": float(w2),
                         "orig_loss": orig,
                         "orig_gnorm": float(np.linalg.norm(og)),
                         "surr_loss": surr,
                         "surr_gnorm": float(np.linalg.norm(sg))})
    return rows


# ---------------------------------------------------------------------------
# head training (backbone frozen)
# ---------------------------------------------------------------------------

UNC_CLIP_NORM = 500.0


def _softplus_inverse(y: np.ndarray) -> np.ndarray:
    y = np.maximum(y, 1e-3)
    # np.where evaluates both branches; capping expm1's input keeps the
    # unused one finite without changing either branch's value
    return np.where(y > 30.0, y, np.log(np.expm1(np.minimum(y, 30.0))))


def train_unc(images: np.ndarray, labels: np.ndarray, seg_model: SegModel,
              loss_kind: str, config: RunConfig,
              log: list | None = None) -> UncHead:
    """``optim.fit`` of the head parameters only; the segmentation model is
    frozen and supplies stage features, latent codes, and class centers.

    The output bias is warm-started so initial variances match the mean
    squared residual of the first batch per dimension (the residual scale
    is a property of the frozen backbone and can sit decades away from
    softplus(0); starting there would waste the whole budget on a scale
    march).  Deterministic given (seed, data).
    """
    if loss_kind not in ("original", "surrogate"):
        raise ValueError(f"loss_kind must be original|surrogate, got {loss_kind!r}")
    head = UncHead(config)
    head.init_params(Rng(config.seed).derive("unc-init"))
    centers = class_centers(seg_model)
    loss_fn = original_loss_batch if loss_kind == "original" else surrogate_loss_batch
    n = len(images)

    first = seg_model.forward_batch(images[:min(config.unc_batch, n)])
    v0 = residual_targets(first.z, labels[:min(config.unc_batch, n)], centers)
    head.h4.bias = _softplus_inverse((v0 * v0).mean(axis=(1, 2, 3)))

    def step_batch(idx: list[int]) -> tuple:
        stages = seg_model.forward_batch(images[idx])
        v = residual_targets(stages.z, labels[idx], centers)
        cov = head.forward(stages, keep_cache=True)
        loss, dcov = loss_fn(cov, v)
        return loss, head.backward(dcov), float(np.abs(cov - v * v).mean())

    epochs = fit(step_batch, head.params(), n, epochs=config.unc_epochs,
                 batch=config.unc_batch, lr=config.unc_lr,
                 momentum=config.unc_momentum,
                 shuffler=Rng(config.seed).derive("unc-shuffle"),
                 clip=lambda grads: clip_grad_norm(grads, UNC_CLIP_NORM))
    for epoch, means in epochs:
        if log is not None:
            log.append((epoch, *means))
    return head


def head_flops(config: RunConfig) -> int:
    """FLOPs of the projection head convolutions (same 2*k^2*Cin*Cout*HW rule)."""
    h, w = config.crop_h, config.crop_w
    w1, w2 = config.widths
    u = config.head_width
    d = config.d
    total = 2 * 9 * w2 * u * (h // 2) * (w // 2)
    total += 2 * 9 * u * u * (h // 4) * (w // 4)
    total += 2 * 9 * (2 * u) * u * (h // 2) * (w // 2)
    total += 2 * 9 * (u + w1 + d) * d * h * w
    return total
