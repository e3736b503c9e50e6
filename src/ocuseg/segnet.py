"""Deterministic segmentation network: forward/backward, loss, labels and
the first training stage.

Architecture (all convs 3x3, same padding, biased):

    stage1 = relu(conv1(x))                                   [w1, H, W]
    stage2 = relu(conv2(pool2x_batch(stage1)))                [w2, H/2, W/2]
    z      = conv3(concat(upsample2x_batch(stage2), stage1))  [D, H, W]

conv3 reads the concatenation in place, as a ``ChannelStack(stage2,
stage1)``: neither the upsampled stage2 nor the concatenation is built.

Per-pixel class probabilities are softmax(W @ z) with a bias-free 4xD
head matrix whose rows double as class template vectors.  Activations use
the [C, N, H, W] layout internally; images enter as [N, H, W] crops in
[0, 1].  Activations follow the crops' dtype (float32 from
``pipeline.build_crops``), and a forward casts the head to it; parameters,
their gradients and the loss sum are float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import model_tensor
from .config import RunConfig
from .layers import (ChannelStack, Conv2d, pool2x_batch, pool2x_batch_backward,
                     relu_batch, relu_batch_backward, softmax_rows,
                     upsample2x_batch_backward)
from .metrics import N_CLASSES, confusion_matrix, metrics_from_confusion
from .optim import clip_grad_norm, fit
from .rng import Rng


@dataclass
class StageFeatures:
    """Backbone activations for a batch: two stage maps plus the latent z."""
    stage1: np.ndarray      # [w1, N, H, W]
    stage2: np.ndarray      # [w2, N, H/2, W/2]
    z: np.ndarray           # [D,  N, H, W]


class SegModel:
    """Backbone parameters plus the 4xD class head."""

    def __init__(self, config: RunConfig):
        self.config = config
        w1, w2 = config.widths
        self.conv1 = Conv2d("conv1", 1, w1)
        self.conv2 = Conv2d("conv2", w1, w2)
        self.conv3 = Conv2d("conv3", w1 + w2, config.d)
        self.head = np.zeros((N_CLASSES, config.d))
        self._cache: dict = {}

    def init_params(self, rng: Rng) -> None:
        """He fan-in init for convs (zero biases), then the head matrix.

        The head starts small (std 0.1) so early logits stay near zero and
        the summed-over-pixels loss does not blow up the first steps.
        """
        self.conv1.init_he(rng)
        self.conv2.init_he(rng)
        self.conv3.init_he(rng)
        self.head = rng.normal_array(N_CLASSES * self.config.d, 0.0, 0.1)\
            .reshape(N_CLASSES, self.config.d)

    def params(self) -> dict[str, np.ndarray]:
        out = {}
        out.update(self.conv1.params())
        out.update(self.conv2.params())
        out.update(self.conv3.params())
        out["head"] = self.head
        return out

    def set_params(self, values: dict[str, np.ndarray]) -> None:
        self.conv1.set_params(values)
        self.conv2.set_params(values)
        self.conv3.set_params(values)
        self.head = model_tensor(values, "head", self.head.shape)

    # -- forward / backward -------------------------------------------

    def forward_batch(self, images: np.ndarray, keep_cache: bool = False,
                      z: np.ndarray | None = None) -> StageFeatures:
        """images [N, H, W] -> StageFeatures.  ``keep_cache`` keeps what
        ``backward_batch`` needs.

        Crops arrive in [0, 1] and are standardized to [-1, 1] before conv1.
        A ``z`` computed earlier for the same images is returned as the
        latent without running conv3 (there is then no backward through it).
        """
        n, h, w = images.shape
        cfg = self.config
        if (h, w) != (cfg.crop_h, cfg.crop_w):
            raise ValueError(f"expected {cfg.crop_h}x{cfg.crop_w} crops, got {h}x{w}")
        if z is not None:
            if keep_cache:
                raise ValueError("keep_cache needs conv3 to run: pass no z")
            if z.shape != (cfg.d, n, h, w):
                raise ValueError(f"z must be {(cfg.d, n, h, w)}, got {z.shape}")
        x = (images[None] - 0.5) * 2.0                # [1, N, H, W]
        pre1 = self.conv1.forward(x, keep_cache=keep_cache)
        s1 = relu_batch(pre1)
        p1 = pool2x_batch(s1)
        pre2 = self.conv2.forward(p1, keep_cache=keep_cache)
        s2 = relu_batch(pre2)
        if z is None:
            z = self.conv3.forward(ChannelStack(s2, s1), keep_cache=keep_cache)
        self._cache = {"pre1": pre1, "pre2": pre2} if keep_cache else {}
        return StageFeatures(stage1=s1, stage2=s2, z=z)

    def backward_batch(self, grad_z: np.ndarray) -> dict[str, np.ndarray]:
        """Backprop from dL/dz through the backbone; needs a kept cache."""
        w2 = self.config.widths[1]
        gcat, g3 = self.conv3.backward(grad_z)
        gup = gcat[:w2]
        gs1_skip = gcat[w2:]
        gs2 = upsample2x_batch_backward(gup)
        gpre2 = relu_batch_backward(gs2, self._cache["pre2"])
        gp1, g2 = self.conv2.backward(gpre2)
        gs1 = gs1_skip + pool2x_batch_backward(gp1)
        gpre1 = relu_batch_backward(gs1, self._cache["pre1"])
        _, g1 = self.conv1.backward(gpre1, input_channels=0)   # images need none
        grads = {}
        grads.update(g1)
        grads.update(g2)
        grads.update(g3)
        return grads


def predict_batch(model: SegModel, images: np.ndarray
                  ) -> tuple[np.ndarray, StageFeatures]:
    """Label maps [N, H, W] (argmax ties -> lowest class) and the backbone
    features of a batch of crops."""
    feats = model.forward_batch(images)
    logits = model.head.astype(feats.z.dtype) @ feats.z.reshape(model.config.d, -1)
    return np.argmax(logits, axis=0).reshape(images.shape), feats


def seg_loss(model: SegModel, images: np.ndarray, labels: np.ndarray
             ) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
    """Cross-entropy, its parameter gradients and the confusion matrix of the
    batch's ``predict_batch`` labels before the step.  The loss is the mean
    over the batch of per-image sums over pixels of -log p at the true class
    (probabilities clamped at 1e-12)."""
    n, h, w = images.shape
    feats = model.forward_batch(images, keep_cache=True)
    d = model.config.d
    zmat = feats.z.reshape(d, -1)
    head = model.head.astype(zmat.dtype)
    logits = head @ zmat                            # [4, N*H*W]
    flat_labels = labels.reshape(-1)
    # also rejects labels outside the classes before they index the probs
    conf = confusion_matrix(np.argmax(logits, axis=0), flat_labels)
    probs = softmax_rows(logits)
    p_true = probs[flat_labels, np.arange(flat_labels.size)]
    loss = float(-np.log(np.maximum(p_true, 1e-12)).sum(dtype=np.float64) / n)
    glogit = probs.copy()
    glogit[flat_labels, np.arange(flat_labels.size)] -= 1.0
    glogit /= n
    grads = {"head": (glogit @ zmat.T).astype(np.float64)}
    gz = (head.T @ glogit).reshape(d, n, h, w)
    grads.update(model.backward_batch(gz))
    return loss, grads, conf


def class_centers(model: SegModel) -> np.ndarray:
    """Class template vectors: row c is the c-th row of the head matrix."""
    return model.head.copy()


# crops per forward pass when predicting
INFER_BATCH = 16


def evaluate_miou(model: SegModel, images: np.ndarray, labels: np.ndarray) -> float:
    """Aggregate-confusion MIoU of the model over a crop set."""
    # no src caller: bench/workloads.py and bench/attribution.py use it by name
    conf = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    for i in range(0, len(images), INFER_BATCH):
        # [0] alone: binding the features too keeps them alive through the
        # next batch's forward
        y_hat = predict_batch(model, images[i:i + INFER_BATCH])[0]
        conf += confusion_matrix(y_hat, labels[i:i + INFER_BATCH])
    return metrics_from_confusion(conf)["miou"]


# The summed-over-pixels loss gives different parameter groups gradient
# norms that differ by orders of magnitude (class-imbalance sums hit the
# head and biases hardest); these fixed multipliers bring the groups'
# relative step sizes to a common scale.
SEG_LR_SCALES = {
    "conv1.kernel": 1.0, "conv1.bias": 0.5,
    "conv2.kernel": 0.6, "conv2.bias": 0.3,
    "conv3.kernel": 0.2, "conv3.bias": 0.1,
    "head": 0.03,
}

# Global gradient-norm ceiling; bounds the step size through loss spikes
# so momentum cannot amplify them into divergence.
SEG_CLIP_NORM = 2000.0


def train_seg(images: np.ndarray, labels: np.ndarray, config: RunConfig,
              log: list | None = None) -> SegModel:
    """``optim.fit`` of a fresh model on pre-computed crops.

    ``log`` (if given) receives (epoch, mean_loss, miou) rows; ``miou`` is the
    running MIoU of the epoch's steps, each scoring its batch before its update.
    Raises FloatingPointError naming the epoch if the loss goes non-finite.
    """
    model = SegModel(config)
    model.init_params(Rng(config.seed).derive("seg-init"))
    epochs = fit(lambda idx: seg_loss(model, images[idx], labels[idx]),
                 model.params(), len(images), epochs=config.seg_epochs,
                 batch=config.seg_batch, lr=config.seg_lr,
                 momentum=config.seg_momentum,
                 shuffler=Rng(config.seed).derive("seg-shuffle"),
                 clip=lambda grads: clip_grad_norm(grads, SEG_CLIP_NORM),
                 lr_scales=SEG_LR_SCALES)
    # fit yields the mean confusion, which is proportional to the sum
    for epoch, (mean_loss, mean_conf) in epochs:
        if log is not None:
            log.append((epoch, mean_loss, metrics_from_confusion(mean_conf)["miou"]))
    return model


# ---------------------------------------------------------------------------
# FLOPs accounting: 2 * k^2 * C_in * C_out * H_out * W_out per conv,
# 2 * 4 * D * H * W for the class head
# ---------------------------------------------------------------------------

def count_flops(config: RunConfig, include_head: bool = True) -> int:
    h, w = config.crop_h, config.crop_w
    w1, w2 = config.widths
    d = config.d
    total = 2 * 9 * 1 * w1 * h * w
    total += 2 * 9 * w1 * w2 * (h // 2) * (w // 2)
    total += 2 * 9 * (w1 + w2) * d * h * w
    if include_head:
        total += 2 * N_CLASSES * d * h * w
    return total
