"""Deterministic segmentation network: forward/backward, loss, labels and
the first training stage.

Architecture (all convs 3x3, same padding, biased):

    stage1 = relu(conv1(x))                                   [w1, H, W]
    stage2 = relu(conv2(pool2x_batch(stage1)))                [w2, H/2, W/2]
    z      = conv3(concat(upsample2x_batch(stage2), stage1))  [D, H, W]

conv3 reads the concatenation in place, as a ``ChannelStack(stage2,
stage1)``: neither the upsampled stage2 nor the concatenation is built.
``SegModel.stages`` runs the backbone up to conv3 and ``forward_batch``
adds conv3; the uncertainty head's training reads stage1 and stage2 from
``stages`` and a latent it computed once per crop.

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
from .layers import (ChannelStack, Conv2d, in_place_relu, pool2x_batch,
                     pool2x_batch_backward, relu_batch_backward, softmax_rows,
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
        self.convs = (self.conv1, self.conv2, self.conv3)
        self.head = np.zeros((N_CLASSES, config.d))
        self._cache: dict = {}

    def init_params(self, rng: Rng) -> None:
        """He fan-in init for convs (zero biases), then the head matrix.

        The head starts small (std 0.1) so early logits stay near zero and
        the summed-over-pixels loss does not blow up the first steps.
        """
        for conv in self.convs:
            conv.init_he(rng)
        self.head = rng.normal_array(N_CLASSES * self.config.d, 0.0, 0.1)\
            .reshape(N_CLASSES, self.config.d)

    def params(self) -> dict[str, np.ndarray]:
        out = {k: v for conv in self.convs for k, v in conv.params().items()}
        out["head"] = self.head
        return out

    def set_params(self, values: dict[str, np.ndarray]) -> None:
        for conv in self.convs:
            conv.set_params(values)
        self.head = model_tensor(values, "head", self.head.shape)

    # -- forward / backward -------------------------------------------

    def stages(self, images: np.ndarray, keep_cache: bool = False
               ) -> tuple[np.ndarray, np.ndarray]:
        """images [N, H, W] -> (stage1, stage2), the backbone up to conv3.
        ``keep_cache`` keeps what ``backward_batch`` needs of conv1 and conv2;
        without it, both maps are the convs' own buffers (see ``Conv2d``).

        Crops arrive in [0, 1] and are standardized to [-1, 1] before conv1.
        """
        _, h, w = images.shape
        cfg = self.config
        if (h, w) != (cfg.crop_h, cfg.crop_w):
            raise ValueError(f"expected {cfg.crop_h}x{cfg.crop_w} crops, got {h}x{w}")
        x = (images[None] - 0.5) * 2.0                # [1, N, H, W]
        # ReLU over each conv's output: backward's mask s > 0 is pre > 0
        s1 = in_place_relu(self.conv1.forward(x, keep_cache=keep_cache))
        s2 = in_place_relu(self.conv2.forward(pool2x_batch(s1), keep_cache=keep_cache))
        self._cache = {"s1": s1, "s2": s2} if keep_cache else {}
        return s1, s2

    def forward_batch(self, images: np.ndarray, keep_cache: bool = False) -> StageFeatures:
        """images [N, H, W] -> StageFeatures: ``stages`` then conv3.
        ``keep_cache`` keeps what ``backward_batch`` needs; without it, the
        features are the convs' own buffers, overwritten by the next
        forward-only pass."""
        s1, s2 = self.stages(images, keep_cache)
        z = self.conv3.forward(ChannelStack(s2, s1), keep_cache=keep_cache)
        return StageFeatures(stage1=s1, stage2=s2, z=z)

    def backward_batch(self, grad_z: np.ndarray) -> dict[str, np.ndarray]:
        """Backprop from dL/dz through the backbone; needs a kept cache."""
        w2 = self.config.widths[1]
        gcat, g3 = self.conv3.backward(grad_z)
        gs2 = upsample2x_batch_backward(gcat[:w2])
        gpre2 = relu_batch_backward(gs2, self._cache["s2"])
        gp1, g2 = self.conv2.backward(gpre2)
        gs1 = gcat[w2:] + pool2x_batch_backward(gp1)
        gpre1 = relu_batch_backward(gs1, self._cache["s1"])
        _, g1 = self.conv1.backward(gpre1, input_channels=0)   # images need none
        return {**g1, **g2, **g3}


def class_labels(logits: np.ndarray) -> np.ndarray:
    """uint8 labels [M] of [C, M] class logits: each column's largest logit,
    the lowest class among tied ones, and a column's first NaN where it has
    one (``np.argmax(logits, axis=0)``'s rule).

    One comparison per class against the running maximum of the classes
    before it: a class that beats it is above every earlier label, so the
    labels take the larger of themselves and ``c`` where it wins.
    """
    labels = np.zeros(logits.shape[1], dtype=np.uint8)
    best = logits[0].copy()
    for c in range(1, len(logits)):
        beats = (logits[c] > best).view(np.uint8)
        beats *= c
        np.maximum(labels, beats, out=labels)
        np.maximum(best, logits[c], out=best)
    nan = np.isnan(best)            # np.maximum carries a column's NaN into best
    if nan.any():
        labels[nan] = np.argmax(np.isnan(logits[:, nan]), axis=0)
    return labels


def predict_batch(model: SegModel, images: np.ndarray
                  ) -> tuple[np.ndarray, StageFeatures]:
    """uint8 label maps [N, H, W] and the backbone features of a batch of
    crops; ``class_labels`` picks each pixel's class by comparison, ties
    going to the lowest class.  Forward-only: the features are the convs'
    own buffers (see ``Conv2d``)."""
    feats = model.forward_batch(images)
    logits = model.head.astype(feats.z.dtype) @ feats.z.reshape(model.config.d, -1)
    return class_labels(logits).reshape(images.shape), feats


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
    true_class = (labels.reshape(-1), np.arange(labels.size))
    # also rejects labels outside the classes before they index the probs
    conf = confusion_matrix(class_labels(logits), true_class[0])
    glogit = softmax_rows(logits)                   # the probabilities, until -= 1
    loss = float(-np.log(np.maximum(glogit[true_class], 1e-12)).sum(dtype=np.float64) / n)
    glogit[true_class] -= 1.0
    glogit /= n
    gz = (head.T @ glogit).reshape(d, n, h, w)
    grads = {"head": (glogit @ zmat.T).astype(np.float64), **model.backward_batch(gz)}
    return loss, grads, conf


# crops per forward pass when predicting
INFER_BATCH = 16


def evaluate_miou(model: SegModel, images: np.ndarray, labels: np.ndarray) -> float:
    """Aggregate-confusion MIoU of the model over a crop set."""
    # no src caller: bench/workloads.py and bench/attribution.py use it by name
    conf = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    for i in range(0, len(images), INFER_BATCH):
        y_hat = predict_batch(model, images[i:i + INFER_BATCH])[0]
        conf += confusion_matrix(y_hat, labels[i:i + INFER_BATCH])
    return metrics_from_confusion(conf)["miou"]


# Base learning rate and crops per step of the segmentation stage.
SEG_LR = 3e-4
SEG_BATCH = 8

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


def train_seg(images: np.ndarray, labels: np.ndarray, config: RunConfig
              ) -> tuple[SegModel, list[tuple[int, float, float]]]:
    """``optim.fit`` of a fresh model on pre-computed crops.

    Returns the model and one (epoch, mean_loss, miou) row per epoch:
    ``mean_loss`` is the mean of the epoch's batch losses and ``miou`` the
    running MIoU of its steps, each scoring its batch before its update.
    Raises FloatingPointError naming the epoch if the loss goes non-finite.
    """
    model = SegModel(config)
    model.init_params(Rng(config.seed).derive("seg-init"))
    epochs = fit(lambda idx: seg_loss(model, images[idx], labels[idx]),
                 model.params(), len(images), epochs=config.seg_epochs,
                 batch=SEG_BATCH, lr=SEG_LR,
                 shuffler=Rng(config.seed).derive("seg-shuffle"),
                 clip=lambda grads: clip_grad_norm(grads, SEG_CLIP_NORM),
                 lr_scales=SEG_LR_SCALES)
    # fit yields the mean confusion, which is proportional to the sum
    return model, [(epoch, mean_loss, metrics_from_confusion(mean_conf)["miou"])
                   for epoch, (mean_loss, mean_conf) in epochs]


def count_flops(config: RunConfig, include_head: bool = True) -> int:
    """Forward FLOPs of one crop: 2 * k^2 * C_in * C_out * H * W per conv, at
    its resolution, plus 2 * 4 * D * H * W for the class head."""
    h, w = config.crop_h, config.crop_w
    total = sum(2 * conv.kernel.size * (h // s) * (w // s)
                for conv, s in zip(SegModel(config).convs, (1, 2, 1)))
    if include_head:
        total += 2 * N_CLASSES * config.d * h * w
    return total
