"""End-to-end plumbing: dataset -> crops -> model -> predictions/scores.

``build_crops`` is the one crop loop; ``infer`` discards its label crops.
Crop construction is seed-deterministic per sample id, so training and
inference see identical geometry for a given config regardless of dataset
ordering.  Frames and label maps are uint8 throughout; only the image crops
the model reads are float32.  Detector modes:

    gt-jitter   perturbed ground-truth boxes (training default; stands in
                for detector noise)
    heuristic   dark-blob detector on the image alone
    full        whole frame resized to the crop size (ablation baseline)
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig, naming
from .detect import BBox, crop_resize, detect_eye_heuristic, jitter_gt_bbox
from .evaluate import report
from .metrics import confusion_matrix
from .rng import Rng
from .segnet import INFER_BATCH, SegModel, predict_batch, train_seg
from .synth import Sample
from .uncertainty import UncHead, train_unc, unc_score

DETECTOR_MODES = ("gt-jitter", "heuristic", "full")


def choose_bbox(sample: Sample, mode: str, config: RunConfig) -> BBox:
    fh, fw = sample.image.shape
    if mode == "gt-jitter":
        rng = Rng(config.seed).derive(f"crop/{sample.sample_id}")
        return jitter_gt_bbox(sample.gt_bbox, rng, fh, fw)
    if mode == "heuristic":
        # a frame below the detector's minimum size is a bad input
        with naming(f"sample {sample.sample_id}: heuristic detector"):
            return detect_eye_heuristic(sample.image)
    if mode == "full":
        return BBox(0, 0, fh, fw)
    raise ValueError(f"unknown detector mode {mode!r}")


def build_crops(samples: list[Sample], config: RunConfig, mode: str = "gt-jitter"
                ) -> tuple[np.ndarray, np.ndarray, list[BBox], list[str]]:
    """Crop every sample (every command crops here; ``infer`` discards the
    labels); returns (images [N,H,W] float32, labels [N,H,W] uint8, boxes,
    ids).  The image crops are on the 1/255 grid, and the model runs its
    activations in their dtype.  All boxes come first: the heuristic
    detector interleaved with the crops ran ~5% slower."""
    images = np.empty((len(samples), config.crop_h, config.crop_w), dtype=np.float32)
    labels = np.empty((len(samples), config.crop_h, config.crop_w), dtype=np.uint8)
    boxes = [choose_bbox(s, mode, config) for s in samples]
    for i, (s, box) in enumerate(zip(samples, boxes)):
        images[i], labels[i] = crop_resize(s, box, config.crop_h, config.crop_w)
    return images, labels, boxes, [s.sample_id for s in samples]


def infer_samples(images: np.ndarray, seg: SegModel, head: UncHead
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Segment and score built crops: label maps [N, H, W] (uint8) and
    ``s_unc`` [N].

    Every batch runs forward-only, in buffers the layers own and reuse, so
    same-shape batches allocate no activations; the log variances overwrite
    the head's variances, which nothing reads after the score."""
    y_hat = np.empty(images.shape, dtype=np.uint8)
    s_unc = np.empty(len(images))
    for i in range(0, len(images), INFER_BATCH):
        y_hat[i:i + INFER_BATCH], stages = predict_batch(seg, images[i:i + INFER_BATCH])
        cov = head.forward(stages)
        s_unc[i:i + INFER_BATCH] = unc_score(cov, out=cov)
    return y_hat, s_unc


def ablation_crop_vs_full(train_samples: list[Sample], test_samples: list[Sample],
                          config: RunConfig, pcts: list[float]) -> dict:
    """Train and score two equal-FLOPs pipelines: eye-box crops vs whole
    frames resized to the crop size.  Returns each arm's ``evaluate.report``
    on the test set, filtered at each of ``pcts``."""
    arms = {}
    for name, mode in (("crop", "gt-jitter"), ("full", "full")):
        images, labels, _, _ = build_crops(train_samples, config, mode)
        seg, _ = train_seg(images, labels, config)
        head, _ = train_unc(images, labels, seg, "surrogate", config)
        images, labels, _, ids = build_crops(test_samples, config, mode)
        y_hat, s_unc = infer_samples(images, seg, head)
        confs = [confusion_matrix(p, t) for p, t in zip(y_hat, labels)]
        arms[name] = report(ids, s_unc.tolist(), confs, pcts)
    return arms
