"""End-to-end plumbing: dataset -> crops -> model -> predictions/scores.

Crop construction is seed-deterministic per sample id, so training and
inference see identical geometry for a given config regardless of dataset
ordering.  Detector modes:

    gt-jitter   perturbed ground-truth boxes (training default; stands in
                for detector noise)
    heuristic   dark-blob detector on the image alone
    full        whole frame resized to the crop size (ablation baseline)
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .config import RunConfig
from .detect import BBox, crop_resize, detect_eye_heuristic, jitter_gt_bbox
from .metrics import confusion_matrix, metrics_from_confusion
from .rng import Rng
from .segnet import INFER_BATCH, SegModel, predict_batch, train_seg
from .synth import Sample
from .uncertainty import UncHead, train_unc, unc_score
from .evaluate import rank_and_filter

DETECTOR_MODES = ("gt-jitter", "heuristic", "full")


def choose_bbox(sample: Sample, mode: str, config: RunConfig) -> BBox:
    fh, fw = sample.image.shape
    if mode == "gt-jitter":
        rng = Rng(config.seed).derive(f"crop/{sample.sample_id}")
        return jitter_gt_bbox(sample.gt_bbox, rng, config.bbox_jitter, fh, fw)
    if mode == "heuristic":
        return detect_eye_heuristic(sample.image)
    if mode == "full":
        return BBox(0, 0, fh, fw)
    raise ValueError(f"unknown detector mode {mode!r}")


def build_crops(samples: list[Sample], config: RunConfig, mode: str = "gt-jitter"
                ) -> tuple[np.ndarray, np.ndarray, list[BBox], list[str]]:
    """Crop every sample; returns (images [N,H,W], labels [N,H,W], boxes, ids)."""
    images = np.empty((len(samples), config.crop_h, config.crop_w))
    labels = np.empty((len(samples), config.crop_h, config.crop_w), dtype=np.int64)
    boxes = []
    ids = []
    for i, s in enumerate(samples):
        box = choose_bbox(s, mode, config)
        cropped = crop_resize(s, box, config.crop_h, config.crop_w)
        images[i] = cropped.image
        labels[i] = cropped.labels
        boxes.append(box)
        ids.append(s.sample_id)
    return images, labels, boxes, ids


def infer_samples(images: np.ndarray, seg: SegModel, head: UncHead, config: RunConfig
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Segment and score built crops: label maps [N, H, W] (int64) and
    ``s_unc`` [N]."""
    y_hat = np.empty(images.shape, dtype=np.int64)
    s_unc = np.empty(len(images))
    for i in range(0, len(images), INFER_BATCH):
        y_hat[i:i + INFER_BATCH], stages = predict_batch(seg, images[i:i + INFER_BATCH])
        s_unc[i:i + INFER_BATCH] = unc_score(head.forward(stages), config.eps_floor)
    return y_hat, s_unc


def ablation_crop_vs_full(train_samples: list[Sample], test_samples: list[Sample],
                          config: RunConfig, pcts: list[float]) -> dict:
    """Train and score two equal-FLOPs pipelines: eye-box crops vs whole
    frames resized to the crop size.  Returns unfiltered MIoU and the
    filtered-MIoU curve at each of ``pcts`` for each."""
    report: dict = {}
    for name, mode in (("crop", "gt-jitter"), ("full", "full")):
        images, labels, _, _ = build_crops(train_samples, config, mode)
        seg = train_seg(images, labels, config)
        head = train_unc(images, labels, seg, "surrogate", config)
        images, labels, _, ids = build_crops(test_samples, config, mode)
        y_hat, s_unc = infer_samples(images, seg, head, config)
        confs = [confusion_matrix(p, t) for p, t in zip(y_hat, labels)]
        filtered = rank_and_filter(ids, s_unc.tolist(), confs, pcts)
        report[name] = {"miou": metrics_from_confusion(sum(confs))["miou"],
                        "filtered": [asdict(f) for f in filtered]}
    return report
