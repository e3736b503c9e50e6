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

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .detect import BBox, crop_resize, detect_eye_heuristic, jitter_gt_bbox
from .metrics import N_CLASSES, confusion_matrix, metrics_from_confusion
from .rng import Rng
from .segnet import INFER_BATCH, SegModel, predict_batch, train_seg
from .synth import Sample
from .uncertainty import UncHead, train_unc, unc_score
from .evaluate import rank_and_filter, threshold_decision

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


@dataclass
class Prediction:
    sample_id: str
    y_hat: np.ndarray            # [H, W] crop-space label map
    s_unc: float
    bbox: BBox
    decision: str


def infer_samples(samples: list[Sample], seg: SegModel, head: UncHead,
                  config: RunConfig, detector: str = "gt-jitter") -> list[Prediction]:
    """Detect, crop, segment, and score every sample."""
    images, _, boxes, ids = build_crops(samples, config, detector)
    preds: list[Prediction] = []
    for i in range(0, len(samples), INFER_BATCH):
        y_hat, stages = predict_batch(seg, images[i:i + INFER_BATCH])
        scores = unc_score(head.forward(stages), config.eps_floor)
        for j in range(len(y_hat)):
            s = float(scores[j])
            preds.append(Prediction(
                sample_id=ids[i + j], y_hat=y_hat[j], s_unc=s,
                bbox=boxes[i + j], decision=threshold_decision(s, config.tau)))
    return preds


def crops_ground_truth(samples: list[Sample], preds: list[Prediction],
                       config: RunConfig) -> dict[str, np.ndarray]:
    """Re-crop ground-truth labels with each prediction's recorded box."""
    by_id = {s.sample_id: s for s in samples}
    out = {}
    for p in preds:
        s = by_id[p.sample_id]
        cropped = crop_resize(s, p.bbox, config.crop_h, config.crop_w)
        out[p.sample_id] = cropped.labels
    return out


def per_image_confusions(samples: list[Sample], preds: list[Prediction],
                         config: RunConfig) -> list[np.ndarray]:
    gt = crops_ground_truth(samples, preds, config)
    return [confusion_matrix(p.y_hat, gt[p.sample_id]) for p in preds]


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
        preds = infer_samples(test_samples, seg, head, config, detector=mode)
        confs = per_image_confusions(test_samples, preds, config)
        agg = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
        for c in confs:
            agg += c
        filtered = rank_and_filter([p.sample_id for p in preds],
                                   [p.s_unc for p in preds], confs, pcts)
        report[name] = {
            "miou": metrics_from_confusion(agg)["miou"],
            "filtered": [{"pct": f.threshold_pct,
                          "retained_count": f.retained_count,
                          "retained_miou": f.retained_miou} for f in filtered],
        }
    return report
