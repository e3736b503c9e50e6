"""Segmentation metrics over the 4-class closed set.

Macro metrics (MIoU, F1, E1) average over classes present in ground truth
or prediction; classes absent from both are excluded so empty-region crops
do not produce 0/0 terms.  E1 is the per-class one-vs-rest disagreement
rate (FP+FN over all pixels), macro-averaged.
"""

from __future__ import annotations

import numpy as np

N_CLASSES = 4


def check_labels(labels: np.ndarray) -> None:
    """Raise ValueError listing the values of ``labels`` that are not class
    indices 0..N_CLASSES-1."""
    # min/max first: the masks are built only on failure, since mask
    # temporaries on every call fragment the heap (raised training peak RSS)
    if labels.min() < 0 or labels.max() >= N_CLASSES:
        bad = (labels < 0) | (labels >= N_CLASSES)
        raise ValueError(f"labels outside 0..{N_CLASSES - 1}: "
                         f"{np.unique(labels[bad]).tolist()}")


def confusion_matrix(y_hat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """4x4 counts; entry (g, p) = pixels of ground truth g predicted p."""
    if y_hat.shape != y.shape:
        raise ValueError(f"shape mismatch: prediction {y_hat.shape} vs labels {y.shape}")
    check_labels(y_hat)
    check_labels(y)
    joint = (y.reshape(-1) * N_CLASSES + y_hat.reshape(-1)).astype(np.int64)
    return np.bincount(joint, minlength=N_CLASSES * N_CLASSES).reshape(N_CLASSES, N_CLASSES)


def metrics_from_confusion(conf: np.ndarray) -> dict:
    total = conf.sum()
    tp = np.diag(conf).astype(np.float64)
    # ground truth + predicted pixels = 2tp + fp + fn, F1's denominator; a
    # class is present where it is positive.  Every term is an exact integer.
    gt_pred = (conf.sum(axis=1) + conf.sum(axis=0)).astype(np.float64)
    present = gt_pred > 0
    tp, gt_pred = tp[present], gt_pred[present]
    return {
        "miou": float(np.mean(tp / (gt_pred - tp))),
        "f1": float(np.mean(2 * tp / gt_pred)),
        "e1": float(np.mean((gt_pred - 2 * tp) / total)),
        "acc": float(tp.sum() / total),
    }
