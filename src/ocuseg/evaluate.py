"""Selective-prediction evaluation: the report with score-ranked filtering,
pupil centroids, and uncertainty-weighted gaze fusion.

Filtering ranks images by uncertainty score (descending, ties broken by
sample id ascending), drops the top p%, and recomputes MIoU on the
aggregate confusion of the retained images: risk against coverage.  No
fixed score threshold carries over, as ``s_unc``'s scale moves with the crop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import metrics_from_confusion


def rank_and_filter(sample_ids: list[str], scores: list[float],
                    confusions: list[np.ndarray], pcts: list[float]) -> list[dict]:
    """Drop the highest-scoring p% per threshold and re-aggregate MIoU: one
    report row ``{"pct", "retained_count", "retained_miou"}`` per threshold."""
    n = len(sample_ids)
    if not (n == len(scores) == len(confusions)):
        raise ValueError("sample_ids, scores, and confusions must align")
    order = sorted(range(n), key=lambda i: (-scores[i], sample_ids[i]))
    stacked = np.asarray(confusions)
    results = []
    for pct in pcts:
        if not 0.0 <= pct < 100.0:
            raise ValueError(f"filter percentage must be in [0, 100) "
                             f"(100% retains no images), got {pct}")
        keep = math.ceil((1.0 - pct / 100.0) * n)
        if keep <= 0:
            raise ValueError(f"filtering at {pct}% retains no images")
        # integer counts: the sum is exact in any order
        agg = stacked[order[n - keep:]].sum(axis=0)
        results.append({"pct": pct, "retained_count": keep,
                        "retained_miou": metrics_from_confusion(agg)["miou"]})
    return results


def report(sample_ids: list[str], scores: list[float], confusions: list[np.ndarray],
           pcts: list[float]) -> dict:
    """The evaluation report of scored images, one confusion each:
    ``unfiltered`` MIoU/E1/F1/ACC of the summed confusion, ``per_image``
    rows ``{"id", "s_unc", "miou", "acc"}`` in input order, and
    ``tables.filtering`` from ``rank_and_filter`` at each of ``pcts``."""
    if len(confusions) == 0:
        raise ValueError("a report needs at least one image")
    filtering = rank_and_filter(sample_ids, scores, confusions, pcts)  # checks alignment
    per_image = []
    for sid, s_unc, conf in zip(sample_ids, scores, confusions):
        m = metrics_from_confusion(conf)
        per_image.append({"id": sid, "s_unc": s_unc, "miou": m["miou"], "acc": m["acc"]})
    return {"unfiltered": metrics_from_confusion(sum(confusions)),
            "per_image": per_image,
            "tables": {"filtering": filtering, "ablations": {}}}


def pupil_centroid(y_hat: np.ndarray) -> tuple[float, float] | None:
    """Centroid of class-3 pixels in normalized (u, v) = (col, row) coords;
    None when the prediction contains no pupil."""
    rows, cols = np.nonzero(y_hat == 3)
    if rows.size == 0:
        return None
    h, w = y_hat.shape
    return (float((cols + 0.5).mean() / w), float((rows + 0.5).mean() / h))


@dataclass(frozen=True)
class GazeSample:
    estimate: tuple[float, float]
    s_unc: float
    truth: tuple[float, float]


def fuse_gaze(samples: list[GazeSample], temperature: float) -> tuple[float, float]:
    """Convex combination of estimates with weights softmax(-s_unc / T)."""
    if not samples:
        raise ValueError("fuse_gaze needs at least one estimate")
    if temperature <= 0.0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    s = np.array([g.s_unc for g in samples])
    w = np.exp(-(s - s.min()) / temperature)
    w /= w.sum()
    est = np.array([g.estimate for g in samples])
    fused = w @ est
    return (float(fused[0]), float(fused[1]))


def spearman(x: np.ndarray | list[float], y: np.ndarray | list[float]) -> float:
    """Spearman rank correlation of two equally long sequences of finite
    values, with average ranks for ties: a tie group that ends at 1-based
    sorted position e with c members gets rank e - (c - 1) / 2."""
    def ranks(a: np.ndarray) -> np.ndarray:
        _, group, counts = np.unique(a, return_inverse=True, return_counts=True)
        return (np.cumsum(counts) - (counts - 1) / 2.0)[group]

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y):
        raise ValueError(f"spearman needs equally long inputs, got {len(x)} and {len(y)}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("spearman needs finite values")
    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt((rx ** 2).sum() * (ry ** 2).sum())
    return float((rx * ry).sum() / denom) if denom > 0 else 0.0
