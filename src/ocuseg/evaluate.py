"""Selective-prediction evaluation: score-ranked filtering, accept/reject,
pupil centroids, and uncertainty-weighted gaze fusion.

Filtering ranks images by uncertainty score (descending, ties broken by
sample id ascending), drops the top p%, and recomputes MIoU on the
aggregate confusion of the retained images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import metrics_from_confusion


@dataclass(frozen=True)
class FilterResult:
    """One row of the filtering table; ``asdict`` of it is the report row."""
    pct: float
    retained_count: int
    retained_miou: float


def rank_and_filter(sample_ids: list[str], scores: list[float],
                    confusions: list[np.ndarray],
                    pcts: list[float]) -> list[FilterResult]:
    """Drop the highest-scoring p% per threshold and re-aggregate MIoU."""
    n = len(sample_ids)
    if not (n == len(scores) == len(confusions)):
        raise ValueError("sample_ids, scores, and confusions must align")
    order = sorted(range(n), key=lambda i: (-scores[i], sample_ids[i]))
    results = []
    for pct in pcts:
        if not 0.0 <= pct < 100.0:
            raise ValueError(f"filter percentage must be in [0, 100) "
                             f"(100% retains no images), got {pct}")
        keep = math.ceil((1.0 - pct / 100.0) * n)
        if keep <= 0:
            raise ValueError(f"filtering at {pct}% retains no images")
        retained = order[n - keep:]
        agg = np.zeros_like(confusions[0])
        for i in retained:
            agg += confusions[i]
        results.append(FilterResult(pct=pct, retained_count=keep,
                                    retained_miou=metrics_from_confusion(agg)["miou"]))
    return results


def threshold_decision(s_unc: float, tau: float) -> str:
    """Reject iff the score exceeds tau (boundary accepts)."""
    return "reject" if s_unc > tau else "accept"


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
    """Spearman rank correlation with average ranks for ties."""
    def ranks(a: np.ndarray) -> np.ndarray:
        order = np.argsort(a, kind="stable")
        r = np.empty(len(a))
        sorted_a = a[order]
        i = 0
        while i < len(a):
            j = i
            while j + 1 < len(a) and sorted_a[j + 1] == sorted_a[i]:
                j += 1
            r[order[i:j + 1]] = (i + j) / 2.0 + 1.0
            i = j + 1
        return r

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt((rx ** 2).sum() * (ry ** 2).sum())
    return float((rx * ry).sum() / denom) if denom > 0 else 0.0
