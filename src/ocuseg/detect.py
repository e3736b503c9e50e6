"""Eye localization: heuristic dark-blob detector, box jitter, crop+resize."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .rng import Rng
from .synth import Sample, quantize8
from .warp import resize_bilinear, resize_nearest


@dataclass(frozen=True)
class BBox:
    l: int
    t: int
    h: int
    w: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.l, self.t, self.h, self.w)


def iou(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> float:
    al, at, ah, aw = a
    bl, bt, bh, bw = b
    ix = max(0, min(al + aw, bl + bw) - max(al, bl))
    iy = max(0, min(at + ah, bt + bh) - max(at, bt))
    inter = ix * iy
    union = ah * aw + bh * bw - inter
    return inter / union if union > 0 else 0.0


def _largest_component(mask: np.ndarray) -> np.ndarray | None:
    """Largest 4-connected True component as a boolean mask, or None when
    ``mask`` has no True pixel.

    4-connected union-find labeling of the True pixels, numbered in
    row-major order: every edge hooks its larger root onto its smaller one
    and pointer jumping flattens the trees, until each edge joins equal
    roots.  Each label is then its component's first pixel, so ``argmax``
    (first maximum) keeps the earliest of equal-size components.
    """
    pos = np.flatnonzero(mask)
    n = pos.size
    if n == 0:
        return None
    w = mask.shape[1]
    # flat positions of each horizontal pair's left pixel (k // (w - 1)
    # counts the rows before it; k is empty when w == 1) and of each
    # vertical pair's upper pixel; searchsorted in the sorted ``pos`` turns
    # a flat position into its pixel's number
    k = np.flatnonzero(mask[:, :-1] & mask[:, 1:])
    horiz = k + k // (w - 1)
    vert = np.flatnonzero(mask[:-1] & mask[1:])
    a = np.searchsorted(pos, np.concatenate([horiz, vert]))
    b = np.searchsorted(pos, np.concatenate([horiz + 1, vert + w]))
    lab = np.arange(n)
    while True:
        ra, rb = lab[a], lab[b]
        split = ra != rb
        if not split.any():
            break
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(lab, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = lab[lab]
            if (jumped == lab).all():
                break
            lab = jumped
    out = np.zeros_like(mask)
    out[mask] = lab == np.argmax(np.bincount(lab))
    return out


def _clamp_box(l: int, t: int, h: int, w: int, frame_h: int, frame_w: int) -> BBox:
    h = min(h, frame_h)
    w = min(w, frame_w)
    l = max(0, min(l, frame_w - w))
    t = max(0, min(t, frame_h - h))
    return BBox(l, t, h, w)


def detect_eye_heuristic(image: np.ndarray) -> BBox:
    """Locate the eye from the dark pupil blob.

    Thresholds at the 5th intensity percentile, takes the largest connected
    component, and returns a square box of side 3x the blob's bounding
    extent (clamped to [32, min frame side]), centered on the blob centroid.
    Falls back to a centered box of side 0.75 * min(H, W) when no component
    exceeds 20 pixels.
    """
    fh, fw = image.shape
    if fh < 64 or fw < 64:
        raise ValueError(f"frame must be at least 64x64, got {fh}x{fw}")
    q = np.quantile(image, 0.05)
    # strictly below: a constant frame yields no blob and takes the fallback
    blob = _largest_component(image < q)
    if blob is None or blob.sum() <= 20:
        side = int(round(0.75 * min(fh, fw)))
        return _clamp_box((fw - side) // 2, (fh - side) // 2, side, side, fh, fw)
    rows, cols = np.nonzero(blob)
    cy, cx = rows.mean(), cols.mean()
    extent = max(rows.max() - rows.min() + 1, cols.max() - cols.min() + 1)
    side = int(round(3.0 * extent))
    side = max(32, min(side, min(fh, fw)))
    return _clamp_box(int(round(cx - side / 2)), int(round(cy - side / 2)),
                      side, side, fh, fw)


def jitter_gt_bbox(gt: tuple[int, int, int, int], rng: Rng,
                   max_shift: float, frame_h: int, frame_w: int) -> BBox:
    """Perturb a ground-truth (l, t, h, w) box by up to ``max_shift`` of its size."""
    if not (0.0 <= max_shift <= 0.25):
        raise ValueError(f"max_shift must be in [0, 0.25], got {max_shift}")
    l, t, h, w = gt
    if max_shift == 0.0:
        return _clamp_box(l, t, h, w, frame_h, frame_w)
    scale = 1.0 + rng.uniform(-max_shift, max_shift)
    dl = rng.uniform(-max_shift, max_shift) * w
    dt = rng.uniform(-max_shift, max_shift) * h
    nw = max(16, int(round(w * scale)))
    nh = max(16, int(round(h * scale)))
    nl = int(round(l + dl + (w - nw) / 2))
    nt = int(round(t + dt + (h - nh) / 2))
    return _clamp_box(nl, nt, nh, nw, frame_h, frame_w)


def crop_resize(sample: Sample, bbox: BBox | tuple[int, int, int, int],
                h_out: int, w_out: int) -> Sample:
    """Crop to ``bbox`` and resize: image bilinear, labels nearest-neighbor.

    The crop geometry is recorded in ``sample_id``-keyed metadata by callers;
    here the returned sample keeps the source box in ``gt_bbox`` so
    predictions can be mapped back.
    """
    l, t, h, w = bbox.as_tuple() if isinstance(bbox, BBox) else bbox
    fh, fw = sample.image.shape
    if l < 0 or t < 0 or l + w > fw or t + h > fh or h <= 0 or w <= 0:
        raise ValueError(f"bbox {(l, t, h, w)} outside {fh}x{fw} frame")
    img = sample.image[t:t + h, l:l + w]
    lbl = sample.labels[t:t + h, l:l + w]
    if (h, w) != (h_out, w_out):
        img = resize_bilinear(img, h_out, w_out)
        lbl = resize_nearest(lbl, h_out, w_out)
    return replace(sample, image=quantize8(img), labels=lbl.astype(np.int64),
                   gt_bbox=(l, t, h, w))
