"""Eye localization on uint8 frames: dark-blob detector, box jitter, crop+resize."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MIN_SIDE
from .rng import Rng
from .synth import Sample, levels8
from .warp import resize_bilinear, resize_nearest

# the largest shift and rescale of a jittered box, as a fraction of its size
BBOX_JITTER = 0.10


@dataclass(frozen=True)
class BBox:
    l: int
    t: int
    h: int
    w: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.l, self.t, self.h, self.w)


def box_fits(box: tuple[int, int, int, int], frame_h: int, frame_w: int) -> bool:
    """Whether ``box`` (l, t, h, w) has a positive size and lies inside a
    ``frame_h`` x ``frame_w`` frame."""
    l, t, h, w = box
    return l >= 0 and t >= 0 and h > 0 and w > 0 and t + h <= frame_h and l + w <= frame_w


def iou(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> float:
    al, at, ah, aw = a
    bl, bt, bh, bw = b
    ix = max(0, min(al + aw, bl + bw) - max(al, bl))
    iy = max(0, min(at + ah, bt + bh) - max(at, bt))
    inter = ix * iy
    union = ah * aw + bh * bw - inter
    return inter / union if union > 0 else 0.0


def _largest_component(mask: np.ndarray) -> np.ndarray:
    """Flat positions, ascending, of the largest 4-connected True component
    of ``mask``; empty when ``mask`` has no True pixel.

    4-connected union-find labeling of the True pixels, numbered in
    row-major order: every edge hooks its larger root onto its smaller one
    and pointer jumping flattens the trees, until each edge joins equal
    roots.  Each label is then its component's first pixel, so ``argmax``
    (first maximum) keeps the earliest of equal-size components.
    """
    pos = np.flatnonzero(mask)
    n = pos.size
    if n == 0:
        return pos
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
    return pos[lab == np.argmax(np.bincount(lab))]


def _dark_level(image: np.ndarray) -> int:
    """The 8-bit level ``t`` for which ``image < t`` marks the same pixels as
    ``image < np.quantile(image, 0.05)``, from the frame's 256-level
    histogram.

    ``np.quantile``'s default (linear) rule reads the sorted values ``v`` at
    the index ``i = (n - 1) * 0.05``: it is ``v[i]`` when ``i`` is an
    integer or ``v[floor(i)] == v[floor(i) + 1]``, and otherwise a value in
    ``(v[floor(i)], v[floor(i) + 1]]``, where no 8-bit level lies strictly
    inside, so the pixels below it are those at most ``v[floor(i)]``.  (Its
    float interpolation stays above ``v[floor(i)]``: ``(n - 1) / 20`` is an
    integer or at least 1/20 away from one, so the fraction of ``i`` is 0 or
    about 1/20 or more.)
    """
    i = (image.size - 1) * 0.05         # the index np.quantile computes, in float64
    lo = int(i)
    at_most = np.cumsum(np.bincount(image.reshape(-1), minlength=256))
    level = int(np.searchsorted(at_most, lo, side="right"))     # v[lo]
    return level + 1 if i > lo and at_most[level] == lo + 1 else level


def _clamp_box(l: int, t: int, h: int, w: int, frame_h: int, frame_w: int) -> BBox:
    h = min(h, frame_h)
    w = min(w, frame_w)
    l = max(0, min(l, frame_w - w))
    t = max(0, min(t, frame_h - h))
    return BBox(l, t, h, w)


def detect_eye_heuristic(image: np.ndarray) -> BBox:
    """Locate the eye in a 2-D uint8 frame from the dark pupil blob.

    Marks the pixels below the frame's 5th intensity percentile (the level
    ``_dark_level`` reads off its 256-level histogram), takes the largest
    4-connected component, and returns a square box of side 3x the blob's
    bounding extent (clamped to [32, min frame side]), centered on the blob
    centroid.  Falls back to a centered box of side 0.75 * min(H, W) when
    no component exceeds 20 pixels.  Raises ValueError on a frame that is
    not 2-D uint8 or is smaller than MIN_SIDE x MIN_SIDE (64x64).
    """
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError(f"expected a 2-D uint8 frame, got {image.ndim}-D {image.dtype}")
    fh, fw = image.shape
    if fh < MIN_SIDE or fw < MIN_SIDE:
        raise ValueError(f"frame must be at least {MIN_SIDE}x{MIN_SIDE}, got {fh}x{fw}")
    # strictly below: a constant frame yields no blob and takes the fallback
    blob = _largest_component(image < _dark_level(image))
    if blob.size <= 20:
        side = int(round(0.75 * min(fh, fw)))
        return _clamp_box((fw - side) // 2, (fh - side) // 2, side, side, fh, fw)
    # the positions ascend, so rows and cols are np.nonzero's of the blob mask
    rows, cols = np.divmod(blob, fw)
    cy, cx = rows.mean(), cols.mean()
    extent = max(rows.max() - rows.min() + 1, cols.max() - cols.min() + 1)
    side = int(round(3.0 * extent))
    side = max(32, min(side, min(fh, fw)))
    return _clamp_box(int(round(cx - side / 2)), int(round(cy - side / 2)),
                      side, side, fh, fw)


def jitter_gt_bbox(gt: tuple[int, int, int, int], rng: Rng,
                   frame_h: int, frame_w: int) -> BBox:
    """Perturb a ground-truth (l, t, h, w) box by up to ``BBOX_JITTER`` of its size."""
    l, t, h, w = gt
    scale = 1.0 + rng.uniform(-BBOX_JITTER, BBOX_JITTER)
    dl = rng.uniform(-BBOX_JITTER, BBOX_JITTER) * w
    dt = rng.uniform(-BBOX_JITTER, BBOX_JITTER) * h
    nw = max(16, int(round(w * scale)))
    nh = max(16, int(round(h * scale)))
    nl = int(round(l + dl + (w - nw) / 2))
    nt = int(round(t + dt + (h - nh) / 2))
    return _clamp_box(nl, nt, nh, nw, frame_h, frame_w)


def _cut(frame: np.ndarray, bbox: BBox) -> np.ndarray:
    """The view of ``frame`` inside ``bbox``; raises ValueError when the box
    does not fit the frame."""
    l, t, h, w = bbox.as_tuple()
    if not box_fits((l, t, h, w), *frame.shape):
        raise ValueError(f"bbox {(l, t, h, w)} outside {'x'.join(map(str, frame.shape))} frame")
    return frame[t:t + h, l:l + w]


def crop_labels(labels: np.ndarray, bbox: BBox, h_out: int, w_out: int) -> np.ndarray:
    """A label map cropped to ``bbox`` and resized nearest-neighbor to ``h_out`` x
    ``w_out``, in its dtype; raises ValueError when the box does not fit it."""
    return resize_nearest(_cut(labels, bbox), h_out, w_out)


def crop_resize(sample: Sample, bbox: BBox, h_out: int, w_out: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """The sample's frame and labels cropped to ``bbox`` and resized to
    ``h_out`` x ``w_out``: the image bilinear over intensities in [0, 1],
    snapped to the 1/255 grid (float64), the labels by ``crop_labels``;
    raises ValueError when the box does not fit the frame."""
    labels = crop_labels(sample.labels, bbox, h_out, w_out)
    img = resize_bilinear(_cut(sample.image, bbox) / 255.0, h_out, w_out)
    return levels8(img) / 255.0, labels
