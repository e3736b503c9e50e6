"""Procedural eye-image rendering, corruptions, and dataset generation.

A frame is a grayscale float64 image in [0, 1] with a 4-class label map:
0 background/skin, 1 eye (sclera), 2 iris, 3 pupil.  Regions are nested
rotated ellipses sharing a center; a pixel's label is the innermost region
containing its center.  The background carries smooth value noise plus
sparse dark speckles, which keeps the darkest 5% of pixels dominated by
the pupil blob (what the heuristic detector thresholds on) without forming
large connected clumps.

Frame geometry is separable: each coordinate is an ``[H, 1]`` column or a
``[W]`` row that broadcasting expands, and the rotated ellipse offsets are
computed once per frame for all three region masks and the iris gradient.

Images are quantized to the 1/255 grid at the end of every generation op,
so the PGM container round-trips bit-exactly.  Motion blur adds one shifted
view of the zero-padded 8-bit levels per tap of a digital line; the sums
are integers, so they are exact in any order, and no BLAS call is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# no caller here: bench/attribution.py traces conv2d under this module's name
from .layers import conv2d
from .rng import Rng
CORRUPTION_KINDS = ("blur", "occlusion", "domain_shift")


@dataclass(frozen=True)
class SceneParams:
    eye_center: tuple[float, float]          # (row, col), pixels
    eye_axes: tuple[float, float]            # (semi-major, semi-minor)
    iris_axes: tuple[float, float]
    pupil_axes: tuple[float, float]
    rotation: float                          # radians
    intensities: tuple[float, float, float, float]   # per class 0..3
    texture_seed: int


@dataclass(frozen=True)
class Corruption:
    kind: str                                # blur | occlusion | domain_shift
    severity: float                          # in [0, 1]


@dataclass
class Sample:
    image: np.ndarray                        # [H,W] float64 in [0,1], on 1/255 grid
    labels: np.ndarray                       # [H,W] int64 in {0,1,2,3}
    gt_bbox: tuple[int, int, int, int]       # (l, t, h, w)
    severity: float
    domain_id: str
    sample_id: str
    corruption: str = "none"


def levels8(img: np.ndarray) -> np.ndarray:
    """The 8-bit levels 0..255 (as float64) that the dataset container stores."""
    return np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5)


def quantize8(img: np.ndarray) -> np.ndarray:
    """Snap to the 8-bit grid used by the dataset container."""
    return levels8(img) / 255.0


def _ellipse_q(u: np.ndarray, v: np.ndarray, axes: tuple[float, float]) -> np.ndarray:
    """Squared normalized radius ``(u/a)**2 + (v/b)**2`` at rotated offsets
    ``(u, v)``; the ellipse is the set ``q <= 1``.  A non-positive axis makes
    an empty ellipse (``q`` is ``inf`` everywhere) without dividing by it."""
    a, b = axes
    if a <= 0.0 or b <= 0.0:
        return np.full(np.broadcast_shapes(u.shape, v.shape), np.inf)
    return (u / a) ** 2 + (v / b) ** 2


def _ellipse_extent(axes: tuple[float, float], rot: float) -> tuple[float, float]:
    """Half-extents (row, col) of the axis-aligned bounding box."""
    a, b = axes
    co, si = math.cos(rot), math.sin(rot)
    ey = math.sqrt((a * si) ** 2 + (b * co) ** 2)
    ex = math.sqrt((a * co) ** 2 + (b * si) ** 2)
    return ey, ex


def _smooth_noise(h: int, w: int, rng: Rng, cell: int = 12) -> np.ndarray:
    """Value noise in [-1, 1]: coarse random grid, bilinearly interpolated."""
    gh, gw = h // cell + 2, w // cell + 2
    grid = rng.uniform_array(gh * gw, -1.0, 1.0).reshape(gh, gw)
    rr = np.arange(h) / cell
    cc = np.arange(w) / cell
    r0 = rr.astype(np.int64)
    c0 = cc.astype(np.int64)
    fr = (rr - r0)[:, None]
    fc = cc - c0
    # weight the coarse rows, then gather columns: the same products, summed
    # in the same order, as gathering the four corners over the whole frame
    top = grid[r0] * (1 - fr)
    bot = grid[r0 + 1] * fr
    return (top[:, c0] * (1 - fc) + top[:, c0 + 1] * fc
            + bot[:, c0] * (1 - fc) + bot[:, c0 + 1] * fc)


def render_eye(params: SceneParams, h_full: int, w_full: int, rng: Rng,
               sample_id: str = "") -> Sample:
    """Rasterize a labeled eye frame; deterministic given (params, rng seed)."""
    if h_full < 64 or w_full < 64:
        raise ValueError(f"frame must be at least 64x64, got {h_full}x{w_full}")
    for inner, outer, names in ((params.pupil_axes, params.iris_axes, "pupil/iris"),
                                (params.iris_axes, params.eye_axes, "iris/eye")):
        if not (inner[0] < outer[0] and inner[1] < outer[1]):
            raise ValueError(f"ellipse nesting violated ({names}): {inner} vs {outer}")
    cr, cc_ = params.eye_center
    ey, ex = _ellipse_extent(params.eye_axes, params.rotation)
    if cr - ey < 0 or cr + ey > h_full - 1 or cc_ - ex < 0 or cc_ + ex > w_full - 1:
        raise ValueError(
            f"eye ellipse exceeds {h_full}x{w_full} frame: center {params.eye_center}, "
            f"extent ({ey:.1f}, {ex:.1f})")

    tex = rng.derive(params.texture_seed)
    # pixel-center offsets from the eye center, rotated into the ellipse frame
    dr = (np.arange(h_full, dtype=np.float64) + 0.5 - cr)[:, None]
    dc = np.arange(w_full, dtype=np.float64) + 0.5 - cc_
    co, si = math.cos(params.rotation), math.sin(params.rotation)
    u = co * dc + si * dr
    v = -si * dc + co * dr
    q_iris = _ellipse_q(u, v, params.iris_axes)
    in_eye = _ellipse_q(u, v, params.eye_axes) <= 1.0
    in_iris = q_iris <= 1.0
    in_pupil = _ellipse_q(u, v, params.pupil_axes) <= 1.0

    labels = np.zeros((h_full, w_full), dtype=np.int64)
    labels[in_eye] = 1
    labels[in_iris] = 2
    labels[in_pupil] = 3

    skin, sclera, iris_base, pupil_val = params.intensities
    img = np.full((h_full, w_full), skin)
    img += 0.04 * _smooth_noise(h_full, w_full, tex)

    # sparse dark speckle grain, background only: anchors the detector's
    # 5th-percentile threshold below the iris intensity range
    grain = tex.uniform_array(h_full * w_full).reshape(h_full, w_full)
    speck = (grain < 0.05) & ~in_eye
    img[speck] = 0.08 + (0.24 - 0.08) * (grain[speck] / 0.05)

    img[in_eye] = sclera
    # radial gradient on the iris: dark near the pupil, brighter at the rim;
    # the 0.75-0.95x band keeps iris values above the speckle range and
    # below skin, so region intensities stay separable on clean frames
    img[in_iris] = iris_base * (0.75 + 0.20 * np.sqrt(q_iris[in_iris]))
    img[in_pupil] = pupil_val
    img += 0.015 * _smooth_noise(h_full, w_full, tex, cell=5)

    l = max(0, int(math.floor(cc_ - 1.1 * ex)))
    t = max(0, int(math.floor(cr - 1.1 * ey)))
    r_excl = min(w_full, int(math.ceil(cc_ + 1.1 * ex)) + 1)
    b_excl = min(h_full, int(math.ceil(cr + 1.1 * ey)) + 1)
    bbox = (l, t, b_excl - t, r_excl - l)

    return Sample(image=quantize8(img), labels=labels, gt_bbox=bbox,
                  severity=0.0, domain_id="clean", sample_id=sample_id)


def sample_scene_params(h_full: int, w_full: int, rng: Rng) -> SceneParams:
    """Draw scene parameters; the eye spans 40-70% of the short frame side."""
    m = min(h_full, w_full)
    a = rng.uniform(0.24, 0.34) * m
    b = a * rng.uniform(0.75, 0.95)
    rot = rng.uniform(-0.25, 0.25)
    iris_f = rng.uniform(0.58, 0.70)
    pupil_f = rng.uniform(0.55, 0.65)
    ey, ex = _ellipse_extent((a, b), rot)
    mr, mc = 1.15 * ey, 1.15 * ex
    cr = rng.uniform(mr, h_full - 1 - mr)
    cc = rng.uniform(mc, w_full - 1 - mc)
    intensities = (rng.uniform(0.50, 0.60), rng.uniform(0.80, 0.90),
                   rng.uniform(0.36, 0.44), rng.uniform(0.02, 0.06))
    return SceneParams(eye_center=(cr, cc), eye_axes=(a, b),
                       iris_axes=(a * iris_f, b * iris_f),
                       pupil_axes=(a * iris_f * pupil_f, b * iris_f * pupil_f),
                       rotation=rot, intensities=intensities,
                       texture_seed=rng.u64())


# ---------------------------------------------------------------------------
# corruptions
# ---------------------------------------------------------------------------

def motion_blur_kernel(length: int, angle: float) -> list[tuple[int, int]]:
    """The ``length`` distinct ``(row, col)`` tap offsets of a digital line
    through the origin at ``angle``, each within ``length // 2`` of it; the
    blur weighs every tap by ``1 / length``."""
    dy, dx = math.sin(angle), math.cos(angle)
    major = [k - (length - 1) // 2 for k in range(length)]
    if abs(dx) >= abs(dy):
        slope = dy / dx
        return [(int(math.floor(u * slope + 0.5)), u) for u in major]
    slope = dx / dy
    return [(u, int(math.floor(u * slope + 0.5))) for u in major]


def _blur(sample: Sample, severity: float, rng: Rng) -> Sample:
    """Motion blur by a random-angle line of ``length`` taps: the sum ``S`` of
    the image's 8-bit levels under the taps, one shifted view of the
    zero-padded levels per tap, is exact in any summation order, and
    ``floor(S / length + 0.5) / 255`` is ``quantize8`` of the exact blur."""
    length = 1 + int(round(14.0 * severity))
    angle = rng.uniform(0.0, math.pi)
    h, w = sample.image.shape
    r = length // 2
    padded = np.pad(levels8(sample.image), r)
    sums = np.zeros((h, w))
    for di, dj in motion_blur_kernel(length, angle):
        sums += padded[r + di:r + di + h, r + dj:r + dj + w]
    return replace(sample, image=np.floor(sums / length + 0.5) / 255.0)


def _occlude(sample: Sample, severity: float) -> Sample:
    l, t, h, w = sample.gt_bbox
    img = sample.image.copy()
    labels = sample.labels.copy()
    skin = float(np.median(img[labels == 0])) if np.any(labels == 0) else 0.55
    cols = np.arange(img.shape[1], dtype=np.float64)
    rel = (cols - (l + w / 2.0)) / (w / 2.0)
    # eyelid depth: deepest mid-eye, exactly h/2 at the box edges when
    # severity is 1, tapering to nothing outside |rel| = sqrt(3)
    depth = severity * h * np.maximum(0.0, 0.75 - 0.25 * rel ** 2)
    rows = np.arange(img.shape[0], dtype=np.float64)
    covered = rows[:, None] < (t + depth)[None, :]
    img[covered] = skin
    labels[covered] = 0
    return replace(sample, image=quantize8(img), labels=labels)


def gamma_correct(image: np.ndarray, gamma: float) -> np.ndarray:
    """Pixelwise v ** gamma on [0, 1]."""
    if gamma <= 0.0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    return np.clip(image, 0.0, 1.0) ** gamma


def _domain_shift(sample: Sample, severity: float, rng: Rng) -> Sample:
    gamma = rng.uniform(max(0.05, 1.0 - 0.6 * severity), 1.0 + 0.6 * severity)
    contrast = rng.uniform(1.0 - 0.35 * severity, 1.0 + 0.35 * severity)
    img = 0.5 + contrast * (gamma_correct(sample.image, gamma) - 0.5)
    h, wd = img.shape
    rr = ((np.arange(h) - h / 2) / (h / 2))[:, None]
    cc = (np.arange(wd) - wd / 2) / (wd / 2)
    img *= 1.0 - 0.35 * severity * (rr ** 2 + cc ** 2) / 2.0
    img += rng.normal_array(img.size, 0.0, 0.08 * severity).reshape(img.shape)
    return replace(sample, image=quantize8(img))


def apply_corruption(sample: Sample, c: Corruption, rng: Rng) -> Sample:
    """Degrade a sample; severity 0 is the bit-exact identity for all kinds."""
    if not (0.0 <= c.severity <= 1.0):
        raise ValueError(f"severity must be in [0,1], got {c.severity}")
    if c.kind not in CORRUPTION_KINDS:
        raise ValueError(f"unknown corruption kind {c.kind!r}")
    if c.severity == 0.0:
        return replace(sample, corruption=c.kind, severity=0.0)
    if c.kind == "blur":
        out = _blur(sample, c.severity, rng)
    elif c.kind == "occlusion":
        out = _occlude(sample, c.severity)
    else:
        out = _domain_shift(sample, c.severity, rng)
    return replace(out, corruption=c.kind, severity=c.severity, domain_id=c.kind)


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------

def generate_dataset(n: int, seed: int, kinds: list[str] | None = None,
                     sev_range: tuple[float, float] = (0.0, 0.0),
                     h_full: int = 120, w_full: int = 160) -> list[Sample]:
    """Render ``n`` samples; corruption kinds cycle, severity drawn per sample.

    ``kinds`` entries are corruption names or "none"; each sample derives its
    own generator stream from (seed, index), so the set is reproducible
    regardless of generation order.
    """
    kinds = kinds or ["none"]
    for k in kinds:
        if k != "none" and k not in CORRUPTION_KINDS:
            raise ValueError(f"unknown corruption kind {k!r}")
    root = Rng(seed)
    out = []
    for i in range(n):
        r = root.derive(f"sample/{i}")
        params = sample_scene_params(h_full, w_full, r)
        s = render_eye(params, h_full, w_full, r, sample_id=f"s{i:06d}")
        kind = kinds[i % len(kinds)]
        if kind != "none":
            sev = r.uniform(sev_range[0], sev_range[1])
            s = apply_corruption(s, Corruption(kind, sev), r)
        out.append(s)
    return out
