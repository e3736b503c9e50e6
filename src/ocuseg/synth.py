"""Procedural eye-image rendering, corruptions, and dataset generation.

A frame is a grayscale image of 8-bit levels with a 4-class label map, both
uint8 as the PGM container stores them: 0 background/skin, 1 eye (sclera),
2 iris, 3 pupil.  Regions are nested rotated ellipses sharing a center; a
pixel's label is the innermost region containing its center.  The background
carries smooth value noise plus sparse dark speckles, which keeps the darkest
5% of pixels dominated by the pupil blob (what the heuristic detector
thresholds on) without forming large connected clumps.

Frame geometry is separable: each coordinate is an ``[H, 1]`` column or a
``[W]`` row that broadcasting expands, and the rotated ellipse offsets are
computed once per frame for all three region masks and the iris gradient.
They are computed only inside the eye's window, its axis-aligned bounding
box widened by more than one pixel on each side and clamped to the frame,
and that is exact.  A pixel inside the window gets the offsets and squared
radii ``q`` that the full frame would, element for element.  A pixel outside
lies at least ``e + 1.5`` pixels from the center along a row or column where
the eye's half-extent is ``e``; the ellipse ``q <= s**2`` has half-extent
``s * e``, so there ``q >= (1 + 1.5 / e)**2``: above 1.001 even for an eye
spanning a 4096-pixel frame, far beyond the rounding of ``q``.  The iris and
pupil nest inside the eye with smaller axes, so their ``q`` is larger still.

Rendering and domain shift compute on intensities ``levels / 255`` and round
back to levels (``levels8``).  Motion blur adds one shifted view of the
zero-padded levels per tap of a digital line; the sums are integers, so they
are exact in any order, and no BLAS call is made.

What depends only on the frame size, or only on the 8-bit level, is done
once rather than per pixel, with the same operations on the same values, so
every output bit is unchanged.  The value-noise interpolation indices and
weights are cached per ``(h, w, cell)``, and domain shift's vignette radii
per ``(h, w)``, read-only.  A frame's levels take one of 256 values:
occlusion reads the background's median off their histogram (``np.median``
of an even count is the mean of its two middle values, which the histogram
gives too) and leaves uncovered pixels' levels as they are (``levels8(v /
255)`` is ``v`` for every level); domain shift evaluates its gamma and
contrast on the 256 levels and indexes that table by the frame (the
elementwise forms give each element the same result whatever the array's
length, which the tests check).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .config import MIN_SIDE
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


class BBox(NamedTuple):
    """A box in frame pixels: left column, top row, height, width."""
    l: int
    t: int
    h: int
    w: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        # no caller in src: bench/attribution.py still calls it
        return tuple(self)


@dataclass
class Sample:
    image: np.ndarray                        # [H,W] uint8 8-bit levels
    labels: np.ndarray                       # [H,W] uint8 in {0,1,2,3}
    gt_bbox: BBox
    severity: float
    domain_id: str
    sample_id: str
    corruption: str = "none"


def levels8(img: np.ndarray) -> np.ndarray:
    """The nearest 8-bit levels (uint8) of intensities in [0, 1]."""
    return np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


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


@functools.lru_cache(maxsize=4)
def _noise_geometry(h: int, w: int, cell: int) -> tuple[np.ndarray, ...]:
    """Read-only interpolation geometry of an ``h`` x ``w`` value-noise field
    on a ``cell``-pixel grid: the coarse rows ``r0``, ``r0 + 1`` of each
    frame row with their weights ``1 - fr``, ``fr`` (``[h]``), and the coarse
    columns ``c0``, ``c0 + 1`` of each frame column with their weights
    ``1 - fc``, ``fc`` spread over the transposed frame (``[w, h]``), where a
    multiply by a full array runs faster than one broadcasting a column."""
    rr = np.arange(h) / cell
    cc = np.arange(w) / cell
    r0 = rr.astype(np.int64)
    c0 = cc.astype(np.int64)
    fr = rr - r0
    fc = (cc - c0)[:, None]
    geometry = (r0, r0 + 1, 1 - fr, fr, c0, c0 + 1,
                np.broadcast_to(1 - fc, (w, h)).copy(), np.broadcast_to(fc, (w, h)).copy())
    for a in geometry:
        a.flags.writeable = False
    return geometry


def _smooth_noise(h: int, w: int, rng: Rng, cell: int = 12) -> np.ndarray:
    """Value noise in [-1, 1]: coarse random grid, bilinearly interpolated."""
    gh, gw = h // cell + 2, w // cell + 2
    grid = rng.uniform_array(gh * gw, -1.0, 1.0).reshape(gh, gw)
    r0, r1, gr, fr, c0, c1, gc, fc = _noise_geometry(h, w, cell)
    # on the transposed frame [w, h]: weight the coarse rows, then gather
    # whole rows of the coarse columns, the same products summed in the same
    # order as gathering the four corners over the whole frame; each corner
    # goes through one scratch array (the indices are in range, so
    # mode="clip" only spares np.take its bounds-check buffer)
    top = np.take(grid.T, r0, axis=1) * gr
    bot = np.take(grid.T, r1, axis=1) * fr
    out = np.take(top, c0, axis=0, mode="clip")
    out *= gc
    part = np.empty_like(out)
    for rows, cols, weight in ((top, c1, fc), (bot, c0, gc), (bot, c1, fc)):
        np.take(rows, cols, axis=0, out=part, mode="clip")
        part *= weight
        out += part
    return np.ascontiguousarray(out.T)


def render_eye(params: SceneParams, h_full: int, w_full: int, rng: Rng,
               sample_id: str = "") -> Sample:
    """Rasterize a labeled eye frame; deterministic given (params, rng seed).

    The ellipse geometry is evaluated only in the eye's window, and the
    sclera, iris-gradient and pupil fills index it; outside it every label is
    0 and the frame keeps its background, exactly as the full-frame
    evaluation would give (see the module docstring for why)."""
    if h_full < MIN_SIDE or w_full < MIN_SIDE:
        raise ValueError(f"frame must be at least {MIN_SIDE}x{MIN_SIDE}, got {h_full}x{w_full}")
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
    # the eye's window: its bounding box widened by more than one pixel on
    # each side, clamped to the frame; every pixel outside it lies outside
    # all three ellipses (see the module docstring)
    r0, r1 = max(0, math.floor(cr - ey) - 1), min(h_full, math.ceil(cr + ey) + 1)
    c0, c1 = max(0, math.floor(cc_ - ex) - 1), min(w_full, math.ceil(cc_ + ex) + 1)
    # pixel-center offsets from the eye center, rotated into the ellipse frame
    dr = (np.arange(r0, r1, dtype=np.float64) + 0.5 - cr)[:, None]
    dc = np.arange(c0, c1, dtype=np.float64) + 0.5 - cc_
    co, si = math.cos(params.rotation), math.sin(params.rotation)
    u = co * dc + si * dr
    v = -si * dc + co * dr
    q_iris = _ellipse_q(u, v, params.iris_axes)
    in_eye = _ellipse_q(u, v, params.eye_axes) <= 1.0
    in_iris = q_iris <= 1.0
    in_pupil = _ellipse_q(u, v, params.pupil_axes) <= 1.0

    # the regions are strictly nested: a label counts those holding the pixel
    labels = np.zeros((h_full, w_full), dtype=np.uint8)
    labels[r0:r1, c0:c1] = in_eye.astype(np.uint8) + in_iris + in_pupil

    skin, sclera, iris_base, pupil_val = params.intensities
    img = _smooth_noise(h_full, w_full, tex)
    img *= 0.04
    img += skin

    # sparse dark speckle grain, background only: anchors the detector's
    # 5th-percentile threshold below the iris intensity range
    grain = tex.uniform_array(h_full * w_full).reshape(h_full, w_full)
    speck = grain < 0.05
    speck[r0:r1, c0:c1] &= ~in_eye
    img[speck] = 0.08 + (0.24 - 0.08) * (grain[speck] / 0.05)

    eye = img[r0:r1, c0:c1]
    eye[in_eye] = sclera
    # radial gradient on the iris: dark near the pupil, brighter at the rim;
    # the 0.75-0.95x band keeps iris values above the speckle range and
    # below skin, so region intensities stay separable on clean frames
    eye[in_iris] = iris_base * (0.75 + 0.20 * np.sqrt(q_iris[in_iris]))
    eye[in_pupil] = pupil_val
    fine = _smooth_noise(h_full, w_full, tex, cell=5)
    fine *= 0.015
    img += fine

    l = max(0, int(math.floor(cc_ - 1.1 * ex)))
    t = max(0, int(math.floor(cr - 1.1 * ey)))
    r_excl = min(w_full, int(math.ceil(cc_ + 1.1 * ex)) + 1)
    b_excl = min(h_full, int(math.ceil(cr + 1.1 * ey)) + 1)
    bbox = BBox(l, t, b_excl - t, r_excl - l)

    return Sample(image=levels8(img), labels=labels, gt_bbox=bbox,
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
    the image's levels under the taps, one shifted view of the zero-padded
    levels per tap, is exact in any summation order, and
    ``floor(S / length + 0.5)`` is the nearest level to the exact blur."""
    length = 1 + int(round(14.0 * severity))
    angle = rng.uniform(0.0, math.pi)
    h, w = sample.image.shape
    r = length // 2
    padded = np.pad(sample.image, r)
    sums = np.zeros((h, w), dtype=np.uint16)      # at most 15 * 255
    for di, dj in motion_blur_kernel(length, angle):
        sums += padded[r + di:r + di + h, r + dj:r + dj + w]
    return replace(sample, image=np.floor(sums / length + 0.5).astype(np.uint8))


def _background_level(image: np.ndarray, labels: np.ndarray) -> float:
    """``np.median(image[labels == 0] / 255.0)``, read off the 256-bin
    histogram of the background levels (0.55 when there is no background):
    the middle level ``v`` of an odd count gives ``v / 255.0``, and the two
    middle levels ``a``, ``b`` of an even count give the mean of their
    intensities, ``(a / 255.0 + b / 255.0) / 2.0``, as ``np.median`` does."""
    counts = np.cumsum(np.bincount(image[labels == 0], minlength=256))
    n = int(counts[-1])
    if n == 0:
        return 0.55
    # the level of the k-th smallest value (from 0) is the first whose
    # cumulative count exceeds k
    b = int(np.searchsorted(counts, n // 2, side="right"))
    if n % 2:
        return b / 255.0
    a = int(np.searchsorted(counts, n // 2 - 1, side="right"))
    return (a / 255.0 + b / 255.0) / 2.0


def _occlude(sample: Sample, severity: float) -> Sample:
    """Cover the eye's top with an eyelid of the median background level.
    Uncovered pixels keep their levels: ``levels8(v / 255.0) == v`` for every
    8-bit level ``v``."""
    l, t, h, w = sample.gt_bbox
    image = sample.image.copy()
    labels = sample.labels.copy()
    skin = _background_level(image, labels)
    cols = np.arange(image.shape[1], dtype=np.float64)
    rel = (cols - (l + w / 2.0)) / (w / 2.0)
    # eyelid depth: deepest mid-eye, exactly h/2 at the box edges when
    # severity is 1, tapering to nothing outside |rel| = sqrt(3)
    depth = severity * h * np.maximum(0.0, 0.75 - 0.25 * rel ** 2)
    rows = np.arange(image.shape[0], dtype=np.float64)
    covered = rows[:, None] < (t + depth)[None, :]
    image[covered] = levels8(np.float64(skin))
    labels[covered] = 0
    return replace(sample, image=image, labels=labels)


def _shift_table(gamma: float, contrast: float) -> np.ndarray:
    """The gamma and contrast shift of each 8-bit level's intensity, ``[256]``:
    indexing it by a frame gives, element for element, the same operations
    on the same values as shifting the frame's intensities."""
    return 0.5 + contrast * ((np.arange(256) / 255.0) ** gamma - 0.5)


@functools.lru_cache(maxsize=4)
def _vignette_radius(h: int, w: int) -> np.ndarray:
    """Read-only squared radius ``rr ** 2 + cc ** 2`` of each pixel of an
    ``h`` x ``w`` frame, each axis measured from the frame's centre in units
    of its half-size, ``[h, w]``."""
    rr = ((np.arange(h) - h / 2) / (h / 2))[:, None]
    cc = (np.arange(w) - w / 2) / (w / 2)
    radius = rr ** 2 + cc ** 2
    radius.flags.writeable = False
    return radius


def _domain_shift(sample: Sample, severity: float, rng: Rng) -> Sample:
    gamma = rng.uniform(max(0.05, 1.0 - 0.6 * severity), 1.0 + 0.6 * severity)
    contrast = rng.uniform(1.0 - 0.35 * severity, 1.0 + 0.35 * severity)
    img = np.take(_shift_table(gamma, contrast), sample.image)
    img *= 1.0 - 0.35 * severity * _vignette_radius(*img.shape) / 2.0
    img += rng.normal_array(img.size, 0.0, 0.08 * severity).reshape(img.shape)
    return replace(sample, image=levels8(img))


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
