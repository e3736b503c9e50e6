import hashlib
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from ocuseg.cli import main
from ocuseg.layers import conv2d
from ocuseg.rng import Rng
from ocuseg.synth import (Corruption, Sample, SceneParams, _background_level, _blur,
                          _ellipse_extent, _ellipse_q, _noise_geometry, _shift_table,
                          _smooth_noise, apply_corruption, generate_dataset,
                          levels8, motion_blur_kernel, render_eye, sample_scene_params)


def make_params(**overrides) -> SceneParams:
    base = dict(eye_center=(60.0, 80.0), eye_axes=(40.0, 34.0),
                iris_axes=(26.0, 22.0), pupil_axes=(14.0, 12.0),
                rotation=0.2, intensities=(0.55, 0.85, 0.40, 0.04),
                texture_seed=7)
    base.update(overrides)
    return SceneParams(**base)


class TestRenderEye:
    def test_deterministic(self):
        a = render_eye(make_params(), 120, 160, Rng(1))
        b = render_eye(make_params(), 120, 160, Rng(1))
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.labels, b.labels)
        assert a.gt_bbox == b.gt_bbox

    def test_degenerate_pupil_has_no_class3(self):
        s = render_eye(make_params(pupil_axes=(0.0, 0.0)), 120, 160, Rng(1))
        assert not np.any(s.labels == 3)

    @pytest.mark.parametrize("pupil_axes", [(0.0, 0.0), (-2.0, 5.0), (6.0, 0.0)])
    def test_non_positive_pupil_axis_is_empty_without_warning(self, pupil_axes):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            s = render_eye(make_params(pupil_axes=pupil_axes), 120, 160, Rng(1))
        assert not np.any(s.labels == 3)
        assert np.any(s.labels == 2)

    def test_pupil_area_matches_ellipse(self):
        # axis-aligned so the rasterized count tracks pi*a*b
        for a, b in ((14, 12), (16, 10), (11, 11)):
            p = make_params(rotation=0.0, pupil_axes=(float(a), float(b)))
            s = render_eye(p, 120, 160, Rng(1))
            count = int((s.labels == 3).sum())
            assert abs(count - math.pi * a * b) / (math.pi * a * b) < 0.03

    def test_nesting_geometry(self):
        s = render_eye(make_params(), 120, 160, Rng(2))
        # every pupil pixel is iris-or-inner before relabeling; labels encode
        # innermost region, so 3 implies inside iris implies inside eye
        rr, cc = np.nonzero(s.labels == 3)
        p = make_params()
        co, si = math.cos(p.rotation), math.sin(p.rotation)
        dr, dc = rr + 0.5 - p.eye_center[0], cc + 0.5 - p.eye_center[1]
        u, v = co * dc + si * dr, -si * dc + co * dr
        ia, ib = p.iris_axes
        assert np.all((u / ia) ** 2 + (v / ib) ** 2 <= 1.0 + 1e-9)

    def test_ellipse_outside_frame_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            render_eye(make_params(eye_center=(10.0, 80.0)), 120, 160, Rng(1))

    def test_bbox_within_frame_and_margin(self):
        s = render_eye(make_params(), 120, 160, Rng(1))
        l, t, h, w = s.gt_bbox
        assert 0 <= l and 0 <= t and t + h <= 120 and l + w <= 160
        rows, cols = np.nonzero(s.labels > 0)
        assert rows.min() >= t and rows.max() < t + h
        assert cols.min() >= l and cols.max() < l + w

    def test_image_on_8bit_grid(self):
        # the frame and its labels are the uint8 arrays the PGM files store
        s = render_eye(make_params(), 120, 160, Rng(1))
        assert s.image.dtype == np.uint8 and s.labels.dtype == np.uint8


def full_frame_render_eye(params, h_full, w_full, rng):
    """Reference: the rasterizer that evaluates the ellipse geometry at every
    pixel of the frame and fills the regions through frame-sized masks."""
    cr, cc_ = params.eye_center
    ey, ex = _ellipse_extent(params.eye_axes, params.rotation)
    tex = rng.derive(params.texture_seed)
    dr = (np.arange(h_full, dtype=np.float64) + 0.5 - cr)[:, None]
    dc = np.arange(w_full, dtype=np.float64) + 0.5 - cc_
    co, si = math.cos(params.rotation), math.sin(params.rotation)
    u = co * dc + si * dr
    v = -si * dc + co * dr
    q_iris = _ellipse_q(u, v, params.iris_axes)
    in_eye = _ellipse_q(u, v, params.eye_axes) <= 1.0
    in_iris = q_iris <= 1.0
    in_pupil = _ellipse_q(u, v, params.pupil_axes) <= 1.0
    labels = in_eye.astype(np.uint8) + in_iris + in_pupil

    skin, sclera, iris_base, pupil_val = params.intensities
    img = np.full((h_full, w_full), skin)
    img += 0.04 * _smooth_noise(h_full, w_full, tex)
    grain = tex.uniform_array(h_full * w_full).reshape(h_full, w_full)
    speck = (grain < 0.05) & ~in_eye
    img[speck] = 0.08 + (0.24 - 0.08) * (grain[speck] / 0.05)
    img[in_eye] = sclera
    img[in_iris] = iris_base * (0.75 + 0.20 * np.sqrt(q_iris[in_iris]))
    img[in_pupil] = pupil_val
    img += 0.015 * _smooth_noise(h_full, w_full, tex, cell=5)

    l = max(0, int(math.floor(cc_ - 1.1 * ex)))
    t = max(0, int(math.floor(cr - 1.1 * ey)))
    r_excl = min(w_full, int(math.ceil(cc_ + 1.1 * ex)) + 1)
    b_excl = min(h_full, int(math.ceil(cr + 1.1 * ey)) + 1)
    return levels8(img), labels, (l, t, b_excl - t, r_excl - l)


def window_test_scenes(h, w):
    """200 sampled scenes, then scenes whose eye sits at the sampler's four
    extreme corners (centers 1.15 extents from the border) and at the frame
    itself (the eye's box touching the border), and zero-axis pupils."""
    rng = Rng(h * 1000 + w)
    scenes = [sample_scene_params(h, w, rng) for _ in range(200)]
    for _ in range(8):
        p = sample_scene_params(h, w, rng)
        ey, ex = _ellipse_extent(p.eye_axes, p.rotation)
        for margin in (1.15, 1.0):
            for cr in (margin * ey, h - 1 - margin * ey):
                for cc in (margin * ex, w - 1 - margin * ex):
                    scenes.append(replace(p, eye_center=(cr, cc)))
        scenes.append(replace(p, pupil_axes=(0.0, 0.0)))
    return scenes


@pytest.mark.fixed_mmap
@pytest.mark.parametrize("size", ["120x160", "97x131", "64x64", "200x240"])
def test_window_matches_full_frame_geometry(size):
    """Evaluating the geometry only inside the eye's window leaves every
    image level, label and box bit-identical to the full-frame rasterizer."""
    h, w = (int(x) for x in size.split("x"))
    for i, p in enumerate(window_test_scenes(h, w)):
        got = render_eye(p, h, w, Rng(i))
        image, labels, bbox = full_frame_render_eye(p, h, w, Rng(i))
        assert np.array_equal(got.image, image), (i, p)
        assert np.array_equal(got.labels, labels), (i, p)
        assert got.gt_bbox == bbox, (i, p)


class TestCorruptions:
    @pytest.mark.parametrize("kind", ["blur", "occlusion", "domain_shift"])
    def test_severity_zero_is_identity(self, kind):
        s = render_eye(make_params(), 120, 160, Rng(3))
        out = apply_corruption(s, Corruption(kind, 0.0), Rng(4))
        assert np.array_equal(out.image, s.image)
        assert np.array_equal(out.labels, s.labels)

    def test_unknown_kind_rejected(self):
        s = render_eye(make_params(), 120, 160, Rng(3))
        with pytest.raises(ValueError, match="unknown corruption"):
            apply_corruption(s, Corruption("fog", 0.5), Rng(4))

    def test_blur_kernel_taps_and_normalization(self):
        # severity 1 -> 15 distinct taps near the origin; the impulse
        # response below checks that their 1/15 weights sum to 1
        for angle in (0.0, 0.31, 0.79, 1.2, 1.57, 2.5):
            taps = motion_blur_kernel(15, angle)
            assert len(set(taps)) == len(taps) == 15
            assert all(max(abs(di), abs(dj)) <= 7 for di, dj in taps)

    def test_blur_impulse_response(self):
        s = render_eye(make_params(), 120, 160, Rng(3))
        impulse = np.zeros_like(s.image)
        impulse[60, 80] = 255
        sample = type(s)(image=impulse, labels=s.labels, gt_bbox=s.gt_bbox,
                         severity=0.0, domain_id="clean", sample_id="imp")
        out = apply_corruption(sample, Corruption("blur", 1.0), Rng(5))
        response = out.image / 255.0
        assert np.count_nonzero(response) == 15
        assert abs(response.sum() - 1.0) < 15 * (0.5 / 255) + 1e-9

    @pytest.mark.parametrize("length", range(1, 16))
    def test_blur_exact_on_the_8bit_grid(self, length):
        # integer reference: sum the 8-bit levels under the taps, round half up
        s = render_eye(make_params(), 120, 160, Rng(3))
        levels = s.image.astype(np.int64)
        # length 1 needs a severity above 0, which is the identity
        severity = max(length - 1, 0.25) / 14
        for seed in (5, 6, 7, 8):
            angle = Rng(seed).uniform(0.0, math.pi)
            out = apply_corruption(s, Corruption("blur", severity), Rng(seed))
            taps = motion_blur_kernel(length, angle)
            r = length // 2
            assert len(set(taps)) == length
            assert all(max(abs(di), abs(dj)) <= r for di, dj in taps)
            padded = np.pad(levels, r)
            total = sum(padded[r + di:r + di + 120, r + dj:r + dj + 160] for di, dj in taps)
            assert out.image.dtype == np.uint8
            assert np.array_equal(out.image, (2 * total + length) // (2 * length))

    @pytest.mark.parametrize("length", range(1, 16))
    def test_blur_matches_the_dense_conv(self, length):
        """The shifted-view sums equal a dense ``conv2d`` of the 8-bit levels
        with the taps' 0/1 kernel, up to the frame border, at 37 angles."""
        levels = np.floor(Rng(11).uniform_array(97 * 131) * 256.0).clip(max=255.0)
        levels = levels.reshape(97, 131)
        s = Sample(image=levels.astype(np.uint8), labels=np.zeros((97, 131), np.uint8),
                   gt_bbox=(0, 0, 97, 131), severity=0.0, domain_id="clean", sample_id="r")
        r = length // 2
        for k in range(37):
            angle = k * math.pi / 36
            out = _blur(s, (length - 1) / 14, SimpleNamespace(uniform=lambda lo, hi: angle))
            kernel = np.zeros((2 * r + 1, 2 * r + 1))
            for di, dj in motion_blur_kernel(length, angle):
                kernel[r + di, r + dj] = 1.0
            sums = conv2d(levels[None], kernel[None, None])[0]
            assert np.array_equal(out.image, np.floor(sums / length + 0.5))

    def test_occlusion_full_clears_top_half_pupil(self):
        s = render_eye(make_params(), 120, 160, Rng(3))
        out = apply_corruption(s, Corruption("occlusion", 1.0), Rng(5))
        l, t, h, w = s.gt_bbox
        top = out.labels[t:t + h // 2, :]
        assert not np.any(top == 3)

    def test_occlusion_partial_keeps_lower_pupil(self):
        s = render_eye(make_params(), 120, 160, Rng(3))
        out = apply_corruption(s, Corruption("occlusion", 0.5), Rng(5))
        assert np.any(out.labels == 3)
        assert (out.labels == 3).sum() < (s.labels == 3).sum()

    def test_occlusion_relabels_to_background(self):
        s = render_eye(make_params(), 120, 160, Rng(3))
        out = apply_corruption(s, Corruption("occlusion", 0.7), Rng(5))
        changed = out.labels != s.labels
        assert np.all(out.labels[changed] == 0)

    def test_domain_shift_keeps_labels(self):
        s = render_eye(make_params(), 120, 160, Rng(3))
        out = apply_corruption(s, Corruption("domain_shift", 0.8), Rng(5))
        assert np.array_equal(out.labels, s.labels)
        assert not np.array_equal(out.image, s.image)
        assert out.image.dtype == np.uint8


class TestGenerateDataset:
    def test_deterministic_and_ids(self):
        a = generate_dataset(6, seed=5, kinds=["none", "blur"], sev_range=(0.5, 1.0))
        b = generate_dataset(6, seed=5, kinds=["none", "blur"], sev_range=(0.5, 1.0))
        for x, y in zip(a, b):
            assert x.sample_id == y.sample_id
            assert np.array_equal(x.image, y.image)

    def test_kind_cycling_and_severity(self):
        ds = generate_dataset(8, seed=5, kinds=["none", "occlusion"],
                              sev_range=(0.4, 0.9))
        assert all(s.severity == 0.0 if i % 2 == 0 else 0.4 <= s.severity <= 0.9
                   for i, s in enumerate(ds))

    def test_scene_sampler_stays_in_frame(self):
        rng = Rng(77)
        for _ in range(50):
            p = sample_scene_params(120, 160, rng)
            render_eye(p, 120, 160, rng)  # must not raise


@pytest.mark.parametrize("h, w, cell", [(120, 160, 12), (120, 160, 5), (97, 131, 12),
                                        (64, 64, 5), (1, 1, 12)])
def test_smooth_noise_matches_the_full_frame_gather(h, w, cell):
    """Weighting coarse rows before gathering columns gives the bits of
    gathering the four corners over the whole frame."""
    gh, gw = h // cell + 2, w // cell + 2
    grid = Rng(9).uniform_array(gh * gw, -1.0, 1.0).reshape(gh, gw)
    rr, cc = np.arange(h) / cell, np.arange(w) / cell
    r0, c0 = rr.astype(np.int64), cc.astype(np.int64)
    fr, fc = (rr - r0)[:, None], (cc - c0)[None, :]
    ref = (grid[r0][:, c0] * (1 - fr) * (1 - fc) + grid[r0][:, c0 + 1] * (1 - fr) * fc
           + grid[r0 + 1][:, c0] * fr * (1 - fc) + grid[r0 + 1][:, c0 + 1] * fr * fc)
    assert np.array_equal(_smooth_noise(h, w, Rng(9), cell), ref)



def test_smooth_noise_is_c_contiguous():
    """The transposed gathers hand back a row-major field, so every frame
    built on it keeps the layout it had."""
    for h, w, cell in ((120, 160, 12), (97, 131, 5), (1, 1, 12)):
        assert _smooth_noise(h, w, Rng(9), cell).flags.c_contiguous


def test_noise_geometry_is_cached_read_only():
    geometry = _noise_geometry(97, 131, 5)
    assert _noise_geometry(97, 131, 5) is geometry
    for a in geometry:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


# the per-pixel forms that the histogram median and the level table replaced

def reference_occlude(sample, severity):
    l, t, h, w = sample.gt_bbox
    img = sample.image / 255.0
    labels = sample.labels.copy()
    skin = float(np.median(img[labels == 0])) if np.any(labels == 0) else 0.55
    cols = np.arange(img.shape[1], dtype=np.float64)
    rel = (cols - (l + w / 2.0)) / (w / 2.0)
    depth = severity * h * np.maximum(0.0, 0.75 - 0.25 * rel ** 2)
    rows = np.arange(img.shape[0], dtype=np.float64)
    covered = rows[:, None] < (t + depth)[None, :]
    img[covered] = skin
    labels[covered] = 0
    return levels8(img), labels


def reference_shift(image, gamma, contrast):
    return 0.5 + contrast * ((image / 255.0) ** gamma - 0.5)


def level_frame(seed, h=97, w=131):
    return (Rng(seed).u64_array(h * w) % np.uint64(256)).astype(np.uint8).reshape(h, w)


@pytest.mark.parametrize("n_background", [1, 2, 3, 4, 101, 12706, 12707])
def test_background_level_is_the_median(n_background):
    """Odd and even background counts, the whole frame included."""
    image = level_frame(n_background)
    labels = np.ones(image.shape, np.uint8)
    labels.flat[Rng(5).u64_array(image.size).argsort()[:n_background]] = 0
    assert _background_level(image, labels) == np.median(image[labels == 0] / 255.0)


@pytest.mark.parametrize("n_background", [7, 8])
@pytest.mark.parametrize("level", [0, 137, 255])
def test_background_level_of_one_level(level, n_background):
    image = np.full((97, 131), level, np.uint8)
    labels = np.full(image.shape, 2, np.uint8)
    labels[0, :n_background] = 0
    assert _background_level(image, labels) == np.median(image[labels == 0] / 255.0)
    assert _background_level(image, labels) == level / 255.0


def test_background_level_between_two_middle_levels():
    """An even count whose two middle levels differ: ``(a + b) / 510`` is not
    always the mean of the two intensities."""
    image = np.zeros((8, 8), np.uint8)
    labels = np.ones(image.shape, np.uint8)
    labels[0, :6] = 0
    for a in range(0, 256, 3):
        for b in range(a, 256, 5):
            image[0, :6] = (a, b, a, b, a, b)
            assert _background_level(image, labels) == np.median(image[labels == 0] / 255.0)


def test_background_level_without_background():
    labels = np.full((97, 131), 1, np.uint8)
    assert _background_level(level_frame(1), labels) == 0.55


def test_every_level_survives_levels8():
    """Why occlusion can keep the levels of the pixels it leaves uncovered."""
    levels = np.arange(256)
    assert np.array_equal(levels8(levels / 255.0), levels)


@pytest.mark.parametrize("severity", [0.05, 0.5, 0.93, 1.0])
def test_occlusion_matches_the_per_pixel_form(severity):
    frames = generate_dataset(8, seed=31)
    no_background = replace(frames[0], labels=np.ones_like(frames[0].labels))
    for s in [*frames, no_background]:
        image, labels = reference_occlude(s, severity)
        out = apply_corruption(s, Corruption("occlusion", severity), Rng(5))
        assert np.array_equal(out.image, image) and out.image.dtype == np.uint8
        assert np.array_equal(out.labels, labels)


@pytest.mark.parametrize("gamma", [0.05, 1.0, 1.6])
@pytest.mark.parametrize("contrast", [0.65, 1.0, 1.35])
def test_shift_table_matches_the_per_pixel_form(gamma, contrast):
    """On 97x131 frames (12707 elements, not a multiple of any SIMD width)
    that between them hold every level at every position modulo 8 and at
    each of the last three positions."""
    p = np.arange(97 * 131)
    table = _shift_table(gamma, contrast)
    for k in range(0, 256, 3):
        image = ((p + p // 8 + k) % 256).astype(np.uint8).reshape(97, 131)
        assert np.array_equal(np.take(table, image), reference_shift(image, gamma, contrast))


@pytest.mark.parametrize("severity", [0.05, 0.6, 1.0])
def test_domain_shift_matches_the_per_pixel_form(severity):
    for i, s in enumerate(generate_dataset(4, seed=37, h_full=97, w_full=131)):
        rng, ref_rng = Rng(i), Rng(i)
        out = apply_corruption(s, Corruption("domain_shift", severity), rng)
        gamma = ref_rng.uniform(max(0.05, 1.0 - 0.6 * severity), 1.0 + 0.6 * severity)
        contrast = ref_rng.uniform(1.0 - 0.35 * severity, 1.0 + 0.35 * severity)
        img = reference_shift(s.image, gamma, contrast)
        h, w = img.shape
        rr = ((np.arange(h) - h / 2) / (h / 2))[:, None]
        cc = (np.arange(w) - w / 2) / (w / 2)
        img *= 1.0 - 0.35 * severity * (rr ** 2 + cc ** 2) / 2.0
        img += ref_rng.normal_array(img.size, 0.0, 0.08 * severity).reshape(img.shape)
        assert np.array_equal(out.image, levels8(img))

# sha256 over (relative path, sha256 of contents) of every img/ and lbl/
# PGM that ``gen`` writes for each set below.  The digests of the
# 120x160 and 97x131 sets come from the full-frame meshgrid renderer that
# the separable row and column coordinates replaced, those of the 32-frame
# blur set from the dense 15x15 conv2d blur that the shifted-view sums
# replaced, and those of the 64x64 and 200x240 sets from the full-frame
# geometry and array draws that the eye's window and the in-place draws
# replaced, and those of the high-severity set (the bench's render range)
# from the per-call noise geometry, full-background median and per-pixel
# domain shift that the cached geometry, histogram median and level table
# replaced, so they pin each pair as byte-identical: a change to any pixel
# or label shows here.
GEN_SETS = {  # key: (--n, --corruptions, --severities, --size)
    "120x160": ("8", "none,blur,occlusion,domain_shift", "0.2,1.0", "120x160"),
    "97x131": ("8", "none,blur,occlusion,domain_shift", "0.2,1.0", "97x131"),
    "blur-120x160": ("32", "blur", "0,1", "120x160"),
    "64x64": ("8", "none,blur,occlusion,domain_shift", "0.2,1.0", "64x64"),
    "200x240": ("8", "none,blur,occlusion,domain_shift", "0.2,1.0", "200x240"),
    "high-120x160": ("32", "none,blur,occlusion,domain_shift", "0.9,1.0", "120x160"),
}
PGM_DIGESTS = {
    "120x160": "9460fae69a86901483b5ce26befd456a1f7aa4c6fe1eaebf36ca71258a923361",
    "97x131": "8e5b70ec875dd65a6f5f21b94ef675f3b694c85c6b4fb234225e6e6a65cfc142",
    "blur-120x160": "3b08db0691116fbde98e272cb6b57a7e84adaad34c0ba72e950a6d4ac1e3e428",
    "64x64": "0e114a0181c738909c9c894c41778f11c13ffd76afece8062d53724993d7dafd",
    "200x240": "56cddf8a4a89edb3f740dd0d52bdbe0864e30b4788b50c93bfaab251d923ca52",
    "high-120x160": "56e176ba2dd59a783fbf793b59b0241e1c17cff6e531836d06253b9076bf9ecb",
}
# sha256 of the same set's manifest.json: a change to any record shows here.
MANIFEST_DIGESTS = {
    "120x160": "fbf9dbc45a9c7381ab4fdc38237d27ed59912833c06a350bf4eba7a7d550c6d2",
    "97x131": "46bcd911c5a747f0026cc410d12074004ac7c7cd8a8d09d3b4b0531ff34f22b4",
    "blur-120x160": "991a6441bbb68325b3955df0137257c1eb96caa718f4308d6e751b7a822f39c9",
    "64x64": "1af09e750e2ba42247fe8994a6e34b77ccee3c9186b4d97086032ecbf40d4641",
    "200x240": "f0acc92cd90ca4adaa3a947e7791a300840d82c2d4676d8629bb9ee2c74d4660",
    "high-120x160": "68668eaa83095c3bc2e3d976272f993274891c40c3d1b351acc4c9b68d736392",
}


@pytest.mark.fixed_mmap
@pytest.mark.parametrize("key", list(GEN_SETS))
def test_gen_files_are_pinned(key, tmp_path):
    n, kinds, severities, size = GEN_SETS[key]
    assert main(["gen", "--out", str(tmp_path), "--n", n, "--seed", "21",
                 "--corruptions", kinds, "--severities", severities, "--size", size]) == 0
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    pgms = [p for p in files if p.suffix == ".pgm"]
    assert [p.name for p in files if p not in pgms] == ["manifest.json"]
    digest = hashlib.sha256()
    for path in pgms:
        digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    assert digest.hexdigest() == PGM_DIGESTS[key]
    manifest = (tmp_path / "manifest.json").read_bytes()
    assert hashlib.sha256(manifest).hexdigest() == MANIFEST_DIGESTS[key]
