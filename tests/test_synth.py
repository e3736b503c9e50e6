import hashlib
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from ocuseg.cli import main
from ocuseg.layers import conv2d
from ocuseg.rng import Rng
from ocuseg.synth import (Corruption, Sample, SceneParams, _blur, _smooth_noise,
                          apply_corruption, gamma_correct, generate_dataset,
                          motion_blur_kernel, render_eye, sample_scene_params)


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
        s = render_eye(make_params(), 120, 160, Rng(1))
        assert np.array_equal(s.image, np.round(s.image * 255) / 255)


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
        impulse[60, 80] = 1.0
        sample = type(s)(image=impulse, labels=s.labels, gt_bbox=s.gt_bbox,
                         severity=0.0, domain_id="clean", sample_id="imp")
        out = apply_corruption(sample, Corruption("blur", 1.0), Rng(5))
        response = out.image  # quantized to the 8-bit grid
        assert np.count_nonzero(response) == 15
        assert abs(response.sum() - 1.0) < 15 * (0.5 / 255) + 1e-9

    @pytest.mark.parametrize("length", range(1, 16))
    def test_blur_exact_on_the_8bit_grid(self, length):
        # integer reference: sum the 8-bit levels under the taps, round half up
        s = render_eye(make_params(), 120, 160, Rng(3))
        levels = np.rint(s.image * 255).astype(np.int64)
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
            assert np.array_equal(out.image, (2 * total + length) // (2 * length) / 255.0)

    @pytest.mark.parametrize("length", range(1, 16))
    def test_blur_matches_the_dense_conv(self, length):
        """The shifted-view sums equal a dense ``conv2d`` of the 8-bit levels
        with the taps' 0/1 kernel, up to the frame border, at 37 angles."""
        levels = np.floor(Rng(11).uniform_array(97 * 131) * 256.0).clip(max=255.0)
        levels = levels.reshape(97, 131)
        s = Sample(image=levels / 255.0, labels=np.zeros((97, 131), np.int64),
                   gt_bbox=(0, 0, 97, 131), severity=0.0, domain_id="clean", sample_id="r")
        r = length // 2
        for k in range(37):
            angle = k * math.pi / 36
            out = _blur(s, (length - 1) / 14, SimpleNamespace(uniform=lambda lo, hi: angle))
            kernel = np.zeros((2 * r + 1, 2 * r + 1))
            for di, dj in motion_blur_kernel(length, angle):
                kernel[r + di, r + dj] = 1.0
            sums = conv2d(levels[None], kernel[None, None])[0]
            assert np.array_equal(out.image, np.floor(sums / length + 0.5) / 255.0)

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
        assert out.image.min() >= 0.0 and out.image.max() <= 1.0


class TestGammaCorrect:
    def test_identity(self):
        img = Rng(1).uniform_array(100).reshape(10, 10)
        assert np.array_equal(gamma_correct(img, 1.0), img)

    def test_analytic_value(self):
        assert gamma_correct(np.array([0.25]), 0.5)[0] == pytest.approx(0.5)

    def test_range_closure(self):
        img = Rng(2).uniform_array(1000)
        for g in (0.3, 0.7, 1.5, 3.0):
            out = gamma_correct(img, g)
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            gamma_correct(np.zeros(3), 0.0)


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


# sha256 over (relative path, sha256 of contents) of every img/ and lbl/
# PGM that ``gen`` writes for each set below.  The digests of the
# eight-frame four-kind sets come from the full-frame meshgrid renderer that
# the separable row and column coordinates replaced, and those of the
# 32-frame blur set from the dense 15x15 conv2d blur that the shifted-view
# sums replaced, so they pin each pair as byte-identical: a change to any
# pixel or label shows here.
GEN_SETS = {  # key: (--n, --corruptions, --severities, --size)
    "120x160": ("8", "none,blur,occlusion,domain_shift", "0.2,1.0", "120x160"),
    "97x131": ("8", "none,blur,occlusion,domain_shift", "0.2,1.0", "97x131"),
    "blur-120x160": ("32", "blur", "0,1", "120x160"),
}
PGM_DIGESTS = {
    "120x160": "9460fae69a86901483b5ce26befd456a1f7aa4c6fe1eaebf36ca71258a923361",
    "97x131": "8e5b70ec875dd65a6f5f21b94ef675f3b694c85c6b4fb234225e6e6a65cfc142",
    "blur-120x160": "3b08db0691116fbde98e272cb6b57a7e84adaad34c0ba72e950a6d4ac1e3e428",
}
# sha256 of the same set's manifest.json: a change to any record shows here.
MANIFEST_DIGESTS = {
    "120x160": "fbf9dbc45a9c7381ab4fdc38237d27ed59912833c06a350bf4eba7a7d550c6d2",
    "97x131": "46bcd911c5a747f0026cc410d12074004ac7c7cd8a8d09d3b4b0531ff34f22b4",
    "blur-120x160": "991a6441bbb68325b3955df0137257c1eb96caa718f4308d6e751b7a822f39c9",
}


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
