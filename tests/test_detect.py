import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocuseg import detect
from ocuseg.detect import (BBox, crop_labels, crop_resize, detect_eye_heuristic, iou,
                           jitter_gt_bbox)
from ocuseg.rng import Rng
from ocuseg.synth import CORRUPTION_KINDS, generate_dataset


def bfs_largest_component(mask):
    """Reference: BFS flood fill from each unseen True pixel in row-major
    order, replacing the best only on a strictly larger component."""
    h, w = mask.shape
    seen = np.zeros_like(mask)
    best, best_size = None, 0
    for r0, c0 in zip(*np.nonzero(mask)):
        if seen[r0, c0]:
            continue
        stack = [(r0, c0)]
        seen[r0, c0] = True
        comp = []
        while stack:
            r, c = stack.pop()
            comp.append((r, c))
            for rn, cn in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if 0 <= rn < h and 0 <= cn < w and mask[rn, cn] and not seen[rn, cn]:
                    seen[rn, cn] = True
                    stack.append((rn, cn))
        if len(comp) > best_size:
            best, best_size = np.array(comp), len(comp)
    if best is None:
        return None
    out = np.zeros_like(mask)
    out[best[:, 0], best[:, 1]] = True
    return out


def assert_same_component(mask):
    got, want = detect._largest_component(mask), bfs_largest_component(mask)
    if want is None:
        assert got is None
    else:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    return got


@st.composite
def masks(draw, max_side=23):
    h = draw(st.integers(1, max_side))
    w = draw(st.integers(1, max_side))
    density = draw(st.sampled_from([0.2, 0.5, 0.6, 0.8]))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random((h, w)) < density


class TestLargestComponent:
    @given(masks())
    @settings(max_examples=400, deadline=None)
    def test_matches_bfs_on_random_masks(self, mask):
        assert_same_component(mask)

    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_matches_bfs_on_single_row_or_column(self, n, seed, column):
        mask = np.random.default_rng(seed).random((1, n)) < 0.6
        assert_same_component(mask.T if column else mask)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 11)])
    def test_all_false_and_all_true(self, shape):
        assert assert_same_component(np.zeros(shape, dtype=bool)) is None
        full = np.ones(shape, dtype=bool)
        assert np.array_equal(assert_same_component(full), full)

    def test_tie_keeps_component_whose_first_pixel_comes_first(self):
        # two 4-pixel blobs: a vertical bar from (0, 5) and a horizontal bar
        # at (1, 0)-(1, 3); the vertical bar's first pixel comes first in
        # row-major order, although three of its pixels come after the other
        mask = np.zeros((5, 7), dtype=bool)
        mask[0:4, 5] = True
        mask[1, 0:4] = True
        got = assert_same_component(mask)
        assert np.array_equal(np.argwhere(got), [[0, 5], [1, 5], [2, 5], [3, 5]])

    def test_detector_boxes_match_bfs_on_mixed_frames(self, monkeypatch):
        samples = generate_dataset(64, seed=29, kinds=["none", *CORRUPTION_KINDS],
                                   sev_range=(0.05, 1.0))
        boxes = [detect_eye_heuristic(s.image) for s in samples]
        monkeypatch.setattr(detect, "_largest_component", bfs_largest_component)
        assert boxes == [detect_eye_heuristic(s.image) for s in samples]


class TestDetector:
    def test_clean_samples_iou_at_least_half(self):
        # 500 seeded clean frames; at least 95% must reach IoU 0.5 vs gt
        samples = generate_dataset(500, seed=101)
        hits = sum(iou(detect_eye_heuristic(s.image).as_tuple(), s.gt_bbox) >= 0.5
                   for s in samples)
        assert hits / len(samples) >= 0.95

    def test_uniform_image_falls_back_to_centered_box(self):
        img = np.full((120, 160), 0.5)
        box = detect_eye_heuristic(img)
        assert (box.h, box.w) == (90, 90)       # 0.75 * min(120, 160)
        assert box.t == (120 - 90) // 2
        assert box.l == (160 - 90) // 2

    def test_box_always_within_frame(self):
        samples = generate_dataset(40, seed=55, kinds=["none", "blur", "occlusion"],
                                   sev_range=(0.5, 1.0))
        for s in samples:
            b = detect_eye_heuristic(s.image)
            assert b.l >= 0 and b.t >= 0
            assert b.l + b.w <= 160 and b.t + b.h <= 120
            assert b.h >= 16 and b.w >= 16

    def test_deterministic(self):
        s = generate_dataset(1, seed=3)[0]
        assert detect_eye_heuristic(s.image) == detect_eye_heuristic(s.image)

    def test_levels_and_intensities_give_the_same_box(self):
        # the 5th percentile is an 8-bit level or lies strictly between two,
        # so thresholding the levels or the levels / 255 marks the same pixels
        for size in ((120, 160), (97, 131)):
            samples = generate_dataset(48, seed=61, kinds=["none", *CORRUPTION_KINDS],
                                       sev_range=(0.05, 1.0), h_full=size[0], w_full=size[1])
            assert ([detect_eye_heuristic(s.image) for s in samples]
                    == [detect_eye_heuristic(s.image / 255.0) for s in samples])


class TestJitter:
    def test_iou_bound_at_015(self, monkeypatch):
        # geometric bound: worst case shift+scale at 0.15 keeps IoU over 0.5
        monkeypatch.setattr(detect, "BBOX_JITTER", 0.15)
        gt = (40, 30, 60, 70)
        rng = Rng(7)
        worst = 1.0
        for _ in range(10000):
            j = jitter_gt_bbox(gt, rng, 120, 160)
            worst = min(worst, iou(j.as_tuple(), gt))
        assert worst >= 0.5

    def test_always_within_frame(self, monkeypatch):
        monkeypatch.setattr(detect, "BBOX_JITTER", 0.25)
        rng = Rng(9)
        for _ in range(2000):
            j = jitter_gt_bbox((100, 80, 40, 58), rng, 120, 160)
            assert j.l >= 0 and j.t >= 0
            assert j.l + j.w <= 160 and j.t + j.h <= 120


class TestCropResize:
    def test_full_frame_same_size_is_identity(self):
        s = generate_dataset(1, seed=12)[0]
        image, labels = crop_resize(s, BBox(0, 0, 120, 160), 120, 160)
        assert np.array_equal(image, s.image / 255.0)
        assert np.array_equal(labels, s.labels)

    def test_labels_stay_in_closed_set(self):
        s = generate_dataset(1, seed=12)[0]
        _, labels = crop_resize(s, BBox(*s.gt_bbox), 96, 96)
        assert set(np.unique(labels)) <= {0, 1, 2, 3}

    def test_native_crop_preserves_foreground_histogram(self):
        # the gt box contains every non-background pixel, so cropping at
        # native size must keep the class-1..3 counts exactly
        for seed in (31, 32, 33):
            s = generate_dataset(1, seed=seed)[0]
            l, t, h, w = s.gt_bbox
            _, labels = crop_resize(s, BBox(l, t, h, w), h, w)
            for c in (1, 2, 3):
                assert (labels == c).sum() == (s.labels == c).sum()

    def test_bbox_outside_frame_rejected(self):
        s = generate_dataset(1, seed=12)[0]
        with pytest.raises(ValueError, match="outside"):
            crop_resize(s, BBox(150, 10, 60, 60), 96, 96)
        with pytest.raises(ValueError, match="outside"):
            crop_labels(s.labels, BBox(150, 10, 60, 60), 96, 96)

    def test_crop_labels_are_crop_resize_labels(self):
        for s in generate_dataset(4, seed=12, kinds=["none", "occlusion"],
                                  sev_range=(0.5, 1.0)):
            for box in (BBox(*s.gt_bbox), BBox(0, 0, 120, 160), BBox(7, 3, 50, 90)):
                labels = crop_labels(s.labels, box, 96, 96)
                assert labels.dtype == np.uint8
                assert np.array_equal(labels, crop_resize(s, box, 96, 96)[1])
