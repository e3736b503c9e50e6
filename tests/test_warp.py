"""The separable resizers against the per-pixel 2-D gathers they replaced.

Both forms compute the same products and sums for every output pixel, so
the results must be equal bit for bit, not merely close.
"""

import numpy as np
import pytest

from ocuseg.warp import _bilinear_taps, _nearest_index, resize_bilinear, resize_nearest


def _grid(h_out, w_out):
    return np.meshgrid(np.arange(h_out, dtype=np.float64),
                       np.arange(w_out, dtype=np.float64), indexing="ij")


def _source(img, h_out, w_out):
    h, w = img.shape
    rr, cc = _grid(h_out, w_out)
    return (rr + 0.5) * (h / h_out) - 0.5, (cc + 0.5) * (w / w_out) - 0.5


def reference_bilinear(img, h_out, w_out):
    rows, cols = _source(img, h_out, w_out)
    h, w = img.shape
    r0 = np.clip(np.floor(rows).astype(np.int64), 0, h - 1)
    c0 = np.clip(np.floor(cols).astype(np.int64), 0, w - 1)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = np.clip(rows, 0, h - 1) - r0
    fc = np.clip(cols, 0, w - 1) - c0
    top = img[r0, c0] * (1 - fc) + img[r0, c1] * fc
    bot = img[r1, c0] * (1 - fc) + img[r1, c1] * fc
    return top * (1 - fr) + bot * fr


def reference_nearest(img, h_out, w_out):
    rows, cols = _source(img, h_out, w_out)
    h, w = img.shape
    r = np.clip(np.floor(rows + 0.5).astype(np.int64), 0, h - 1)
    c = np.clip(np.floor(cols + 0.5).astype(np.int64), 0, w - 1)
    return img[r, c]


def assert_both_match(img, h_out, w_out):
    """Both resizers of ``img`` and of a strided view holding the same
    pixels, as a crop box cuts from a frame, equal the references and come
    back C-ordered."""
    h, w = img.shape
    frame = np.zeros((h + 3, 2 * w + 5), dtype=img.dtype)
    view = frame[2:2 + h, 3:3 + 2 * w:2]
    view[...] = img
    for resize, reference in ((resize_bilinear, reference_bilinear),
                              (resize_nearest, reference_nearest)):
        ref = reference(img, h_out, w_out)
        for src in (img, view):
            out = resize(src, h_out, w_out)
            assert out.shape == (h_out, w_out) and out.dtype == ref.dtype
            assert out.flags.c_contiguous, (resize.__name__, src.strides)
            assert np.array_equal(out, ref), (resize.__name__, src.strides, h_out, w_out)


def random_images(gen, h, w):
    return (gen.random((h, w)), gen.integers(0, 4, size=(h, w), dtype=np.int64))


# (h, w, h_out, w_out): up, down, the same size, to and from one pixel, and
# the 60x60 -> 96x96 crop resize of the default config
SHAPES = [(1, 1, 1, 1), (1, 1, 5, 7), (5, 7, 1, 1), (130, 170, 1, 1),
          (60, 60, 96, 96), (96, 96, 96, 96), (130, 170, 96, 96), (1, 170, 96, 96),
          (130, 1, 96, 96), (97, 131, 48, 48), (37, 53, 37, 53), (2, 3, 130, 170),
          (129, 7, 64, 200)]


@pytest.mark.parametrize("h, w, h_out, w_out", SHAPES)
def test_matches_2d_gather(h, w, h_out, w_out):
    gen = np.random.default_rng(h * 1000 + w)
    for img in random_images(gen, h, w):
        assert_both_match(img, h_out, w_out)


def test_matches_2d_gather_on_random_shapes():
    gen = np.random.default_rng(12)
    for _ in range(60):
        h, w = int(gen.integers(1, 131)), int(gen.integers(1, 171))
        h_out, w_out = int(gen.integers(1, 161)), int(gen.integers(1, 201))
        for img in random_images(gen, h, w):
            assert_both_match(img, h_out, w_out)


def test_same_size_is_identity():
    img, labels = random_images(np.random.default_rng(3), 41, 67)
    assert np.array_equal(resize_bilinear(img, 41, 67), img)
    assert np.array_equal(resize_nearest(labels, 41, 67), labels)


def test_cached_taps_are_read_only_and_reused():
    """A resize cannot write into the taps that later resizes of the same
    sizes read, and a resize repeated after others gives the same result."""
    taps = (*_bilinear_taps(130, 96), _nearest_index(130, 96))
    assert _bilinear_taps(130, 96)[0] is taps[0] and _nearest_index(130, 96) is taps[3]
    for a in taps:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    img, labels = random_images(np.random.default_rng(4), 130, 170)
    first = resize_bilinear(img, 96, 96), resize_nearest(labels, 96, 96)
    for n in range(1, 300):
        resize_bilinear(img, n % 97 + 1, n % 89 + 1)
    assert np.array_equal(resize_bilinear(img, 96, 96), first[0])
    assert np.array_equal(resize_nearest(labels, 96, 96), first[1])
