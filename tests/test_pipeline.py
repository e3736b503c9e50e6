import numpy as np
import pytest

from ocuseg.config import RunConfig
from ocuseg.detect import crop_resize
from ocuseg.pipeline import (DETECTOR_MODES, ablation_crop_vs_full, build_crops,
                             choose_bbox, infer_samples)
from ocuseg.rng import Rng
from ocuseg.segnet import INFER_BATCH, SegModel
from ocuseg.synth import generate_dataset
from ocuseg.uncertainty import UncHead


def small_setup():
    cfg = RunConfig(seed=3, crop_h=32, crop_w=32, d=4, widths=[4, 8], head_width=4)
    samples = generate_dataset(6, seed=21)
    seg = SegModel(cfg)
    seg.init_params(Rng(3).derive("seg-init"))
    head = UncHead(cfg)
    head.init_params(Rng(3).derive("unc-init"))
    return cfg, samples, seg, head


def test_build_crops_shapes_and_determinism():
    cfg, samples, _, _ = small_setup()
    a_img, a_lbl, a_box, a_ids = build_crops(samples, cfg, "gt-jitter")
    b_img, b_lbl, b_box, b_ids = build_crops(samples, cfg, "gt-jitter")
    assert a_img.shape == (6, 32, 32)
    assert np.array_equal(a_img, b_img)
    assert a_box == b_box
    assert a_ids == b_ids == [s.sample_id for s in samples]


def test_crop_seed_is_per_sample():
    # jitter derives from the sample id, so dataset order cannot matter
    cfg, samples, _, _ = small_setup()
    box_fwd = choose_bbox(samples[2], "gt-jitter", cfg)
    box_rev = choose_bbox(list(reversed(samples))[3], "gt-jitter", cfg)
    assert box_fwd == box_rev


def test_full_mode_uses_whole_frame():
    cfg, samples, _, _ = small_setup()
    box = choose_bbox(samples[0], "full", cfg)
    assert box.as_tuple() == (0, 0, 120, 160)


def test_infer_purity_and_alignment():
    cfg, samples, seg, head = small_setup()
    images = build_crops(samples, cfg)[0]
    before = images.copy()
    y_hat, s_unc = infer_samples(images, seg, head, cfg)
    y_hat2, s_unc2 = infer_samples(images, seg, head, cfg)
    assert np.array_equal(images, before)
    assert y_hat.shape == images.shape and y_hat.dtype == np.int64
    assert s_unc.shape == (len(images),)
    assert np.array_equal(y_hat, y_hat2) and np.array_equal(s_unc, s_unc2)
    # enough copies to span two inference batches; each copy's rows stay with its crops
    copies = INFER_BATCH // len(images) + 1
    y_rep, s_rep = infer_samples(np.concatenate([images] * copies), seg, head, cfg)
    for k in range(copies):
        rows = slice(k * len(images), (k + 1) * len(images))
        assert np.array_equal(y_rep[rows], y_hat)
        assert np.allclose(s_rep[rows], s_unc, rtol=1e-12, atol=0.0)
    # the same crop twice in one batch scores identically
    _, dup = infer_samples(images[[0, 0]], seg, head, cfg)
    assert dup[0] == dup[1]


@pytest.mark.parametrize("mode", DETECTOR_MODES)
def test_build_crops_labels_are_the_cropped_ground_truth(mode):
    cfg, samples, _, _ = small_setup()
    _, labels, boxes, _ = build_crops(samples, cfg, mode)
    for s, box, lbl in zip(samples, boxes, labels):
        assert np.array_equal(lbl, crop_resize(s, box, cfg.crop_h, cfg.crop_w).labels)


def test_ablation_crop_vs_full_reports_both_arms():
    cfg = RunConfig(seed=3, crop_h=32, crop_w=32, d=4, widths=[4, 8], head_width=4,
                    seg_epochs=1, unc_epochs=1)
    train = generate_dataset(6, seed=21)
    test = generate_dataset(6, seed=22, kinds=["none", "blur"], sev_range=(0.3, 0.9))
    report = ablation_crop_vs_full(train, test, cfg, [20.0, 50.0])
    assert set(report) == {"crop", "full"}
    for arm in report.values():
        assert 0.0 <= arm["miou"] <= 1.0
        assert [row["pct"] for row in arm["filtered"]] == [20.0, 50.0]
        assert [row["retained_count"] for row in arm["filtered"]] == [5, 3]
        assert all(0.0 <= row["retained_miou"] <= 1.0 for row in arm["filtered"])
    assert ablation_crop_vs_full(train, test, cfg, [20.0, 50.0]) == report
