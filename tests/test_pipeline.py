import numpy as np

from ocuseg.config import RunConfig
from ocuseg.pipeline import (ablation_crop_vs_full, build_crops, choose_bbox,
                             crops_ground_truth, infer_samples, per_image_confusions)
from ocuseg.rng import Rng
from ocuseg.segnet import SegModel
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
    preds = infer_samples(samples, seg, head, cfg)
    preds2 = infer_samples(samples, seg, head, cfg)
    assert [p.sample_id for p in preds] == [s.sample_id for s in samples]
    for a, b in zip(preds, preds2):
        assert a.s_unc == b.s_unc
        assert np.array_equal(a.y_hat, b.y_hat)
    # duplicated image content under two ids scores identically
    import dataclasses
    dup = [samples[0], dataclasses.replace(samples[0], sample_id="szz")]
    cfg0 = dataclasses.replace(cfg, bbox_jitter=0.0)
    dp = infer_samples(dup, seg, head, cfg0)
    assert dp[0].s_unc == dp[1].s_unc


def test_confusions_align_with_ground_truth():
    cfg, samples, seg, head = small_setup()
    preds = infer_samples(samples, seg, head, cfg)
    confs = per_image_confusions(samples, preds, cfg)
    gt = crops_ground_truth(samples, preds, cfg)
    assert len(confs) == len(samples)
    for p, c in zip(preds, confs):
        assert c.sum() == gt[p.sample_id].size


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
