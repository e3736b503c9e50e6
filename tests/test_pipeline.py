import hashlib
import tracemalloc

import numpy as np
import pytest

from ocuseg import pipeline
from ocuseg.config import RunConfig
from ocuseg.detect import crop_resize
from ocuseg.pipeline import (DETECTOR_MODES, ablation_crop_vs_full, build_crops,
                             choose_bbox, infer_samples)
from ocuseg.rng import Rng
from ocuseg.segnet import (INFER_BATCH, SEG_BATCH, SegModel, StageFeatures, predict_batch,
                           seg_loss, train_seg)
from ocuseg.synth import generate_dataset
from ocuseg.uncertainty import (UncHead, original_loss_batch, train_unc, unc_score,
                                variance_targets)


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
    y_hat, s_unc = infer_samples(images, seg, head)
    y_hat2, s_unc2 = infer_samples(images, seg, head)
    assert np.array_equal(images, before)
    assert y_hat.shape == images.shape and y_hat.dtype == np.uint8
    assert s_unc.shape == (len(images),)
    assert np.array_equal(y_hat, y_hat2) and np.array_equal(s_unc, s_unc2)
    # enough copies to span two inference batches; each copy's rows stay with its crops
    copies = INFER_BATCH // len(images) + 1
    y_rep, s_rep = infer_samples(np.concatenate([images] * copies), seg, head)
    for k in range(copies):
        rows = slice(k * len(images), (k + 1) * len(images))
        assert np.array_equal(y_rep[rows], y_hat)
        assert np.allclose(s_rep[rows], s_unc, rtol=1e-12, atol=0.0)
    # the same crop twice in one batch scores identically
    _, dup = infer_samples(images[[0, 0]], seg, head)
    assert dup[0] == dup[1]


@pytest.mark.parametrize("mode", DETECTOR_MODES)
def test_build_crops_labels_are_the_cropped_ground_truth(mode):
    cfg, samples, _, _ = small_setup()
    _, labels, boxes, _ = build_crops(samples, cfg, mode)
    for s, box, lbl in zip(samples, boxes, labels):
        assert np.array_equal(lbl, crop_resize(s, box, cfg.crop_h, cfg.crop_w)[1])


@pytest.mark.parametrize("mode", DETECTOR_MODES)
def test_build_crops_images_are_the_float32_crops(mode):
    cfg, samples, _, _ = small_setup()
    images, _, boxes, _ = build_crops(samples, cfg, mode)
    assert images.dtype == np.float32
    for s, box, img in zip(samples, boxes, images):
        assert np.array_equal(img, np.float32(crop_resize(s, box, cfg.crop_h, cfg.crop_w)[0]))


def test_ablation_crop_vs_full_reports_both_arms():
    cfg = RunConfig(seed=3, crop_h=32, crop_w=32, d=4, widths=[4, 8], head_width=4,
                    seg_epochs=1, unc_epochs=1)
    train = generate_dataset(6, seed=21)
    test = generate_dataset(6, seed=22, kinds=["none", "blur"], sev_range=(0.3, 0.9))
    report = ablation_crop_vs_full(train, test, cfg, [20.0, 50.0])
    assert set(report) == {"crop", "full"}
    for arm in report.values():
        assert set(arm) == {"unfiltered", "per_image", "tables"}
        assert set(arm["unfiltered"]) == {"miou", "e1", "f1", "acc"}
        assert 0.0 <= arm["unfiltered"]["miou"] <= 1.0
        assert [row["id"] for row in arm["per_image"]] == [s.sample_id for s in test]
        filtering = arm["tables"]["filtering"]
        assert [row["pct"] for row in filtering] == [20.0, 50.0]
        assert [row["retained_count"] for row in filtering] == [5, 3]
        assert all(0.0 <= row["retained_miou"] <= 1.0 for row in filtering)
    assert ablation_crop_vs_full(train, test, cfg, [20.0, 50.0]) == report


# sha256 (first 16 hex digits) of what build_crops returns for each detector
# mode on 12 frames of each of the four kinds at 120x160 and at 97x131: the
# float32 crop bytes, the label crops as uint8 bytes and the boxes.  The
# digests come from the float64/int64 data path that the uint8 frames and
# label maps replaced, so they pin the two as byte-identical.  The path is
# elementwise numpy only, so no digest depends on the BLAS.
CROP_DIGESTS = {
    "gt-jitter": {"images": "70424992e9a1abcb", "labels": "516e543810c53d06",
                  "boxes": "2448bd05b4e78044"},
    "heuristic": {"images": "245fe8d075ce3562", "labels": "1618382546e171d2",
                  "boxes": "376769d88e93726b"},
    "full": {"images": "be10dc4959254614", "labels": "a2684b68f25256c4",
             "boxes": "4586013348ecea34"},
}


@pytest.mark.parametrize("mode", DETECTOR_MODES)
def test_build_crops_outputs_are_pinned(mode):
    kinds = ["none", "blur", "occlusion", "domain_shift"]
    samples = [s for h, w in ((120, 160), (97, 131))
               for s in generate_dataset(12, seed=21, kinds=kinds, sev_range=(0.05, 1.0),
                                         h_full=h, w_full=w)]
    images, labels, boxes, _ = build_crops(samples, RunConfig(seed=7), mode)
    assert {name: hashlib.sha256(data).hexdigest()[:16] for name, data in (
        ("images", images.tobytes()), ("labels", labels.astype(np.uint8).tobytes()),
        ("boxes", repr([b.as_tuple() for b in boxes]).encode()))} == CROP_DIGESTS[mode]


def seeded_models(config: RunConfig) -> tuple[SegModel, UncHead]:
    seg = SegModel(config)
    seg.init_params(Rng(config.seed).derive("seg-init"))
    head = UncHead(config)
    head.init_params(Rng(config.seed).derive("unc-init"))
    return seg, head


def mixed_crops(n: int, seed: int, mode: str) -> np.ndarray:
    samples = generate_dataset(n, seed=seed, kinds=["none", "blur", "occlusion", "domain_shift"],
                               sev_range=(0.05, 1.0))
    return build_crops(samples, RunConfig(seed=7), mode)[0]


def fresh_arrays_infer(images: np.ndarray, config: RunConfig
                       ) -> tuple[np.ndarray, np.ndarray]:
    """infer_samples through the training forwards (keep_cache=True) of
    fresh ``seeded_models`` for each batch, so no buffer carries over from
    one batch to the next: the same ufuncs in the same order, batch by
    batch, so the same bytes on any BLAS."""
    y_hat, s_unc = [], []
    for i in range(0, len(images), INFER_BATCH):
        seg, head = seeded_models(config)
        feats = seg.forward_batch(images[i:i + INFER_BATCH], keep_cache=True)
        logits = seg.head.astype(feats.z.dtype) @ feats.z.reshape(seg.config.d, -1)
        y_hat.append(np.argmax(logits, axis=0).reshape(images[i:i + INFER_BATCH].shape))
        s_unc.append(unc_score(head.forward(feats, keep_cache=True)))
    return np.concatenate(y_hat), np.concatenate(s_unc)


@pytest.mark.fixed_mmap
def test_infer_samples_matches_fresh_arrays():
    # 37 mixed crops at the default geometry: two full batches and a
    # partial one, so the reused buffers change shape
    config = RunConfig(seed=7)
    seg, head = seeded_models(config)
    images = mixed_crops(37, 41, "gt-jitter")
    y_hat, s_unc = infer_samples(images, seg, head)
    want = fresh_arrays_infer(images, config)
    assert np.array_equal(y_hat, want[0]) and np.array_equal(s_unc, want[1])
    # other crops through the same models give what fresh models give: the
    # 5-crop set runs first, in the shape of the first call's last batch
    other = mixed_crops(21, 42, "heuristic")
    for images in (other[:5], other):
        got = infer_samples(images, seg, head)
        want = infer_samples(images, *seeded_models(config))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def head_step(seg: SegModel, head: UncHead, images: np.ndarray, labels: np.ndarray
              ) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and gradients of one step of ``train_unc`` with the original loss."""
    stages = StageFeatures(*seg.stages(images), z=seg.forward_batch(images).z.copy())
    t = variance_targets(stages.z, labels, seg.head)
    loss, dcov = original_loss_batch(head.forward(stages, keep_cache=True), t)
    return loss, head.backward(dcov)


@pytest.mark.fixed_mmap
def test_training_steps_ignore_poisoned_buffers():
    # a step of each stage fills every conv's buffer; NaN written over them
    # all must not reach the next steps, which rewrite each buffer in full
    config = RunConfig(seed=7)
    images, labels, _, _ = build_crops(
        generate_dataset(2 * SEG_BATCH, seed=44, kinds=["none", "blur", "occlusion"],
                         sev_range=(0.05, 1.0)), config)
    first, second = slice(0, SEG_BATCH), slice(SEG_BATCH, 2 * SEG_BATCH)
    seg, head = seeded_models(config)
    seg_loss(seg, images[first], labels[first])
    head_step(seg, head, images[first], labels[first])
    for step in (lambda s, h, x, y: seg_loss(s, x, y)[:2], head_step):
        for conv in seg.convs + head.convs:
            conv._out.fill(np.nan)
        loss, grads = step(seg, head, images[second], labels[second])
        want_loss, want_grads = step(*seeded_models(config), images[second], labels[second])
        assert loss == want_loss
        assert grads.keys() == want_grads.keys()
        for k, g in want_grads.items():
            assert np.array_equal(grads[k], g), k


@pytest.mark.fixed_mmap
def test_warm_inference_allocates_no_activations(monkeypatch):
    # 48 crops at the default geometry: three full batches, whose layers
    # reuse the buffers of a first call.  One float32 [D, 16, 96, 96]
    # activation is 4.7 MB.  The peaks are taken apart per batch: 3.8 MB in
    # predict_batch (the 0.4 MB of outputs infer_samples holds, the class
    # logits, and class_labels' running maximum, masks and uint8 labels)
    # and 2.1 MB in the head and the score that follow it, where the whole
    # pass peaked at 36 MB when every batch allocated its activations.
    # Convs without reuse (42 MB), an allocating ReLU (20 MB), np.argmax's
    # copy of the logits and its int64 labels (6.3 MB in predict_batch) or
    # a fresh softplus work or log array (5.2 MB after predict_batch) fail.
    config = RunConfig(seed=7)
    seg, head = seeded_models(config)
    images = mixed_crops(48, 43, "gt-jitter")
    infer_samples(images, seg, head)
    predict_peaks, rest_peaks = [], []

    def traced_predict(model, batch):
        rest_peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        out = predict_batch(model, batch)
        predict_peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(pipeline, "predict_batch", traced_predict)
    tracemalloc.start()
    try:
        infer_samples(images, seg, head)
        rest_peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert len(predict_peaks) == 3
    assert max(predict_peaks) < 5e6, predict_peaks
    assert max(rest_peaks) < 3.5e6, rest_peaks


# The tiny run's train_log rows, (epoch, loss, miou) for train-seg and
# (epoch, loss, target_abs_err) for train-unc with each loss, then each head's
# s_unc on the 8 test crops.  Identical at 1 and 2 BLAS threads and with a
# fixed mmap threshold; the numpy 1.26 CI leg has not run it yet.  A change
# that moves trained floats re-pins these values and says why in CHANGES.md.
PINNED_SEG = [0.0, 3246.0063157454133, 0.1071902964432174,
              1.0, 3206.5462217256427, 0.10887737387491743]
PINNED_UNC = {
    "surrogate": [0.0, 0.13674738531472766, 0.07110666410231185,
                  1.0, 0.1367381477721524, 0.07110581320731794],
    "original": [0.0, -0.10405129953325853, 0.07110586376708422,
                 1.0, -0.10738306069532655, 0.07109724877156404],
}
PINNED_S_UNC = {
    "surrogate": [-41577.92202734947, -40987.14143848419, -41068.12234699726,
                  -41565.62060081959, -41485.60374379158, -41464.39852166176,
                  -41337.45364201069, -41390.366783738136],
    "original": [-41554.34497022629, -40973.37815749645, -41054.88463318348,
                 -41541.60387670994, -41463.32816672325, -41441.571645736694,
                 -41318.59685301781, -41368.05489063263],
}


@pytest.mark.fixed_mmap
def test_tiny_run_matches_pinned_values():
    """Training and scoring end to end against fixed values, so a change to
    momentum, the lr schedule or the variance floor fails Tier-1.  The bound
    was fixed before the first run: adding 1e-7 to 64 crop pixels moves the
    values by about 1e-7 relative, an ``EPS_FLOOR`` of 2e-6 by 7.1e-5."""
    config = RunConfig(seed=3, crop_h=48, crop_w=48, d=6, widths=[4, 8], head_width=4,
                       seg_epochs=2, unc_epochs=2)
    kinds = ["none", "blur", "occlusion", "domain_shift"]
    train, test = (generate_dataset(n, seed=seed, kinds=kinds, sev_range=(0.05, 1.0),
                                    h_full=64, w_full=80) for n, seed in ((32, 101), (8, 202)))
    images, labels, _, _ = build_crops(train, config, "gt-jitter")
    test_images = build_crops(test, config, "gt-jitter")[0]
    seg, rows = train_seg(images, labels, config)
    np.testing.assert_allclose([v for row in rows for v in row], PINNED_SEG, rtol=1e-5, atol=0)
    for loss in ("surrogate", "original"):
        head, rows = train_unc(images, labels, seg, loss, config)
        np.testing.assert_allclose([v for row in rows for v in row], PINNED_UNC[loss],
                                   rtol=1e-5, atol=0, err_msg=loss)
        np.testing.assert_allclose(infer_samples(test_images, seg, head)[1],
                                   PINNED_S_UNC[loss], rtol=1e-5, atol=0, err_msg=loss)
