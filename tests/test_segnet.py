import math

import numpy as np
import pytest

from gradcheck import grad_check, pack_params, unpack_params

from ocuseg import segnet
from ocuseg.config import RunConfig
from ocuseg.layers import softmax_rows
from ocuseg.rng import Rng
from ocuseg.segnet import (SegModel, count_flops, evaluate_miou, predict_batch, seg_loss,
                           train_seg)
from ocuseg.uncertainty import residual_targets


def make_model(cfg: RunConfig, seed: int = 3) -> SegModel:
    m = SegModel(cfg)
    m.init_params(Rng(seed).derive("seg-init"))
    return m


class TestForward:
    def test_zero_params_give_zero_latents(self, tiny_config):
        model = SegModel(tiny_config)     # all params start at zero
        img = Rng(1).uniform_array(16 * 16).reshape(16, 16)
        feats = model.forward_batch(img[None])
        assert np.array_equal(feats.z, np.zeros_like(feats.z))

    def test_shapes(self, tiny_config):
        model = make_model(tiny_config)
        img = Rng(1).uniform_array(16 * 16).reshape(16, 16)
        feats = model.forward_batch(img[None])
        w1, w2 = tiny_config.widths
        assert feats.stage1.shape == (w1, 1, 16, 16)
        assert feats.stage2.shape == (w2, 1, 8, 8)
        assert feats.z.shape == (tiny_config.d, 1, 16, 16)

    def test_wrong_input_size_rejected(self, tiny_config):
        model = make_model(tiny_config)
        with pytest.raises(ValueError, match="16x16"):
            model.forward_batch(np.zeros((1, 8, 8)))

    @pytest.mark.parametrize("batch", [1, 4])
    def test_latent_independent_of_batch(self, batch):
        # default geometry, so conv3 runs in several row bands per image
        model = make_model(RunConfig())
        images = Rng(2).uniform_array(7 * 96 * 96).reshape(7, 96, 96)
        # a forward-only result lasts until the next forward-only pass
        whole = model.forward_batch(images).z.copy()
        idx = list(range(7))
        Rng(4).shuffle(idx)
        for i in range(0, 7, batch):
            part = idx[i:i + batch]
            assert np.array_equal(model.forward_batch(images[part]).z, whole[:, part])

    def test_stages_match_forward_batch_without_conv3(self, tiny_config, monkeypatch):
        model = make_model(tiny_config)
        images = Rng(1).uniform_array(3 * 16 * 16).reshape(3, 16, 16)
        full = model.forward_batch(images)
        # stages writes into the same conv buffers, so compare against copies
        want1, want2 = full.stage1.copy(), full.stage2.copy()
        monkeypatch.setattr(model.conv3, "forward", None)    # any call fails
        stage1, stage2 = model.stages(images)
        assert np.array_equal(stage1, want1)
        assert np.array_equal(stage2, want2)

    def test_forward_only_keeps_no_conv_input(self, tiny_config, tiny_batch):
        model = make_model(tiny_config)
        images, labels = tiny_batch
        loss, grads, _ = seg_loss(model, images, labels)
        predict_batch(model, images)
        assert all(conv._x is None for conv in model.convs)
        with pytest.raises(RuntimeError, match="conv3.backward needs a forward"):
            model.conv3.backward(np.zeros((tiny_config.d, 2, 16, 16)))
        again, grads_again, _ = seg_loss(model, images, labels)
        assert again == loss
        for k, g in grads.items():
            assert np.array_equal(grads_again[k], g), k


def predict_one(model, img):
    """Labels [H, W] and per-pixel class probs [4, H*W] of one crop."""
    y_hat, feats = predict_batch(model, img[None])
    probs = softmax_rows(model.head @ feats.z.reshape(model.config.d, -1))
    return probs, y_hat[0]


class TestPredict:
    def test_zero_head_uniform_probs_and_tie_rule(self, tiny_config):
        model = make_model(tiny_config)
        model.head = np.zeros_like(model.head)
        img = Rng(1).uniform_array(16 * 16).reshape(16, 16)
        probs, y_hat = predict_one(model, img)
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)
        assert y_hat.shape == (16, 16) and np.all(y_hat == 0)

    def test_head_scaling_keeps_argmax(self, tiny_config):
        model = make_model(tiny_config)
        img = Rng(1).uniform_array(16 * 16).reshape(16, 16)
        _, y1 = predict_one(model, img)
        model.head = model.head * 7.5
        _, y2 = predict_one(model, img)
        assert np.array_equal(y1, y2)

    def test_probs_sum_to_one(self, tiny_config):
        model = make_model(tiny_config)
        img = Rng(1).uniform_array(16 * 16).reshape(16, 16)
        probs, y_hat = predict_one(model, img)
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-12)
        assert np.array_equal(y_hat.reshape(-1), np.argmax(probs, axis=0))


class TestClassLabels:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_argmax_with_exact_ties(self, dtype):
        rng = np.random.default_rng(5)
        # a few distinct values, so many columns tie in every pattern
        for values in (rng.standard_normal((4, 4000)), rng.integers(-2, 3, (4, 4000)),
                       np.zeros((4, 10)), rng.integers(0, 2, (4, 4000))):
            logits = values.astype(dtype)
            got = segnet.class_labels(logits)
            assert got.dtype == np.uint8
            assert np.array_equal(got, np.argmax(logits, axis=0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_argmax_on_infinities_and_nan(self, dtype):
        rng = np.random.default_rng(6)
        logits = rng.integers(-1, 2, (4, 4000)).astype(dtype)
        for value, share in ((np.inf, 0.2), (-np.inf, 0.2), (np.nan, 0.1)):
            logits[rng.random(logits.shape) < share] = value
        assert np.array_equal(segnet.class_labels(logits), np.argmax(logits, axis=0))

    def test_one_class_and_one_column(self):
        assert segnet.class_labels(np.zeros((1, 3))).tolist() == [0, 0, 0]
        assert segnet.class_labels(np.array([[1.0], [3.0], [3.0], [2.0]])).tolist() == [1]


class TestSegLoss:
    def test_uniform_probs_loss_is_ln4_per_pixel(self, tiny_config, tiny_batch):
        model = SegModel(tiny_config)     # zero params -> uniform probs
        images, labels = tiny_batch
        loss, _, _ = seg_loss(model, images, labels)
        assert loss == pytest.approx(16 * 16 * math.log(4), rel=1e-12)

    def test_perfect_probs_loss_near_zero(self, tiny_config, tiny_batch):
        # zero kernels + a one-hot conv3 bias make z constant; a saturating
        # head then produces near-one-hot probs for an all-class-1 map
        model = SegModel(tiny_config)
        model.conv3.bias = np.array([0.0, 100.0, 0.0, 0.0])
        model.head = np.eye(4, tiny_config.d)
        images, _ = tiny_batch
        labels = np.ones_like(images, dtype=np.int64)
        loss, _, _ = seg_loss(model, images, labels)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_invalid_labels_rejected(self, tiny_config, tiny_batch):
        model = SegModel(tiny_config)
        images, labels = tiny_batch
        bad = labels.copy()
        bad[0, 0, 0] = 5
        with pytest.raises(ValueError, match="labels"):
            seg_loss(model, images, bad)

    def test_gradients_match_finite_differences(self, tiny_config, tiny_batch):
        model = make_model(tiny_config)
        images, labels = tiny_batch
        named = model.params()
        vec, layout = pack_params(named)

        def f(w):
            model.set_params(unpack_params(w, layout))
            loss, grads, _ = seg_loss(model, images, labels)
            gvec, _ = pack_params({k: grads[k] for k, _ in layout})
            return loss, gvec

        assert grad_check(f, vec.copy(), 1e-5) < 1e-4


class TestClassCenters:
    def test_nearest_center_agrees_with_argmax_for_equal_norms(self, tiny_config):
        # when rows of W share a norm, argmax(Wz) == argmin ||z - c|| exactly
        model = make_model(tiny_config)
        rngl = Rng(8)
        raw = rngl.normal_array(4 * tiny_config.d).reshape(4, tiny_config.d)
        model.head = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        img = rngl.uniform_array(16 * 16).reshape(16, 16)
        feats = model.forward_batch(img[None])
        z = feats.z[:, 0].reshape(tiny_config.d, -1)
        by_logit = np.argmax(model.head @ z, axis=0)
        dists = ((z[None, :, :] - model.head[:, :, None]) ** 2).sum(axis=1)
        by_dist = np.argmin(dists, axis=0)
        agreement = (by_logit == by_dist).mean()
        assert agreement >= 0.90
        # with the identity-padded head, class c's template is the unit vector e_c
        labels = (np.arange(16 * 16) % 4).reshape(1, 16, 16)
        v = residual_targets(feats.z, labels, np.eye(4, tiny_config.d))
        assert np.array_equal(v, np.eye(tiny_config.d)[:, labels] - feats.z)


class TestTraining:
    def test_same_seed_bit_identical(self, tiny_config, tiny_batch):
        images, labels = tiny_batch
        cfg = tiny_config
        cfg.seg_epochs = 2
        a, _ = train_seg(images, labels, cfg)
        b, _ = train_seg(images, labels, cfg)
        for k, v in a.params().items():
            assert np.array_equal(v, b.params()[k]), k

    def test_lr_zero_keeps_init(self, tiny_config, tiny_batch, monkeypatch):
        images, labels = tiny_batch
        monkeypatch.setattr(segnet, "SEG_LR", 0.0)
        cfg = tiny_config
        cfg.seg_epochs = 1
        trained, log = train_seg(images, labels, cfg)
        init = make_model(cfg, seed=cfg.seed)
        for k, v in trained.params().items():
            assert np.array_equal(v, init.params()[k]), k
        # the weights never move, so each step's running MIoU is the model's
        want = evaluate_miou(trained, images, labels)
        assert [row[2] for row in log] == pytest.approx([want], rel=1e-12)

    def test_one_forward_per_step(self, tiny_config, monkeypatch):
        # the log's MIoU comes from the steps' own forwards, with no extra
        # pass; at lr 0 it is the model's MIoU over all crops, whatever the
        # batch sizes (here 2, 2 and 1)
        n, cfg = 5, tiny_config
        cfg.seg_epochs = 2
        monkeypatch.setattr(segnet, "SEG_BATCH", 2)
        monkeypatch.setattr(segnet, "SEG_LR", 0.0)
        images = Rng(5).uniform_array(n * 16 * 16).reshape(n, 16, 16)
        labels = (Rng(6).u64_array(n * 16 * 16) % 4).astype(np.int64).reshape(n, 16, 16)
        calls = []
        forward = SegModel.forward_batch
        monkeypatch.setattr(SegModel, "forward_batch",
                            lambda self, *a, **kw: calls.append(1) or forward(self, *a, **kw))
        _, log = train_seg(images, labels, cfg)
        assert len(calls) == cfg.seg_epochs * math.ceil(n / segnet.SEG_BATCH)
        want = evaluate_miou(make_model(cfg, seed=cfg.seed), images, labels)
        assert [row[0] for row in log] == [0, 1]
        assert [row[2] for row in log] == pytest.approx([want, want], rel=1e-12)

    def test_loss_decreases_over_first_epochs(self, tiny_config, tiny_batch, monkeypatch):
        images, labels = tiny_batch
        monkeypatch.setattr(segnet, "SEG_LR", 1e-4)
        cfg = tiny_config
        cfg.seg_epochs = 5
        _, log = train_seg(images, labels, cfg)
        losses = [row[1] for row in log]
        assert all(b <= a for a, b in zip(losses, losses[1:]))


BACKBONE_KEYS = ["conv1.kernel", "conv1.bias", "conv2.kernel", "conv2.bias",
                 "conv3.kernel", "conv3.bias"]


def test_param_and_gradient_key_order(tiny_config, tiny_batch):
    # params() order is the tensor order of a checkpoint's weights.bin, and
    # clip_grad_norm sums the gradients in dict order
    model = make_model(tiny_config)
    assert [conv.name for conv in model.convs] == ["conv1", "conv2", "conv3"]
    assert list(model.params()) == BACKBONE_KEYS + ["head"]
    _, grads, _ = seg_loss(model, *tiny_batch)
    assert list(grads) == ["head"] + BACKBONE_KEYS


class TestFlops:
    def test_single_conv_formula(self):
        cfg = RunConfig(crop_h=96, crop_w=96, d=4, widths=[1, 1])
        # the textbook 2 * k^2 * C_in * C_out * H * W per conv: conv1 1->1 at
        # 96x96, conv2 1->1 at 48x48, conv3 (1 + 1)->4 at 96x96
        assert count_flops(cfg, include_head=False) == 165_888 + 41_472 + 1_327_104

    def test_doubling_spatial_dims_quadruples(self):
        a = count_flops(RunConfig(crop_h=48, crop_w=48))
        b = count_flops(RunConfig(crop_h=96, crop_w=96))
        assert b == 4 * a

    def test_default_config_regression_constant(self):
        # frozen from the formula: conv1 + conv2 + conv3 + head at 96x96,
        # widths (8, 16), D=8
        expected = (2 * 9 * 1 * 8 * 96 * 96
                    + 2 * 9 * 8 * 16 * 48 * 48
                    + 2 * 9 * 24 * 8 * 96 * 96
                    + 2 * 4 * 8 * 96 * 96)
        assert count_flops(RunConfig()) == expected == 39_075_840

    def test_head_toggle(self):
        cfg = RunConfig()
        assert count_flops(cfg, True) - count_flops(cfg, False) \
            == 2 * 4 * cfg.d * cfg.crop_h * cfg.crop_w
