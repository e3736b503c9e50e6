import math
import tracemalloc

import numpy as np
import pytest

from gradcheck import grad_check, pack_params, unpack_params

from ocuseg import uncertainty
from ocuseg.config import RunConfig
from ocuseg.layers import Conv2d, softplus
from ocuseg.rng import Rng
from ocuseg.segnet import INFER_BATCH, SegModel, count_flops, predict_batch
from ocuseg.uncertainty import (EPS_FLOOR, UncHead, _softplus_inverse, head_flops,
                                landscape_grid, loss_probe, original_loss_batch,
                                residual_targets, surrogate_loss_batch, train_unc, unc_score)

LN_2PI = math.log(2 * math.pi)


def brute_force_optimal_cov(v: np.ndarray, iters: int = 100) -> np.ndarray:
    """Numerically minimize the CE summand per dimension by golden-section
    search on sigma^2 in [1e-8, 1e4 * v_d^2 + 1]; independent of the closed
    form s = v * v it is used to verify (the 1-D summands separate)."""
    orig_shape = np.asarray(v).shape
    v2 = (np.asarray(v, dtype=np.float64) ** 2).reshape(-1)
    lo = np.full_like(v2, 1e-8)
    hi = 1e4 * v2 + 1.0
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0

    def f(s2: np.ndarray) -> np.ndarray:
        return 0.5 * v2 / s2 + 0.5 * np.log(s2)

    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        left = f1 < f2                      # minimum in [lo, x2]
        hi = np.where(left, x2, hi)
        lo = np.where(left, lo, x1)
        x1 = hi - inv_phi * (hi - lo)
        x2 = lo + inv_phi * (hi - lo)
        f1, f2 = f(x1), f(x2)
    return ((lo + hi) / 2.0).reshape(orig_shape)


def seg_and_batch(tiny_config, tiny_batch):
    model = SegModel(tiny_config)
    model.init_params(Rng(3).derive("seg-init"))
    images, labels = tiny_batch
    stages = model.forward_batch(images)
    centers = model.head.copy()
    v = residual_targets(stages.z, labels, centers)
    return model, stages, centers, v, images, labels


class TestHeadForward:
    def test_zero_init_constant_variance(self, tiny_config, tiny_batch):
        model, stages, *_ = seg_and_batch(tiny_config, tiny_batch)
        head = UncHead(tiny_config)      # zero params
        cov = head.forward(stages)
        expected = math.log(2.0) + EPS_FLOOR
        np.testing.assert_allclose(cov, expected, atol=1e-12)

    def test_variance_floor_holds(self, tiny_config, tiny_batch):
        model, stages, *_ = seg_and_batch(tiny_config, tiny_batch)
        head = UncHead(tiny_config)
        head.init_params(Rng(4).derive("unc-init"))
        # push pre-activations very negative: variances must stay >= floor
        head.h4.bias = np.full_like(head.h4.bias, -60.0)
        cov = head.forward(stages)
        assert cov.min() >= EPS_FLOOR

    def test_stage_shape_mismatch_rejected(self, tiny_config, tiny_batch):
        model, stages, *_ = seg_and_batch(tiny_config, tiny_batch)
        head = UncHead(tiny_config)
        broken = type(stages)(stage1=stages.stage1,
                              stage2=stages.stage2[:, :, :2, :2],
                              z=stages.z)
        with pytest.raises(ValueError, match="stage shapes"):
            head.forward(broken)

    def test_inference_peak_memory_below_nine_latents(self, rng):
        # the inference path of one batch on the default config: the conv inputs
        # of the skip joins are read in place, so no upsampled or concatenated
        # copy adds to the peak
        config = RunConfig(seed=7)
        seg, head = SegModel(config), UncHead(config)
        seg.init_params(rng)
        head.init_params(rng)
        images = rng.uniform_array(INFER_BATCH * 96 * 96).reshape(INFER_BATCH, 96, 96)
        tracemalloc.start()
        _, stages = predict_batch(seg, images)
        unc_score(head.forward(stages))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 9 * stages.z.nbytes, (peak, stages.z.nbytes)


class TestLossValues:
    def test_original_single_dim_zero_residual(self):
        # D=1, v=0, sigma^2=1: only the 2pi constant remains
        cov = np.ones((1, 1, 1, 1))
        v = np.zeros((1, 1, 1, 1))
        loss, _ = original_loss_batch(cov, v)
        assert loss == pytest.approx(0.5 * LN_2PI, abs=1e-12)

    def test_original_at_theorem_optimum(self):
        # D=2, v=(3,4), cov=diag(9,16):
        # 0.5(1+1) + 0.5 ln 144 + ln 2pi
        cov = np.array([9.0, 16.0]).reshape(2, 1, 1, 1)
        v = np.array([3.0, 4.0]).reshape(2, 1, 1, 1)
        loss, _ = original_loss_batch(cov, v)
        assert loss == pytest.approx(1.0 + 0.5 * math.log(144.0) + LN_2PI, abs=1e-12)

    def test_original_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError, match="variance"):
            original_loss_batch(np.zeros((1, 1, 1, 1)), np.ones((1, 1, 1, 1)))

    def test_surrogate_zero_at_target(self):
        v = Rng(1).normal_array(8).reshape(2, 1, 2, 2)
        loss, _ = surrogate_loss_batch(v * v, v)
        assert loss == 0.0

    def test_surrogate_arithmetic(self):
        # D=1, sigma^2=2, v=1 -> (2-1)^2 = 1
        loss, _ = surrogate_loss_batch(np.full((1, 1, 1, 1), 2.0),
                                       np.ones((1, 1, 1, 1)))
        assert loss == 1.0

    def test_surrogate_nonnegative_and_zero_iff_target(self):
        rng = Rng(2)
        for _ in range(20):
            v = rng.normal_array(4).reshape(4, 1, 1, 1)
            cov = np.abs(rng.normal_array(4)).reshape(4, 1, 1, 1) + 0.1
            loss, _ = surrogate_loss_batch(cov, v)
            assert loss >= 0.0
            assert (loss == 0.0) == bool(np.allclose(cov, v * v))


class TestOptimalCov:
    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_both_gradients_vanish_at_v_squared(self, d):
        v = Rng(d).normal_array(d).reshape(d, 1, 1, 1)
        cov = v * v
        _, g_orig = original_loss_batch(cov, v)
        _, g_surr = surrogate_loss_batch(cov, v)
        # 0.5 / cov - 0.5 * v^2 / cov^2 cancels to rounding of its 0.5 / cov terms
        assert np.all(np.abs(g_orig) <= 1e-15 / cov)
        assert np.all(g_surr == 0.0)

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_original_loss_at_v_squared(self, d):
        # the quadratic term 0.5 v^T diag(v*v)^-1 v is exactly d / 2
        v = Rng(10 + d).normal_array(d).reshape(d, 1, 1, 1)
        loss, _ = original_loss_batch(v * v, v)
        expected = 0.5 * d * (1.0 + LN_2PI) + 0.5 * np.log(v * v).sum()
        assert loss == pytest.approx(expected, rel=1e-14, abs=1e-14)

    def test_brute_force_matches_closed_form(self):
        rng = Rng(5)
        for d in (2, 4, 8, 16):
            v = rng.normal_array(d)
            bf = brute_force_optimal_cov(v)
            assert np.abs(bf - v * v).max() < 1e-4
            assert abs(bf.sum() - (v ** 2).sum()) / max((v ** 2).sum(), 1e-12) < 1e-4

    def test_brute_force_minimum_value_matches_plugin(self):
        # the numeric minimum of the CE summand agrees with the closed-form
        # value at sigma^2 = v^2 (per dimension, constants included)
        rng = Rng(6)
        v = rng.uniform_array(4, 0.5, 2.0)
        bf = brute_force_optimal_cov(v)
        per_dim_min = 0.5 * v * v / bf + 0.5 * np.log(bf)
        closed = 0.5 + 0.5 * np.log(v * v)
        np.testing.assert_allclose(per_dim_min, closed, atol=1e-6)


class TestProbesAndScore:
    def test_vanishing_gradient_asymmetry(self):
        probe = loss_probe(np.ones(2), np.full(2, 1e6))
        assert probe["orig_gnorm"] < 1e-5
        assert probe["surr_gnorm"] > 1e5

    def test_both_gradients_vanish_at_optimum(self):
        probe = loss_probe(np.array([1.0, 1.0]), np.full(2, 1.0))   # scale = v^2 = 1
        assert probe["orig_gnorm"] < 1e-8
        assert probe["surr_gnorm"] < 1e-8

    def test_surrogate_gradient_grows_linearly(self):
        v = np.ones(2)
        s1 = loss_probe(v, np.full(2, 1e3))["surr_gnorm"]
        s2 = loss_probe(v, np.full(2, 1e6))["surr_gnorm"]
        assert s2 / s1 == pytest.approx(1e3, rel=1e-2)

    @pytest.mark.parametrize("cov", [[1.0, 0.0], [-1.0, 1.0]])
    def test_probe_rejects_nonpositive_variance(self, cov):
        with pytest.raises(ValueError, match="non-positive variance"):
            loss_probe(np.ones(2), np.array(cov))

    def test_unc_score_values(self):
        # [D, N, H, W] in, one score per crop out
        assert np.array_equal(unc_score(np.ones((2, 3, 4, 4))), np.zeros(3))
        single = np.array([math.e, math.e ** 2]).reshape(2, 1, 1, 1)
        assert unc_score(single) == pytest.approx([3.0], rel=1e-12)
        with pytest.raises(ValueError, match="floor"):
            unc_score(np.full((1, 1, 2, 2), 1e-7))

    def test_unc_score_accepts_float32_variances_at_the_floor(self, tiny_config, tiny_batch):
        images, labels = tiny_batch
        _, stages, *_ = seg_and_batch(tiny_config, (images.astype(np.float32), labels))
        head = UncHead(tiny_config)
        head.init_params(Rng(4).derive("unc-init"))
        head.h4.bias = np.full_like(head.h4.bias, -60.0)
        cov = head.forward(stages)
        floor = np.float32(EPS_FLOOR)
        # float32(1e-6) lies below 1e-6, so the floor is compared in float32
        assert cov.dtype == np.float32 and cov.min() == floor
        assert float(floor) < EPS_FLOOR
        scores = unc_score(cov)
        assert scores.dtype == np.float64 and np.all(np.isfinite(scores))
        for below in (np.nextafter(floor, np.float32(0.0)), np.float32(0.0)):
            low = cov.copy()
            low[0, 0, 0, 0] = below
            with pytest.raises(ValueError, match="variance below floor"):
                unc_score(low)

    def test_pointwise_functions_leave_their_argument_unchanged(self, rng):
        # only an array passed as ``out`` (or softplus's ``work``) is written
        x = rng.normal_array(2 * 3 * 4 * 4).reshape(2, 3, 4, 4).astype(np.float32)
        cov = softplus(x) + np.float32(1.0)
        for f, arg in ((softplus, x), (unc_score, cov)):
            before = arg.copy()
            f(arg)
            assert np.array_equal(arg, before), f.__name__

    def test_unc_score_strictly_monotone(self):
        cov = np.full((2, 2, 3, 3), 2.0)
        base = unc_score(cov)
        cov2 = cov.copy()
        cov2[1, 1, 1, 0] *= 1.01
        scores = unc_score(cov2)
        assert scores[1] > base[1] and scores[0] == base[0]


class TestLandscapeGrid:
    def test_minima_and_convexity(self):
        v = np.array([1.0, 2.0])
        # grid includes (1, 4) exactly
        rows = landscape_grid(v, (0.5, 5.0), 10)
        by_pt = {(r["w1"], r["w2"]): r for r in rows}
        opt = by_pt[(1.0, 4.0)]
        assert opt["orig_gnorm"] == min(r["orig_gnorm"] for r in rows)
        assert opt["surr_gnorm"] == min(r["surr_gnorm"] for r in rows)
        assert opt["orig_loss"] == min(r["orig_loss"] for r in rows)
        assert opt["surr_loss"] == min(r["surr_loss"] for r in rows)
        # surrogate is convex along each axis: second differences >= 0
        ws = sorted({r["w1"] for r in rows})
        for w2 in ws:
            line = [by_pt[(w1, w2)]["surr_loss"] for w1 in ws]
            second = [line[i - 1] - 2 * line[i] + line[i + 1]
                      for i in range(1, len(line) - 1)]
            assert all(s >= -1e-9 for s in second)

    def test_plateau_beyond_optimum(self):
        v = np.array([1.0, 1.0])
        rows = landscape_grid(v, (1.0, 500.0), 50)
        by_pt = {(r["w1"], r["w2"]): r for r in rows}
        ws = sorted({r["w1"] for r in rows})
        diag = [by_pt[(w, w)]["orig_gnorm"] for w in ws if w > 1.5]
        assert all(b <= a for a, b in zip(diag, diag[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="above 0"):
            landscape_grid(np.ones(2), (0.0, 1.0), 10)
        with pytest.raises(ValueError, match="n >= 10"):
            landscape_grid(np.ones(2), (0.5, 1.0), 5)
        with pytest.raises(ValueError, match="2 free variables"):
            landscape_grid(np.ones(3), (0.5, 1.0), 10)


class TestHeadTraining:
    def test_gradcheck_through_head_and_losses(self, tiny_config, tiny_batch):
        model, stages, centers, v, images, labels = seg_and_batch(tiny_config, tiny_batch)
        head = UncHead(tiny_config)
        head.init_params(Rng(3).derive("unc-init"))
        named = head.params()
        vec, layout = pack_params(named)
        from ocuseg.uncertainty import original_loss_batch as olb
        from ocuseg.uncertainty import surrogate_loss_batch as slb

        for loss_fn in (olb, slb):
            def f(wv):
                head.set_params(unpack_params(wv, layout))
                cov = head.forward(stages, keep_cache=True)
                loss, dcov = loss_fn(cov, v)
                grads = head.backward(dcov)
                gvec, _ = pack_params({k: grads[k] for k, _ in layout})
                return loss, gvec

            assert grad_check(f, vec.copy(), 1e-5) < 1e-4

    def test_same_seed_identical_heads(self, tiny_config, tiny_batch):
        model, _, _, _, images, labels = seg_and_batch(tiny_config, tiny_batch)
        cfg = tiny_config
        cfg.unc_epochs = 2
        a, _ = train_unc(images, labels, model, "surrogate", cfg)
        b, _ = train_unc(images, labels, model, "surrogate", cfg)
        for k, p in a.params().items():
            assert np.array_equal(p, b.params()[k]), k

    def test_frozen_latent_computed_once_per_crop(self, tiny_config, monkeypatch):
        model = SegModel(tiny_config)
        model.init_params(Rng(3).derive("seg-init"))
        images = Rng(5).uniform_array(5 * 16 * 16).reshape(5, 16, 16)
        labels = (Rng(6).u64_array(5 * 16 * 16) % 4).astype(np.int64).reshape(5, 16, 16)
        calls = []
        forward = model.conv3.forward
        monkeypatch.setattr(model.conv3, "forward",
                            lambda x, **kw: calls.append(x.shape[1]) or forward(x, **kw))
        monkeypatch.setattr(uncertainty, "UNC_BATCH", 2)
        cfg = tiny_config
        cfg.unc_epochs = 3
        train_unc(images, labels, model, "surrogate", cfg)
        # one pre-pass over ceil(5/2) batches, none in the three epochs
        assert calls == [2, 2, 1]

    def test_bad_loss_kind_rejected(self, tiny_config, tiny_batch):
        model, _, _, _, images, labels = seg_and_batch(tiny_config, tiny_batch)
        with pytest.raises(ValueError, match="loss_kind"):
            train_unc(images, labels, model, "kl", tiny_config)

    def test_softplus_inverse_large_input_without_overflow(self):
        # an expm1 overflow in the branch np.where discards raises here
        with np.errstate(all="raise"):
            out = _softplus_inverse(np.array([1e3, 0.5]))
        assert out[0] == 1e3
        assert out[1] == np.log(np.expm1(0.5))

    def test_target_error_decreases(self, tiny_config, tiny_batch):
        model, _, _, _, images, labels = seg_and_batch(tiny_config, tiny_batch)
        cfg = tiny_config
        cfg.unc_epochs = 6
        _, log = train_unc(images, labels, model, "surrogate", cfg)
        errs = [row[2] for row in log]
        assert errs[-1] < errs[0]


def test_head_flops_formula():
    cfg = RunConfig()
    expected = (2 * 9 * 16 * 8 * 48 * 48
                + 2 * 9 * 8 * 8 * 24 * 24
                + 2 * 9 * 16 * 8 * 48 * 48
                + 2 * 9 * (8 + 8 + 8) * 8 * 96 * 96)
    assert head_flops(cfg) == expected


@pytest.mark.parametrize("geometry", ["default", "tiny"])
def test_flops_match_the_convs_that_run(geometry, request, monkeypatch):
    # 2 * k^2 * C_in * C_out * H * W over the shapes each conv actually sees
    # in one crop's backbone and head forward
    cfg = RunConfig() if geometry == "default" else request.getfixturevalue("tiny_config")
    seen = {}
    forward = Conv2d.forward

    def record(conv, x, **kw):
        out = forward(conv, x, **kw)
        c_in, n, h, w = x.shape
        assert n == 1 and out.shape[2:] == (h, w)
        seen[conv.name] = 2 * conv.kernel.shape[2] * conv.kernel.shape[3] \
            * c_in * out.shape[0] * h * w
        return out

    monkeypatch.setattr(Conv2d, "forward", record)
    stages = SegModel(cfg).forward_batch(np.zeros((1, cfg.crop_h, cfg.crop_w), np.float32))
    UncHead(cfg).forward(stages)
    assert list(seen) == ["conv1", "conv2", "conv3", "h1", "h2", "h3", "h4"]
    assert count_flops(cfg, include_head=False) == sum(seen[c] for c in ("conv1", "conv2", "conv3"))
    assert head_flops(cfg) == sum(seen[c] for c in ("h1", "h2", "h3", "h4"))


def test_param_and_gradient_key_order(tiny_config, tiny_batch):
    # params() order is the tensor order of a checkpoint's weights.bin, and
    # clip_grad_norm sums the gradients in dict order
    _, stages, _, v, _, _ = seg_and_batch(tiny_config, tiny_batch)
    head = UncHead(tiny_config)
    head.init_params(Rng(4))
    keys = [f"h{i}.{p}" for i in range(1, 5) for p in ("kernel", "bias")]
    assert [conv.name for conv in head.convs] == ["h1", "h2", "h3", "h4"]
    assert list(head.params()) == keys
    cov = head.forward(stages, keep_cache=True)
    assert list(head.backward(surrogate_loss_batch(cov, v)[1])) == keys
