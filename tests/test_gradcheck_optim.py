import numpy as np
import pytest

from gradcheck import grad_check, pack_params, unpack_params

from ocuseg.optim import SgdMomentum, fit
from ocuseg.rng import Rng


class TestGradCheck:
    def test_quadratic(self):
        w0 = Rng(1).normal_array(20)

        def f(w):
            return float(w @ w), 2.0 * w

        assert grad_check(f, w0, 1e-5) < 1e-9

    def test_detects_wrong_gradient(self):
        w0 = Rng(1).normal_array(5)

        def f(w):
            return float(w @ w), 3.0 * w   # wrong factor

        assert grad_check(f, w0, 1e-5) > 0.1

    def test_eps_validated(self):
        with pytest.raises(ValueError, match="eps"):
            grad_check(lambda w: (0.0, w), np.zeros(2), 1e-2)

    def test_nonfinite_value_rejected(self):
        def f(w):
            return float("nan"), w

        with pytest.raises(ValueError, match="non-finite"):
            grad_check(f, np.ones(2), 1e-5)

    def test_pack_unpack_roundtrip(self):
        named = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([7.0])}
        vec, layout = pack_params(named)
        back = unpack_params(vec, layout)
        assert np.array_equal(back["a"], named["a"])
        assert np.array_equal(back["b"], named["b"])


class TestSgd:
    def test_lr_zero_keeps_params(self):
        p = {"w": np.array([1.0, 2.0])}
        SgdMomentum(0.0, 0.9).step(p, {"w": np.array([5.0, -3.0])})
        assert np.array_equal(p["w"], [1.0, 2.0])

    def test_plain_step(self):
        p = {"w": np.array([1.0, 2.0])}
        SgdMomentum(1.0, 0.0).step(p, {"w": np.array([0.5, -0.5])})
        assert np.array_equal(p["w"], [0.5, 2.5])

    def test_quadratic_contraction(self):
        # 100 steps on (w-3)^2 at lr 0.1 contract to the minimum
        opt = SgdMomentum(0.1, 0.0)
        p = {"w": np.array([0.0])}
        for _ in range(100):
            opt.step(p, {"w": 2.0 * (p["w"] - 3.0)})
        assert abs(p["w"][0] - 3.0) < 1e-6

    def test_nonfinite_grads_abort(self):
        opt = SgdMomentum(0.1, 0.9)
        p = {"w": np.ones(2)}
        with pytest.raises(FloatingPointError, match="w"):
            opt.step(p, {"w": np.array([np.nan, 1.0])})
        with pytest.raises(FloatingPointError, match="w"):
            opt.step(p, {"w": np.array([np.inf, 0.0])})
        assert np.array_equal(p["w"], [1.0, 1.0])

    def test_momentum_accumulates(self):
        opt = SgdMomentum(1.0, 0.5)
        p = {"w": np.array([0.0])}
        opt.step(p, {"w": np.array([1.0])})      # v=1, w=-1
        opt.step(p, {"w": np.array([1.0])})      # v=1.5, w=-2.5
        assert p["w"][0] == pytest.approx(-2.5)

    def test_deterministic(self):
        def run():
            opt = SgdMomentum(0.01, 0.9)
            p = {"w": np.linspace(0, 1, 5)}
            for i in range(10):
                opt.step(p, {"w": np.full(5, 0.1 * (i + 1))})
            return p["w"].copy()

        assert np.array_equal(run(), run())


class TestFit:
    """``fit`` driven by a stub batch callable: 5 examples in batches of 2."""

    @staticmethod
    def start(losses, params, calls):
        def step_batch(idx):
            calls.append(list(idx))
            loss = losses[len(calls) - 1]
            return loss, {"w": np.ones(1)}, 10.0 * loss

        return fit(step_batch, params, 5, epochs=2, batch=2, lr=0.1, momentum=0.0,
                   shuffler=Rng(4), clip=lambda grads: 0.0)

    def test_means_are_batch_means(self):
        calls = []
        rows = list(self.start([1.0, 2.0, 4.0, 8.0, 16.0, 32.0], {"w": np.zeros(1)}, calls))
        assert [len(c) for c in calls] == [2, 2, 1] * 2
        assert sorted(sum(calls[:3], [])) == sorted(sum(calls[3:], [])) == [0, 1, 2, 3, 4]
        assert rows == [(0, [7.0 / 3, 70.0 / 3]), (1, [56.0 / 3, 560.0 / 3])]

    def test_nan_loss_aborts_before_its_step(self):
        calls, params = [], {"w": np.zeros(1)}
        run = self.start([1.0, 1.0, 1.0, float("nan"), 1.0, 1.0], params, calls)
        assert next(run)[0] == 0
        after_epoch_0 = params["w"].copy()
        assert after_epoch_0[0] < 0.0
        with pytest.raises(FloatingPointError, match="training diverged at epoch 1"):
            next(run)
        assert len(calls) == 4
        assert np.array_equal(params["w"], after_epoch_0)
