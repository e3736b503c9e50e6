import math

import numpy as np
import pytest

from ocuseg.evaluate import (GazeSample, fuse_gaze, pupil_centroid, rank_and_filter,
                             report, spearman)
from ocuseg.metrics import confusion_matrix, metrics_from_confusion


def _conf(correct: int, wrong: int) -> np.ndarray:
    """Confusion with `correct` true-positive background pixels and `wrong`
    background pixels predicted as class 1."""
    c = np.zeros((4, 4), dtype=np.int64)
    c[0, 0] = correct
    c[0, 1] = wrong
    c[1, 1] = 1  # keep class 1 present so its IoU contributes
    return c


class TestRankAndFilter:
    def test_pct_zero_equals_unfiltered(self):
        ids = [f"s{i}" for i in range(10)]
        scores = [float(i) for i in range(10)]
        confs = [_conf(90, 10) for _ in range(10)]
        res = rank_and_filter(ids, scores, confs, [0.0])
        assert res == [{"pct": 0.0, "retained_count": 10,
                        "retained_miou": metrics_from_confusion(sum(confs))["miou"]}]

    def test_anticorrelated_scores_give_monotone_curve(self):
        # higher score = worse image; dropping by score must not hurt MIoU
        n = 100
        ids = [f"s{i:03d}" for i in range(n)]
        scores = [float(i) for i in range(n)]
        confs = [_conf(100 - i, i) for i in range(n)]
        res = rank_and_filter(ids, scores, confs, [1, 2, 3, 4, 5])
        mious = [r["retained_miou"] for r in res]
        assert all(b >= a for a, b in zip(mious, mious[1:]))
        assert [r["retained_count"] for r in res] == [math.ceil((1 - p / 100) * n)
                                                      for p in (1, 2, 3, 4, 5)]

    def test_equal_scores_tie_break_by_id(self):
        ids = ["b", "a", "c"]
        scores = [1.0, 1.0, 1.0]
        confs = [_conf(10, 0), _conf(0, 10), _conf(10, 0)]
        res = rank_and_filter(ids, scores, confs, [34.0])
        # drops one image: the lowest id ("a"), the all-wrong one
        assert res[0]["retained_count"] == 2
        assert res[0]["retained_miou"] == pytest.approx(
            rank_and_filter(["b", "c"], [1.0, 1.0],
                            [_conf(10, 0), _conf(10, 0)], [0.0])[0]["retained_miou"])

    def test_empty_after_filter_rejected(self):
        with pytest.raises(ValueError, match="retains no images"):
            rank_and_filter(["a"], [1.0], [_conf(5, 5)], [100.0])

    @pytest.mark.parametrize("pct", [-5.0, 150.0, float("nan")])
    def test_pct_outside_0_100_rejected(self, pct):
        ids = [f"s{i}" for i in range(8)]
        with pytest.raises(ValueError, match=r"\[0, 100\)"):
            rank_and_filter(ids, [0.0] * 8, [_conf(5, 5)] * 8, [1.0, pct])


class TestReport:
    IDS = ["c", "a", "b"]
    SCORES = [0.5, 2.0, -1.0]
    CONFS = [_conf(90, 10), _conf(50, 50), _conf(100, 0)]

    def test_per_image_follows_input_order(self):
        rows = report(self.IDS, self.SCORES, self.CONFS, [])["per_image"]
        assert rows == [{"id": sid, "s_unc": s, "miou": metrics_from_confusion(c)["miou"],
                         "acc": metrics_from_confusion(c)["acc"]}
                        for sid, s, c in zip(self.IDS, self.SCORES, self.CONFS)]

    def test_unfiltered_is_the_summed_confusion(self):
        rep = report(self.IDS, self.SCORES, self.CONFS, [34.0])
        assert rep["unfiltered"] == metrics_from_confusion(sum(self.CONFS))
        assert rep["tables"] == {
            "filtering": rank_and_filter(self.IDS, self.SCORES, self.CONFS, [34.0]),
            "ablations": {}}

    @pytest.mark.parametrize("cut", [0, 1, 2])
    def test_misaligned_inputs_rejected(self, cut):
        args = [self.IDS, self.SCORES, self.CONFS]
        args[cut] = args[cut][:2]
        with pytest.raises(ValueError, match="must align"):
            report(*args, [1.0])

    def test_no_image_rejected(self):
        with pytest.raises(ValueError, match="at least one image"):
            report([], [], [], [1.0])


class TestPupilCentroid:
    def test_single_pixel(self):
        y = np.zeros((10, 20), dtype=np.int64)
        y[3, 7] = 3
        assert pupil_centroid(y) == ((7 + 0.5) / 20, (3 + 0.5) / 10)

    def test_disc_center(self):
        y = np.zeros((64, 64), dtype=np.int64)
        rr, cc = np.meshgrid(np.arange(64) + 0.5, np.arange(64) + 0.5, indexing="ij")
        y[(rr - 30) ** 2 + (cc - 40) ** 2 <= 100] = 3
        u, v = pupil_centroid(y)
        assert abs(u * 64 - 40) <= 0.5
        assert abs(v * 64 - 30) <= 0.5

    def test_no_pupil(self):
        assert pupil_centroid(np.zeros((4, 4), dtype=np.int64)) is None


class TestFuseGaze:
    def test_equal_scores_give_mean(self):
        samples = [GazeSample((0.2, 0.2), 1.0, (0.0, 0.0)),
                   GazeSample((0.4, 0.6), 1.0, (0.0, 0.0))]
        fused = fuse_gaze(samples, temperature=2.0)
        assert fused == pytest.approx((0.3, 0.4))

    def test_low_temperature_picks_most_confident(self):
        samples = [GazeSample((0.1, 0.1), 5.0, (0.0, 0.0)),
                   GazeSample((0.9, 0.9), 1.0, (0.0, 0.0))]
        fused = fuse_gaze(samples, temperature=1e-6)
        assert fused == pytest.approx((0.9, 0.9), abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            fuse_gaze([], 1.0)

    def test_bad_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            fuse_gaze([GazeSample((0.5, 0.5), 0.0, (0.5, 0.5))], 0.0)


class TestSpearman:
    def test_perfect_monotone(self):
        x = np.arange(50, dtype=float)
        assert spearman(x, x ** 3) == pytest.approx(1.0)
        assert spearman(x, -x) == pytest.approx(-1.0)

    def test_ties_averaged(self):
        assert spearman([1, 1, 2, 2], [1, 1, 2, 2]) == pytest.approx(1.0)

    def test_tie_ranks_exact(self):
        # ranks 1.5, 1.5, 3, 4 against 1, 2, 3, 4: the centered ranks' cross
        # products sum to 4.5 and their squares to 4.5 and 5
        assert spearman([1, 1, 2, 3], [1, 2, 3, 4]) == 4.5 / math.sqrt(22.5)

    def test_matches_loop_reference_on_ties(self):
        def loop_ranks(a):
            order = np.argsort(a, kind="stable")
            r = np.empty(len(a))
            i = 0
            while i < len(a):
                j = i
                while j + 1 < len(a) and a[order[j + 1]] == a[order[i]]:
                    j += 1
                r[order[i:j + 1]] = (i + j) / 2.0 + 1.0
                i = j + 1
            return r

        def loop_spearman(x, y):
            rx, ry = loop_ranks(x), loop_ranks(y)
            rx -= rx.mean()
            ry -= ry.mean()
            return float((rx * ry).sum() / math.sqrt((rx ** 2).sum() * (ry ** 2).sum()))

        rng = np.random.default_rng(4)
        for n in (2, 3, 7, 40, 400):
            x = rng.integers(0, 5, n).astype(float)
            y = rng.integers(0, n, n) + rng.integers(0, 2, n) * 0.5
            if len(set(x)) > 1 and len(set(y)) > 1:
                assert spearman(x, y) == loop_spearman(x, y)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            spearman([bad, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            spearman([1.0, 2.0, 3.0], [1.0, bad, bad])

    @pytest.mark.parametrize("x, y", [([1, 2, 3], [5]), ([1, 2], [1, 2, 3])])
    def test_length_mismatch_rejected(self, x, y):
        # a one-element side used to broadcast to a correlation of 0.0
        with pytest.raises(ValueError, match=f"got {len(x)} and {len(y)}"):
            spearman(x, y)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=3000)
        y = rng.normal(size=3000)
        assert abs(spearman(x, y)) < 0.05
