import re

import numpy as np
import pytest

from ocuseg.metrics import check_labels, confusion_matrix, metrics_from_confusion


def metrics(y_hat, y):
    return metrics_from_confusion(confusion_matrix(y_hat, y))


def test_perfect_prediction():
    y = np.array([[0, 1], [2, 3]])
    m = metrics(y, y)
    assert m["miou"] == 1.0
    assert m["acc"] == 1.0
    assert m["f1"] == 1.0
    assert m["e1"] == 0.0


def test_two_class_half_flipped():
    # 8 pixels of class 0, 8 of class 1; half of each predicted as the other
    y = np.array([0] * 8 + [1] * 8).reshape(4, 4)
    y_hat = y.copy().reshape(-1)
    y_hat[[0, 1, 2, 3, 8, 9, 10, 11]] = 1 - y_hat[[0, 1, 2, 3, 8, 9, 10, 11]]
    y_hat = y_hat.reshape(4, 4)
    m = metrics(y_hat, y)
    assert m["acc"] == 0.5
    # per class: TP=4, FP=4, FN=4 -> IoU = 4/12
    assert m["miou"] == pytest.approx(4 / 12)
    # F1 = 2*4/(2*4+4+4) = 0.5; E1 = 8/16 per class
    assert m["f1"] == pytest.approx(0.5)
    assert m["e1"] == pytest.approx(0.5)


def test_absent_classes_excluded():
    y = np.zeros((5, 5), dtype=np.int64)
    m = metrics(np.zeros_like(y), y)
    # classes 1..3 would each add an IoU and F1 of 0 if counted
    assert m["miou"] == 1.0 and m["f1"] == 1.0


def test_predicted_only_class_counts_as_present():
    y = np.zeros((4, 4), dtype=np.int64)
    y_hat = y.copy()
    y_hat[0, 0] = 3
    m = metrics(y_hat, y)
    # class 3 present via prediction with IoU 0, class 0 has IoU 15/16
    assert m["miou"] == 15 / 32


def test_confusion_of_uint8_labels_matches_int64():
    # every (truth, prediction) pair: ``y * N_CLASSES + y_hat`` stays below
    # 16 in uint8, under both numpy 1.x value-based casting and NEP 50
    y, y_hat = (a.reshape(1, -1) for a in np.divmod(np.arange(16), 4))
    want = confusion_matrix(y_hat.astype(np.int64), y.astype(np.int64))
    assert np.array_equal(want, np.ones((4, 4), dtype=np.int64))
    for a, b in ((np.uint8, np.uint8), (np.uint8, np.int64), (np.int64, np.uint8)):
        assert np.array_equal(confusion_matrix(y_hat.astype(a), y.astype(b)), want)


def test_confusion_orientation_and_total():
    y = np.array([[0, 1]])
    y_hat = np.array([[1, 1]])
    conf = confusion_matrix(y_hat, y)
    assert conf[0, 1] == 1      # gt 0 predicted 1
    assert conf[1, 1] == 1
    assert conf.sum() == 2


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        metrics(np.zeros((2, 2), dtype=int), np.zeros((3, 3), dtype=int))


def test_aggregate_permutation_invariance():
    rngs = np.random.default_rng(0)
    confs = [confusion_matrix(rngs.integers(0, 4, (8, 8)), rngs.integers(0, 4, (8, 8)))
             for _ in range(10)]
    a = metrics_from_confusion(sum(confs[i] for i in range(10)))
    b = metrics_from_confusion(sum(confs[i] for i in reversed(range(10))))
    assert a["miou"] == b["miou"]


@pytest.mark.parametrize("y_hat,y,bad", [
    ([7], [0], "[7]"),
    ([1], [-1], "[-1]"),
    ([4, 4], [1, 2], "[4]"),
], ids=["pred-above", "gt-below", "pred-repeated"])
def test_out_of_range_labels_rejected(y_hat, y, bad):
    # every joint index 4*y + y_hat here is inside 0..15
    with pytest.raises(ValueError, match=re.escape(f"outside 0..3: {bad}")):
        confusion_matrix(np.array(y_hat), np.array(y))


def test_check_labels_lists_bad_values():
    check_labels(np.array([[0, 1], [2, 3]]))
    with pytest.raises(ValueError, match=r"\[-2, 9\]"):
        check_labels(np.array([9, 0, -2, 9]))
