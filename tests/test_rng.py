import hashlib

import numpy as np
import pytest

from ocuseg.rng import Rng, fnv1a64, mix64

# first outputs for seed 42, frozen to pin the stream bit-exactly
SEED42_FIRST = [13679457532755275413, 2949826092126892291]


def test_stream_frozen():
    r = Rng(42)
    assert [r.u64() for _ in range(2)] == SEED42_FIRST


def test_vector_matches_scalar():
    a = Rng(7)
    b = Rng(7)
    scalar = [a.u64() for _ in range(100)]
    vector = b.u64_array(100).tolist()
    assert scalar == vector
    # continuing after a vector draw stays aligned
    assert a.u64() == b.u64()


def test_same_seed_same_sequence():
    assert Rng(123).u64_array(50).tolist() == Rng(123).u64_array(50).tolist()
    assert Rng(123).u64() != Rng(124).u64()


def test_uniform_range_and_determinism():
    u = Rng(5).uniform_array(10000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02
    assert np.array_equal(u, Rng(5).uniform_array(10000))


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 1.0), (0.05, 1.0)])
def test_uniform_array_matches_scalar_draws(lo, hi):
    a, b = Rng(8), Rng(8)
    vector = a.uniform_array(257, lo, hi)
    scalar = np.array([b.uniform(lo, hi) for _ in range(257)])
    assert np.array_equal(vector.view(np.uint64), scalar.view(np.uint64))
    # a scalar draw after a vector draw stays aligned
    assert a.uniform(lo, hi) == b.uniform(lo, hi)
    assert a.counter == b.counter == 258


# sha256 of the little-endian float64 bytes of normal_array(1001) (odd n) for seed 2024,
# frozen from the draws that copied every intermediate array
NORMAL_1001_SHA256 = {
    (0.0, 1.0): "e45dc1cd5d516b9d31705851343d53ed2c3111a4ebfee20f7437a5704d17d37d",
    (0.5, 0.08): "be43e9e95241f0a03f500ef149c20509a934fa0e0ac6c1be0e0ee45a0696e8b3",
}


@pytest.mark.parametrize("mu, sigma", list(NORMAL_1001_SHA256))
def test_normal_array_frozen(mu, sigma):
    z = Rng(2024).normal_array(1001, mu, sigma)
    assert z.shape == (1001,) and z.dtype == np.float64
    digest = hashlib.sha256(z.astype("<f8").tobytes()).hexdigest()
    assert digest == NORMAL_1001_SHA256[mu, sigma]


def test_normal_moments():
    z = Rng(11).normal_array(40000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_derive_independent_streams():
    root = Rng(99)
    a = root.derive("alpha")
    b = root.derive("beta")
    assert a.u64() != b.u64()
    # derivation does not consume from the parent
    assert root.counter == 0
    # derived streams are reproducible
    assert Rng(99).derive("alpha").u64() == Rng(99).derive("alpha").u64()


def test_mix64_and_fnv_known_values():
    # splitmix64 finalizer of 0 is 0; fnv of empty string is the offset basis
    assert mix64(0) == 0
    assert fnv1a64("") == 0xCBF29CE484222325


def test_shuffle_frozen():
    items = list(range(20))
    r = Rng(1)
    r.shuffle(items)
    assert items == [1, 14, 10, 3, 19, 4, 6, 16, 15, 13, 2, 0, 11, 7, 18, 9, 17, 12, 8, 5]
    assert r.counter == 19
    for n in (0, 1, 2):
        r = Rng(1)
        r.shuffle(list(range(n)))
        assert r.counter == max(n - 1, 0)


def test_shuffle_matches_scalar_fisher_yates():
    # the reference draws one u64 per swap, in the same order and modulo
    for seed in range(5):
        for n in (0, 1, 2, 3, 17, 100):
            a, b = Rng(seed), Rng(seed)
            items, ref = list(range(n)), list(range(n))
            a.shuffle(items)
            for i in range(n - 1, 0, -1):
                j = b.u64() % (i + 1)
                ref[i], ref[j] = ref[j], ref[i]
            assert items == ref and a.counter == b.counter


def test_shuffle_deterministic_permutation():
    items = list(range(20))
    Rng(1).shuffle(items)
    items2 = list(range(20))
    Rng(1).shuffle(items2)
    assert items == items2
    assert sorted(items) == list(range(20))
