import numpy as np

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
