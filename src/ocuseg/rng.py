"""Counter-based deterministic random number generator (splitmix64).

The generator is a pure function of (seed, counter): draw ``i`` of a stream
is ``mix64(seed + (i+1) * GOLDEN_GAMMA)`` where ``mix64`` is the splitmix64
finalizer (xor-shift-multiply with the constants below, all arithmetic mod
2**64).  Scalar and vectorized draws produce bit-identical streams, so the
sequence is reproducible across runs and platforms.  The array draws work
in place: the counters' ``arange`` becomes the draws, which become the floats,
and the finalizer's shifted copies share one scratch array.

Floats in [0, 1) take the top 53 bits: ``(u64 >> 11) * 2**-53``.  Normals
use the Box-Muller transform on consecutive uniform pairs, whose radius and
angle overwrite the draws.
"""

from __future__ import annotations

import numpy as np

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

_INV_2_53 = 1.0 / (1 << 53)


def mix64(x: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return x ^ (x >> 31)


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on a uint64 array, which it returns;
    each shifted copy goes through one scratch array."""
    shifted = np.right_shift(x, np.uint64(30))
    x ^= shifted
    x *= np.uint64(_MIX1)
    np.right_shift(x, np.uint64(27), out=shifted)
    x ^= shifted
    x *= np.uint64(_MIX2)
    np.right_shift(x, np.uint64(31), out=shifted)
    x ^= shifted
    return x


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit hash of a UTF-8 string, used to derive stream keys."""
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK
    return h


class Rng:
    """Seeded counter-based generator; every draw advances ``counter`` by one.

    ``derive`` creates an independent child stream keyed by a string or
    integer, without consuming draws from the parent.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self.counter = 0

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed:#x}, counter={self.counter})"

    def derive(self, key: str | int) -> "Rng":
        k = fnv1a64(key) if isinstance(key, str) else (key & _MASK)
        return Rng(mix64(self.seed ^ mix64(k)))

    # -- integer draws ------------------------------------------------

    def u64(self) -> int:
        self.counter += 1
        return mix64((self.seed + self.counter * GOLDEN_GAMMA) & _MASK)

    def u64_array(self, n: int) -> np.ndarray:
        """The next ``n`` draws, computed in place on their counters' arange
        (uint64 array arithmetic wraps mod 2**64 as the scalar masks do)."""
        x = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        x *= np.uint64(GOLDEN_GAMMA)
        x += np.uint64(self.seed)
        return _mix64_array(x)

    # -- float draws --------------------------------------------------

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * ((self.u64() >> 11) * _INV_2_53)

    def uniform_array(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """The next ``n`` draws of ``uniform(lo, hi)``, bit for bit, computed
        in place: the floats overwrite the uint64 draws they are made from,
        and [0, 1) skips ``lo + (hi - lo) * u``, the identity there."""
        x = self.u64_array(n)
        x >>= np.uint64(11)
        u = np.multiply(x, _INV_2_53, out=x.view(np.float64))
        if lo == 0.0 and hi == 1.0:
            return u
        u *= hi - lo
        u += lo
        return u

    def normal_array(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        m = (n + 1) // 2
        r = self.uniform_array(m)
        theta = self.uniform_array(m)
        np.maximum(r, _INV_2_53, out=r)  # avoid log(0)
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta *= 2.0 * np.pi
        out = np.empty(2 * m)
        # a contiguous scratch, not a strided out=, keeps numpy's vector loops
        trig = np.cos(theta)
        out[0::2] = np.multiply(trig, r, out=trig)
        out[1::2] = np.multiply(np.sin(theta, out=trig), r, out=trig)
        out = out[:n]
        out *= sigma
        out += mu
        return out

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle of a list of n items: for i from
        n - 1 down to 1, swap item i with item j = (next draw) mod (i + 1),
        a modulo reduction whose bias is negligible here.  Takes max(n - 1,
        0) draws.  Not for a 2-D array, whose rows would swap through views."""
        n = len(items)
        js = self.u64_array(max(n - 1, 0)) % np.arange(n, 1, -1, dtype=np.uint64)
        for i, j in zip(range(n - 1, 0, -1), js.tolist()):
            items[i], items[j] = items[j], items[i]
