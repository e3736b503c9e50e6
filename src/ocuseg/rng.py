"""Counter-based deterministic random number generator (splitmix64).

The generator is a pure function of (seed, counter): draw ``i`` of a stream
is ``mix64(seed + (i+1) * GOLDEN_GAMMA)`` where ``mix64`` is the splitmix64
finalizer (xor-shift-multiply with the constants below, all arithmetic mod
2**64).  Scalar and vectorized draws produce bit-identical streams, so the
sequence is reproducible across runs and platforms.

Floats in [0, 1) take the top 53 bits: ``(u64 >> 11) * 2**-53``.  Normals
use the Box-Muller transform on consecutive uniform pairs.
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
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
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
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            state = np.uint64(self.seed) + idx * np.uint64(GOLDEN_GAMMA)
            return _mix64_array(state)

    # -- float draws --------------------------------------------------

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * ((self.u64() >> 11) * _INV_2_53)

    def uniform_array(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        u = (self.u64_array(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        return lo + (hi - lo) * u

    def normal_array(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        m = (n + 1) // 2
        u1 = self.uniform_array(m)
        u2 = self.uniform_array(m)
        u1 = np.maximum(u1, _INV_2_53)  # avoid log(0)
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.empty(2 * m)
        out[0::2] = r * np.cos(2.0 * np.pi * u2)
        out[1::2] = r * np.sin(2.0 * np.pi * u2)
        return mu + sigma * out[:n]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle of a list of n items: for i from
        n - 1 down to 1, swap item i with item j = (next draw) mod (i + 1),
        a modulo reduction whose bias is negligible here.  Takes max(n - 1,
        0) draws.  Not for a 2-D array, whose rows would swap through views."""
        n = len(items)
        js = self.u64_array(max(n - 1, 0)) % np.arange(n, 1, -1, dtype=np.uint64)
        for i, j in zip(range(n - 1, 0, -1), js.tolist()):
            items[i], items[j] = items[j], items[i]
