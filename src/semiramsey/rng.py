"""Deterministic seeded randomness.

Every randomized routine in the package draws from SeededRng, a small
counter-based generator (splitmix64, one step in `_mix`).  Identical seeds
give identical streams on every platform and Python version, which keeps
CLI runs byte-for-byte reproducible.  Every draw is an int or an exact
Fraction; nothing here returns a float.  A caller that needs many draws
from one range takes them in one `randints` call, which yields the same
stream as that many `randint` calls.
"""

from __future__ import annotations

from fractions import Fraction

_MASK = (1 << 64) - 1


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class SeededRng:
    """splitmix64 stream with helpers for ints, fractions and sampling."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        return _mix(self._state)

    def derive(self, label: str) -> "SeededRng":
        """Independent stream keyed by a label; used to split one CLI seed
        across unrelated tasks without coupling their draws."""
        h = self._state
        for ch in label.encode():
            h = _mix(h ^ ch)
        return SeededRng(h)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]: the one draw of `randints`."""
        return self.randints(lo, hi, 1)[0]

    def randints(self, lo: int, hi: int, count: int) -> list[int]:
        """`count` uniform integers in [lo, hi] in one loop, each
        rejection-sampled from the `next_u64` stream (no modulo bias): the
        list that many `randint(lo, hi)` calls return, with the state left
        where they leave it."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        limit = (1 << 64) - ((1 << 64) % span)
        state = self._state
        out = []
        for _ in range(count):
            while True:
                state = (state + 0x9E3779B97F4A7C15) & _MASK
                u = _mix(state)
                if u < limit:
                    break
            out.append(lo + u % span)
        self._state = state
        return out

    def fraction(self, lo: int | Fraction, hi: int | Fraction) -> Fraction:
        """Exact rational sample from [lo, hi] on the uniform grid of 2^16
        steps: lo + (hi - lo) * k / 2^16, formed as a single Fraction."""
        k = self.randint(0, 1 << 16)
        ln, ld = lo.as_integer_ratio()
        hn, hd = hi.as_integer_ratio()
        return Fraction((ln * hd << 16) + (hn * ld - ln * hd) * k,
                        ld * hd << 16)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def sample(self, seq, k: int) -> list:
        pool = list(seq)
        self.shuffle(pool)
        return pool[:k]
