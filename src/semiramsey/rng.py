"""Deterministic seeded randomness.

Every randomized routine in the package draws from SeededRng, a small
counter-based generator (splitmix64).  Identical seeds give identical
streams on every platform and Python version, which keeps CLI runs
byte-for-byte reproducible.
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

    def random(self) -> float:
        """Float in [0, 1); only used for probabilistic sampling, never for
        exact comparisons."""
        return self.next_u64() / (1 << 64)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], rejection-sampled (no modulo bias)."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + u % span

    def fraction(self, lo: int | Fraction, hi: int | Fraction,
                 denominator: int = 1 << 16) -> Fraction:
        """Exact rational sample from [lo, hi] on a uniform grid: the value
        lo + (hi - lo) * k / denominator, formed as a single Fraction."""
        k = self.randint(0, denominator)
        ln, ld = lo.as_integer_ratio()
        hn, hd = hi.as_integer_ratio()
        return Fraction(ln * hd * denominator + (hn * ld - ln * hd) * k,
                        ld * hd * denominator)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def sample(self, seq, k: int) -> list:
        pool = list(seq)
        self.shuffle(pool)
        return pool[:k]
