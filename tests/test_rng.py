"""The seeded generator's exact rational samples."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from semiramsey import SeededRng


@pytest.mark.parametrize("lo, hi, denominator", [
    (0, 1, 1 << 16),
    (-10, 10, 1 << 16),
    (F(-1, 10), F(1, 10), 1 << 16),
    (F(-7, 3), F(-1, 6), 97),
    (-5, F(-9, 4), 1),
    (F(2, 5), 3, 12),
])
def test_fraction_equals_grid_point_of_twin_stream(lo, hi, denominator):
    rng, twin = SeededRng(11), SeededRng(11)
    for _ in range(200):
        value = rng.fraction(lo, hi, denominator)
        k = twin.randint(0, denominator)
        assert value == lo + (hi - lo) * F(k, denominator)
        assert type(value) is F
    assert rng.next_u64() == twin.next_u64()


def test_fraction_default_grid_is_two_to_the_sixteen():
    rng, twin = SeededRng(3), SeededRng(3)
    for _ in range(50):
        k = twin.randint(0, 1 << 16)
        assert rng.fraction(F(-1), F(1)) == -1 + 2 * F(k, 1 << 16)
