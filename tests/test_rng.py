"""The seeded generator's exact rational samples."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from semiramsey import SeededRng


# The grid is fixed at 2^16 steps; the third value of each row seeds both
# streams.
@pytest.mark.parametrize("lo, hi, seed", [
    (0, 1, 1 << 16),
    (-10, 10, 1 << 16),
    (F(-1, 10), F(1, 10), 1 << 16),
    (F(-7, 3), F(-1, 6), 97),
    (-5, F(-9, 4), 1),
    (F(2, 5), 3, 12),
])
def test_fraction_equals_grid_point_of_twin_stream(lo, hi, seed):
    rng, twin = SeededRng(seed), SeededRng(seed)
    for _ in range(200):
        value = rng.fraction(lo, hi)
        k = twin.randint(0, 1 << 16)
        assert value == lo + (hi - lo) * F(k, 1 << 16)
        assert type(value) is F
    assert rng.next_u64() == twin.next_u64()


def test_fraction_default_grid_is_two_to_the_sixteen():
    rng, twin = SeededRng(3), SeededRng(3)
    for _ in range(50):
        k = twin.randint(0, 1 << 16)
        assert rng.fraction(F(-1), F(1)) == -1 + 2 * F(k, 1 << 16)


def test_first_draws_of_seed_one_are_pinned():
    """The stdout of `verify sturm` and `verify milnor-thom` is made of
    these streams (`derive`, then `randint` and `randints`; the grid of
    `verify milnor-thom` from `uint16s`), so any change to the generator
    shows here first."""
    rng = SeededRng(1)
    assert rng.next_u64() == 10451216379200822465
    rng = SeededRng(1)
    assert [rng.randint(0, 10 ** 6) for _ in range(4)] == [
        894471, 974685, 512129, 223386]
    trial = SeededRng(1).derive("trial-0")
    assert [trial.randint(-10, 10) for _ in range(4)] == [6, 7, -9, -4]
    rng = SeededRng(1)
    assert [rng.fraction(-1, 1) for _ in range(3)] == [
        F(-1967, 16384), F(-10865, 32768), F(-3951, 4096)]
    # The 16-bit lanes of the first word above, lowest first, then the next.
    assert SeededRng(1).uint16s(6) == [
        23745, 35074, 11756, 37130, 60519, 25998]


@pytest.mark.parametrize("lo, hi", [
    (5, 5),                      # span 1
    (-5, 5),                     # span 11
    (0, 1 << 16),                # span 2^16 + 1, the grid of `fraction`
    (0, (1 << 63) + (1 << 62)),  # span near 2^63: about 1 draw in 4 rejected
    (-(1 << 63), 0),             # span 2^63 + 1: about 1 draw in 2 rejected
])
@pytest.mark.parametrize("count", [0, 1, 7, 300])
def test_randints_equals_that_many_randint_calls(lo, hi, count):
    batched, single, twin = SeededRng(5), SeededRng(5), SeededRng(5)
    want = [_rejection_draw(twin, lo, hi) for _ in range(count)]
    assert batched.randints(lo, hi, count) == want
    assert [single.randint(lo, hi) for _ in range(count)] == want
    assert batched.next_u64() == single.next_u64() == twin.next_u64()


@pytest.mark.parametrize("count", [0, 1, 3, 4, 7, 300])
def test_uint16s_are_the_lanes_of_next_u64_words(count):
    """Four values per `next_u64` word, lowest 16 bits first; a last word
    is drawn whole even when only some of its lanes are taken."""
    rng, twin = SeededRng(5), SeededRng(5)
    lanes = []
    while len(lanes) < count:
        u = twin.next_u64()
        lanes += [u >> shift & 0xFFFF for shift in (0, 16, 32, 48)]
    got = rng.uint16s(count)
    assert got == lanes[:count]
    assert all(type(k) is int and 0 <= k < 1 << 16 for k in got)
    assert rng.next_u64() == twin.next_u64()


def _rejection_draw(rng: SeededRng, lo: int, hi: int) -> int:
    """The reference draw: raw `next_u64` values at or above the largest
    multiple of the span are rejected, the first kept one is reduced."""
    span = hi - lo + 1
    limit = (1 << 64) - ((1 << 64) % span)
    while True:
        u = rng.next_u64()
        if u < limit:
            return lo + u % span


def test_the_wide_spans_reject_draws():
    """The two widest spans above reject a quarter and a half of the raw
    draws, so the batch is compared where it must skip draws."""
    for span, share in (((1 << 63) + (1 << 62) + 1, 4), ((1 << 63) + 1, 2)):
        limit = (1 << 64) - ((1 << 64) % span)
        rng = SeededRng(5)
        rejected = sum(rng.next_u64() >= limit for _ in range(2000))
        assert abs(rejected * share - 2000) < 400


def test_randints_refuses_an_empty_range():
    rng = SeededRng(1)
    with pytest.raises(ValueError, match="empty range"):
        rng.randints(3, 2, 4)
    with pytest.raises(ValueError, match="empty range"):
        rng.randints(3, 2, 0)
    with pytest.raises(ValueError, match="empty range"):
        rng.randint(3, 2)
    assert rng.next_u64() == SeededRng(1).next_u64()


@pytest.mark.parametrize("n, k", [(0, 0), (0, 3), (1, 1), (5, 0), (5, 2),
                                  (5, 4), (5, 5), (5, 9), (300, 7)])
def test_sample_takes_the_first_k_steps_of_a_front_shuffle(n, k):
    """k distinct items of the sequence, drawn by the first k swaps of a
    Fisher-Yates shuffle from the front (the last step, a swap of the
    last item with itself, is not drawn); all of it, shuffled, when k is
    at least its length."""
    rng, twin = SeededRng(11), SeededRng(11)
    got = rng.sample(range(100, 100 + n), k)
    pool = list(range(100, 100 + n))
    for i in range(min(k, n - 1)):
        j = twin.randint(i, n - 1)
        pool[i], pool[j] = pool[j], pool[i]
    assert got == pool[:k]
    assert len(got) == len(set(got)) == min(k, n)
    assert set(got) <= set(range(100, 100 + n))
    assert rng.next_u64() == twin.next_u64()
