"""Sturm sequences and exact real-root counting, checked against an
independent Descartes-bisection oracle (tests/oracle_roots.py)."""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracle_roots
from semiramsey import sturm
from semiramsey.poly import _pseudo_divmod
from semiramsey import (
    ArgumentError,
    MultivariatePolynomial as Poly,
    PreconditionError,
    SeededRng,
    count_real_roots,
    from_univariate_coeffs,
    sign_changes,
    sturm_sequence,
    univariate_coeffs,
)


def coeff_lists(seq) -> list[list[F]]:
    return [univariate_coeffs(g) for g in seq]


def test_sturm_sequence_of_square_difference():
    g = from_univariate_coeffs([-1, 0, 1])  # x^2 - 1
    assert coeff_lists(sturm_sequence(g)) == [
        [F(-1), F(0), F(1)],
        [F(0), F(2)],
        [F(1)],
    ]


def test_sturm_sequence_stops_at_zero_remainder():
    g = from_univariate_coeffs([1, -2, 1])  # (x - 1)^2
    assert coeff_lists(sturm_sequence(g)) == [
        [F(1), F(-2), F(1)],
        [F(-2), F(2)],
    ]


def test_sturm_sequence_of_identity():
    g = from_univariate_coeffs([0, 1])
    assert coeff_lists(sturm_sequence(g)) == [[F(0), F(1)], [F(1)]]


def test_sturm_sequence_rejects_zero_polynomial():
    with pytest.raises(ArgumentError):
        sturm_sequence(Poly(1, {}))


def test_sturm_sequence_rejects_multivariate_input():
    with pytest.raises(ArgumentError):
        sturm_sequence(Poly.variable(0, 2))


def test_sign_changes_ignores_zeros():
    assert sign_changes([F(1), F(0), F(-1), F(2)]) == 2
    assert sign_changes([F(0), F(0)]) == 0
    assert sign_changes([1, 0, -1, 0, 1]) == 2


def test_count_two_simple_roots():
    g = from_univariate_coeffs([-1, 0, 1])
    assert count_real_roots(g, F(-2), F(2)) == 2


def test_count_no_real_roots():
    g = from_univariate_coeffs([1, 0, 1])
    assert count_real_roots(g, F(-10), F(10)) == 0


def test_double_root_counted_once():
    g = from_univariate_coeffs([1, -2, 1])
    assert count_real_roots(g, F(0), F(2)) == 1


def test_endpoint_root_is_a_precondition_error():
    g = from_univariate_coeffs([-1, 0, 1])
    seq = sturm_sequence(g)
    # (a, b, witness); with both endpoints roots, a is reported.
    cases = ((F(1), F(2), F(1)), (F(-3), F(-1), F(-1)), (F(-1), F(1), F(-1)))
    for a, b, witness in cases:
        for precomputed in (None, seq):
            with pytest.raises(PreconditionError) as info:
                count_real_roots(g, a, b, precomputed)
            assert info.value.witness == witness


def test_reversed_interval_rejected():
    g = from_univariate_coeffs([-1, 0, 1])
    with pytest.raises(ArgumentError):
        count_real_roots(g, F(2), F(-2))


def test_precomputed_sequence_can_be_reused():
    g = from_univariate_coeffs([0, -1, 0, 1])  # x^3 - x
    seq = sturm_sequence(g)
    assert count_real_roots(g, F(-2), F(2), seq) == 3
    assert count_real_roots(g, F(1, 2), F(2), seq) == 1


@given(st.fractions(min_value=F(1, 5), max_value=9, max_denominator=5))
@settings(max_examples=40, deadline=None)
def test_positive_scaling_leaves_counts_unchanged(scale):
    g = from_univariate_coeffs([-2, -1, 0, 1])
    scaled = Poly.constant(1, scale) * g
    assert (count_real_roots(g, F(-4), F(4))
            == count_real_roots(scaled, F(-4), F(4)))


def _random_poly_and_interval(rng: SeededRng, max_degree: int):
    degree = rng.randint(1, max_degree)
    coeffs = [F(rng.randint(-9, 9)) for _ in range(degree)]
    coeffs.append(F(rng.randint(1, 9)))
    g = from_univariate_coeffs(coeffs)
    a = F(rng.randint(-60, -1), rng.randint(1, 4))
    b = F(rng.randint(1, 60), rng.randint(1, 4))
    while g.eval([a]) == 0:
        a -= 1
    while g.eval([b]) == 0:
        b += 1
    return g, coeffs, a, b


def test_counts_match_independent_oracle_on_random_polynomials():
    rng = SeededRng(20260816)
    for trial in range(400):
        g, coeffs, a, b = _random_poly_and_interval(
            rng.derive(f"sturm-{trial}"), max_degree=8)
        ours = count_real_roots(g, a, b)
        oracle = oracle_roots.count_distinct_roots(coeffs, a, b)
        assert ours == oracle, (coeffs, a, b, ours, oracle)


def test_counts_match_oracle_on_products_of_known_roots():
    rng = SeededRng(7)
    for trial in range(100):
        t_rng = rng.derive(f"roots-{trial}")
        roots = sorted(set(F(t_rng.randint(-12, 12), t_rng.randint(1, 3))
                           for _ in range(t_rng.randint(1, 5))))
        g = from_univariate_coeffs([1])
        for r in roots:
            g = g * from_univariate_coeffs([-r, 1])
        a, b = F(-15), F(15)
        inside = [r for r in roots if a < r < b]
        assert count_real_roots(g, a, b) == len(inside)
        coeffs = univariate_coeffs(g)
        assert oracle_roots.count_distinct_roots(coeffs, a, b) == len(inside)


# -- the integer chain ---------------------------------------------------------

small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def rational_polys(draw):
    """Coefficient lists (index = power) of nonzero rational polynomials;
    about a third are f^2 * h with deg f >= 1, so that the chain ends early
    on a nonconstant gcd."""
    def poly(min_degree, max_degree):
        lower = draw(st.lists(small_rationals, min_size=min_degree,
                              max_size=max_degree))
        return lower + [draw(small_rationals.filter(bool))]

    if draw(st.integers(0, 2)):
        return poly(0, 6)
    f = poly(1, 2)
    return oracle_roots.mul(oracle_roots.mul(f, f), poly(0, 3))


@given(rational_polys(),
       st.fractions(min_value=-12, max_value=12, max_denominator=9),
       st.fractions(min_value=-12, max_value=12, max_denominator=9))
@settings(max_examples=300, deadline=None)
def test_integer_chain_is_a_positive_multiple_of_the_rational_chain(coeffs, a, b):
    g = from_univariate_coeffs(coeffs)
    seq = sturm_sequence(g)
    members = coeff_lists(seq)
    assert len(seq.ints) == len(members)
    for ints, member in zip(seq.ints, members):
        assert all(type(c) is int for c in ints) and math.gcd(*ints) == 1
        ratio = ints[-1] / member[-1]
        assert ratio > 0 and [ratio * c for c in member] == ints
    assume(a != b)
    a, b = min(a, b), max(a, b)
    assume(oracle_roots.evaluate(coeffs, a) != 0)
    assume(oracle_roots.evaluate(coeffs, b) != 0)
    assert (count_real_roots(g, a, b, seq)
            == oracle_roots.count_distinct_roots(coeffs, a, b))


def test_sturm_sequence_is_a_lazy_sequence(monkeypatch):
    built = []
    for name in ("derivative", "univariate_divmod"):
        real = getattr(sturm, name)
        monkeypatch.setattr(sturm, name,
                            lambda *args, real=real: built.append(1) or real(*args))
    g = from_univariate_coeffs([0, -1, 0, 1])  # x^3 - x
    chain = [[F(0), F(-1), F(0), F(1)], [F(-1), F(0), F(3)], [F(0), F(2, 3)], [F(1)]]
    seq = sturm_sequence(g)
    assert isinstance(seq, Sequence)
    assert len(seq) == 4 and seq.ints == [[0, -1, 0, 1], [-1, 0, 3], [0, 1], [1]]
    assert built == []  # len and the int chain build no rational member
    assert univariate_coeffs(seq[1]) == chain[1]
    assert len(built) == 1
    assert coeff_lists(seq) == chain  # iteration after partial access
    assert coeff_lists(seq[-3:]) == chain[1:]
    assert coeff_lists(seq[::-2]) == [chain[3], chain[1]]
    assert seq[-1] is seq[3] and seq[-4] is seq[0] is g
    assert len(built) == 3  # each member is built once
    for index in (4, -5):
        with pytest.raises(IndexError):
            seq[index]


@pytest.mark.parametrize("b", [[3, 1], [3, 2], [1, -3, -4]],
                         ids=["lead-1", "lead-2", "lead-minus-4"])
def test_pseudo_division_leaves_its_inputs_unchanged(b):
    a = [1, -2, 0, 5, 7]
    a_before, b_before = list(a), list(b)
    q, r, s = _pseudo_divmod(a, b)
    assert (a, b) == (a_before, b_before)
    assert len(r) < len(b)
    assert oracle_roots.add(oracle_roots.mul(q, b), r) == [s * c for c in a]
