"""Sturm sequences and exact real-root counting, checked against an
independent Descartes-bisection oracle (tests/oracle_roots.py)."""

from __future__ import annotations

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracle_roots
from semiramsey import sturm
from semiramsey import (
    ArgumentError,
    MultivariatePolynomial as Poly,
    PreconditionError,
    SeededRng,
    count_real_roots,
    from_univariate_coeffs,
    sturm_sequence,
    univariate_coeffs,
    univariate_divmod,
)
from semiramsey.sturm import sign_changes_at


def assert_positive_multiples(ints: list[list[int]], chain: list[list[F]]):
    """Each int list is primitive and a positive multiple of its member of
    the canonical chain, and the chains are equally long."""
    assert len(ints) == len(chain)
    for coeffs, member in zip(ints, chain):
        assert all(type(c) is int for c in coeffs) and math.gcd(*coeffs) == 1
        ratio = coeffs[-1] / member[-1]
        assert ratio > 0 and [ratio * c for c in member] == coeffs


def test_sturm_sequence_of_square_difference():
    coeffs = [-1, 0, 1]  # x^2 - 1
    assert oracle_roots.canonical_chain(coeffs) == [
        [F(-1), F(0), F(1)],
        [F(0), F(2)],
        [F(1)],
    ]
    assert sturm_sequence(coeffs) == [[-1, 0, 1], [0, 1], [1]]


def test_sturm_sequence_stops_at_zero_remainder():
    coeffs = [1, -2, 1]  # (x - 1)^2
    assert oracle_roots.canonical_chain(coeffs) == [
        [F(1), F(-2), F(1)],
        [F(-2), F(2)],
    ]
    assert sturm_sequence(coeffs) == [[1, -2, 1], [-1, 1]]


def test_sturm_sequence_of_identity():
    assert oracle_roots.canonical_chain([0, 1]) == [[F(0), F(1)], [F(1)]]
    assert sturm_sequence([0, 1]) == [[0, 1], [1]]


def test_sturm_sequence_rejects_zero_polynomial():
    """The zero polynomial has no chain: the builder refuses its empty
    coefficient list, and so the root count refuses it."""
    with pytest.raises(ArgumentError):
        sturm_sequence([])
    with pytest.raises(ArgumentError):
        count_real_roots(Poly(1, {}), -1, 1)


def test_sturm_sequence_rejects_multivariate_input():
    with pytest.raises(ArgumentError):
        count_real_roots(Poly.variable(0, 2), -1, 1)


def test_sign_changes_ignores_zeros():
    """The oracle's count, against which the chain's reader is checked."""
    assert oracle_roots.sign_variations([F(1), F(0), F(-1), F(2)]) == 2
    assert oracle_roots.sign_variations([F(0), F(0)]) == 0
    assert oracle_roots.sign_variations([1, 0, -1, 0, 1]) == 2


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
    seq = sturm_sequence([-1, 0, 1])
    # (a, b, witness); with both endpoints roots, a is reported.
    cases = ((F(1), F(2), F(1)), (F(-3), F(-1), F(-1)), (F(-1), F(1), F(-1)))
    for a, b, witness in cases:
        with pytest.raises(PreconditionError) as info:
            count_real_roots(g, a, b)
        assert info.value.witness == witness
        assert sign_changes_at(seq, witness) is None


def test_reversed_interval_rejected():
    g = from_univariate_coeffs([-1, 0, 1])
    with pytest.raises(ArgumentError):
        count_real_roots(g, F(2), F(-2))


def test_precomputed_sequence_can_be_reused():
    g = from_univariate_coeffs([0, -1, 0, 1])  # x^3 - x
    seq = sturm_sequence([0, -1, 0, 1])
    assert oracle_roots.canonical_chain([0, -1, 0, 1]) == [
        [0, -1, 0, 1], [-1, 0, 3], [0, F(2, 3)], [1]]
    assert seq == [[0, -1, 0, 1], [-1, 0, 3], [0, 1], [1]]
    assert sign_changes_at(seq, F(-2)) - sign_changes_at(seq, F(2)) == 3
    assert sign_changes_at(seq, F(1, 2)) - sign_changes_at(seq, F(2)) == 1
    assert count_real_roots(g, F(1, 2), F(2)) == 1


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
    seq = sturm_sequence(sturm._cleared(coeffs)[0])
    assert_positive_multiples(seq, oracle_roots.canonical_chain(coeffs))
    assume(a != b)
    a, b = min(a, b), max(a, b)
    assume(oracle_roots.evaluate(coeffs, a) != 0)
    assume(oracle_roots.evaluate(coeffs, b) != 0)
    expected = oracle_roots.count_distinct_roots(coeffs, a, b)
    assert sign_changes_at(seq, a) - sign_changes_at(seq, b) == expected
    assert count_real_roots(g, a, b) == expected


@pytest.mark.parametrize("b", [[3, 1], [3, 2], [1, -3, -4]],
                         ids=["lead-1", "lead-2", "lead-minus-4"])
def test_pseudo_division_leaves_its_inputs_unchanged(b):
    a = [1, -2, 0, 5, 7]
    a_before, b_before = list(a), list(b)
    r, s = univariate_divmod(a, b)
    assert (a, b) == (a_before, b_before)
    assert len(r) < len(b)
    s_a_minus_r = oracle_roots.add([s * c for c in a], [-c for c in r])
    assert oracle_roots.poly_divmod(s_a_minus_r, b)[1] == []


# -- the int builder and the sign-change reader --------------------------------


@pytest.mark.parametrize("coeffs", [
    [F(5)], [F(-3, 7)], [F(2, 3), F(-4, 9)], [6, 4], [F(1, 2), F(3, 4), F(-5, 6)],
    [6, 0, -12, 0, 6], [F(-3, 4), 0, F(9, 2), F(1, 8)], [0, 0, 4],
], ids=["deg0", "deg0-fraction", "deg1-fractions", "deg1-content-2",
        "deg2-fractions", "content-6", "deg3-fractions", "x-squared-times-4"])
def test_int_builder_equals_the_sequence_of_g(coeffs):
    """sturm_sequence on the cleared coefficients of g gives lists that are
    each a primitive positive multiple of the canonical member of g (and so
    of d * g, for the factor d > 0 by which the coefficients were
    cleared), and count_real_roots(g) reads that chain."""
    g = from_univariate_coeffs(coeffs)
    ints, d = sturm._cleared(univariate_coeffs(g))
    assert d > 0 and ints == [d * c for c in univariate_coeffs(g)]
    built = sturm_sequence(ints)
    assert_positive_multiples(built, oracle_roots.canonical_chain(coeffs))
    assert_positive_multiples(built, oracle_roots.canonical_chain(ints))
    a, b = -100, 100  # every root of g lies in (-37, 37) (Cauchy's bound)
    assert count_real_roots(g, a, b) == (
        sign_changes_at(built, a) - sign_changes_at(built, b))


def test_int_builder_refuses_a_zero_lead():
    for coeffs in ([], [0], [3, 0]):
        with pytest.raises(ArgumentError):
            sturm_sequence(coeffs)


@given(rational_polys(),
       st.lists(st.fractions(min_value=-12, max_value=12, max_denominator=9),
                min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_sign_change_reader_counts_the_members_signs(coeffs, xs):
    """At int and Fraction points the reader gives the sign changes of the
    canonical members' signs there, and None exactly at the roots of g."""
    seq = sturm_sequence(sturm._cleared(coeffs)[0])
    chain = oracle_roots.canonical_chain(coeffs)
    assert len(seq) == len(chain)
    for x in xs + [int(x) for x in xs]:
        values = [oracle_roots.evaluate(m, x) for m in chain]
        got = sign_changes_at(seq, x)
        assert got == (None if values[0] == 0
                       else oracle_roots.sign_variations(values))
