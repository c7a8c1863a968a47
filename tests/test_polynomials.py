"""Exact multivariate polynomial arithmetic, evaluation and restriction."""

from __future__ import annotations

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle_eval
import oracle_roots
from semiramsey import (
    ArgumentError,
    Atom,
    Formula,
    MultivariatePolynomial as Poly,
    OrderedPointSet,
    SeededRng,
    SemiAlgebraicRelation,
    derivative,
    eval_membership,
    from_univariate_coeffs,
    univariate_coeffs,
    univariate_divmod,
)
from semiramsey.poly import IntegerForm


def x(i: int, n: int) -> Poly:
    return Poly.variable(i, n)


@pytest.fixture
def midpoint_gap() -> Poly:
    """x1 + x3 - 2*x2 in three variables."""
    return x(0, 3) + x(2, 3) - Poly.constant(3, 2) * x(1, 3)


# -- evaluation ----------------------------------------------------------------


def test_eval_midpoint_gap_at_arithmetic_progression(midpoint_gap):
    assert midpoint_gap.eval([1, 2, 3]) == 0


def test_eval_zero_polynomial_is_zero_everywhere():
    zero = Poly(3, {})
    assert zero.is_zero()
    assert zero.eval([F(7, 3), -1, 5]) == 0


def test_eval_with_fractional_point():
    p = x(0, 2) * x(1, 2) ** 2
    assert p.eval([F(2, 3), 3]) == 6


def test_eval_dimension_mismatch_rejected(midpoint_gap):
    with pytest.raises(ArgumentError):
        midpoint_gap.eval([1, 2])


def test_eval_returns_exact_fraction():
    p = x(0, 1) ** 3
    value = p.eval([F(1, 3)])
    assert value == F(1, 27) and isinstance(value, F)


# -- restriction ---------------------------------------------------------------


def test_restrict_midpoint_gap_to_middle_variable(midpoint_gap):
    restricted = midpoint_gap.restrict({0: 1, 2: 3})
    assert restricted.num_vars == 1
    assert univariate_coeffs(restricted) == [F(4), F(-2)]


def test_restrict_cancels_to_zero():
    p = x(0, 2) * x(1, 2) - x(1, 2)
    assert p.restrict({0: 1}).is_zero()


def test_restrict_keeps_constant_term():
    p = x(0, 2) ** 2 + x(1, 2)
    restricted = p.restrict({1: F(1, 2)})
    assert univariate_coeffs(restricted) == [F(1, 2), F(0), F(1)]


def test_restrict_out_of_range_variable_rejected(midpoint_gap):
    with pytest.raises(ArgumentError):
        midpoint_gap.restrict({3: 1})


def test_restrict_everything_leaves_constant(midpoint_gap):
    p = midpoint_gap.restrict({0: 1, 1: 3, 2: 4})
    assert p.num_vars == 0
    assert p.eval([]) == -1


# -- ring structure ------------------------------------------------------------


def test_canonical_form_drops_zero_coefficients():
    p = x(0, 1) - x(0, 1)
    assert p.is_zero() and p.terms == {}


def test_equality_and_hash_are_structural():
    a = x(0, 2) + x(1, 2)
    b = x(1, 2) + x(0, 2)
    assert a == b and hash(a) == hash(b)


def test_degree_and_degree_in():
    p = x(0, 2) ** 3 * x(1, 2) + x(1, 2) ** 2
    assert p.degree() == 4
    assert p.degree_in(0) == 3
    assert p.degree_in(1) == 2


def test_power_matches_repeated_multiplication():
    p = x(0, 1) + Poly.constant(1, 1)
    assert p ** 3 == p * p * p
    assert p ** 0 == Poly.constant(1, 1)


def test_mixed_arity_arithmetic_rejected():
    with pytest.raises(ArgumentError):
        x(0, 1) + x(0, 2)


# -- univariate helpers ----------------------------------------------------------


def test_univariate_coeffs_round_trip():
    coeffs = [F(-1), F(0), F(3, 2)]
    assert univariate_coeffs(from_univariate_coeffs(coeffs)) == coeffs


def test_derivative_of_cubic():
    p = from_univariate_coeffs([0, -2, 0, 1])  # x^3 - 2x
    assert univariate_coeffs(derivative(p)) == [F(-2), F(0), F(3)]


def test_univariate_divmod_exact_factorization():
    dividend = from_univariate_coeffs([-1, 0, 0, 1])  # x^3 - 1
    divisor = from_univariate_coeffs([-1, 1])         # x - 1
    quotient, remainder = univariate_divmod(dividend, divisor)
    assert univariate_coeffs(quotient) == [F(1), F(1), F(1)]
    assert remainder.is_zero()


def test_univariate_divmod_with_remainder():
    dividend = from_univariate_coeffs([1, 0, 1])  # x^2 + 1
    divisor = from_univariate_coeffs([-2, 1])     # x - 2
    quotient, remainder = univariate_divmod(dividend, divisor)
    assert univariate_coeffs(remainder) == [F(5)]
    assert dividend == quotient * divisor + remainder


# -- property tests --------------------------------------------------------------

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=6).map(F)


@st.composite
def polynomials(draw, max_vars: int = 3, max_degree: int = 3):
    n = draw(st.integers(1, max_vars))
    exponents = st.tuples(*[st.integers(0, max_degree) for _ in range(n)])
    terms = draw(st.dictionaries(exponents, rationals, max_size=5))
    return Poly(n, terms)


@given(polynomials(), st.data())
@settings(max_examples=150, deadline=None)
def test_restrict_then_eval_matches_direct_eval(p, data):
    point = [data.draw(rationals) for _ in range(p.num_vars)]
    fixed_vars = data.draw(
        st.sets(st.integers(0, p.num_vars - 1), max_size=p.num_vars))
    fixed = {i: point[i] for i in fixed_vars}
    restricted = p.restrict(fixed)
    remaining = [point[i] for i in range(p.num_vars) if i not in fixed]
    assert restricted.eval(remaining) == p.eval(point)


@given(polynomials(max_vars=2), polynomials(max_vars=2), st.data())
@settings(max_examples=100, deadline=None)
def test_product_evaluates_pointwise(p, q, data):
    n = max(p.num_vars, q.num_vars)
    # Rebuild on a shared variable count before multiplying.
    p = Poly(n, {e + (0,) * (n - len(e)): c for e, c in p.terms.items()})
    q = Poly(n, {e + (0,) * (n - len(e)): c for e, c in q.terms.items()})
    point = [data.draw(rationals) for _ in range(n)]
    assert (p * q).eval(point) == p.eval(point) * q.eval(point)


@given(polynomials(), polynomials(), polynomials())
@settings(max_examples=80, deadline=None)
def test_addition_associative_and_commutative(a, b, c):
    n = max(a.num_vars, b.num_vars, c.num_vars)

    def lift(p):
        return Poly(n, {e + (0,) * (n - len(e)): v for e, v in p.terms.items()})

    a, b, c = lift(a), lift(b), lift(c)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


coefficient_lists = st.lists(rationals, max_size=7)


@given(coefficient_lists, coefficient_lists.filter(any), st.booleans())
@example([], [F(3)], False)                       # zero dividend
@example([F(1), F(2), F(-1)], [F(-2, 3)], False)  # constant divisor
@example([F(1), F(2)], [F(1), F(0), F(5)], False)  # divisor of higher degree
@example([F(1), F(-1, 2)], [F(2), F(0), F(1)], True)  # exact division
@example([F(1), F(-2), F(0), F(5, 2), F(-4, 9)],
         [F(1, 2), F(-3, 5), F(7, 3)], False)  # non-monic rational divisor
@example([F(3, 2 ** 64), F(-1), F(0), F(5, 2 ** 64 - 1), F(1, 3)],
         [F(-2), F(1, 7)], False)  # dividend with a 2^64 denominator
@settings(max_examples=200, deadline=None)
def test_divmod_and_derivative_equal_list_oracle(a, b, exact):
    """Trailing zeros in the lists pad the polynomial; the oracle strips."""
    if exact:
        a = oracle_roots.mul(a, b)
    quotient, remainder = univariate_divmod(from_univariate_coeffs(a),
                                            from_univariate_coeffs(b))
    expected_q, expected_r = oracle_roots.poly_divmod(a, b)
    assert univariate_coeffs(quotient) == expected_q
    assert univariate_coeffs(remainder) == expected_r
    assert remainder.is_zero() or not exact
    assert (univariate_coeffs(derivative(from_univariate_coeffs(a)))
            == oracle_roots.derivative(a))


def assert_canonical(q: Poly) -> None:
    for e, c in q.terms.items():
        assert type(c) is F and c != 0
        assert type(e) is tuple and len(e) == q.num_vars
        assert all(type(k) is int and k >= 0 for k in e)
    rebuilt = Poly(q.num_vars, q.terms)
    assert q == rebuilt and hash(q) == hash(rebuilt)


@given(st.data(), coefficient_lists, coefficient_lists)
@settings(max_examples=150, deadline=None)
def test_producers_return_canonical_term_maps(data, a, b):
    n = data.draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 3) for _ in range(n)])
    p, q = (Poly(n, data.draw(st.dictionaries(exponents, rationals, max_size=5)))
            for _ in range(2))
    fixed = data.draw(st.dictionaries(st.integers(0, n - 1), rationals))
    u, v = from_univariate_coeffs(a), from_univariate_coeffs(b)
    outputs = [p + q, p - q, p - p, p + 2, 1 - p, p * q, p * 0, p * F(-1, 3),
               p.restrict(fixed), derivative(p, n - 1), u, v, derivative(u)]
    if not v.is_zero():
        outputs.extend(univariate_divmod(u, v))
    for out in outputs:
        assert_canonical(out)


# -- integer kernel against the Fraction oracle ----------------------------------

# Small pools, so that values of exactly 0 (and hence "eq" atoms) occur.
coords = st.one_of(st.integers(-3, 3),
                   st.sampled_from([F(1, 2), F(-1, 3), F(2, 5), F(7, 6),
                                    F(-3, 4), F(5, 1), F(0, 1)]))
coefficients = st.fractions(min_value=-20, max_value=20,
                            max_denominator=30).map(F)


@st.composite
def mixed_polynomials(draw):
    """Zero, constant and mixed-degree polynomials whose coefficients have
    unequal denominators."""
    n = draw(st.integers(0, 4))
    exponents = st.tuples(*[st.integers(0, 6) for _ in range(n)])
    terms = draw(st.dictionaries(exponents, coefficients, max_size=8))
    return Poly(n, terms)


def sign(value) -> int:
    return (value > 0) - (value < 0)


def assert_matches_oracle(p: Poly, point) -> None:
    value = p.eval(point)
    expected = oracle_eval.eval_fraction(p.terms, point)
    assert value == expected and type(value) is F
    assert p.sign(point) == sign(expected)
    assert Atom(0, "ge").holds(sign(value)) == (expected >= 0)
    assert Atom(0, "gt").holds(sign(value)) == (expected > 0)
    assert Atom(0, "eq").holds(sign(value)) == (expected == 0)


def assert_scaled_signs_match_oracle(p: Poly, rows, fixed_vars=()) -> None:
    """On the point set `rows`, scaled by M: the integer form H has the
    oracle's sign at every (X, M), so does H with L fixed at M at X, also
    after fixing `fixed_vars` at the point's integer coordinates (before or
    together with L), and each one-atom relation on p decides membership
    as the oracle's value does."""
    points = OrderedPointSet(p.num_vars, rows)
    scale, scaled = points.scaled()
    n = p.num_vars
    form = p.integer_form()
    at_scale = form.restrict({n: scale})
    relations = {cmp: SemiAlgebraicRelation(1, p.num_vars, [p],
                                            Formula.leaf(0, cmp))
                 for cmp in ("ge", "gt", "eq")}
    for i, (row, xs) in enumerate(zip(rows, scaled), start=1):
        expected = oracle_eval.eval_fraction(p.terms, row)
        assert form.sign([*xs, scale]) == sign(expected)
        assert at_scale.sign(xs) == sign(expected)
        rest = [v for j, v in enumerate(xs) if j not in fixed_vars]
        pinned = at_scale.restrict({j: xs[j] for j in fixed_vars})
        assert pinned.sign(rest) == sign(expected)
        pinned = form.restrict({n: scale, **{j: xs[j] for j in fixed_vars}})
        assert pinned.sign(rest) == sign(expected)
        assert eval_membership(relations["ge"], points, (i,)) == (expected >= 0)
        assert eval_membership(relations["gt"], points, (i,)) == (expected > 0)
        assert eval_membership(relations["eq"], points, (i,)) == (expected == 0)


@given(mixed_polynomials(), st.data())
@settings(max_examples=300, deadline=None)
def test_eval_equals_fraction_oracle(p, data):
    point = [data.draw(coords) for _ in range(p.num_vars)]
    assert_matches_oracle(p, point)


@given(mixed_polynomials(), st.data())
@settings(max_examples=200, deadline=None)
def test_sign_equals_sign_of_fraction_oracle(p, data):
    """Also at an exact zero: p minus its oracle value at the point."""
    point = [data.draw(coords) for _ in range(p.num_vars)]
    assert_matches_oracle(p, point)
    shifted = p - oracle_eval.eval_fraction(p.terms, point)
    assert_matches_oracle(shifted, point)
    assert shifted.sign(point) == 0
    with pytest.raises(ArgumentError):
        p.sign(point + [1])


@given(mixed_polynomials(), st.data())
@settings(max_examples=300, deadline=None)
def test_instance_scale_signs_equal_fraction_oracle(p, data):
    if p.num_vars == 0:
        p = Poly(1, {(0,): c for c in p.terms.values()})
    n = p.num_vars
    rows = data.draw(st.lists(st.lists(coords, min_size=n, max_size=n),
                              min_size=1, max_size=4))
    fixed_vars = data.draw(st.sets(st.integers(0, n - 1)))
    assert_scaled_signs_match_oracle(p, rows, fixed_vars)


# Coordinates with large, pairwise unequal denominators, for the variables
# a polynomial does not use: they change L but not the value.
far_coords = st.builds(F, st.integers(-10 ** 20, 10 ** 20),
                       st.sampled_from([2 ** 61 - 1, 10 ** 30 + 7, 3 ** 40]))


def assert_homogenization(p: Poly, scale: int) -> None:
    """integer_form() is H, with terms e + (D - |e|,) -> c*B computed here
    from p.terms, and restricting its last variable L to scale gives
    sum c*B * scale^(D - |e|) * X^e, in the order of p.terms, whose total at
    integer X is H(X, scale) = B * scale^D times the oracle's value at
    X / scale."""
    lcm = math.lcm(*[c.denominator for c in p.terms.values()])
    degree = max(p.degree(), 0)
    form = p.integer_form()
    assert form is p.integer_form()
    assert form.num_vars == p.num_vars + 1
    assert form.terms == {e + (degree - sum(e),): c * lcm
                          for e, c in p.terms.items()}
    assert all(type(c) is int for c in form.terms.values())
    fixed = form.restrict({p.num_vars: scale})
    assert fixed.num_vars == p.num_vars
    assert fixed.terms == {e: c * lcm * scale ** (degree - sum(e))
                           for e, c in p.terms.items()}
    assert list(fixed.terms) == list(p.terms)
    assert all(type(c) is int for c in fixed.terms.values())
    for xs in ([0] * p.num_vars, list(range(1, p.num_vars + 1)),
               [(-1) ** i * (2 * i + 3) for i in range(p.num_vars)]):
        expected = lcm * scale ** degree * oracle_eval.eval_fraction(
            p.terms, [F(x, scale) for x in xs])
        assert fixed.total(xs) == expected
        assert form.total([*xs, scale]) == expected


@pytest.mark.parametrize("scale", [1, 2 ** 3 * 3 ** 2 * 5 * 7])
@pytest.mark.parametrize("p", [
    Poly(2, {}), Poly(0, {}), Poly.constant(3, F(-5, 6)), Poly.constant(1, 4),
    Poly(2, {(2, 1): F(1, 3), (1, 0): F(-3, 4), (0, 0): 2}),
    Poly(3, {(0, 0, 4): F(7, 10), (0, 2, 0): F(1, 6), (1, 0, 0): -1}),
], ids=["zero", "zero-0-vars", "constant", "int-constant", "mixed-2", "mixed-3"])
def test_integer_form_of_zero_constant_and_mixed_degree(p, scale):
    assert_homogenization(p, scale)


@given(mixed_polynomials(), st.sampled_from([1, 2, 2 ** 3 * 3 ** 2 * 5 * 7]),
       st.data())
@settings(max_examples=200, deadline=None)
def test_integer_form_is_homogenization_at_scale(p, scale, data):
    """Also sign and eval agree with the Fraction oracle at points whose
    coordinates, used or not, have unequal denominators."""
    assert_homogenization(p, scale)
    used = {i for e in p.terms for i, k in enumerate(e) if k}
    point = [data.draw(coords if i in used else far_coords)
             for i in range(p.num_vars)]
    assert_matches_oracle(p, point)


def seeded_forms(seed: int) -> list[IntegerForm]:
    """Random int forms in 0..3 variables, some terms constant, some
    coefficients near 2^200, some forms with no terms at all."""
    rng = SeededRng(seed)
    forms = []
    for _ in range(40):
        n = rng.randint(0, 3)
        terms = {}
        for _ in range(rng.randint(0, 6)):
            e = tuple(rng.randint(0, 3) * rng.randint(0, 1) for _ in range(n))
            c = rng.randint(-5, 5) + rng.choice([0, 2 ** 200, -2 ** 200 + 1])
            terms[e] = terms.get(e, 0) + c
        forms.append(IntegerForm(n, {e: c for e, c in terms.items() if c}))
    return forms


@pytest.mark.parametrize("seed", [1, 7])
def test_column_signs_equal_per_point_signs(seed):
    rng = SeededRng(seed)
    special = [IntegerForm(2, {}), IntegerForm(0, {}), IntegerForm(0, {(): -3}),
               IntegerForm(2, {(0, 0): 7, (1, 1): -1}),
               IntegerForm(1, {(1,): 2 ** 200, (0,): -(2 ** 200) + 1})]
    for form in special + seeded_forms(seed):
        n = form.num_vars
        for size in (0, 1, 2, 9):
            rows = [[rng.randint(-4, 4) * rng.choice([1, 2 ** 70])
                     for _ in range(n)] for _ in range(size)]
            assert form.signs(rows) == [form.sign(x) for x in rows]
    assert IntegerForm(2, {}).signs([[1, 2], [0, 0]]) == [0, 0]
    assert IntegerForm(0, {(): -3}).signs([[], []]) == [-1, -1]
    assert IntegerForm(1, {(1,): 1}).signs([]) == []


def test_eval_zero_and_constant_polynomials_match_oracle():
    for p in (Poly(0, {}), Poly(2, {}), Poly.constant(0, F(-7, 3)),
              Poly.constant(3, F(5, 4)), Poly.constant(2, 9)):
        for point in ([], [0, 0], [F(1, 3), -2], [0, F(5, 7), 1]):
            if len(point) == p.num_vars:
                assert_matches_oracle(p, point)


def test_eval_exact_zero_decides_eq_atoms():
    # (x0 - x1) * (3*x0 + 1) vanishes on the diagonal and at x0 = -1/3.
    p = (x(0, 2) - x(1, 2)) * (3 * x(0, 2) + 1)
    rows = [[F(2, 7), F(2, 7)], [F(-1, 3), 5], [4, 4], [F(1, 2), 3]]
    for point in rows:
        assert_matches_oracle(p, point)
    assert p.eval([F(-1, 3), 5]) == 0
    # The same zeros on one point set with common denominator 42.
    assert_scaled_signs_match_oracle(p, rows, fixed_vars={0})
    points = OrderedPointSet(2, rows)
    on_zero = SemiAlgebraicRelation(1, 2, [p], Formula.leaf(0, "eq"))
    assert [eval_membership(on_zero, points, (i,)) for i in range(1, 5)] == [
        True, True, True, False]


@given(st.sampled_from([3, F(3, 2), F(-5, 4), 1, 0]), coords)
@settings(max_examples=60, deadline=None)
def test_eval_sparse_high_degree_monomial(a, b):
    p = Poly(2, {(300, 0): F(1, 7), (0, 1): 1})  # x0^300 / 7 + x1
    assert_matches_oracle(p, [a, b])
