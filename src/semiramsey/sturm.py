"""Sturm sequences and exact real-root counting for univariate polynomials.

A chain is built in ints by one builder, `sturm_sequence`, from the int
coefficients of g: g divided by its content, its derivative, then one list
per step of the integer pseudo-remainder sequence (`poly.univariate_divmod`),
each step divided by its content and signed so that every list is a
positive multiple of the canonical rational member
g_i = -rem(g_{i-2}, g_{i-1}).  The chain is that list of int lists and
nothing more.  A positive multiple has the member's sign everywhere, so
the chain's one reader, `sign_changes_at(chain, x)`, counts its sign
changes at a rational x = p/q by one homogeneous Horner sum per list over
ints, sum c_i * p^i * q^(d - i), and never forms a value; a root count is
two such reads.  No rational member is ever built: the one
rational entry, `count_real_roots`, clears the denominators of g once.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .errors import ArgumentError, PreconditionError
from .poly import (MultivariatePolynomial, Scalar, _cleared, _coef,
                   univariate_coeffs, univariate_divmod)


def _primitive(coeffs: Sequence[int], sign: int = 1) -> list[int]:
    """coeffs divided by sign * their content (sign is 1 or -1)."""
    content = sign * math.gcd(*coeffs)
    return [c // content for c in coeffs]


def sign_changes_at(chain: list[list[int]], x: Scalar) -> int | None:
    """The number of sign changes of the chain at the rational x (an int or
    a Fraction), zeros ignored, or None where g(x) = 0.

    Each list's sign at x = p/q (q > 0) is that of
    sum c_i * p^i * q^(d - i), q^d > 0 times its member's value, read by
    one Horner pass over ints.
    """
    p, q = x.as_integer_ratio()
    changes, last = -1, None  # the first sign counts as no change
    for coeffs in chain:
        total = 0
        qk = 1
        for c in reversed(coeffs):
            total = total * p + c * qk
            qk *= q
        if total:
            positive = total > 0
            if positive is not last:
                changes += 1
                last = positive
        elif last is None:  # the first list is g
            return None
    return changes


def sturm_sequence(coeffs: Sequence[int]) -> list[list[int]]:
    """Sturm chain of the polynomial sum coeffs[i] * x^i, for int
    coefficients with a nonzero last entry, stopping before the first
    identically-zero remainder: the canonical chain g0 = g, g1 = g',
    g_i = -rem(g_{i-2}, g_{i-1}), as primitive int lists, each a positive
    multiple of its member.

    Each step takes the pseudo-remainder s * a = Q * b + R of the last two
    lists; with a and b positive multiples of g_{i-2} and g_{i-1}, R is
    s times a positive multiple of rem(g_{i-2}, g_{i-1}), so -R (for s > 0)
    or R (for s < 0), divided by its content, is a positive multiple of g_i.
    """
    if not coeffs or not coeffs[-1]:
        raise ArgumentError("sturm_sequence needs a nonzero last coefficient")
    first = _primitive(coeffs)
    chain = [first]
    if len(first) > 1:
        chain.append(_primitive([i * c for i, c in enumerate(first)][1:]))
        while True:
            rem, s = univariate_divmod(chain[-2], chain[-1])
            if not rem:
                break
            chain.append(_primitive(rem, -1 if s > 0 else 1))
    return chain


def count_real_roots(g: MultivariatePolynomial, a: Scalar, b: Scalar) -> int:
    """Number of distinct real roots of g in the open interval (a, b).

    Requires a < b and g(a) != 0 != g(b).  Roots are counted without
    multiplicity, which is exactly what the Sturm chain delivers: the
    difference of its sign changes at a and at b.  To count on many
    intervals, build one `sturm_sequence` and read it with
    `sign_changes_at` at their endpoints instead.  A
    multivariate g is refused by `univariate_coeffs`, and the zero
    polynomial by `sturm_sequence`, both with ArgumentError.
    """
    if _coef(a) >= _coef(b):
        raise ArgumentError(f"empty interval ({a}, {b})")
    chain = sturm_sequence(_cleared(univariate_coeffs(g))[0])
    at_a = sign_changes_at(chain, a)
    if at_a is None:
        raise PreconditionError(f"g({a}) = 0: endpoint must not be a root", witness=a)
    at_b = sign_changes_at(chain, b)
    if at_b is None:
        raise PreconditionError(f"g({b}) = 0: endpoint must not be a root", witness=b)
    return at_a - at_b
