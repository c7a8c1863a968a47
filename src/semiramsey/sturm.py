"""Sturm sequences and exact real-root counting for univariate polynomials.

The chain is the canonical one over the rationals, but its divisions run in
integers (`univariate_divmod`), and root counts read only the sign of each
chain member at the endpoints (`MultivariatePolynomial.sign`), so no value
is ever formed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import ArgumentError, PreconditionError
from .poly import MultivariatePolynomial, Scalar, derivative, univariate_divmod

SturmSequence = list  # list[MultivariatePolynomial], g, g', then negated remainders


def sturm_sequence(g: MultivariatePolynomial) -> SturmSequence:
    """Canonical Sturm chain of g: g0 = g, g1 = g', g_i = -rem(g_{i-2}, g_{i-1}).

    Stops before the first identically-zero remainder.  The remainders are
    the exact rational ones, with no content normalization; only the
    division computing them runs in integers.
    """
    if g.num_vars != 1:
        raise ArgumentError("sturm_sequence expects a univariate polynomial")
    if g.is_zero():
        raise ArgumentError("sturm_sequence of the zero polynomial is undefined")
    seq = [g]
    d = derivative(g)
    if d.is_zero():
        return seq
    seq.append(d)
    while True:
        _, rem = univariate_divmod(seq[-2], seq[-1])
        if rem.is_zero():
            return seq
        seq.append(-rem)


def sign_changes(values: Sequence[Scalar]) -> int:
    """Sign changes in a sequence of ints or Fractions (such as the signs
    -1, 0, 1), zeros ignored."""
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(g: MultivariatePolynomial, a: Fraction, b: Fraction,
                     seq: SturmSequence | None = None) -> int:
    """Number of distinct real roots of g in the open interval (a, b).

    Requires a < b and g(a) != 0 != g(b).  Roots are counted without
    multiplicity, which is exactly what the Sturm chain delivers.
    """
    a = Fraction(a)
    b = Fraction(b)
    if a >= b:
        raise ArgumentError(f"empty interval ({a}, {b})")
    if seq is None:
        seq = sturm_sequence(g)
    at_a = [p.sign([a]) for p in seq]
    at_b = [p.sign([b]) for p in seq]
    if at_a[0] == 0:  # seq[0] is g
        raise PreconditionError(f"g({a}) = 0: endpoint must not be a root", witness=a)
    if at_b[0] == 0:
        raise PreconditionError(f"g({b}) = 0: endpoint must not be a root", witness=b)
    return sign_changes(at_a) - sign_changes(at_b)
