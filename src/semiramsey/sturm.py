"""Sturm sequences and exact real-root counting for univariate polynomials.

A chain is kept as primitive int coefficient lists (`SturmSequence.ints`):
g cleared of denominators and divided by its content, its derivative, then
one list per step of the integer pseudo-remainder sequence
(`poly._pseudo_divmod`), each step divided by its content and signed so
that every list is a positive multiple of the canonical rational member
g_i = -rem(g_{i-2}, g_{i-1}).  A positive multiple has the member's sign
everywhere, so root counts read each list's sign at an endpoint p/q by one
homogeneous Horner sum over ints, sum c_i * p^i * q^(d - i), and never form
a value.  The canonical rational members are built from `univariate_divmod`
only when the sequence is indexed or iterated.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .errors import ArgumentError, PreconditionError
from .poly import (MultivariatePolynomial, Scalar, _cleared, _pseudo_divmod,
                   derivative, univariate_coeffs, univariate_divmod)


def _primitive(coeffs: list[int], sign: int = 1) -> list[int]:
    """coeffs divided by sign * their content (sign is 1 or -1)."""
    content = sign * math.gcd(*coeffs)
    return [c // content for c in coeffs]


def _sign(coeffs: Sequence[int], p: int, q: int) -> int:
    """-1, 0 or 1: the sign at p/q (q > 0) of the polynomial with these
    coefficients (index = power), read off sum c_i * p^i * q^(d - i),
    which is q^d > 0 times its value, by one Horner pass over ints."""
    total = 0
    qk = 1
    for c in reversed(coeffs):
        total = total * p + c * qk
        qk *= q
    return (total > 0) - (total < 0)


class SturmSequence(Sequence):
    """Canonical Sturm chain of g: g0 = g, g1 = g', g_i = -rem(g_{i-2}, g_{i-1}).

    `ints` holds the chain as primitive int coefficient lists, each a
    positive multiple of its member; signs are read from these alone.
    Indexing or iterating gives the canonical rational members, built on
    first access and kept.
    """

    __slots__ = ("ints", "_members")

    def __init__(self, g: MultivariatePolynomial, ints: list[list[int]]):
        self.ints = ints
        self._members = [g]

    def __len__(self) -> int:
        return len(self.ints)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self.ints)))]
        n = len(self.ints)
        if not -n <= index < n:
            raise IndexError("Sturm sequence index out of range")
        index %= n
        members = self._members
        while len(members) <= index:
            if len(members) == 1:
                members.append(derivative(members[0]))
            else:
                members.append(-univariate_divmod(members[-2], members[-1])[1])
        return members[index]

    def sign_at(self, x: Scalar) -> int:
        """-1, 0 or 1: the sign of g at the rational x."""
        p, q = x.as_integer_ratio()
        return _sign(self.ints[0], p, q)

    def signs_at(self, x: Scalar) -> list[int]:
        """The sign of every member at the rational x, in chain order."""
        p, q = x.as_integer_ratio()
        return [_sign(c, p, q) for c in self.ints]


def sturm_sequence(g: MultivariatePolynomial) -> SturmSequence:
    """Sturm chain of g, stopping before the first identically-zero
    remainder.

    Each step takes the pseudo-remainder s * a = Q * b + R of the last two
    lists; with a and b positive multiples of g_{i-2} and g_{i-1}, R is
    s times a positive multiple of rem(g_{i-2}, g_{i-1}), so -R (for s > 0)
    or R (for s < 0), divided by its content, is a positive multiple of g_i.
    """
    if g.num_vars != 1:
        raise ArgumentError("sturm_sequence expects a univariate polynomial")
    if g.is_zero():
        raise ArgumentError("sturm_sequence of the zero polynomial is undefined")
    first = _primitive(_cleared(univariate_coeffs(g))[0])
    ints = [first]
    if len(first) > 1:
        ints.append(_primitive([i * c for i, c in enumerate(first)][1:]))
        while True:
            _, rem, s = _pseudo_divmod(ints[-2], ints[-1])
            if not rem:
                break
            ints.append(_primitive(rem, -1 if s > 0 else 1))
    return SturmSequence(g, ints)


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
    at_a = seq.signs_at(a)
    at_b = seq.signs_at(b)
    if at_a[0] == 0:  # the first member is g
        raise PreconditionError(f"g({a}) = 0: endpoint must not be a root", witness=a)
    if at_b[0] == 0:
        raise PreconditionError(f"g({b}) = 0: endpoint must not be a root", witness=b)
    return sign_changes(at_a) - sign_changes(at_b)
