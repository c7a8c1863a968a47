"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a map from exponent vectors (one integer per variable) to
nonzero Fraction coefficients.  Variables are 0-based: x0, x1, ...  All
arithmetic is exact; nothing in this module ever touches floats.

Each polynomial has one integer form, its homogenization H in one more
variable, the scale L (`integer_form`): every value and sign is H read at
(X, L), with X = L * x for a rational point x.  One compiled form
(`_compile`) has two readers: `_int_total` at one point (the relation's
decider, `eval`, `sign`) and `_int_signs` at a whole point set, one column
per power and per term (`IntegerForm.signs`).  `eval` and `sign` clear a
point to (X, L); a point set scaled by M reads H with L fixed at M.
Univariate division runs in integers too, through the one pseudo-division
loop `_pseudo_divmod` that every Sturm chain uses.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, repeat
from operator import add, mul
from typing import Iterable, Mapping, Sequence, Union

from .errors import ArgumentError

Scalar = Union[int, Fraction]


def _coef(value: Scalar) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _sum_terms(pairs: Iterable) -> dict:
    """Term map of the sum of (exponent tuple, Fraction) pairs.

    Coefficients of equal exponent tuples are summed and sums of 0 are
    dropped.  The first coefficient of an exponent is stored as it is, so
    a term that occurs once costs no Fraction addition.
    """
    terms: dict[tuple[int, ...], Fraction] = {}
    for e, c in pairs:
        acc = terms.get(e)
        if acc is not None:
            c = acc + c
        if c:
            terms[e] = c
        elif acc is not None:
            del terms[e]
    return terms


class MultivariatePolynomial:
    """Immutable sparse polynomial in a fixed number of variables."""

    __slots__ = ("num_vars", "terms", "_hash", "_int_form")

    def __init__(self, num_vars: int, terms: Mapping[tuple, Scalar] | Iterable = ()):
        if type(num_vars) is not int or num_vars < 0:
            raise ArgumentError(f"num_vars must be a nonnegative int, got {num_vars!r}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        pairs = []
        for expvec, c in items:
            e = tuple(expvec)
            if len(e) != num_vars:
                raise ArgumentError(
                    f"exponent vector {e} has length {len(e)}, expected {num_vars}")
            if any(type(x) is not int or x < 0 for x in e):
                raise ArgumentError(f"exponents must be nonnegative ints, got {e}")
            pairs.append((e, _coef(c)))
        self._set(num_vars, _sum_terms(pairs))

    def _set(self, num_vars: int, terms: dict) -> "MultivariatePolynomial":
        self.num_vars = num_vars
        self.terms = terms
        self._hash = None
        self._int_form = None
        return self

    @classmethod
    def _from_terms(cls, num_vars: int, terms: dict) -> "MultivariatePolynomial":
        """Wrap a term map without copying or checking it.

        A term map sends exponent tuples of length num_vars (nonnegative
        ints) to nonzero Fraction coefficients; `_sum_terms` builds one.
        """
        return cls.__new__(cls)._set(num_vars, terms)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, num_vars: int, value: Scalar) -> "MultivariatePolynomial":
        value = _coef(value)
        if value == 0:
            return cls(num_vars)
        return cls(num_vars, {(0,) * num_vars: value})

    @classmethod
    def variable(cls, index: int, num_vars: int) -> "MultivariatePolynomial":
        if not 0 <= index < num_vars:
            raise ArgumentError(f"variable index {index} out of range for {num_vars} vars")
        e = [0] * num_vars
        e[index] = 1
        return cls(num_vars, {tuple(e): Fraction(1)})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, index: int) -> int:
        if not self.terms:
            return -1
        return max(e[index] for e in self.terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultivariatePolynomial)
                and self.num_vars == other.num_vars
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num_vars, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                f"x{i}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e) if k)
            if mono:
                bits.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                bits.append(str(c))
        return " + ".join(bits)

    # -- arithmetic ----------------------------------------------------

    def _check_same_space(self, other: "MultivariatePolynomial"):
        if self.num_vars != other.num_vars:
            raise ArgumentError(
                f"mixing polynomials in {self.num_vars} and {other.num_vars} variables")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultivariatePolynomial.constant(self.num_vars, other)
        self._check_same_space(other)
        return MultivariatePolynomial._from_terms(
            self.num_vars,
            _sum_terms(chain(self.terms.items(), other.terms.items())))

    __radd__ = __add__

    def __neg__(self):
        return MultivariatePolynomial._from_terms(
            self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coef(other)
            if c == 0:
                return MultivariatePolynomial._from_terms(self.num_vars, {})
            return MultivariatePolynomial._from_terms(
                self.num_vars, {e: k * c for e, k in self.terms.items()})
        self._check_same_space(other)
        return MultivariatePolynomial._from_terms(self.num_vars, _sum_terms(
            (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ArgumentError("negative polynomial power")
        result = MultivariatePolynomial.constant(self.num_vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- evaluation and restriction -------------------------------------

    def integer_form(self) -> "IntegerForm":
        """H, built on first use and kept with B and D in `_int_form`: B is
        the positive LCM of the coefficient denominators, D the degree (0
        for the zero polynomial) and H the homogenization
        sum c*B * X^e * L^(D - |e|), an IntegerForm in num_vars + 1
        variables whose last one is the scale L.  H(X, L) = B * L^D *
        self(X / L) has the sign of self at X / L for every integer point X
        and L > 0; `restrict({num_vars: M})` fixes L at M for a point set
        scaled by M."""
        if self._int_form is None:
            scale = math.lcm(*[c.denominator for c in self.terms.values()])
            degree = max(self.degree(), 0)
            self._int_form = (scale, degree, IntegerForm(self.num_vars + 1, {
                e + (degree - sum(e),): c.numerator * (scale // c.denominator)
                for e, c in self.terms.items()}))
        return self._int_form[2]

    def _total(self, point: Sequence[Scalar]) -> tuple[int, int]:
        """(H(X, L), L) at a rational point, with X, L = _cleared(point)."""
        if len(point) != self.num_vars:
            raise ArgumentError(
                f"point has {len(point)} coordinates, polynomial has {self.num_vars} variables")
        xs, lcm = _cleared(point)
        return self.integer_form().total([*xs, lcm]), lcm

    def eval(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point: H(X, L) / (B * L^D)."""
        total, lcm = self._total(point)
        scale, degree = self._int_form[:2]
        return Fraction(total, scale * lcm ** degree)

    def sign(self, point: Sequence[Scalar]) -> int:
        """-1, 0 or 1: the sign of the value at a rational point, read off
        H(X, L) without forming the value (B * L^D > 0)."""
        total = self._total(point)[0]
        return (total > 0) - (total < 0)

    def restrict(self, fixed: Mapping[int, Scalar]) -> "MultivariatePolynomial":
        """Substitute values for a subset of variables.

        The surviving variables are re-indexed in increasing order of their
        old index, e.g. fixing x0 and x2 of a 3-variable polynomial leaves a
        univariate polynomial in the old x1.
        """
        for i in fixed:
            if not 0 <= i < self.num_vars:
                raise ArgumentError(f"fixed variable {i} out of range")
        return MultivariatePolynomial._from_terms(
            self.num_vars - len(fixed),
            _substitute(self.terms, {i: _coef(v) for i, v in fixed.items()},
                        self.num_vars))


def _substitute(terms: dict, fixed: Mapping[int, Scalar], num_vars: int) -> dict:
    """Term map of `terms` with each variable of `fixed` replaced by its
    value, the other variables kept in order.  Coefficients and values are
    Fractions or ints alike."""
    keep = [i for i in range(num_vars) if i not in fixed]
    pairs = []
    for e, c in terms.items():
        for i, v in fixed.items():
            k = e[i]
            if k:
                c = c * v ** k
        pairs.append((tuple(e[i] for i in keep), c))
    return _sum_terms(pairs)


def _compile(terms: dict) -> tuple:
    """(powers, terms) for `_int_total` from an int term map: the distinct
    (variable, exponent) factors to raise per call, and each term as
    (coefficient, indices into their table)."""
    factors = [[(i, k) for i, k in enumerate(e) if k] for e in terms]
    powers = sorted({f for fs in factors for f in fs})
    index = {f: j for j, f in enumerate(powers)}
    return tuple(powers), tuple(
        (c, tuple([index[f] for f in fs]))
        for c, fs in zip(terms.values(), factors))


def _int_total(powers: tuple, terms: tuple, point: Sequence[int]) -> int:
    """The compiled form's reader at one point: the sum over terms
    (c, indices) of c times the product of table[j] for j in indices, with
    table the powers point[v] ** k for (v, k) in powers.  Coordinates of
    variables that occur in no power are not read."""
    table = [point[v] ** k for v, k in powers]
    total = 0
    for c, factors in terms:
        for j in factors:
            c *= table[j]
        total += c
    return total


def _int_signs(powers: tuple, terms: tuple,
               points: Sequence[Sequence[int]]) -> list[int]:
    """The compiled form's reader at a point set: the sign of `_int_total`
    at each point, with every power and every term built as a column over
    all points by `map`, so the per-point loops run in C."""
    n = len(points)
    if not n:
        return []
    columns = list(zip(*points))
    table = [columns[v] if k == 1 else list(map(pow, columns[v], repeat(k, n)))
             for v, k in powers]
    totals = repeat(0, n)
    for c, factors in terms:
        column = repeat(c, n)
        for j in factors:
            column = map(mul, column, table[j])
        totals = list(map(add, totals, column))
    return [(t > 0) - (t < 0) for t in totals]


class IntegerForm:
    """Polynomial with int coefficients, read at integer points.

    A polynomial's homogenization is one (`integer_form`); its sign at
    (X, L) is the polynomial's sign at X / L.  Restricting a form at integer
    values gives another, with no Fraction.
    """

    __slots__ = ("num_vars", "terms", "_loop")

    def __init__(self, num_vars: int, terms: dict):
        """`terms` maps exponent tuples of length num_vars to nonzero ints."""
        self.num_vars = num_vars
        self.terms = terms
        self._loop = None

    def _compiled(self) -> tuple:
        self._loop = _compile(self.terms)
        return self._loop

    def total(self, point: Sequence[int]) -> int:
        """The value at an integer point."""
        powers, terms = self._loop or self._compiled()
        return _int_total(powers, terms, point)

    def sign(self, point: Sequence[int]) -> int:
        """-1, 0 or 1: the sign of the value at an integer point."""
        powers, terms = self._loop or self._compiled()
        total = _int_total(powers, terms, point)
        return (total > 0) - (total < 0)

    def signs(self, points: Sequence[Sequence[int]]) -> list[int]:
        """The sign at each integer point, in one pass over the set: equal
        to [self.sign(x) for x in points], and faster than that from about
        ten points on (at five or fewer, `sign` per point is faster)."""
        powers, terms = self._loop or self._compiled()
        return _int_signs(powers, terms, points)

    def restrict(self, fixed: Mapping[int, int]) -> "IntegerForm":
        """Substitute int values for some variables; the others are
        re-indexed in order, as in MultivariatePolynomial.restrict."""
        return IntegerForm(self.num_vars - len(fixed),
                           _substitute(self.terms, fixed, self.num_vars))


# -- univariate helpers (used by the Sturm machinery) -------------------


def univariate_coeffs(p: MultivariatePolynomial) -> list[Fraction]:
    """Dense coefficient list c[0] + c[1] x + ... for a 1-variable polynomial."""
    if p.num_vars != 1:
        raise ArgumentError("expected a univariate polynomial")
    deg = p.degree()
    coeffs = [Fraction(0)] * (deg + 1)
    for (e,), c in p.terms.items():
        coeffs[e] = c
    return coeffs


def from_univariate_coeffs(coeffs: Sequence[Scalar]) -> MultivariatePolynomial:
    return MultivariatePolynomial._from_terms(
        1, _sum_terms(((i,), _coef(c)) for i, c in enumerate(coeffs)))


def derivative(p: MultivariatePolynomial, index: int = 0) -> MultivariatePolynomial:
    pairs = []
    for e, c in p.terms.items():
        k = e[index]
        if k:
            ne = list(e)
            ne[index] = k - 1
            pairs.append((tuple(ne), c * k))
    return MultivariatePolynomial._from_terms(p.num_vars, _sum_terms(pairs))


def univariate_divmod(a: MultivariatePolynomial, b: MultivariatePolynomial):
    """Exact Euclidean division of univariate polynomials: a = q*b + r.

    The denominators are cleared once, A = a * da and Bz = b * db, and
    `_pseudo_divmod` gives s * A = Q * Bz + R in integers.  Then
    q = Q * db / (s * da) and r = R / (s * da), one Fraction per
    coefficient; as Euclidean division is unique, these are the quotient
    and remainder over Q.
    """
    if a.num_vars != 1 or b.num_vars != 1:
        raise ArgumentError("expected univariate polynomials")
    if b.is_zero():
        raise ArgumentError("division by the zero polynomial")
    ra, da = _cleared(univariate_coeffs(a))
    rb, db = _cleared(univariate_coeffs(b))
    q, r, s = _pseudo_divmod(ra, rb)
    return _from_ints(q, db, s * da), _from_ints(r, 1, s * da)


def _pseudo_divmod(a: Sequence[int],
                   b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """(Q, R, s) with s * a = Q * b + R and deg R < deg b, for int
    coefficient lists (index = power, b with a nonzero last entry).

    The one integer division loop: each step multiplies s by lead(b) / gcd,
    so s is a nonzero int whose sign may be either.  R has no trailing
    zeros (it is [] when b divides a), and neither input is modified.
    """
    r = list(a)
    q = [0] * max(1, len(r) - len(b) + 1)
    lead = b[-1]
    s = 1
    while len(r) >= len(b):
        shift = len(r) - len(b)
        g = math.gcd(r[-1], lead)
        mult, factor = lead // g, r[-1] // g
        if mult != 1:
            s *= mult
            r = [mult * c for c in r]
            q = [mult * c for c in q]
        q[shift] = factor
        for i, c in enumerate(b):
            r[shift + i] -= factor * c
        while r and r[-1] == 0:
            r.pop()
    return q, r, s


def _cleared(values: Sequence[Scalar]) -> tuple[list[int], int]:
    """(the values times d, d) with d the LCM of their denominators; the
    values are ints or Fractions, coefficients or coordinates alike."""
    ratios = [v.as_integer_ratio() for v in values]
    d = math.lcm(*[q for _, q in ratios])
    return [p * (d // q) for p, q in ratios], d


def _from_ints(coeffs: list[int], num: int, den: int) -> MultivariatePolynomial:
    """The univariate polynomial sum coeffs[i] * num / den * x^i."""
    return MultivariatePolynomial._from_terms(1, {
        (i,): Fraction(c * num, den) for i, c in enumerate(coeffs) if c})
