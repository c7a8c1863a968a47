"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a map from exponent vectors (one integer per variable) to
nonzero Fraction coefficients.  Variables are 0-based: x0, x1, ...  All
arithmetic is exact; nothing in this module ever touches floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import ArgumentError

Scalar = Union[int, Fraction]


def _coef(value: Scalar) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


class MultivariatePolynomial:
    """Immutable sparse polynomial in a fixed number of variables."""

    __slots__ = ("num_vars", "terms", "_hash")

    def __init__(self, num_vars: int, terms: Mapping[tuple, Scalar] | Iterable = ()):
        if num_vars < 0:
            raise ArgumentError("num_vars must be nonnegative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[tuple[int, ...], Fraction] = {}
        for expvec, c in items:
            e = tuple(int(x) for x in expvec)
            if len(e) != num_vars:
                raise ArgumentError(
                    f"exponent vector {e} has length {len(e)}, expected {num_vars}")
            if any(x < 0 for x in e):
                raise ArgumentError(f"negative exponent in {e}")
            c = _coef(c)
            if c != 0:
                acc = clean.get(e)
                c = c if acc is None else acc + c
                if c == 0:
                    clean.pop(e, None)
                else:
                    clean[e] = c
        self.num_vars = num_vars
        self.terms = clean
        self._hash = None

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
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, Fraction(0)) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        out = MultivariatePolynomial.__new__(MultivariatePolynomial)
        out.num_vars = self.num_vars
        out.terms = terms
        out._hash = None
        return out

    __radd__ = __add__

    def __neg__(self):
        out = MultivariatePolynomial.__new__(MultivariatePolynomial)
        out.num_vars = self.num_vars
        out.terms = {e: -c for e, c in self.terms.items()}
        out._hash = None
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultivariatePolynomial.constant(self.num_vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coef(other)
            if c == 0:
                return MultivariatePolynomial(self.num_vars)
            out = MultivariatePolynomial.__new__(MultivariatePolynomial)
            out.num_vars = self.num_vars
            out.terms = {e: k * c for e, k in self.terms.items()}
            out._hash = None
            return out
        self._check_same_space(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        out = MultivariatePolynomial.__new__(MultivariatePolynomial)
        out.num_vars = self.num_vars
        out.terms = terms
        out._hash = None
        return out

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

    def eval(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != self.num_vars:
            raise ArgumentError(
                f"point has {len(point)} coordinates, polynomial has {self.num_vars} variables")
        coords = [_coef(x) for x in point]
        # Integer fast path: plain int arithmetic is several times faster
        # than Fraction and this function dominates sign-vector sampling.
        if all(x.denominator == 1 for x in coords) and all(
                c.denominator == 1 for c in self.terms.values()):
            ints = [x.numerator for x in coords]
            total = 0
            for e, c in self.terms.items():
                v = c.numerator
                for x, k in zip(ints, e):
                    if k:
                        v *= x ** k
                total += v
            return Fraction(total)
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(coords, e):
                if k:
                    v *= x ** k
            total += v
        return total

    def restrict(self, fixed: Mapping[int, Scalar]) -> "MultivariatePolynomial":
        """Substitute values for a subset of variables.

        The surviving variables are re-indexed in increasing order of their
        old index, e.g. fixing x0 and x2 of a 3-variable polynomial leaves a
        univariate polynomial in the old x1.
        """
        for i in fixed:
            if not 0 <= i < self.num_vars:
                raise ArgumentError(f"fixed variable {i} out of range")
        values = {i: _coef(v) for i, v in fixed.items()}
        keep = [i for i in range(self.num_vars) if i not in values]
        new_terms: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            for i, v in values.items():
                k = e[i]
                if k:
                    c = c * v ** k
            if c == 0:
                continue
            ne = tuple(e[i] for i in keep)
            s = new_terms.get(ne, Fraction(0)) + c
            if s == 0:
                new_terms.pop(ne, None)
            else:
                new_terms[ne] = s
        return MultivariatePolynomial(len(keep), new_terms)


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
    return MultivariatePolynomial(1, {(i,): c for i, c in enumerate(coeffs)})


def derivative(p: MultivariatePolynomial, index: int = 0) -> MultivariatePolynomial:
    terms: dict[tuple[int, ...], Fraction] = {}
    for e, c in p.terms.items():
        k = e[index]
        if k:
            ne = list(e)
            ne[index] = k - 1
            ne = tuple(ne)
            terms[ne] = terms.get(ne, Fraction(0)) + c * k
    return MultivariatePolynomial(p.num_vars, terms)


def univariate_divmod(a: MultivariatePolynomial, b: MultivariatePolynomial):
    """Exact Euclidean division of univariate polynomials: a = q*b + r."""
    if a.num_vars != 1 or b.num_vars != 1:
        raise ArgumentError("expected univariate polynomials")
    if b.is_zero():
        raise ArgumentError("division by the zero polynomial")
    ra = univariate_coeffs(a)
    rb = univariate_coeffs(b)
    q = [Fraction(0)] * max(1, len(ra) - len(rb) + 1)
    r = list(ra)
    db = len(rb) - 1
    lead = rb[-1]
    while len(r) - 1 >= db and any(c != 0 for c in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db or not r:
            break
        shift = len(r) - 1 - db
        factor = r[-1] / lead
        q[shift] = factor
        for i, c in enumerate(rb):
            r[shift + i] -= factor * c
    return from_univariate_coeffs(q), from_univariate_coeffs(r)
