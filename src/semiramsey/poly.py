"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a map from exponent vectors (one integer per variable) to
nonzero coefficients: ints or Fractions, as given.  Variables
are 0-based: x0, x1, ...  All arithmetic is exact; nothing in this module
ever touches floats.

Each polynomial has one integer form, its homogenization H in one more
variable, the scale L (`integer_form`), an int-coefficient polynomial:
every value and sign is H read at (X, L), with X = L * x for a rational
point x.  One compiled form (`_compile`) has two readers: at one point, a
straight-line function generated on first use (`_straight_line`,
`kernel`) that the relation's decider and `eval` call; at a whole point
set, `_int_signs`, the one column reader, which reads a family of tables
in one pass with one column per power and per term, the coordinate and
power columns shared by the whole family.  `eval` clears a point to
(X, L); a point set scaled by M reads H with L fixed at M.
Every substitution runs through one restriction plan (`_plan`), whose
arithmetic does not depend on the coefficient type, so an integer form
restricted at ints is another.  A plan read is the restricted form's
compiled table and nothing more: the greedy's class split reads one plan
at many points and hands the tables to `_int_signs`, and `restrict`
(L fixed at M, the greedy's arity drop; rational values) reads it once and
is the one place where a read becomes a term map.
Univariate division is integer pseudo-division on int coefficient lists,
`univariate_divmod`, the one division loop, which keeps only the
remainder; every Sturm chain step is one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, repeat
from operator import add, mul
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import ArgumentError

Scalar = Union[int, Fraction]


def _coef(value: Scalar) -> Scalar:
    """value, an int or a Fraction, as given; any other type (a bool, a
    float, a str) is refused with ArgumentError, never converted."""
    if type(value) is int or isinstance(value, Fraction):
        return value
    raise ArgumentError(f"{value!r} is not an int or a Fraction")


def _sum_terms(pairs: Iterable) -> dict:
    """Term map of the sum of (exponent tuple, coefficient) pairs.

    Coefficients of equal exponent tuples are summed and sums of 0 are
    dropped.  The first coefficient of an exponent is stored as it is, so
    a term that occurs once costs no addition.
    """
    terms: dict[tuple[int, ...], Scalar] = {}
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

    __slots__ = ("num_vars", "terms", "_hash", "_int_form", "_kernel")

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
        self._kernel = None
        return self

    @classmethod
    def _from_terms(cls, num_vars: int, terms: dict) -> "MultivariatePolynomial":
        """Wrap a term map without copying or checking it.

        A term map sends exponent tuples of length num_vars (nonnegative
        ints) to nonzero coefficients, ints or Fractions, as given;
        `_sum_terms` builds one.
        """
        return cls.__new__(cls)._set(num_vars, terms)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, num_vars: int, value: Scalar) -> "MultivariatePolynomial":
        return cls(num_vars, {(0,) * num_vars: value})

    @classmethod
    def variable(cls, index: int, num_vars: int) -> "MultivariatePolynomial":
        if not 0 <= index < num_vars:
            raise ArgumentError(f"variable index {index} out of range for {num_vars} vars")
        e = [0] * num_vars
        e[index] = 1
        return cls(num_vars, {tuple(e): 1})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

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

    def _operand(self, other) -> "MultivariatePolynomial":
        """other in this polynomial's space; a scalar (`_coef`) is a constant."""
        if not isinstance(other, MultivariatePolynomial):
            return MultivariatePolynomial.constant(self.num_vars, other)
        if self.num_vars != other.num_vars:
            raise ArgumentError(
                f"mixing polynomials in {self.num_vars} and {other.num_vars} variables")
        return other

    def __add__(self, other):
        other = self._operand(other)
        return MultivariatePolynomial._from_terms(
            self.num_vars,
            _sum_terms(chain(self.terms.items(), other.terms.items())))

    __radd__ = __add__

    def __neg__(self):
        return MultivariatePolynomial._from_terms(
            self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._operand(other)
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

    def integer_form(self) -> "MultivariatePolynomial":
        """H, built on first use and kept with B and D in `_int_form`: B is
        the positive LCM of the coefficient denominators, D the degree (0
        for the zero polynomial) and H the homogenization
        sum c*B * X^e * L^(D - |e|), with int coefficients, in num_vars + 1
        variables whose last one is the scale L.  H(X, L) = B * L^D *
        self(X / L) has the sign of self at X / L for every integer point X
        and L > 0; `restrict({num_vars: M})` fixes L at M for a point set
        scaled by M."""
        if self._int_form is None:
            scale = math.lcm(*[c.denominator for c in self.terms.values()])
            degree = max(self.degree(), 0)
            self._int_form = (scale, degree, self._from_terms(self.num_vars + 1, {
                e + (degree - sum(e),): c.numerator * (scale // c.denominator)
                for e, c in self.terms.items()}))
        return self._int_form[2]

    def eval(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point: H(X, L) / (B * L^D)."""
        if len(point) != self.num_vars:
            raise ArgumentError(
                f"point has {len(point)} coordinates, polynomial has {self.num_vars} variables")
        xs, lcm = _cleared(point)
        total = self.integer_form().kernel()([*xs, lcm])
        scale, degree = self._int_form[:2]
        return Fraction(total, scale * lcm ** degree)

    def kernel(self) -> Callable[[Sequence[int]], int]:
        """total(x), an integer form's value at an integer point x as
        generated code (`_straight_line`), built on first use."""
        if self._kernel is None:
            self._kernel = _straight_line(*_compile(self.terms))
        return self._kernel

    def restrict(self, fixed: Mapping[int, Scalar]) -> "MultivariatePolynomial":
        """Substitute int or Fraction values for a subset of variables.

        The surviving variables are re-indexed in increasing order of their
        old index, e.g. fixing x0 and x2 of a 3-variable polynomial leaves a
        univariate polynomial in the old x1.  One read of a `_plan`, whose
        nonzero coefficients make the term map; the values are kept as
        given, so an integer form restricted at ints is one too.
        """
        for i in fixed:
            if not 0 <= i < self.num_vars:
                raise ArgumentError(f"fixed variable {i} out of range")
        keys, read = _plan(self.terms, self.num_vars, list(fixed))
        _, terms = read([_coef(v) for v in fixed.values()])
        return self._from_terms(self.num_vars - len(fixed), {
            e: c for e, (c, _) in zip(keys, terms) if c})


def _plan(terms: dict, num_vars: int, fixed: Sequence[int]) -> tuple:
    """(keys, read): read(values) gives the (powers, terms) table of the
    two readers for the term map `terms` restricted at the variables
    `fixed` (distinct indices, in any order) set to `values` in that
    order, the other variables kept in order.  Its terms hold one
    (coefficient, factors) pair per kept monomial, the exponent tuples
    `keys`, in that order, zero coefficients included; no term map and no
    polynomial is built.  Coefficients and values are ints or Fractions
    alike.

    The terms are grouped once by their exponents in the kept variables,
    each group with one table of the fixed variables' powers, and the kept
    monomials compiled once (`_compile`).  A read raises each fixed power
    once and sums one coefficient per kept monomial.
    """
    keep = sorted(set(range(num_vars)).difference(fixed))
    groups: dict[tuple[int, ...], list] = {}
    for e, c in terms.items():
        groups.setdefault(tuple([e[i] for i in keep]), []).append(
            (c, [(j, e[v]) for j, v in enumerate(fixed) if e[v]]))
    fixed_powers = sorted({f for group in groups.values()
                           for _, fs in group for f in fs})
    index = {f: j for j, f in enumerate(fixed_powers)}
    powers, slots = _compile(dict.fromkeys(groups, 1))
    rows = [(factors, [(c, [index[f] for f in fs]) for c, fs in group])
            for group, (_, factors) in zip(groups.values(), slots)]

    def read(values: Sequence[Scalar]) -> tuple:
        raised = [values[j] ** k for j, k in fixed_powers]
        out = []
        for factors, group in rows:
            total = 0
            for c, fs in group:
                for j in fs:
                    c *= raised[j]
                total += c
            out.append((total, factors))
        return powers, out

    return tuple(groups), read


def _compile(terms: dict) -> tuple:
    """(powers, terms) for the two readers, `_straight_line` and
    `_int_signs`, from an int term map: the distinct (variable, exponent)
    factors to raise, and each term as (coefficient, indices into their
    table)."""
    factors = [[(i, k) for i, k in enumerate(e) if k] for e in terms]
    powers = sorted({f for fs in factors for f in fs})
    index = {f: j for j, f in enumerate(powers)}
    return tuple(powers), tuple(
        (c, tuple([index[f] for f in fs]))
        for c, fs in zip(terms.values(), factors))


# Factors per generated product: longer `a * b * ...` chains nest deeper
# than the compiler recurses.
_CHUNK = 32


def _straight_line(powers: tuple,
                   terms: tuple) -> Callable[[Sequence[int]], int]:
    """The compiled form's reader at one point: one generated function
    total(x), the form's value at the integer point x.

    Each coordinate that occurs is read once and each power raised once;
    then one statement per term adds c * (its powers) to the total, so the
    code is flat however many terms there are.  The coefficients are names
    bound in the function's globals, never digits in its source, which
    holds only names, operators, and int exponents and indices.
    """
    names = [f"x{v}" if k == 1 else f"p{j}" for j, (v, k) in enumerate(powers)]
    lines = ["def total(x):"]
    lines += [f" x{v} = x[{v}]" for v in sorted({v for v, _ in powers})]
    lines += [f" p{j} = x{v} ** {k}"
              for j, (v, k) in enumerate(powers) if k > 1]
    lines.append(" t = 0")
    for j, (_, factors) in enumerate(terms):
        product = [f"c{j}", *[names[i] for i in factors]]
        if len(product) <= _CHUNK:
            lines.append(" t += " + " * ".join(product))
            continue
        lines.append(" m = " + " * ".join(product[:_CHUNK]))
        for at in range(_CHUNK, len(product), _CHUNK):
            lines.append(" m *= " + " * ".join(product[at:at + _CHUNK]))
        lines.append(" t += m")
    lines.append(" return t")
    namespace = {f"c{j}": c for j, (c, _) in enumerate(terms)}
    exec(compile("\n".join(lines), "<MultivariatePolynomial.kernel>", "exec"), namespace)
    return namespace["total"]


def _int_signs(tables: Sequence[tuple],
               points: Sequence[Sequence[int]]) -> list[list[int]]:
    """The compiled forms' reader at a point set: for each (powers, terms)
    table (`_compile`, or a `_plan` read), the sign of its form at each
    point.  Every power and every term is built as a column over all
    points by `map`, so the per-point loops run in C; the tables share the
    coordinate columns and each power column, which is raised once for the
    whole family, and a term with a zero coefficient is skipped.  No code
    is generated, so for a form read at few points this is the cheaper
    reader: generating the kernel costs as much as reading 60 to 180
    points by columns (105- and 4-term forms), and the kernel then reads a
    point only 1.3 to 2 times faster."""
    n = len(points)
    if not n:
        return [[] for _ in tables]
    columns = list(zip(*points))
    shared: dict[tuple[int, int], Sequence[int]] = {}
    out = []
    for powers, terms in tables:
        cols = []
        for v, k in powers:
            col = shared.get((v, k))
            if col is None:
                col = shared[v, k] = (columns[v] if k == 1 else
                                     list(map(pow, columns[v], repeat(k, n))))
            cols.append(col)
        totals = repeat(0, n)
        for c, factors in terms:
            if not c:
                continue
            column = repeat(c, n)
            for j in factors:
                column = map(mul, column, cols[j])
            totals = list(map(add, totals, column))
        out.append([(t > 0) - (t < 0) for t in totals])
    return out


# -- univariate helpers (used by the Sturm machinery) -------------------


def univariate_coeffs(p: MultivariatePolynomial) -> list[Scalar]:
    """Dense coefficient list c[0] + c[1] x + ... for a 1-variable polynomial."""
    if p.num_vars != 1:
        raise ArgumentError("expected a univariate polynomial")
    coeffs = [0] * (p.degree() + 1)
    for (e,), c in p.terms.items():
        coeffs[e] = c
    return coeffs


def from_univariate_coeffs(coeffs: Sequence[Scalar]) -> MultivariatePolynomial:
    return MultivariatePolynomial(1, {(i,): c for i, c in enumerate(coeffs)})


def univariate_divmod(a: Sequence[int],
                      b: Sequence[int]) -> tuple[list[int], int]:
    """Pseudo-remainder of int coefficient lists (index = power, b with a
    nonzero last entry): (R, s) with s * a = Q * b + R for an int list Q,
    deg R < deg b.  Q itself is never built: the Sturm chain builder, the
    one caller, reads only R and s.  The name stays that of the division,
    as the benchmark tracer (`perfbench/tracing.py`, span `poly.divmod`)
    wraps it under this name.

    The one division loop: each step multiplies s by lead(b) / gcd,
    so s is a nonzero int whose sign may be either.  R has no trailing
    zeros (it is [] when b divides a), and neither input is modified.
    """
    r = list(a)
    lead = b[-1]
    s = 1
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            return r, s
        shift = len(r) - len(b)
        g = math.gcd(r[-1], lead)
        mult, factor = lead // g, r[-1] // g
        if mult != 1:
            s *= mult
            r = [mult * c for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= factor * c


def _cleared(values: Sequence[Scalar]) -> tuple[list[int], int]:
    """(the values times d, d) with d the LCM of their denominators; the
    values are ints or Fractions, coefficients or coordinates alike."""
    ratios = [v.as_integer_ratio() for v in values]
    d = math.lcm(*[q for _, q in ratios])
    return [p * (d // q) for p, q in ratios], d
