"""Reference polynomial evaluation, substitution and differentiation for
the test suite.

`eval_fraction` is the Fraction loop that MultivariatePolynomial.eval ran
before it cleared denominators: every term is multiplied out and summed
as an exact Fraction.  `substitute` is the term-by-term loop that both
`restrict` methods ran before the restriction plan, and `derivative` the
partial derivative of a term map.  These three read only a term map and
share no code with the package under test.  `sign(p, point)` is the sign
of `p.eval(point)`.
"""

from __future__ import annotations

from fractions import Fraction


def eval_fraction(terms: dict, point) -> Fraction:
    """Exact value of sum c * prod x_i^e_i over the (exponent vector,
    coefficient) items of terms at point."""
    coords = [Fraction(x) for x in point]
    total = Fraction(0)
    for e, c in terms.items():
        v = Fraction(c)
        for x, k in zip(coords, e):
            if k:
                v *= x ** k
        total += v
    return total


def substitute(terms: dict, fixed: dict, num_vars: int) -> dict:
    """Term map of terms with each variable of fixed replaced by its value
    and the other variables kept in order: each term multiplied out in
    turn, equal exponents summed, zero sums dropped.  Coefficients and
    values are ints or Fractions alike."""
    keep = [i for i in range(num_vars) if i not in fixed]
    out: dict = {}
    for e, c in terms.items():
        for i, v in fixed.items():
            if e[i]:
                c = c * v ** e[i]
        key = tuple(e[i] for i in keep)
        out[key] = out.get(key, 0) + c
    return {e: c for e, c in out.items() if c}


def derivative(terms: dict, index: int = 0) -> dict:
    """Term map of the partial derivative in the variable `index`."""
    out = {}
    for e, c in terms.items():
        if e[index]:
            out[e[:index] + (e[index] - 1,) + e[index + 1:]] = c * e[index]
    return out


def sign(p, point) -> int:
    """-1, 0 or 1: the sign of p.eval(point)."""
    value = p.eval(point)
    return (value > 0) - (value < 0)
