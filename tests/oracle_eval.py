"""Reference polynomial evaluation for the test suite.

This is the Fraction loop that MultivariatePolynomial.eval ran before it
cleared denominators: every term is multiplied out and summed as an exact
Fraction.  It reads only a polynomial's term map and shares no code with
the integer kernel under test.
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
