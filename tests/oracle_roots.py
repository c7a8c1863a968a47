"""Independent univariate root-counting oracle for the test suite.

Everything here works on plain coefficient lists (index = power) with
Fraction entries and shares no code with the package under test.  Roots
are isolated by bisection with Descartes' rule of signs applied to the
Moebius-transformed polynomial (the Vincent-Collins-Akritas method),
which for a squarefree polynomial terminates and counts each distinct
real root in the open interval exactly once.
"""

from __future__ import annotations

from fractions import Fraction


def strip(c: list[Fraction]) -> list[Fraction]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def add(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(p), len(q))
    for i, v in enumerate(p):
        out[i] += v
    for i, v in enumerate(q):
        out[i] += v
    return strip(out)


def mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return strip(out)


def poly_divmod(p: list[Fraction], q: list[Fraction]):
    q = strip(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(x) for x in strip(p)]
    quo = [Fraction(0)] * max(len(rem) - len(q) + 1, 0)
    lead = q[-1]
    while len(rem) >= len(q):
        shift = len(rem) - len(q)
        factor = rem[-1] / lead
        quo[shift] = factor
        for i, b in enumerate(q):
            rem[shift + i] -= factor * b
        rem = strip(rem)
        if not rem:
            break
    return strip(quo), rem


def derivative(p: list[Fraction]) -> list[Fraction]:
    return strip([i * c for i, c in enumerate(p)][1:])


def evaluate(p: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def monic(p: list[Fraction]) -> list[Fraction]:
    p = strip(p)
    if not p:
        return p
    lead = p[-1]
    return [c / lead for c in p]


def gcd(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    p, q = strip(p), strip(q)
    while q:
        _, r = poly_divmod(p, q)
        p, q = q, r
    return monic(p)


def squarefree_part(p: list[Fraction]) -> list[Fraction]:
    p = strip(p)
    if len(p) <= 1:
        return p
    g = gcd(p, derivative(p))
    if len(g) == 1:
        return p
    quo, rem = poly_divmod(p, g)
    assert not rem
    return quo


def canonical_chain(coeffs) -> list[list[Fraction]]:
    """The canonical Sturm chain of the nonzero polynomial with these
    coefficients (ints or Fractions): g, then g', then
    -rem(g_{i-2}, g_{i-1}), up to the first zero remainder."""
    chain = [strip([Fraction(c) for c in coeffs])]
    member = derivative(chain[0])
    while member:
        chain.append(member)
        member = [-c for c in poly_divmod(chain[-2], chain[-1])[1]]
    return chain


def sign_variations(c: list[Fraction]) -> int:
    signs = [1 if v > 0 else -1 for v in c if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _mapped_to_unit(p: list[Fraction], a: Fraction, b: Fraction):
    """Coefficients of (1+x)^n * p((a + b x) / (1 + x)) for n = deg p.

    The positive roots of this polynomial correspond one-to-one with the
    roots of p strictly inside (a, b), so Descartes' rule applies.
    """
    n = len(p) - 1
    lin_a = [[Fraction(1)]]           # (a + b x)^i
    lin_one = [[Fraction(1)]]         # (1 + x)^j
    for _ in range(n):
        lin_a.append(mul(lin_a[-1], [a, b]))
        lin_one.append(mul(lin_one[-1], [Fraction(1), Fraction(1)]))
    out: list[Fraction] = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        out = add(out, [c * v for v in mul(lin_a[i], lin_one[n - i])])
    return out


def _count_squarefree(p: list[Fraction], a: Fraction, b: Fraction) -> int:
    """Distinct roots of squarefree p in the open interval (a, b)."""
    mapped = _mapped_to_unit(p, a, b)
    v = sign_variations(mapped)
    if v == 0:
        return 0
    if v == 1:
        return 1
    mid = (a + b) / 2
    here = 1 if evaluate(p, mid) == 0 else 0
    return _count_squarefree(p, a, mid) + here + _count_squarefree(p, mid, b)


def count_distinct_roots(coeffs, a, b) -> int:
    """Number of distinct real roots of the polynomial in open (a, b).

    `coeffs` lists coefficients by ascending power; values may be ints or
    Fractions.  Endpoints must not be roots and the polynomial must not
    be identically zero.
    """
    p = strip([Fraction(c) for c in coeffs])
    a, b = Fraction(a), Fraction(b)
    if not p:
        raise ValueError("zero polynomial has infinitely many roots")
    if a >= b:
        raise ValueError("need a < b")
    if evaluate(p, a) == 0 or evaluate(p, b) == 0:
        raise ValueError("endpoint is a root")
    if len(p) == 1:
        return 0
    return _count_squarefree(squarefree_part(p), a, b)
