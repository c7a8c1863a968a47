"""Point-set constructions with matching semi-algebraic relations.

Everything returns exact rational data.  The central pieces are the
one-dimensional ternary base instance, the stepping-up construction that
doubles the exponent (squaring the point count into twice the dimension
and raising the arity by one), a one-dimensional arity-4 family built from
positional digit patterns, and the Frankl-Wilson intersection graph.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (ArgumentError, PreconditionError, ResourceLimitError,
                     MAX_BITS, MAX_LITERALS, MAX_PAIRS, MAX_POINTS,
                     MAX_TUPLES)
from .poly import MultivariatePolynomial, _coef
from .relation import (Formula, OrderedPointSet, SemiAlgebraicRelation,
                       eval_membership)
from .rng import SeededRng


@dataclass
class ConstructionInstance:
    """A point set, the relation evaluated on it, the stability radius
    epsilon claimed for it, and provenance describing how it was built."""
    points: OrderedPointSet
    relation: SemiAlgebraicRelation
    epsilon: Fraction
    provenance: dict

    def __post_init__(self):
        if self.relation.point_dim != self.points.dim:
            raise ArgumentError("instance points and relation dimension differ")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ArgumentError("epsilon must be positive")


def tower(height: int, x: int) -> int:
    """Iterated exponential: tower(1, x) = x, tower(i+1, x) = 2**tower(i, x).

    Refuses to build integers wider than MAX_BITS bits.
    """
    if height < 1:
        raise ArgumentError("tower height must be at least 1")
    if x < 0:
        raise ArgumentError("tower argument must be nonnegative")
    value = x
    for _ in range(height - 1):
        if value > MAX_BITS:
            raise ResourceLimitError(f"tower value would exceed {MAX_BITS} bits")
        value = 2 ** value
    return value


# -- base construction ------------------------------------------------------


def _ordering_atoms(arity: int, dim: int):
    """Linear polynomials x_{i+1}[c] - x_i[c] whose positivity says the
    tuple is coordinatewise strictly increasing."""
    nv = arity * dim
    polys = []
    for slot in range(arity - 1):
        for c in range(dim):
            p = (MultivariatePolynomial.variable((slot + 1) * dim + c, nv)
                 - MultivariatePolynomial.variable(slot * dim + c, nv))
            polys.append(p)
    return polys


class _RelationBuilder:
    """Accumulates deduplicated polynomials while a formula is assembled."""

    def __init__(self, arity: int, dim: int):
        self.arity = arity
        self.dim = dim
        self.polys: list[MultivariatePolynomial] = []
        self._index: dict[MultivariatePolynomial, int] = {}

    def atom(self, p: MultivariatePolynomial, cmp: str) -> Formula:
        i = self._index.get(p)
        if i is None:
            i = len(self.polys)
            self.polys.append(p)
            self._index[p] = i
        return Formula.leaf(i, cmp)

    def build(self, formula: Formula) -> SemiAlgebraicRelation:
        return SemiAlgebraicRelation(self.arity, self.dim, self.polys, formula)


def base_relation() -> SemiAlgebraicRelation:
    """Ternary relation on R^1: x1 < x2 < x3 and x1 + x3 - 2*x2 >= -1/2.

    On integer points the last atom agrees with x1 + x3 >= 2*x2 (the value is
    an integer, so >= -1/2 and >= 0 coincide), and the -1/2 slack is what
    makes the instance 1/10-deep rather than boundary-tight.
    """
    rb = _RelationBuilder(3, 1)
    order = [rb.atom(p, "gt") for p in _ordering_atoms(3, 1)]
    x1 = MultivariatePolynomial.variable(0, 3)
    x2 = MultivariatePolynomial.variable(1, 3)
    x3 = MultivariatePolynomial.variable(2, 3)
    mid = x1 + x3 - 2 * x2 + Fraction(1, 2)
    return rb.build(Formula.all_of(order + [rb.atom(mid, "ge")]))


def base_construction(n: int) -> ConstructionInstance:
    """The integers 1..2^n on the line with the ternary base relation.

    Its largest homogeneous subset has size exactly n + 1 (e.g. the powers
    1, 2, 4, ..., 2^n on the inside).
    """
    if n < 1:
        raise ArgumentError("n must be at least 1")
    if n >= MAX_POINTS.bit_length():  # 2^n > MAX_POINTS, with no 2^n formed
        raise ResourceLimitError(f"2^{n} points exceeds cap {MAX_POINTS}")
    points = OrderedPointSet(1, [(i,) for i in range(1, 2 ** n + 1)])
    return ConstructionInstance(
        points=points,
        relation=base_relation(),
        epsilon=Fraction(1, 10),
        provenance={"kind": "base", "n": n},
    )


# -- delta index ------------------------------------------------------------


def delta_index(a: int, b: int, bits: int) -> int:
    """One plus the highest bit position where a-1 and b-1 differ.

    Defined for distinct a, b in 1..2^bits; symmetric in its arguments.
    """
    if bits < 1:
        raise ArgumentError("bits must be at least 1")
    top = 2 ** bits
    if not (1 <= a <= top and 1 <= b <= top):
        raise ArgumentError(f"arguments must lie in 1..{top}")
    if a == b:
        raise ArgumentError("delta_index needs distinct arguments")
    return ((a - 1) ^ (b - 1)).bit_length()


def _delta_blocks(count: int):
    """Yield (delta, lo, mid, hi) for each aligned block [lo, hi) of 2^delta
    indices in 0..count - 1, count a power of two, mid its midpoint.  The
    pairs i < j with bitlen(i ^ j) = delta are exactly i in [lo, mid) and j
    in [mid, hi) of one block, so every pair lies in exactly one."""
    for delta in range(1, count.bit_length()):
        size = 1 << delta
        for lo in range(0, count, size):
            yield delta, lo, lo + size // 2, lo + size


def verify_delta_properties(bits: int):
    """Exhaustively check, for delta = delta_index over all of 1..2^bits:

    A: delta(a, b) != delta(b, c) for every a < b < c, and
    B: delta(a, c) = max(delta(a, b), delta(b, c)) for every a < b < c.

    B on every triple gives the same for every longer chain c0 < ... < ck,
    delta(c0, ck) = max of delta over consecutive pairs, by induction on k:
    apply B to (c0, c_{k-1}, ck).

    Returns (True, None) or (False, witness): the first A violation by
    middle point, value, a and c, else the first B violation by b, a and c.
    The triples are checked with int bitmasks (bit x for point x) of the
    points on each side of a point at each delta value: A is an empty
    intersection of values per point and B a subset test per pair, so the
    N = 10 case (all ~1.8e8 triples) finishes in seconds.  Its
    table has all C(2^bits, 2) pairs, so bits >= 11 are refused.
    """
    if bits < 1:
        raise ArgumentError("bits must be at least 1")
    if _pairs_exceed_cap(bits):
        raise ResourceLimitError(
            f"the pairs of 2^{bits} points exceed cap {MAX_PAIRS}")
    n = 2 ** bits
    # left[b][v]: points a < b with delta(a, b) = v; right[a][v]: points
    # c > a with delta(a, c) = v; d[a][c] = delta(a, c).
    left: list[dict] = [{} for _ in range(n + 1)]
    right: list[dict] = [{} for _ in range(n + 1)]
    d: list[list] = [[]]
    for a in range(1, n + 1):
        row = [0] * (a + 1)
        ra = right[a]
        for c in range(a + 1, n + 1):
            v = delta_index(a, c, bits)
            row.append(v)
            ra[v] = ra.get(v, 0) | 1 << c
            lc = left[c]
            lc[v] = lc.get(v, 0) | 1 << a
        d.append(row)

    def lowest(mask: int) -> int:
        return (mask & -mask).bit_length() - 1

    for b in range(2, n):
        common = left[b].keys() & right[b].keys()
        if common:
            v = min(common)
            return False, ("A", (lowest(left[b][v]), b, lowest(right[b][v])))

    for b in range(2, n):
        # The points c > b whose delta from b is at most each value.
        values = sorted(right[b])
        upto = list(itertools.accumulate((right[b][v] for v in values),
                                         operator.or_))
        for a in range(1, b):
            u = d[a][b]
            ra = right[a]
            i = bisect.bisect_right(values, u)
            bad = upto[i - 1] & ~ra.get(u, 0) if i else 0
            for v in values[i:]:
                bad |= right[b][v] & ~ra.get(v, 0)
            if bad:
                return False, ("B", (a, b, lowest(bad)))
    return True, None


# -- stepping-up: points ----------------------------------------------------


def _dyadic_floor(bound: Fraction, strict: bool) -> Fraction:
    """Largest power of two 2^k, k any integer, that is <= bound (< bound
    when strict).  With bound = p/q, 2^(k-1) < bound < 2^(k+1) for
    k = bitlen(p) - bitlen(q), so one comparison settles it."""
    if bound <= 0:
        raise ArgumentError("no positive dyadic below a nonpositive bound")
    p, q = bound.as_integer_ratio()
    # Fraction(2): the exponent may be negative.
    value = Fraction(2) ** (p.bit_length() - q.bit_length())
    if value > bound or (strict and value == bound):
        value /= 2
    return value


def _cross_ball_radius(anchor: Sequence[Fraction], eps: Fraction) -> Fraction:
    """Largest radius r = 1/2^j such that any point of B(0, r)
    paired with any point of B((1, a_1, ..., 1, a_d), r) has componentwise
    slope within eps/2 of (a_1, ..., a_d), and the two balls are separated
    coordinatewise.

    Slopes are monotone in the numerator and antitone in the (positive)
    denominator, so per coordinate the extreme slopes are (a + 2r)/(1 - 2r)
    and (a - 2r)/(1 + 2r).  With h = eps/2 and 2r < 1, they stay in
    [a - h, a + h] exactly when 2r(1 + a + h) <= h and 2r(1 + a - h) <= h;
    the second binds only where 1 + a - h > 0.  Separation is
    2r < min(1, min a), which also gives 2r < 1.
    """
    half = Fraction(eps, 2)
    loose = min(half / (2 * (1 + a + sign * half))
                for a in anchor for sign in (1, -1) if 1 + a + sign * half > 0)
    return min(_dyadic_floor(Fraction(min(1, *anchor), 2), strict=True),
               _dyadic_floor(loose, strict=False))


def step_up_points(base: ConstructionInstance) -> tuple[OrderedPointSet, Fraction]:
    """Recursive doubling construction: N base points in R^d with stability
    radius eps give 2^N points in R^{2d}.

    Level m places two shrunken copies of the level m-1 output into dyadic
    boxes at the origin and at (1, a_{m,1}, ..., 1, a_{m,d}) where a_m is the
    m-th base point; the box radius is the largest 1/2^j for which every
    cross-copy slope provably lands within eps/2 of a_m.  Consequently the
    slope of output points i < j always lies within eps/2 of base point
    delta(i, j) in the max norm.

    Returns (points, eps1) where the output is eps1-increasing and every
    cross slope stays within eps of its base point under any perturbation of
    the output points by at most eps1.  Requires the base's epsilon and
    every base coordinate to be strictly positive (the copy anchored at the
    origin makes the output itself unsuitable for further stepping-up
    without a translation).
    Refuses before building when 2^N exceeds MAX_POINTS or the C(2^N, 2)
    output pairs exceed MAX_PAIRS, the bound on the output size.
    """
    pts = base.points
    eps = base.epsilon
    n = len(pts)
    if n < 1:
        raise ArgumentError("base must have at least one point")
    if 2 ** n > MAX_POINTS:
        raise ResourceLimitError(f"2^{n} output points exceeds cap {MAX_POINTS}")
    if _pairs_exceed_cap(n):
        raise ResourceLimitError(f"2^{n} output points have over {MAX_PAIRS} pairs")
    if eps is None:
        raise PreconditionError("base instance has no epsilon to step up")
    violation = _eps_increasing_violation(pts, eps)
    if violation is not None:
        raise PreconditionError("base points are not eps-increasing",
                                witness=violation)
    for i in range(1, n + 1):
        if min(pts.point(i)) <= 0:
            raise PreconditionError(
                "stepping up needs strictly positive base coordinates",
                witness=i)

    d = pts.dim

    def build(m: int) -> list[tuple[Fraction, ...]]:
        if m == 1:
            first = pts.point(1)
            q2 = tuple(itertools.chain.from_iterable((1, a) for a in first))
            return [(0,) * (2 * d), q2]
        prev = build(m - 1)
        anchor_pt = pts.point(m)
        center = tuple(itertools.chain.from_iterable((1, a) for a in anchor_pt))
        radius = _cross_ball_radius(anchor_pt, eps)
        lo = [min(p[c] for p in prev) for c in range(2 * d)]
        span = max(max(p[c] for p in prev) - lo[c] for c in range(2 * d))
        scale = radius / span
        copy1 = [tuple(scale * (p[c] - lo[c]) for c in range(2 * d)) for p in prev]
        copy2 = [tuple(center[c] + scale * (p[c] - lo[c]) for c in range(2 * d))
                 for p in prev]
        return copy1 + copy2

    out = OrderedPointSet(2 * d, build(n))
    return out, _stepped_stability_radius(out, pts, eps)


def _stepped_stability_radius(out: OrderedPointSet, base_pts: OrderedPointSet,
                              eps: Fraction) -> Fraction:
    """Largest eps1 = 1/2^j, j >= 0, making the stepped-up output
    eps1-increasing with all perturbed pair slopes still within eps of
    their base points.

    The points are read scaled by their common denominator m
    (OrderedPointSet.scaled), so every difference below is an int in units
    of 1/m, and so is P = 2 * eps1 * m, the most a perturbation moves a
    difference.  Output points i < j (0-based) have delta = bitlen(i ^ j),
    and each coordinate pair c gives their x- and y-differences amp and num
    and the window hn/hd, ln/ld = t +- eps around coordinate c of base
    point delta that the slope must stay in.  Solved for P, the exact
    conditions are P < gap (the least consecutive difference, which bounds
    every amp from below), (num + P)/(amp - P) <= hn/hd, that is
    P(hd + hn) <= hn*amp - hd*num, and (num - P)/(amp + P) >= ln/ld, that is
    P(ld + ln) <= ld*num - ln*amp.  Where ld + ln <= 0, so t - eps <= -1,
    the last holds for every P: amp and num are positive (every output
    slope is), which keeps (num - P)/(amp + P) above -1.  Each right side
    is f(X_j) - f(X_i) for a linear f, so on the pairs of a delta block
    its least value is min f on the upper half - max f on the lower half.
    """
    n_out = len(out)
    dim2 = out.dim
    m, pts = out.scaled()
    gap = min(pts[i + 1][c] - pts[i][c]
              for i in range(n_out - 1) for c in range(dim2))
    bounds = []
    for delta, lo, mid, hi in _delta_blocks(n_out):
        block, half = pts[lo:hi], mid - lo
        # The slope window t - eps .. t + eps of each base coordinate as
        # numerator/denominator pairs (denominators positive).  Base
        # coordinates are positive, so hd + hn > 0.
        for c, t in enumerate(base_pts.point(delta)):
            hn, hd = (t + eps).as_integer_ratio()
            ln, ld = (t - eps).as_integer_ratio()
            f = [hn * p[2 * c] - hd * p[2 * c + 1] for p in block]
            bounds.append(Fraction(min(f[half:]) - max(f[:half]), hd + hn))
            if ld + ln > 0:
                g = [ld * p[2 * c + 1] - ln * p[2 * c] for p in block]
                bounds.append(Fraction(min(g[half:]) - max(g[:half]), ld + ln))
    return min(1, _dyadic_floor(Fraction(gap, 2 * m), strict=True),
               _dyadic_floor(min(bounds) / (2 * m), strict=False))


# -- stepping-up: relation --------------------------------------------------


def _slope_fractions(arity_out: int, dim2: int):
    """Numerator/denominator polynomials of the slope map between consecutive
    slots of an arity_out tuple in R^dim2 (dim2 = 2d).

    Returns nums[s][c], dens[s][c] for consecutive pair s and coordinate c.
    """
    d = dim2 // 2
    nv = arity_out * dim2
    nums, dens = [], []
    for s in range(arity_out - 1):
        row_n, row_d = [], []
        for c in range(d):
            x_lo = MultivariatePolynomial.variable(s * dim2 + 2 * c, nv)
            y_lo = MultivariatePolynomial.variable(s * dim2 + 2 * c + 1, nv)
            x_hi = MultivariatePolynomial.variable((s + 1) * dim2 + 2 * c, nv)
            y_hi = MultivariatePolynomial.variable((s + 1) * dim2 + 2 * c + 1, nv)
            row_n.append(y_hi - y_lo)
            row_d.append(x_hi - x_lo)
        nums.append(row_n)
        dens.append(row_d)
    return nums, dens


def _clear_denominators(f: MultivariatePolynomial,
                        nums: Sequence[MultivariatePolynomial],
                        dens: Sequence[MultivariatePolynomial]) -> MultivariatePolynomial:
    """Sign-correct substitution x_i -> nums[i]/dens[i] into f.

    Multiplies through by even powers of every denominator, so the result has
    the sign of f at the rational point x_i = nums[i]/dens[i] whenever no
    denominator vanishes.
    """
    if len(nums) != f.num_vars or len(dens) != f.num_vars:
        raise ArgumentError("need a numerator/denominator pair per variable")
    space = nums[0].num_vars
    caps = []
    for i in range(f.num_vars):
        m = max((e[i] for e in f.terms), default=0)
        caps.append(m + (m % 2))  # round up to even
    out = MultivariatePolynomial(space)
    for e, coef in f.terms.items():
        term = MultivariatePolynomial.constant(space, coef)
        for i, k in enumerate(e):
            if k:
                term = term * nums[i] ** k
            rest = caps[i] - k
            if rest:
                term = term * dens[i] ** rest
        out = out + term
    return out


def step_up_relation(base: SemiAlgebraicRelation) -> SemiAlgebraicRelation:
    """Relation of arity k+1 on R^{2d} induced by an arity-k relation on R^d.

    A coordinatewise increasing tuple is a member when one of three patterns
    holds for its consecutive slopes: the second slope is a componentwise
    local minimum; the slopes increase componentwise and the slope tuple
    satisfies the base relation; or the slopes decrease componentwise and the
    reversed slope tuple satisfies the base relation.  All slope conditions
    are written as polynomial atoms by clearing denominators through even
    powers, which preserves signs on tuples with nonvanishing x-differences.
    """
    k = base.arity
    if k < 3:
        raise ArgumentError("stepping up requires base arity at least 3")
    d = base.point_dim
    dim2 = 2 * d
    arity_out = k + 1
    rb = _RelationBuilder(arity_out, dim2)
    nums, dens = _slope_fractions(arity_out, dim2)

    order = Formula.all_of(
        rb.atom(p, "gt") for p in _ordering_atoms(arity_out, dim2))

    def slope_greater(s_hi: int, s_lo: int) -> Formula:
        """Componentwise sigma(s_hi) > sigma(s_lo), denominators cleared."""
        parts = []
        for c in range(d):
            diff = (nums[s_hi][c] * dens[s_lo][c]
                    - nums[s_lo][c] * dens[s_hi][c])
            parts.append(rb.atom(diff * dens[s_hi][c] * dens[s_lo][c], "gt"))
        return Formula.all_of(parts)

    c1 = Formula.all_of([slope_greater(0, 1), slope_greater(2, 1)])

    def base_on_slopes(order_of_slots: Sequence[int]) -> Formula:
        flat_nums = [nums[s][c] for s in order_of_slots for c in range(d)]
        flat_dens = [dens[s][c] for s in order_of_slots for c in range(d)]

        # The base formula, node for node, with a shared node still shared.
        # Output polynomials are numbered in nodes() order, so that order
        # fixes the serialized relation.
        table = {}
        for node in base.formula.nodes():
            if node.op == "atom":
                cleared = _clear_denominators(
                    base.polys[node.atom.poly_index], flat_nums, flat_dens)
                table[id(node)] = rb.atom(cleared, node.atom.cmp)
            else:
                table[id(node)] = Formula(
                    node.op, tuple(table[id(ch)] for ch in node.children))
        return table[id(base.formula)]

    increasing = Formula.all_of(
        slope_greater(s + 1, s) for s in range(k - 1))
    decreasing = Formula.all_of(
        slope_greater(s, s + 1) for s in range(k - 1))
    c2 = Formula.all_of([increasing, base_on_slopes(list(range(k)))])
    c3 = Formula.all_of([decreasing, base_on_slopes(list(range(k - 1, -1, -1)))])

    return rb.build(Formula.all_of([order, Formula.any_of([c1, c2, c3])]))


def step_up(base: ConstructionInstance) -> ConstructionInstance:
    """Full stepping-up of an instance: points, relation and new epsilon."""
    points, eps1 = step_up_points(base)
    return ConstructionInstance(
        points=points,
        relation=step_up_relation(base.relation),
        epsilon=eps1,
        provenance={"kind": "step-up", "base": base.provenance,
                    "base_size": len(base.points)},
    )


def step_up_membership_rule(base: ConstructionInstance,
                            indices: Sequence[int]) -> bool:
    """Combinatorial membership rule for stepped-up tuples, phrased purely in
    terms of delta indices; the polynomial relation must agree with it on the
    constructed points.

    For consecutive deltas (delta_1, ..., delta_k) of an increasing tuple:
    strictly increasing deltas defer to the base relation on the delta-indexed
    base points, strictly decreasing ones to the base relation on the reversed
    tuple, a local minimum at delta_2 is a member, and anything else is not.
    """
    bits = len(base.points)  # stepped-up points are indexed by 1..2^bits
    deltas = [delta_index(a, b, bits) for a, b in zip(indices, indices[1:])]
    k = len(deltas)
    if k < 3:
        raise ArgumentError("rule needs tuples of arity at least 4")
    if all(a < b for a, b in zip(deltas, deltas[1:])):
        return eval_membership(base.relation, base.points, deltas)
    if all(a > b for a, b in zip(deltas, deltas[1:])):
        return eval_membership(base.relation, base.points, deltas[::-1])
    if deltas[0] > deltas[1] and deltas[2] > deltas[1]:
        return True
    return False


# -- one-dimensional arity-4 construction ------------------------------------


def one_dim_k4_relation() -> SemiAlgebraicRelation:
    """Arity-4 relation on the line for decimal digit points: x1 < x2 < x3 <
    x4 and one of

    C1: x2-x1 > x3-x2 and x4-x3 > x3-x2,
    C2: x2-x1 < x3-x2 < x4-x3 and 3(x2-x1)(x4-x3) >= (x3-x2)^2,
    C3: x2-x1 > x3-x2 > x4-x3 and 3(x2-x1)(x4-x3) >= (x3-x2)^2.

    A difference of digit points with top digit i lies strictly between
    10^(i - 0.1) and 10^(i + 0.1), so 3(x2-x1)(x4-x3) / (x3-x2)^2 lies
    strictly between 3 * 10^(m - 0.4) and 3 * 10^(m + 0.4), with
    m = i1 + i3 - 2 i2 an integer.  As 10^0.4 < 3 < 10^0.6 (10^4 < 3^10 =
    59,049 < 10^6), that is above 1 when m >= 0 and below 1 when m <= -1:
    the quadratic atom is the base relation's midpoint atom on the digit
    positions.
    """
    rb = _RelationBuilder(4, 1)
    x = [MultivariatePolynomial.variable(i, 4) for i in range(4)]
    d1, d2, d3 = x[1] - x[0], x[2] - x[1], x[3] - x[2]
    order = Formula.all_of(rb.atom(p, "gt") for p in (d1, d2, d3))
    quad = rb.atom(3 * d1 * d3 - d2 * d2, "ge")
    c1 = Formula.all_of([rb.atom(d1 - d2, "gt"), rb.atom(d3 - d2, "gt")])
    c2 = Formula.all_of([rb.atom(d2 - d1, "gt"), rb.atom(d3 - d2, "gt"), quad])
    c3 = Formula.all_of([rb.atom(d1 - d2, "gt"), rb.atom(d2 - d3, "gt"), quad])
    return rb.build(Formula.all_of([order, Formula.any_of([c1, c2, c3])]))


def one_dim_k4_construction(n: int) -> ConstructionInstance:
    """2^(2^n) points on the line from decimal digit patterns, with the
    arity-4 relation above.

    Point for pattern p: 1 + sum over i < 2^n of p(i) * 10^i.  Every
    pairwise difference has decimal logarithm within 1/10 of its highest
    differing digit position; this is verified exactly by comparing
    (p - q)^10 against powers of 10.

    The digit positions 0..2^n - 1 play the role of the 2^n points of
    base(n), whose largest homogeneous subset has size n + 1.  With the
    factor 3 on the quadratic atom, membership of a tuple is
    step_up_membership_rule(base(n), tuple): the relation is the
    stepped-up base relation on these points, so the stepping-up lemma
    gives no homogeneous subset of size 2n + 3 (hom <= 2n + 2).  The
    digit check reads two pairs per delta block.  MAX_PAIRS bounds the
    output size by its C(2^(2^n), 2) pairs, so n >= 4 is refused; at
    n <= 3 the coordinates stay below 10^8.
    """
    if n < 1:
        raise ArgumentError("n must be at least 1")
    if n > MAX_PAIRS.bit_length() or _pairs_exceed_cap(2 ** n):
        raise ResourceLimitError(
            f"the pairs of 2^(2^{n}) points exceed cap {MAX_PAIRS}")
    digits = 2 ** n
    # Increasing in pattern order, so points a < b first differ at decimal
    # digit i = bitlen(a ^ b) - 1: in the delta block with delta = i + 1.
    values = [1 + sum(10 ** i for i in range(digits) if pattern >> i & 1)
              for pattern in range(2 ** digits)]
    # Exact check: for p > q with highest differing digit i,
    # 10^(10i - 1) < (p - q)^10 < 10^(10i + 1), which each block's least
    # and largest difference settle for all its pairs.
    for delta, lo, mid, hi in _delta_blocks(len(values)):
        i = delta - 1
        for a, b in ((values[mid - 1], values[mid]), (values[lo], values[hi - 1])):
            tenth = (b - a) ** 10
            if not (10 ** (10 * i) < tenth * 10 and tenth < 10 ** (10 * i + 1)):
                raise PreconditionError(
                    f"difference of points {a} and {b} is not within a "
                    f"tenth of digit position {i}", witness=(a, b))
    points = OrderedPointSet(1, [(v,) for v in values])
    return ConstructionInstance(
        points=points,
        relation=one_dim_k4_relation(),
        epsilon=Fraction(1, 10),
        provenance={"kind": "one-dim-k4", "n": n, "base": 10,
                    "eps_note": "epsilon records the increasing margin and the "
                                "digit-position slack; the quadratic atom's "
                                "factor c, with b^0.4 < c < b^0.6, keeps it "
                                "off its boundary on digit points"},
    )


def _pairs_exceed_cap(exponent: int) -> bool:
    """Whether 2^exponent points have more than MAX_PAIRS pairs, decided
    with no power of two above 2^(MAX_PAIRS.bit_length()) formed."""
    return exponent > MAX_PAIRS.bit_length() or math.comb(2 ** exponent, 2) > MAX_PAIRS


# -- Frankl-Wilson graph ------------------------------------------------------


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in range(2, int(math.isqrt(p)) + 1):
        if p % q == 0:
            return False
    return True


def frankl_wilson_graph(m: int, p: int):
    """Vertices: all (p^2-1)-subsets of 1..m as increasing vectors; edges:
    pairs with intersection size congruent to -1 mod p.

    Returns (points, relation, adjacency) where adjacency is the
    combinatorial edge predicate on 1-based vertex indices and the relation
    is the semi-algebraic encoding by coordinate equalities.  Neither cliques
    nor independent sets exceed binomial(m, p - 1).  More than MAX_POINTS
    vertices or MAX_LITERALS literals are refused before anything is built.
    """
    r = p * p - 1
    if m < r:
        raise ArgumentError(f"need m >= p^2 - 1 = {r}")
    # r^2 literals per matching of each size s: r^2 * sum of C(r, s)^2.
    # r^2 is compared first, so no large binomial is formed and no p above
    # 31 is tried for primality.
    too_many = f"the relation for p = {p} has more than {MAX_LITERALS} literals"
    if r * r > MAX_LITERALS:
        raise ResourceLimitError(too_many)
    if not _is_prime(p):
        raise ArgumentError(f"{p} is not prime")
    # C(m, r) >= m for 0 < r < m, so a far larger m is refused unformed.
    if m > r + MAX_POINTS or math.comb(m, r) > MAX_POINTS:
        raise ResourceLimitError(f"binomial({m},{r}) vertices exceeds cap {MAX_POINTS}")
    if r * r * sum(math.comb(r, s) ** 2
                   for s in range(p - 1, r + 1, p)) > MAX_LITERALS:
        raise ResourceLimitError(too_many)
    subsets = list(itertools.combinations(range(1, m + 1), r))
    points = OrderedPointSet(r, subsets)

    def adjacency(i: int, j: int) -> bool:
        inter = len(set(subsets[i - 1]) & set(subsets[j - 1]))
        return inter % p == p - 1

    relation = _frankl_wilson_relation(r, p)
    return points, relation, adjacency


def _frankl_wilson_relation(r: int, p: int) -> SemiAlgebraicRelation:
    """Binary relation counting coordinate equalities x_i = y_j.

    For strictly increasing coordinate vectors the equality pattern is an
    order-preserving matching, so membership (intersection size congruent to
    -1 mod p) is a disjunction over all matchings of an admissible size: the
    matched pairs are equalities and every other pair a strict inequality.
    """
    nv = 2 * r
    rb = _RelationBuilder(2, r)
    diff = {}
    for i in range(r):
        for j in range(r):
            diff[i, j] = (MultivariatePolynomial.variable(i, nv)
                          - MultivariatePolynomial.variable(r + j, nv))
    sizes = [s for s in range(r + 1) if s % p == p - 1]
    patterns = []
    for s in sizes:
        for left in itertools.combinations(range(r), s):
            for right in itertools.combinations(range(r), s):
                matched = set(zip(left, right))
                literals = []
                for i in range(r):
                    for j in range(r):
                        leaf = rb.atom(diff[i, j], "eq")
                        if (i, j) in matched:
                            literals.append(leaf)
                        else:
                            literals.append(Formula.negation(leaf))
                patterns.append(Formula.all_of(literals))
    return rb.build(Formula.any_of(patterns))


# -- stability verifiers ------------------------------------------------------


def _eps_increasing_violation(points: OrderedPointSet, eps: Fraction):
    """First (index, coordinate) whose consecutive gap is not above 2*eps,
    or None when the set is eps-increasing."""
    if _coef(eps) <= 0:
        raise ArgumentError("eps must be positive")
    for i in range(1, len(points)):
        lo = points.points[i - 1]
        hi = points.points[i]
        for c in range(points.dim):
            if hi[c] - lo[c] <= 2 * eps:
                return i, c
    return None


def verify_eps_deep_sampled(instance: ConstructionInstance,
                            samples_per_tuple: int = 20,
                            seed: int = 0):
    """Sampled necessary condition for eps-deepness, eps the instance's
    epsilon: membership of every index tuple must survive perturbing the
    tuple's points within their closed eps-balls.

    Perturbations tried per tuple: every single point pushed to each corner
    of its ball, plus seeded pseudorandom rational perturbations of all
    points at once.  Returns (True, None) or (False, witness) where the
    witness holds the tuple, the perturbed coordinates and both memberships.
    This samples; it can refute deepness but never fully certify it.
    Reading C(n, k) * (k * 2^d + samples_per_tuple) perturbed tuples, for
    n points in R^d, is refused above MAX_TUPLES before the first is read.
    """
    if samples_per_tuple < 0:
        raise ArgumentError("samples_per_tuple must be at least 0")
    if instance.epsilon is None:
        raise ArgumentError("instance has no epsilon to check")
    eps = _coef(instance.epsilon)
    rel = instance.relation
    pts = instance.points
    k = rel.arity
    d = pts.dim
    tuples = math.comb(len(pts), k)
    # 2^d > MAX_TUPLES from this d on: compare before forming the power.
    if tuples and (d >= MAX_TUPLES.bit_length()
                   or tuples * (k * 2 ** d + samples_per_tuple) > MAX_TUPLES):
        raise ResourceLimitError(
            f"{tuples} tuples of {k} points in R^{d}, each read at "
            f"{k} * 2^{d} corners and {samples_per_tuple} samples, exceed "
            f"{MAX_TUPLES} reads")
    rng = SeededRng(seed)

    def trials(coords):
        for slot in range(k):
            for corner in itertools.product((-eps, eps), repeat=d):
                perturbed = list(coords)
                for c in range(d):
                    perturbed[slot * d + c] += corner[c]
                yield perturbed
        for _ in range(samples_per_tuple):
            yield [v + rng.fraction(-eps, eps) for v in coords]

    for indices in itertools.combinations(range(1, len(pts) + 1), k):
        coords = [x for i in indices for x in pts.points[i - 1]]
        original = rel.holds_on_coords(coords)
        for perturbed in trials(coords):
            if rel.holds_on_coords(perturbed) != original:
                return False, {
                    "indices": indices,
                    "perturbed": perturbed,
                    "original": original,
                    "perturbed_membership": not original,
                }
    return True, None
