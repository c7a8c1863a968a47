"""Exact computational geometry: orientations, hyperplane arrangements,
one-sided tuples and convex position, all over the rationals.  The
orientation table behind general and convex position (decided in ints)
and `hyperplane_intersection`'s Cramer solve share one fraction-free
integer elimination, `_eliminate`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (MAX_EXPANSION, ArgumentError, DegenerateInputError,
                     PreconditionError, ResourceLimitError)
from .poly import MultivariatePolynomial, Scalar, _cleared, _coef, _sum_terms
from .relation import Formula, OrderedPointSet, SemiAlgebraicRelation


# -- exact linear algebra -------------------------------------------------


def _eliminate(rows: list[list[int]]) -> int:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of n int rows, in
    place; returns the determinant D of their left n x n block (0 at the
    first column with no pivot).  Each update divides exactly by the last
    pivot (Sylvester's identity); a swapped-in pivot row is negated, which
    keeps D.  If D != 0, the columns right of the block end as D * X, X the
    solution of (left block) X = (right block)."""
    n = len(rows)
    prev = 1
    for k in range(n):
        if not rows[k][k]:
            r = next((r for r in range(k + 1, n) if rows[r][k]), None)
            if r is None:
                return 0
            rows[k], rows[r] = [-v for v in rows[r]], rows[k]
        pivot_row = rows[k]
        p = pivot_row[k]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                for j in range(k + 1, len(row)):
                    row[j] = (p * row[j] - f * pivot_row[j]) // prev
        prev = p
    return prev


def _check_expansion(size: int, copies: int) -> None:
    """Refuse a product of `copies` size x size Leibniz expansions with more
    than MAX_EXPANSION monomial products, counting no further than that."""
    count = 1
    for i in range(2, size + 1):
        count *= i ** copies
        if count > MAX_EXPANSION:
            raise ResourceLimitError(
                f"expanding {copies} determinant(s) of size {size} needs more "
                f"than MAX_EXPANSION = {MAX_EXPANSION} monomial products")


def _sym_det(nv: int, rows: list[list[int | None]]) -> MultivariatePolynomial:
    """Leibniz expansion, in nv variables, of a determinant whose entries
    are variables (by index) or 1 (None); its signed monomials are summed in
    one term-map pass."""

    def signed_monomials():
        for perm in itertools.permutations(range(len(rows))):
            e = [0] * nv
            for row, col in zip(rows, perm):
                if row[col] is not None:
                    e[row[col]] += 1
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            yield tuple(e), (-1) ** inversions

    return MultivariatePolynomial._from_terms(nv, _sum_terms(signed_monomials()))


# -- point orientation ----------------------------------------------------


def orientation_polynomial(dim: int) -> MultivariatePolynomial:
    """The orientation determinant as a polynomial in (d+1)*d variables,
    blocked slot-major (point j occupies variables [j*d, (j+1)*d)).
    Raises ResourceLimitError when its (d+1)! products exceed MAX_EXPANSION."""
    d = dim
    _check_expansion(d + 1, 1)
    # Row 0 is all ones; row 1 + c holds coordinate c of each point.
    return _sym_det((d + 1) * d, [[None] * (d + 1)] + [
        [j * d + c for j in range(d + 1)] for c in range(d)])


def order_type_relation(dim: int) -> SemiAlgebraicRelation:
    """(d+1)-ary relation holding on positively oriented tuples."""
    if dim < 1:
        raise ArgumentError("dimension must be at least 1")
    p = orientation_polynomial(dim)
    return SemiAlgebraicRelation(dim + 1, dim, [p], Formula.leaf(0, "gt"))


def _orientation_table(points: OrderedPointSet):
    """({(d+1)-subset: orientation} in combinations order, None), or
    (None, witness) with witness the first subset of orientation 0.

    The set is scaled to ints once (OrderedPointSet.scaled, which refuses
    a common denominator above MAX_BITS bits): det of the rows (M, X_j) is
    M^(d+1) times det of the rows (1, x_j), with the same sign.
    """
    m, scaled = points.scaled()
    table = {}
    for combo in itertools.combinations(range(1, len(points) + 1), points.dim + 1):
        v = _eliminate([[m, *scaled[i - 1]] for i in combo])
        table[combo] = (v > 0) - (v < 0)
        if not v:
            return None, combo
    return table, None


def general_position_points(points: OrderedPointSet):
    """All (d+1)-subsets have nonzero orientation.

    Returns (True, None) or (False, witness_indices).
    """
    table, witness = _orientation_table(points)
    return table is not None, witness


# -- hyperplane arrangements ----------------------------------------------


@dataclass(frozen=True)
class Hyperplane:
    """Affine hyperplane sum_i a[i] * x_i = b in R^d."""
    a: tuple
    b: Scalar

    @classmethod
    def make(cls, a: Sequence[Scalar], b: Scalar) -> "Hyperplane":
        coeffs = tuple(_coef(x) for x in a)
        if all(x == 0 for x in coeffs):
            raise ArgumentError("hyperplane needs a nonzero normal vector")
        return cls(coeffs, _coef(b))

    @property
    def dim(self) -> int:
        return len(self.a)

    def representation_point(self) -> tuple[Scalar, ...]:
        """The point (a_1, ..., a_d, b) in R^{d+1} used by one_sided_relation."""
        return self.a + (self.b,)


class Arrangement:
    """Ordered list of hyperplanes in a common dimension."""

    def __init__(self, dim: int, hyperplanes: Sequence[Hyperplane]):
        if dim < 1:
            raise ArgumentError("dimension must be at least 1")
        for h in hyperplanes:
            if h.dim != dim:
                raise ArgumentError("hyperplane of wrong dimension in arrangement")
        self.dim = dim
        self.hyperplanes = tuple(hyperplanes)

    def __len__(self):
        return len(self.hyperplanes)

    def hyperplane(self, index: int) -> Hyperplane:
        if not 1 <= index <= len(self.hyperplanes):
            raise ArgumentError(f"hyperplane index {index} out of range")
        return self.hyperplanes[index - 1]

    def representation_points(self) -> OrderedPointSet:
        return OrderedPointSet(self.dim + 1,
                               [h.representation_point() for h in self.hyperplanes])


def hyperplane_intersection(hyperplanes: Sequence[Hyperplane]) -> tuple[Fraction, ...]:
    """Common point of d hyperplanes in R^d, exactly, by Cramer's rule: one
    elimination of their cleared representation points, the rows [a | b],
    gives det * x.  Raises DegenerateInputError if the point is not unique."""
    if not hyperplanes:
        raise ArgumentError("no hyperplanes given")
    d = hyperplanes[0].dim
    if len(hyperplanes) != d or any(h.dim != d for h in hyperplanes):
        raise ArgumentError(f"need exactly {d} hyperplanes in R^{d}")
    rows = [_cleared(h.representation_point())[0] for h in hyperplanes]
    det = _eliminate(rows)
    if not det:
        raise DegenerateInputError("singular linear system")
    return tuple(Fraction(row[d], det) for row in rows)


def general_position_hyperplanes(arr: Arrangement):
    """Every d-subset meets in a single point and those points are pairwise
    distinct.  Returns (True, None) or (False, witness): the first d-subset,
    in combinations order, that meets in no single point, or the pair of
    d-subsets that meet in the same point."""
    vertices = {}
    for combo in itertools.combinations(range(1, len(arr) + 1), arr.dim):
        try:
            v = hyperplane_intersection([arr.hyperplane(i) for i in combo])
        except DegenerateInputError:
            return False, combo
        if v in vertices:
            return False, (vertices[v], combo)
        vertices[v] = combo
    return True, None


def one_sided_relation(dim: int) -> SemiAlgebraicRelation:
    """d-ary relation on hyperplane representation points in R^{d+1}.

    A d-tuple of hyperplanes is in the relation when their common point has
    positive last coordinate.  By Cramer's rule that coordinate is a ratio
    det(A_d)/det(A) of two determinants in the representation coordinates,
    so positivity is the single polynomial condition det(A_d)*det(A) > 0.
    Singular tuples make the product vanish and are therefore non-members.
    Raises ResourceLimitError when its (d!)^2 products exceed MAX_EXPANSION.
    """
    d = dim
    if d < 1:
        raise ArgumentError("dimension must be at least 1")
    _check_expansion(d, 2)
    nv = d * (d + 1)
    # Coordinate j of representation point i is variable i*(d+1) + j.
    coeff_rows = [[i * (d + 1) + j for j in range(d)] for i in range(d)]
    numer_rows = [row[:-1] + [i * (d + 1) + d] for i, row in enumerate(coeff_rows)]
    p = _sym_det(nv, numer_rows) * _sym_det(nv, coeff_rows)
    return SemiAlgebraicRelation(d, d + 1, [p], Formula.leaf(0, "gt"))


def is_convex_position(points: OrderedPointSet) -> bool:
    """Whether every point is a vertex of the convex hull (planar, exact).

    Requires general position (raises PreconditionError otherwise, with the
    first collinear triple in combinations order as witness).  Each triple's
    orientation is computed once.  A point inside the hull of the others is
    inside a triangle of three of them (Caratheodory), so it suffices that
    every four points are in convex position: their affine dependency, with
    coefficient signs +o(234), -o(134), +o(124), -o(123), splits them 2 + 2
    (Radon), i.e. the four orientations multiply to +1.
    """
    if points.dim != 2:
        raise ArgumentError("convex position test is for planar point sets")
    table, witness = _orientation_table(points)
    if table is None:
        raise PreconditionError("points not in general position", witness=witness)
    return all(math.prod(table[t] for t in itertools.combinations(quad, 3)) > 0
               for quad in itertools.combinations(range(1, len(points) + 1), 4))
