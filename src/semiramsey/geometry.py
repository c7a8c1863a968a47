"""Exact computational geometry: orientations, hyperplane arrangements,
one-sided tuples and convex position, all over the rationals.  `det`,
`orientation` (decided in ints) and the Cramer solve behind
`hyperplane_intersection` share one fraction-free integer elimination.
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


def det(matrix: Sequence[Sequence[Scalar]]) -> Fraction:
    """Exact determinant: the elimination's determinant of the rows
    cleared to ints, divided by the product of the row scales."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ArgumentError("determinant of a non-square matrix")
    cleared = [_cleared(row) for row in matrix]
    return Fraction(_eliminate([r for r, _ in cleared]),
                    math.prod(s for _, s in cleared))


def solve_linear_system(a: Sequence[Sequence[Scalar]], b: Sequence[Scalar]) -> list[Fraction]:
    """Solve a square system exactly by Cramer's rule: one elimination of
    the cleared rows of [A | b] gives det * x.  Raises DegenerateInputError
    if the system is singular."""
    n = len(a)
    if len(b) != n or any(len(row) != n for row in a):
        raise ArgumentError("system shape mismatch")
    rows = [_cleared([*row, bv])[0] for row, bv in zip(a, b)]
    d = _eliminate(rows)
    if not d:
        raise DegenerateInputError("singular linear system")
    return [Fraction(row[n], d) for row in rows]


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
            yield tuple(e), Fraction((-1) ** inversions)

    return MultivariatePolynomial._from_terms(nv, _sum_terms(signed_monomials()))


# -- point orientation ----------------------------------------------------


def orientation(points: Sequence[Sequence[Scalar]]) -> int:
    """Sign of det of the (d+1)x(d+1) matrix whose j-th column is (1, p_j).

    Takes exactly d+1 points in R^d; returns -1, 0 or +1.
    """
    d = len(points) - 1
    if d < 1 or any(len(p) != d for p in points):
        raise ArgumentError(
            f"orientation needs d+1 points in R^d for some d >= 1, got {d + 1} points "
            f"of dimensions {sorted({len(p) for p in points})}")
    # Row j is (1, p_j) times the positive LCM of p_j's denominators.
    v = _eliminate([_cleared((1, *p))[0] for p in points])
    return (v > 0) - (v < 0)


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
    b: Fraction

    @classmethod
    def make(cls, a: Sequence[Scalar], b: Scalar) -> "Hyperplane":
        coeffs = tuple(_coef(x) for x in a)
        if all(x == 0 for x in coeffs):
            raise ArgumentError("hyperplane needs a nonzero normal vector")
        return cls(coeffs, _coef(b))

    @property
    def dim(self) -> int:
        return len(self.a)

    def side(self, point: Sequence[Scalar]) -> Fraction:
        if len(point) != self.dim:
            raise ArgumentError("point/hyperplane dimension mismatch")
        return sum((c * _coef(x) for c, x in zip(self.a, point)), Fraction(0)) - self.b

    def representation_point(self) -> tuple[Fraction, ...]:
        """The point (a_1, ..., a_d, b) in R^{d+1} used by one_sided_relation."""
        return self.a + (self.b,)

    def proportional_to(self, other: "Hyperplane") -> bool:
        """Same hyperplane as a set (coefficient vectors parallel, same b ratio)."""
        u, v = self.a + (self.b,), other.a + (other.b,)
        k = next((i for i, x in enumerate(u) if x), None)
        return (len(u) == len(v) and k is not None and v[k] != 0
                and all(x * v[k] == y * u[k] for x, y in zip(u, v)))


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
    """Common point of d hyperplanes in R^d (exact; error if not unique)."""
    if not hyperplanes:
        raise ArgumentError("no hyperplanes given")
    d = hyperplanes[0].dim
    if len(hyperplanes) != d:
        raise ArgumentError(f"need exactly {d} hyperplanes in R^{d}")
    return tuple(solve_linear_system([h.a for h in hyperplanes],
                                     [h.b for h in hyperplanes]))


def _vertex_walk(arr: Arrangement):
    """(vertices, None) with vertices = {vertex: d-subset} in combinations
    order, or (None, witness) at the first d-subset that meets in no single
    point or in the same point as an earlier one."""
    vertices = {}
    for combo in itertools.combinations(range(1, len(arr) + 1), arr.dim):
        try:
            v = hyperplane_intersection([arr.hyperplane(i) for i in combo])
        except DegenerateInputError:
            return None, combo
        if v in vertices:
            return None, (vertices[v], combo)
        vertices[v] = combo
    return vertices, None


def general_position_hyperplanes(arr: Arrangement):
    """Every d-subset meets in a single point and those points are pairwise
    distinct.  Returns (True, None) or (False, witness)."""
    vertices, witness = _vertex_walk(arr)
    return vertices is not None, witness


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


def is_one_sided(arr: Arrangement):
    """Whether all arrangement vertices lie strictly on one side of the
    hyperplane x_d = 0.

    Requires the arrangement in general position.  Returns (True, sign) or
    (False, witness_combo).
    """
    vertices, witness = _vertex_walk(arr)
    if vertices is None:
        raise PreconditionError("arrangement not in general position", witness=witness)
    seen_sign = 0
    for v, combo in vertices.items():
        s = (v[-1] > 0) - (v[-1] < 0)
        if s == 0 or s == -seen_sign:
            return False, combo
        seen_sign = s
    return True, seen_sign


def project_onto_hyperplane(arr: Arrangement, pivot_index: int):
    """Central-chart projection of an arrangement into a pivot hyperplane.

    Each member h is replaced by h intersected with the pivot, written in the
    chart that drops the coordinate axis of the pivot's largest-|coefficient|
    entry (ties: higher index).  Returns (projected arrangement in R^{d-1},
    image of the hyperplane x_d = 0).  Members parallel to the pivot are
    degenerate and rejected; when the floor x_d = 0 itself is parallel to
    the pivot its image is None instead of a chart hyperplane.
    """
    d = arr.dim
    if d < 3:
        raise ArgumentError("projection needs ambient dimension at least 3")
    pivot = arr.hyperplane(pivot_index)
    drop = max(range(d), key=lambda i: (abs(pivot.a[i]), i))
    cm = pivot.a[drop]

    def image_of(h: Hyperplane) -> Hyperplane | None:
        coeffs = [h.a[i] * cm - h.a[drop] * pivot.a[i] for i in range(d) if i != drop]
        rhs = h.b * cm - h.a[drop] * pivot.b
        if all(c == 0 for c in coeffs):
            return None
        return Hyperplane.make(coeffs, rhs)

    members = []
    for i, h in enumerate(arr.hyperplanes, start=1):
        if i == pivot_index:
            continue
        image = image_of(h)
        if image is None:
            raise DegenerateInputError(
                "member parallel to the pivot has no hyperplane image in the chart")
        members.append(image)
    floor_image = image_of(Hyperplane.make([0] * (d - 1) + [1], 0))
    return Arrangement(d - 1, members), floor_image


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
