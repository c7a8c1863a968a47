"""Reference exact linear algebra and planar predicates for the test suite.

These are the Fraction elimination loops that geometry.py ran before it
moved to one fraction-free integer elimination: a determinant by Gaussian
elimination, a Gauss-Jordan solver, the orientation sign read from that
determinant, and the convex-position test that checks general position
first and then evaluates three orientations per (point, triangle) pair.
Beside them is the direct vertex sign that one_sided_relation decides as
one polynomial sign: every vertex of an arrangement solved for, and the
signs of their last coordinates compared.  They share no code with the
module under test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from semiramsey.errors import ArgumentError, DegenerateInputError, PreconditionError


def det(matrix) -> Fraction:
    """Exact determinant by Gaussian elimination over Fraction."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    for row in m:
        if len(row) != n:
            raise ArgumentError("determinant of a non-square matrix")
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        pv = m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / pv
            if factor == 0:
                continue
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    result = Fraction(sign)
    for i in range(n):
        result *= m[i][i]
    return result


def solve_linear_system(a, b) -> list[Fraction]:
    """Solve a square system by Gauss-Jordan over Fraction; raises
    DegenerateInputError if it is singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(a, b)]
    if any(len(row) != n + 1 for row in m) or len(m) != n:
        raise ArgumentError("system shape mismatch")
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise DegenerateInputError("singular linear system")
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def orientation(points) -> int:
    """Sign of the determinant whose j-th column is (1, p_j)."""
    d = len(points[0])
    matrix = [[1] * len(points)] + [[p[i] for p in points] for i in range(d)]
    v = det(matrix)
    return 0 if v == 0 else (1 if v > 0 else -1)


def is_convex_position(points) -> bool:
    """Planar convex position: general position first (PreconditionError
    with the first collinear triple), then no point inside a triangle of
    three others."""
    n = len(points)
    for combo in itertools.combinations(range(1, n + 1), 3):
        if orientation([points.point(i) for i in combo]) == 0:
            raise PreconditionError("points not in general position", witness=combo)
    for q in range(1, n + 1):
        qp = points.point(q)
        others = [i for i in range(1, n + 1) if i != q]
        for tri in itertools.combinations(others, 3):
            a, b, c = (points.point(i) for i in tri)
            if orientation([a, b, qp]) == orientation([b, c, qp]) == orientation([c, a, qp]):
                return False
    return True


def is_one_sided(arr):
    """Whether every vertex of an arrangement lies strictly on one side of
    the hyperplane x_d = 0: (True, that side's sign), or (False, the first
    d-subset, in combinations order, whose vertex is on x_d = 0 or on the
    other side).  PreconditionError, with the witness of
    general_position_hyperplanes, when the arrangement is not in general
    position."""
    vertices = {}
    for combo in itertools.combinations(range(1, len(arr) + 1), arr.dim):
        planes = [arr.hyperplane(i) for i in combo]
        try:
            v = tuple(solve_linear_system([h.a for h in planes],
                                          [h.b for h in planes]))
        except DegenerateInputError:
            raise PreconditionError("arrangement not in general position",
                                    witness=combo) from None
        if v in vertices:
            raise PreconditionError("arrangement not in general position",
                                    witness=(vertices[v], combo))
        vertices[v] = combo
    seen_sign = 0
    for v, combo in vertices.items():
        s = (v[-1] > 0) - (v[-1] < 0)
        if s == 0 or s == -seen_sign:
            return False, combo
        seen_sign = s
    return True, seen_sign
