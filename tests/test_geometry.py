"""Exact geometric predicates: orientations, order types, hyperplane
arrangements, one-sidedness and convex position."""

from __future__ import annotations

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import oracle_linalg
from semiramsey import (
    ArgumentError,
    Arrangement,
    DegenerateInputError,
    Hyperplane,
    OrderedPointSet,
    PreconditionError,
    ResourceLimitError,
    SeededRng,
    eval_membership,
    general_position_hyperplanes,
    general_position_points,
    hyperplane_intersection,
    is_convex_position,
    max_homogeneous,
    one_sided_relation,
    order_type_relation,
)
from semiramsey import geometry
from semiramsey.errors import MAX_BITS
from semiramsey.poly import _cleared


def line(a1, a2, b) -> Hyperplane:
    return Hyperplane.make([F(a1), F(a2)], F(b))


def orientation(points) -> int:
    """Orientation sign of d+1 points in R^d, read from the orientation pass
    behind general and convex position (0 when they are degenerate)."""
    ((_, sign),) = geometry._orientations(OrderedPointSet(len(points[0]), points))
    return sign


# -- determinants -----------------------------------------------------------------


def test_det_small_cases():
    # The determinant of the integer elimination, with a row swap and a
    # singular matrix among them.
    assert geometry._eliminate([[2]]) == 2
    assert geometry._eliminate([[1, 2], [3, 4]]) == -2
    assert geometry._eliminate([[0, 1, 2], [1, 0, 3], [4, -3, 8]]) == -2
    assert geometry._eliminate([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


# -- orientation --------------------------------------------------------------------


def test_orientation_examples():
    assert orientation([(0, 0), (1, 0), (0, 1)]) == 1
    assert orientation([(0, 0), (0, 1), (1, 0)]) == -1
    assert orientation([(0, 0), (1, 1), (2, 2)]) == 0


def test_orientation_in_three_dimensions():
    simplex = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert orientation(simplex) == 1


@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                min_size=3, max_size=3, unique=True),
       st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=100, deadline=None)
def test_orientation_is_alternating(points, i, j):
    if i == j:
        return
    swapped = list(points)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert orientation(swapped) == -orientation(points)


@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                min_size=3, max_size=3),
       st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
       st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_orientation_invariant_under_translation_and_scaling(points, shift, scale):
    moved = [(scale * x + shift[0], scale * y + shift[1]) for x, y in points]
    assert orientation(moved) == orientation(points)


# -- order types ----------------------------------------------------------------------


def test_order_type_relation_matches_orientation():
    relation = order_type_relation(2)
    points = OrderedPointSet(2, [[0, 0], [1, 0], [0, 1], [3, 1]])
    for t in itertools.combinations(range(1, 5), 3):
        coords = [points.point(i) for i in t]
        assert (eval_membership(relation, points, t)
                == (oracle_linalg.orientation(coords) == 1)), t


def test_one_dimensional_order_type_is_the_order():
    relation = order_type_relation(1)
    points = OrderedPointSet(1, [[1], [5], [9]])
    for pair in itertools.combinations(range(1, 4), 2):
        assert eval_membership(relation, points, pair)


def test_convex_hexagon_is_fully_homogeneous():
    hexagon = OrderedPointSet(2, [
        [4, 0], [2, 3], [-2, 3], [-4, 0], [-2, -3], [2, -3]])
    result = max_homogeneous(hexagon, order_type_relation(2))
    assert len(result.subset) == 6


# -- general position -------------------------------------------------------------------


def test_general_position_points_examples():
    ok, _ = general_position_points(
        OrderedPointSet(2, [[0, 0], [1, 0], [0, 1], [1, 2]]))
    assert ok
    ok, witness = general_position_points(
        OrderedPointSet(2, [[0, 0], [1, 1], [2, 2], [5, 0]]))
    assert not ok and witness == (1, 2, 3)
    ok, _ = general_position_points(OrderedPointSet(1, [[1], [3], [7]]))
    assert ok


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_orientation_pass_yields_every_subset_in_order(dim):
    rng = SeededRng(dim)
    coords = [[F(rng.randint(-50, 50), rng.randint(1, 97)) for _ in range(dim)]
              for _ in range(7)]
    scan = list(geometry._orientations(OrderedPointSet(dim, coords)))
    assert scan == [(t, oracle_linalg.orientation([coords[i - 1] for i in t]))
                    for t in itertools.combinations(range(1, 8), dim + 1)]
    assert {sign for _, sign in scan} == {-1, 1}
    # A repeated point: general position stops at the first subset of
    # orientation 0.
    coords.append(coords[2])
    first_zero = next(
        t for t in itertools.combinations(range(1, 9), dim + 1)
        if oracle_linalg.orientation([coords[i - 1] for i in t]) == 0)
    assert general_position_points(OrderedPointSet(dim, coords)) == \
        (False, first_zero)


def test_orientation_pass_refuses_denominators_past_the_bit_cap():
    points = OrderedPointSet(1, [[F(1, 2 ** MAX_BITS)], [1]])
    with pytest.raises(ResourceLimitError):
        general_position_points(points)


# -- hyperplane arrangements ----------------------------------------------------------------


def test_intersection_of_axis_lines():
    assert hyperplane_intersection(
        [line(1, 0, 0), line(0, 1, 1)]) == (F(0), F(1))


def test_intersection_solves_two_by_two_system():
    assert hyperplane_intersection(
        [line(-1, 1, 1), line(1, 1, 3)]) == (F(1), F(2))


def test_intersection_of_parallel_lines_is_degenerate():
    with pytest.raises(DegenerateInputError):
        hyperplane_intersection([line(0, 1, 0), line(0, 1, 1)])


def test_intersection_exact_and_singular():
    assert hyperplane_intersection(
        [line(2, 0, 1), line(0, 4, 1)]) == (F(1, 2), F(1, 4))
    with pytest.raises(DegenerateInputError):  # one line, written twice
        hyperplane_intersection([line(1, 1, 1), line(2, 2, 2)])


def test_intersection_rejects_mixed_dimensions():
    plane = Hyperplane.make([1, 0, 0], 1)
    for planes in ([line(1, 0, 0), plane],
                   [plane, Hyperplane.make([0, 1, 0], 1), line(0, 1, 0)]):
        with pytest.raises(ArgumentError):
            hyperplane_intersection(planes)


@pytest.mark.parametrize("dim", [0, True, 2.0])
@pytest.mark.parametrize("build", [order_type_relation, one_sided_relation])
def test_a_relation_dimension_must_be_an_int_of_at_least_one(build, dim):
    """A float dimension once failed with a TypeError while the determinant
    was expanded, and a bool one was refused as an arity or a point
    dimension."""
    with pytest.raises(ArgumentError,
                       match=f"^dimension must be an int of at least 1, got {dim!r}$"):
        build(dim)


def test_general_position_three_lines():
    arr = Arrangement(2, [line(-1, 1, 1), line(1, 1, 3), line(0, 1, 1)])
    assert general_position_hyperplanes(arr) == (True, None)


def test_concurrent_lines_are_not_general_position():
    arr = Arrangement(2, [line(1, 0, 0), line(0, 1, 0), line(1, 1, 0)])
    ok, witness = general_position_hyperplanes(arr)
    assert not ok and witness is not None


def test_parallel_pair_is_not_general_position():
    arr = Arrangement(2, [line(0, 1, 0), line(0, 1, 1), line(1, 0, 0)])
    ok, witness = general_position_hyperplanes(arr)
    assert not ok


# -- one-sidedness ------------------------------------------------------------------------


def representation_points(lines) -> OrderedPointSet:
    return Arrangement(2, lines).representation_points()


def test_one_sided_relation_member_pair():
    reps = representation_points([line(-1, 1, 1), line(1, 1, 3)])
    assert eval_membership(one_sided_relation(2), reps, (1, 2))


def test_one_sided_relation_non_member_pair():
    reps = representation_points([line(-1, 1, 1), line(1, 1, -3)])
    assert not eval_membership(one_sided_relation(2), reps, (1, 2))


def test_vertex_on_the_floor_is_a_non_member():
    # Lines meet at (-1, 0), exactly on x2 = 0.
    reps = representation_points([line(-1, 1, 1), line(1, 1, -1)])
    assert not eval_membership(one_sided_relation(2), reps, (1, 2))


def test_is_one_sided_positive_triple():
    arr = Arrangement(2, [line(-1, 1, 1), line(1, 1, 3), line(0, 1, 1)])
    assert oracle_linalg.is_one_sided(arr) == (True, 1)


def test_is_one_sided_mixed_signs():
    arr = Arrangement(2, [line(-1, 1, 1), line(1, 1, -3), line(0, 1, 1)])
    ok, witness = oracle_linalg.is_one_sided(arr)
    assert not ok and witness is not None


def test_is_one_sided_single_vertex():
    arr = Arrangement(2, [line(1, 0, 0), line(0, 1, -2)])
    assert oracle_linalg.is_one_sided(arr) == (True, -1)


def test_is_one_sided_boundary_vertex_flagged():
    arr = Arrangement(2, [line(-1, 1, 1), line(1, 1, -1)])
    ok, witness = oracle_linalg.is_one_sided(arr)
    assert not ok and witness == (1, 2)


def test_is_one_sided_requires_general_position():
    arr = Arrangement(2, [line(0, 1, 0), line(0, 1, 1)])
    with pytest.raises(PreconditionError):
        oracle_linalg.is_one_sided(arr)


def test_one_sided_relation_agrees_with_the_vertex_sign_oracle():
    """An arrangement in general position has every vertex above x_d = 0
    exactly when all its d-tuples are in one_sided_relation, and every
    vertex below only if none is."""
    rng = SeededRng(654)
    relations = {2: one_sided_relation(2), 3: one_sided_relation(3)}
    seen = set()
    for trial in range(40):
        t_rng = rng.derive(f"sided-{trial}")
        d = 2 + trial % 2
        planes = []
        while len(planes) < d + 1:
            coeffs = [t_rng.randint(-5, 5) for _ in range(d)]
            if any(coeffs):
                planes.append(Hyperplane.make(coeffs, t_rng.randint(-5, 5)))
        arr = Arrangement(d, planes)
        if not general_position_hyperplanes(arr)[0]:
            continue
        ok, side = oracle_linalg.is_one_sided(arr)
        reps = arr.representation_points()
        members = [eval_membership(relations[d], reps, combo)
                   for combo in itertools.combinations(range(1, d + 2), d)]
        assert (ok and side == 1) == all(members), trial
        assert not (ok and side == -1 and any(members)), trial
        seen.add(side if ok else 0)
    assert seen == {1, -1, 0}


def test_one_sided_relation_agrees_with_direct_intersection():
    rng = SeededRng(321)
    relation2 = one_sided_relation(2)
    relation3 = one_sided_relation(3)
    for trial in range(12):
        t_rng = rng.derive(f"arrangement-{trial}")
        d = 2 if trial % 2 == 0 else 3
        relation = relation2 if d == 2 else relation3
        planes = []
        while len(planes) < d + 2:
            coeffs = [F(t_rng.randint(-5, 5)) for _ in range(d)]
            if all(c == 0 for c in coeffs):
                continue
            planes.append(Hyperplane.make(coeffs, F(t_rng.randint(-5, 5))))
        arr = Arrangement(d, planes)
        reps = arr.representation_points()
        for combo in itertools.combinations(range(1, d + 3), d):
            try:
                vertex = hyperplane_intersection(
                    [arr.hyperplane(i) for i in combo])
                expected = vertex[d - 1] > 0
            except DegenerateInputError:
                expected = False
            assert (eval_membership(relation, reps, combo)
                    == expected), (trial, combo)


# -- convex position ----------------------------------------------------------------------------


def test_square_is_convex():
    square = OrderedPointSet(2, [[0, 0], [1, 0], [1, 1], [0, 1]])
    assert is_convex_position(square)


def test_interior_point_breaks_convex_position():
    points = OrderedPointSet(2, [[0, 0], [4, 0], [0, 4], [1, 1]])
    assert not is_convex_position(points)


def test_convex_position_requires_general_position():
    collinear = OrderedPointSet(2, [[0, 0], [1, 1], [2, 2], [0, 5]])
    with pytest.raises(PreconditionError):
        is_convex_position(collinear)


def test_any_five_points_contain_four_in_convex_position():
    rng = SeededRng(888)
    done = 0
    trial = 0
    while done < 300:
        trial += 1
        t_rng = rng.derive(f"klein-{trial}")
        coords = [[F(t_rng.randint(-40, 40)), F(t_rng.randint(-40, 40))]
                  for _ in range(5)]
        points = OrderedPointSet(2, coords)
        ok, _ = general_position_points(points)
        if not ok:
            continue
        found = any(
            is_convex_position(OrderedPointSet(
                2, [coords[i] for i in quad]))
            for quad in itertools.combinations(range(5), 4))
        assert found, coords
        done += 1


# -- the integer elimination against the Fraction oracle ----------------------------------------

scalars = st.one_of(st.integers(-6, 6), st.builds(F, st.integers(-6, 6), st.integers(1, 4)))


def _others(draw, size, i):
    return draw(st.sampled_from([j for j in range(size) if j != i]))


@st.composite
def square_systems(draw):
    """(A, b) with A of size 1..6; about half are made singular by
    replacing a row with a rational combination of two others."""
    n = draw(st.integers(1, 6))
    a = [draw(st.lists(scalars, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        j, k = _others(draw, n, i), _others(draw, n, i)
        s, t = draw(scalars), draw(scalars)
        a[i] = [s * x + t * y for x, y in zip(a[j], a[k])]
    return a, draw(st.lists(scalars, min_size=n, max_size=n))


@st.composite
def point_tuples(draw):
    """d+1 points in R^d, d = 1..5, often with a repeated point or one on
    the line through two others."""
    d = draw(st.integers(1, 5))
    pts = [draw(st.lists(scalars, min_size=d, max_size=d)) for _ in range(d + 1)]
    mode = draw(st.sampled_from(["free", "repeat", "collinear"]))
    i = draw(st.integers(0, d))
    if mode == "repeat" or (mode == "collinear" and d == 1):
        pts[i] = list(pts[_others(draw, d + 1, i)])
    elif mode == "collinear":
        j, k, s = _others(draw, d + 1, i), _others(draw, d + 1, i), draw(scalars)
        pts[i] = [s * x + (1 - s) * y for x, y in zip(pts[j], pts[k])]
    return pts


@given(square_systems())
@settings(max_examples=300, deadline=None)
def test_det_and_solve_match_fraction_oracle(system):
    a, b = system
    rows = [_cleared(row)[0] for row in a]
    want = oracle_linalg.det(rows)
    assert geometry._eliminate(rows) == want
    if not all(any(row) for row in a):
        with pytest.raises(ArgumentError):  # a zero row is no hyperplane
            [Hyperplane.make(row, bv) for row, bv in zip(a, b)]
        return
    planes = [Hyperplane.make(row, bv) for row, bv in zip(a, b)]
    try:
        expected = oracle_linalg.solve_linear_system(a, b)
    except DegenerateInputError:
        with pytest.raises(DegenerateInputError):
            hyperplane_intersection(planes)
    else:
        assert hyperplane_intersection(planes) == tuple(expected)


@given(point_tuples())
@settings(max_examples=300, deadline=None)
def test_orientation_matches_fraction_oracle(points):
    assert orientation(points) == oracle_linalg.orientation(points)


def _outcome(test, points):
    try:
        return test(points)
    except PreconditionError as exc:
        return ("witness", exc.witness)


def test_convex_position_matches_oracle():
    """Planar sets of 4-12 points; the small grids give many collinear
    triples, where the PreconditionError witness must be the oracle's."""
    rng = SeededRng(4242)
    seen = set()
    for trial in range(300):
        t_rng = rng.derive(f"convex-{trial}")
        span = 3 if trial % 3 == 0 else 30
        coords = [[F(t_rng.randint(-span, span), t_rng.randint(1, 2)),
                   F(t_rng.randint(-span, span), t_rng.randint(1, 2))]
                  for _ in range(4 + trial % 9)]
        points = OrderedPointSet(2, coords)
        expected = _outcome(oracle_linalg.is_convex_position, points)
        assert _outcome(is_convex_position, points) == expected, coords
        seen.add(expected if isinstance(expected, bool) else "witness")
    assert seen == {True, False, "witness"}


@pytest.mark.parametrize("at", [0, 20, 40])
def test_parabola_polygon_is_convex_until_a_point_goes_inside(at):
    """40 points on y = x^2 are in convex position; (1/2, 2/3) lies inside
    their hull, above the edge y = x from (0, 0) to (1, 1), and on no line
    through two of them (those lines take values in Z/2 at x = 1/2)."""
    polygon = [[i, i * i] for i in range(40)]
    assert is_convex_position(OrderedPointSet(2, polygon))
    polygon.insert(at, [F(1, 2), F(2, 3)])
    assert not is_convex_position(OrderedPointSet(2, polygon))


def test_convex_position_reads_each_triple_once(monkeypatch):
    calls = []

    def counting(rows):
        calls.append(tuple(map(tuple, rows)))
        return eliminate(rows)

    eliminate = geometry._eliminate
    monkeypatch.setattr(geometry, "_eliminate", counting)
    octagon = OrderedPointSet(2, [[3, 0], [2, 2], [0, 3], [-2, 2],
                                  [-3, 0], [-2, -2], [0, -3], [2, -2]])
    assert is_convex_position(octagon)
    assert len(calls) == len(set(calls)) == 56  # C(8, 3)


def test_general_position_hyperplanes_solves_each_subset_once(monkeypatch):
    calls = []

    def counting(hyperplanes):
        calls.append(tuple(hyperplanes))
        return hyperplane_intersection(hyperplanes)

    monkeypatch.setattr(geometry, "hyperplane_intersection", counting)
    arr = Arrangement(2, [line(-1, 1, 1), line(1, 1, 3), line(0, 1, 1), line(1, 2, 9)])
    assert general_position_hyperplanes(arr) == (True, None)
    assert len(calls) == len(set(calls)) == 6  # C(4, 2)
