"""Semi-algebraic relations: formulas, membership, sign vectors and the
degree-based sign-pattern bound."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import oracle_eval
import oracle_formula
from semiramsey import (
    ArgumentError,
    Formula,
    MultivariatePolynomial as Poly,
    OrderedPointSet,
    ResourceLimitError,
    SeededRng,
    SemiAlgebraicRelation,
    base_construction,
    count_distinct_sign_vectors,
    eval_membership,
    milnor_thom_bound,
    order_type_relation,
    sign_vector,
)
from semiramsey.errors import MAX_BITS
from semiramsey.poly import IntegerForm


def x(i: int, n: int) -> Poly:
    return Poly.variable(i, n)


# -- construction validation ---------------------------------------------------


def test_atom_with_dangling_polynomial_index_rejected():
    poly = x(0, 2)
    with pytest.raises(ArgumentError):
        SemiAlgebraicRelation(2, 1, [poly], Formula.leaf(1, "ge"))


def test_unknown_comparison_rejected():
    with pytest.raises(ArgumentError):
        Formula.leaf(0, "le")


def test_polynomial_variable_count_must_match_arity_times_dim():
    with pytest.raises(ArgumentError):
        SemiAlgebraicRelation(2, 2, [x(0, 3)], Formula.leaf(0, "ge"))


def test_complexity_of_base_relation():
    relation = base_construction(2).relation
    assert relation.complexity() == 3


def test_complexity_dominated_by_degree():
    p = x(0, 2) ** 5
    relation = SemiAlgebraicRelation(2, 1, [p], Formula.leaf(0, "gt"))
    assert relation.complexity() == 5


# -- membership ----------------------------------------------------------------


def test_base_relation_memberships_on_first_four_integers():
    inst = base_construction(2)
    assert eval_membership(inst.relation, inst.points, (1, 2, 3))
    assert not eval_membership(inst.relation, inst.points, (1, 3, 4))


def test_orientation_relation_on_unit_triangle():
    points = OrderedPointSet(2, [[0, 0], [1, 0], [0, 1]])
    assert eval_membership(order_type_relation(2), points, (1, 2, 3))


def test_non_increasing_indices_rejected():
    inst = base_construction(2)
    with pytest.raises(ArgumentError):
        eval_membership(inst.relation, inst.points, (2, 1, 3))
    with pytest.raises(ArgumentError):
        eval_membership(inst.relation, inst.points, (1, 1, 2))


def test_out_of_range_index_rejected():
    inst = base_construction(2)
    with pytest.raises(ArgumentError):
        eval_membership(inst.relation, inst.points, (1, 2, 5))


def test_dimension_mismatch_rejected():
    points = OrderedPointSet(2, [[0, 0], [1, 0], [0, 1]])
    inst = base_construction(2)
    with pytest.raises(ArgumentError):
        eval_membership(inst.relation, points, (1, 2, 3))


def test_point_set_keeps_int_coordinates_and_refuses_other_types():
    points = OrderedPointSet(2, [[1, F(1, 2)], (3, F(4))])
    assert [type(x) for x in points.point(1)] == [int, F]
    assert points.point(2) == (3, 4)
    assert points.scaled() == (2, ((2, 1), (6, 8)))
    for bad in (True, 0.5, "1", None):
        with pytest.raises(ArgumentError):
            OrderedPointSet(2, [[1, 2], [3, bad]])


def test_membership_ignores_points_outside_the_tuple():
    relation = base_construction(2).relation
    small = OrderedPointSet(1, [[1], [2], [3]])
    grown = OrderedPointSet(1, [[1], [2], [3], [100], [-7]])
    assert (eval_membership(relation, small, (1, 2, 3))
            == eval_membership(relation, grown, (1, 2, 3)))


def test_empty_and_is_true_empty_or_is_false():
    points = OrderedPointSet(1, [[1], [2]])
    always = SemiAlgebraicRelation(2, 1, [], Formula.all_of([]))
    never = SemiAlgebraicRelation(2, 1, [], Formula.any_of([]))
    assert eval_membership(always, points, (1, 2))
    assert not eval_membership(never, points, (1, 2))


# -- the compiled decider ------------------------------------------------------

COMPILED_POLYS = [x(0, 2) - x(1, 2), x(0, 2) * x(1, 2) - Poly.constant(2, 1),
                  x(0, 2) + x(1, 2), 4 * x(0, 2) ** 2 - Poly.constant(2, 1)]
# Each polynomial vanishes at some pair of these values.
COMPILED_VALUES = [F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2)]


def random_formula(rng: SeededRng, depth: int, pool: list) -> Formula:
    """A seeded random formula over COMPILED_POLYS.  Every node built goes
    into `pool` and may be picked again as a child, so subtrees are shared;
    AND and OR get 0 to 3 children."""
    if pool and rng.randint(0, 3) == 0:
        return rng.choice(pool)
    op = "atom" if depth == 0 else rng.choice(["atom", "and", "or", "not"])
    if op == "atom":
        node = Formula.leaf(rng.randint(0, len(COMPILED_POLYS) - 1),
                            rng.choice(["ge", "gt", "eq"]))
    elif op == "not":
        node = Formula.negation(random_formula(rng, depth - 1, pool))
    else:
        node = Formula(op, tuple(random_formula(rng, depth - 1, pool)
                                 for _ in range(rng.randint(0, 3))))
    pool.append(node)
    return node


def _shares_a_subtree(formula: Formula) -> bool:
    edges = [id(ch) for node in formula.nodes() for ch in node.children]
    return len(edges) != len(set(edges))


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_compiled_decider_matches_the_recursive_oracle(seed, monkeypatch):
    reads: list = []
    for cls in (Poly, IntegerForm):
        def counted(self, point, _sign=cls.sign):
            reads.append(id(self))
            return _sign(self, point)
        monkeypatch.setattr(cls, "sign", counted)

    rng = SeededRng(seed)
    seen_signs: set = set()
    seen_ops: set = set()
    shared = 0
    for _ in range(300):
        formula = random_formula(rng, 4, [])
        relation = SemiAlgebraicRelation(2, 1, COMPILED_POLYS, formula)
        coords = [rng.choice(COMPILED_VALUES), rng.choice(COMPILED_VALUES)]

        def truth(atom):
            value = oracle_eval.eval_fraction(
                COMPILED_POLYS[atom.poly_index].terms, coords)
            sign = (value > 0) - (value < 0)
            seen_signs.add((atom.cmp, sign))
            return atom.holds(sign)

        expected = oracle_formula.evaluate(formula, truth)
        scale, (first, second) = OrderedPointSet(
            1, [[c] for c in coords]).scaled()
        scaled = first + second
        for decide in (lambda: relation.holds_on_coords(coords),
                       lambda: relation.holds_at_scale(scale, scaled)):
            reads.clear()
            assert decide() == expected
            # Each polynomial's sign is read at most once per call.
            assert len(reads) == len(set(reads))
        seen_ops |= {(node.op, len(node.children)) for node in formula.nodes()}
        shared += _shares_a_subtree(formula)
    # The draws cover every comparison at an exact zero and on both sides,
    # NOT, empty AND and OR, and shared subtrees.
    assert seen_signs == {(c, s) for c in ("ge", "gt", "eq") for s in (-1, 0, 1)}
    assert {("not", 1), ("and", 0), ("or", 0)} <= seen_ops
    assert shared > 0


def test_compiled_decider_decides_a_shared_node_once_per_call():
    # Forty levels of and(prev, prev) unfold to 2^40 leaves.
    node = Formula.leaf(0, "ge")
    for _ in range(40):
        node = Formula.all_of([node, Formula.negation(Formula.negation(node))])
    relation = SemiAlgebraicRelation(2, 1, COMPILED_POLYS, node)
    assert relation.holds_on_coords([F(1), F(0)])
    assert not relation.holds_on_coords([F(0), F(1)])


def test_holds_on_coords_clears_its_tuple_once(monkeypatch):
    """Every atom of a four-atom conjunction is read, and the rational
    tuple is cleared to (X, L) once for all of them."""
    from semiramsey import poly, relation as relation_module
    calls: list = []

    def counted(values, _cleared=poly._cleared):
        calls.append(tuple(values))
        return _cleared(values)
    monkeypatch.setattr(poly, "_cleared", counted)
    monkeypatch.setattr(relation_module, "_cleared", counted, raising=False)
    relation = SemiAlgebraicRelation(
        2, 1, COMPILED_POLYS,
        Formula.all_of([Formula.leaf(0, "gt"), Formula.leaf(1, "gt"),
                        Formula.leaf(2, "gt"), Formula.leaf(3, "gt")]))
    coords = [F(5, 2), F(2, 3)]
    assert relation.holds_on_coords(coords)
    assert calls == [tuple(coords)]
    calls.clear()
    assert not relation.holds_on_coords([F(1, 3), F(2, 3)])
    assert len(calls) == 1


# -- sign vectors ----------------------------------------------------------------


def test_sign_vector_basic():
    family = [x(0, 1), x(0, 1) - Poly.constant(1, 1)]
    assert sign_vector(family, [F(1, 2)]) == (1, -1)


def test_sign_vector_zero_entries():
    family = [x(0, 1) ** 2, -(x(0, 1) ** 2)]
    assert sign_vector(family, [0]) == (0, 0)


def test_sign_vector_cancellation():
    family = [x(0, 2) + x(1, 2)]
    assert sign_vector(family, [1, -1]) == (0,)


def test_sign_vector_dimension_mismatch():
    with pytest.raises(ArgumentError):
        sign_vector([x(0, 2)], [1])


def test_count_distinct_sign_vectors_examples():
    assert count_distinct_sign_vectors([x(0, 1)], [[-1], [0], [2]]) == 3
    one = x(0, 1) ** 2 + Poly.constant(1, 1)
    assert count_distinct_sign_vectors([one], [[-5], [0], [7]]) == 1
    quadrants = [[1, 1], [-1, 1], [-1, -1], [1, -1]]
    assert count_distinct_sign_vectors([x(0, 2), x(1, 2)], quadrants) == 4


def milnor_thom_family(rng: SeededRng) -> list[Poly]:
    """A family drawn as `verify milnor-thom` draws one; empty when that
    command would skip the trial."""
    dim = rng.randint(2, 3)
    family_size = rng.randint(dim, 6)
    degree = rng.randint(1, 3)
    polys = []
    for _ in range(family_size):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = [0] * dim
            for _ in range(degree):
                e[rng.randint(0, dim - 1)] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + rng.randint(-5, 5)
        p = Poly(dim, terms)
        if not p.is_zero() and p.degree() >= 1:
            polys.append(p)
    return polys if len(polys) >= dim else []


def oracle_sign_vector_count(polys, points) -> int:
    return len({tuple((v > 0) - (v < 0) for v in (
        oracle_eval.eval_fraction(p.terms, pt) for p in polys))
        for pt in points})


@pytest.mark.parametrize("seed", [1, 7])
def test_count_distinct_sign_vectors_equals_oracle(seed):
    rng = SeededRng(seed)
    families = 0
    while families < 25:
        polys = milnor_thom_family(rng)
        if not polys:
            continue
        families += 1
        dim = polys[0].num_vars
        grid = [[rng.fraction(-10, 10) for _ in range(dim)] for _ in range(20)]
        ints = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(20)]
        mixed = [[rng.fraction(F(-2), F(3, 2), denominator=rng.randint(1, 40))
                  for _ in range(dim)] for _ in range(20)]
        # The drawn polynomials are homogeneous; shifted ones are not.
        shifted = [p + F(rng.randint(-9, 9), rng.randint(1, 5)) for p in polys]
        for family in (polys, shifted):
            for points in (grid, ints, mixed, grid + ints + mixed):
                assert (count_distinct_sign_vectors(family, points)
                        == oracle_sign_vector_count(family, points))


@pytest.mark.parametrize("seed", [1, 7])
def test_integer_grid_count_equals_fraction_grid_count(seed):
    """The trials of `verify milnor-thom` replayed: the grid drawn as
    integer numerators over 2^16 counts as the same draws taken as
    rng.fraction(-10, 10) points, and as the oracle."""
    rng = SeededRng(seed)
    families = 0
    for trial in range(200):
        ints, fracs = rng.derive(f"trial-{trial}"), rng.derive(f"trial-{trial}")
        polys = milnor_thom_family(ints)
        assert milnor_thom_family(fracs) == polys
        if not polys:
            continue
        families += 1
        dim = polys[0].num_vars
        rows = [[20 * ints.randint(0, 1 << 16) - (10 << 16)
                 for _ in range(dim)] for _ in range(30)]
        points = [[fracs.fraction(-10, 10) for _ in range(dim)]
                  for _ in range(30)]
        assert points == [[F(v, 1 << 16) for v in row] for row in rows]
        got = count_distinct_sign_vectors(polys, rows, denominator=1 << 16)
        assert got == count_distinct_sign_vectors(polys, points)
        assert got == oracle_sign_vector_count(polys, points)
    assert families > 100


def test_count_distinct_sign_vectors_refuses_bad_denominators():
    for bad in (0, -1, True, 1.5):
        with pytest.raises(ArgumentError):
            count_distinct_sign_vectors([x(0, 1)], [[1]], denominator=bad)
        with pytest.raises(ArgumentError):  # refused before the points are read
            count_distinct_sign_vectors([x(0, 1)], [], denominator=bad)
    assert count_distinct_sign_vectors(
        [x(0, 1)], [[F(1, 2 ** 20)]], denominator=2 ** (MAX_BITS - 21)) == 1
    # M = 2^20 times the denominator 2^(MAX_BITS - 20) is 2^MAX_BITS, one
    # bit over the cap; half that denominator is accepted above.
    with pytest.raises(ResourceLimitError):
        count_distinct_sign_vectors(
            [x(0, 1)], [[F(1, 2 ** 20)]], denominator=2 ** (MAX_BITS - 20))


def test_count_distinct_sign_vectors_refuses_bad_points():
    with pytest.raises(ArgumentError):  # a point of the wrong dimension
        count_distinct_sign_vectors([x(0, 2)], [[1, 2], [1]])
    with pytest.raises(ArgumentError):  # a family across dimensions
        count_distinct_sign_vectors([x(0, 2), x(0, 1)], [[1, 2]])
    # Each denominator alone is under MAX_BITS; their LCM is 1,233,986 bits.
    with pytest.raises(ResourceLimitError):
        count_distinct_sign_vectors(
            [x(0, 1)], [[F(1, 2 ** 600000)], [F(1, 3 ** 400000)], [1]])


def test_count_distinct_sign_vectors_of_empty_inputs():
    assert count_distinct_sign_vectors([], [[1], [F(1, 2)]]) == 1
    assert count_distinct_sign_vectors([x(0, 1)], []) == 0
    assert count_distinct_sign_vectors([], iter([])) == 0
    assert count_distinct_sign_vectors([x(0, 1)], iter([[2], [-2]])) == 2


# -- sign-pattern bound ----------------------------------------------------------


def test_milnor_thom_frozen_values():
    assert milnor_thom_bound(1, 2, 2) == 2500
    assert milnor_thom_bound(2, 4, 2) == 40000
    for d in (2, 3, 4):
        assert milnor_thom_bound(1, d, d) == 50 ** d


def test_milnor_thom_ceiling_applied_before_exponentiation():
    # 50*1*3/2 = 75 exactly; 50*1*5/3 rounds 250/3 up to 84.
    assert milnor_thom_bound(1, 3, 2) == 75 ** 2
    assert milnor_thom_bound(1, 5, 3) == 84 ** 3


def test_milnor_thom_hypotheses_enforced():
    with pytest.raises(ArgumentError):
        milnor_thom_bound(1, 1, 2)  # family smaller than dimension
    with pytest.raises(ArgumentError):
        milnor_thom_bound(1, 3, 1)  # dimension below two
    with pytest.raises(ArgumentError):
        milnor_thom_bound(0, 3, 2)  # degree below one


# -- formula algebra -------------------------------------------------------------

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4).map(F)


@st.composite
def formulas(draw, n_polys: int):
    leaves = st.builds(
        Formula.leaf,
        st.integers(0, n_polys - 1),
        st.sampled_from(["ge", "gt", "eq"]),
    )

    def extend(children):
        return st.one_of(
            st.builds(lambda c: Formula.all_of(list(c)),
                      st.lists(children, max_size=3)),
            st.builds(lambda c: Formula.any_of(list(c)),
                      st.lists(children, max_size=3)),
            st.builds(Formula.negation, children),
        )

    return draw(st.recursive(leaves, extend, max_leaves=8))


@given(formulas(n_polys=2), st.lists(rationals, min_size=2, max_size=2))
@settings(max_examples=120, deadline=None)
def test_double_negation_preserves_membership(formula, coords):
    polys = [x(0, 2) - x(1, 2), x(0, 2) * x(1, 2) - Poly.constant(2, 1)]
    relation = SemiAlgebraicRelation(2, 1, polys, formula)
    doubled = SemiAlgebraicRelation(
        2, 1, polys, Formula.negation(Formula.negation(formula)))
    points = OrderedPointSet(1, [[c] for c in coords])
    assert (eval_membership(relation, points, (1, 2))
            == eval_membership(doubled, points, (1, 2)))


@given(st.lists(rationals, min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_de_morgan_on_random_points(coords):
    polys = [x(0, 2) - x(1, 2), x(0, 2) + x(1, 2)]
    a, b = Formula.leaf(0, "ge"), Formula.leaf(1, "gt")
    lhs = Formula.negation(Formula.all_of([a, b]))
    rhs = Formula.any_of([Formula.negation(a), Formula.negation(b)])
    points = OrderedPointSet(2, [coords[:2], coords[2:]])
    rel_l = SemiAlgebraicRelation(1, 2, polys, lhs)
    rel_r = SemiAlgebraicRelation(1, 2, polys, rhs)
    assert (eval_membership(rel_l, points, (1,))
            == eval_membership(rel_r, points, (2,))
            or coords[:2] != coords[2:])
    assert (eval_membership(rel_l, points, (1,))
            == eval_membership(rel_r, points, (1,)))


@given(st.lists(st.lists(rationals, min_size=2, max_size=2),
                min_size=3, max_size=12))
@settings(max_examples=60, deadline=None)
def test_sign_vector_count_respects_bound_on_small_family(rows):
    family = [x(0, 2) - x(1, 2),
              x(0, 2) * x(1, 2) - Poly.constant(2, 1),
              x(0, 2) + x(1, 2) ** 2]
    got = count_distinct_sign_vectors(family, rows)
    assert got <= milnor_thom_bound(2, len(family), 2)
