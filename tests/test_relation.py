"""Semi-algebraic relations: formulas, membership, sign vectors and the
degree-based sign-pattern bound."""

from __future__ import annotations

import itertools
import json
import types
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import oracle_eval
import oracle_formula
from semiramsey import cli
from semiramsey import (
    ArgumentError,
    Atom,
    Formula,
    MultivariatePolynomial as Poly,
    OrderedPointSet,
    ResourceLimitError,
    SeededRng,
    SemiAlgebraicRelation,
    base_construction,
    count_distinct_sign_vectors,
    eval_membership,
    max_homogeneous,
    milnor_thom_bound,
    order_type_relation,
)
from semiramsey.errors import MAX_BITS
from semiramsey.relation import COMPARISONS, _fold, _order_signs


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


def test_eval_membership_refuses_every_bad_tuple_by_argument_error():
    """An index of 0, a decreasing tuple, an index past the points and
    either wrong arity: ArgumentError saying so, never an IndexError or an
    answer."""
    inst = base_construction(2)
    for bad, why in [((0, 1, 2), "out of range"), ((2, 1, 3), "increasing"),
                     ((1, 2, 5), "out of range"), ((1, 2), "arity"),
                     ((1, 2, 3, 4), "arity")]:
        with pytest.raises(ArgumentError, match=why):
            eval_membership(inst.relation, inst.points, bad)


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
        with pytest.raises(ArgumentError):  # after a Fraction, too
            OrderedPointSet(2, [[F(1, 2), 2], [bad, 3]])
    with pytest.raises(ArgumentError, match=r"^coordinate 0\.5 of point "
                       r"\(3, 0\.5\) is not an int or a Fraction$"):
        OrderedPointSet(2, [[1, 2], [3, 0.5]])


def test_scaled_keeps_an_int_point_set_and_rescales_a_mixed_one():
    """An all-int set is its own X at M = 1, not a copy; a set with a
    Fraction (even one of denominator 1, or one among ints) is rescaled to
    int tuples by the LCM, and a common denominator above MAX_BITS bits is
    refused."""
    ints = OrderedPointSet(2, [[3, -1], (0, 2 ** 80)])
    scale, scaled = ints.scaled()
    assert scale == 1 and scaled is ints.points
    assert ints.scaled()[1] is ints.points
    assert OrderedPointSet(1, []).scaled() == (1, ())
    for points, want in [
            ([[1, F(1, 2)], (3, F(4))], (2, ((2, 1), (6, 8)))),
            ([[3, -1], [2, F(1, 6)], [7, 4]],
             (6, ((18, -6), (12, 1), (42, 24)))),
            ([[F(3)], [-2]], (1, ((3,), (-2,)))),
            ([[F(-1, 6)], [F(3, 4)], [5]], (12, ((-2,), (9,), (60,))))]:
        scale, scaled = OrderedPointSet(len(points[0]), points).scaled()
        assert (scale, scaled) == want
        assert all(type(c) is int for p in scaled for c in p)
    with pytest.raises(ResourceLimitError):
        OrderedPointSet(1, [[F(1, 2 ** MAX_BITS)], [1]]).scaled()


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
        return pool[rng.randint(0, len(pool) - 1)]
    op = ("atom" if depth == 0
          else ["atom", "and", "or", "not"][rng.randint(0, 3)])
    if op == "atom":
        node = Formula.leaf(rng.randint(0, len(COMPILED_POLYS) - 1),
                            ["ge", "gt", "eq"][rng.randint(0, 2)])
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
def test_nodes_is_a_post_order_walk_with_pre_order_atoms(seed):
    """nodes() yields each node once, shared ones too, after all of its
    children and with the root last; its atoms come in the order of the
    last-child-first pre-order walk."""
    def pre_order(node, seen):
        if id(node) not in seen:
            seen.add(id(node))
            yield node
            for ch in reversed(node.children):
                yield from pre_order(ch, seen)

    rng = SeededRng(seed)
    for _ in range(100):
        formula = random_formula(rng, 4, [])
        walk = list(formula.nodes())
        position = {id(node): i for i, node in enumerate(walk)}
        assert len(position) == len(walk) and walk[-1] is formula
        assert all(position[id(ch)] < position[id(node)]
                   for node in walk for ch in node.children)
        reference = list(pre_order(formula, set()))
        assert {id(node) for node in reference} == set(position)
        assert ([node for node in walk if node.op == "atom"]
                == [node for node in reference if node.op == "atom"])


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_compiled_decider_matches_the_recursive_oracle(seed, monkeypatch):
    # Every kernel a decider is generated over counts its reads.
    reads: list = []
    read_any = False

    def counted_kernel(self, _kernel=Poly.kernel):
        total = _kernel(self)

        def read(point):
            reads.append(id(self))
            return total(point)
        return read
    monkeypatch.setattr(Poly, "kernel", counted_kernel)

    rng = SeededRng(seed)
    seen_signs: set = set()
    seen_ops: set = set()
    shared = 0
    last = len(COMPILED_VALUES) - 1
    for _ in range(300):
        formula = random_formula(rng, 4, [])
        relation = SemiAlgebraicRelation(2, 1, COMPILED_POLYS, formula)
        coords = [COMPILED_VALUES[rng.randint(0, last)],
                  COMPILED_VALUES[rng.randint(0, last)]]

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
                       lambda: relation.decider()([*scaled, scale])):
            reads.clear()
            assert decide() == expected
            # Each polynomial's sign is read at most once per call.
            assert len(reads) == len(set(reads))
            read_any = read_any or bool(reads)
        seen_ops |= {(node.op, len(node.children)) for node in formula.nodes()}
        shared += _shares_a_subtree(formula)
    # The draws cover every comparison at an exact zero and on both sides,
    # NOT, empty AND and OR, and shared subtrees.
    assert seen_signs == {(c, s) for c in ("ge", "gt", "eq") for s in (-1, 0, 1)}
    assert {("not", 1), ("and", 0), ("or", 0)} <= seen_ops
    assert shared > 0
    assert read_any


def test_compiled_decider_decides_a_shared_node_once_per_call():
    # Forty levels of and(prev, prev) unfold to 2^40 leaves.
    node = Formula.leaf(0, "ge")
    for _ in range(40):
        node = Formula.all_of([node, Formula.negation(Formula.negation(node))])
    relation = SemiAlgebraicRelation(2, 1, COMPILED_POLYS, node)
    assert relation.holds_on_coords([F(1), F(0)])
    assert not relation.holds_on_coords([F(0), F(1)])


def test_formula_nested_three_hundred_deep_matches_the_recursive_oracle():
    """150 levels of and(atom, or(atom, deeper)): the decider nests no
    expression that deep, and agrees with the recursive walk."""
    rng = SeededRng(3)

    def leaf():
        return Formula.leaf(rng.randint(0, len(COMPILED_POLYS) - 1),
                            ["ge", "gt", "eq"][rng.randint(0, 2)])
    node = leaf()
    for _ in range(150):
        node = Formula.all_of([leaf(), Formula.any_of([leaf(), node])])
    relation = SemiAlgebraicRelation(2, 1, COMPILED_POLYS, node)
    verdicts = set()
    for a in COMPILED_VALUES:
        for b in COMPILED_VALUES:
            def truth(atom):
                value = oracle_eval.eval_fraction(
                    COMPILED_POLYS[atom.poly_index].terms, [a, b])
                return atom.holds((value > 0) - (value < 0))
            expected = oracle_formula.evaluate(node, truth)
            assert relation.holds_on_coords([a, b]) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}


def _xor(a: Formula, b: Formula) -> Formula:
    return Formula.any_of([Formula.all_of([a, Formula.negation(b)]),
                           Formula.all_of([Formula.negation(a), b])])


def test_helpers_of_shared_and_deep_nodes_are_built_once():
    """Over 2,000 shared nodes (twelve layers of 200 XORs of two random
    nodes of the layer below, folded pairwise into one) and an unshared
    chain nested deeper than _DEPTH: each such node is a statement n<j> of
    the decider, which defines no function per call, and the decider
    agrees with the recursive walk on every pair of values."""
    from semiramsey import relation as relation_module
    rng = SeededRng(4)
    layer = [Formula.leaf(i, cmp) for i in range(len(COMPILED_POLYS))
             for cmp in COMPARISONS]
    for _ in range(12):
        last = len(layer) - 1
        layer = [_xor(layer[rng.randint(0, last)],
                      layer[rng.randint(0, last)]) for _ in range(200)]
    while len(layer) > 1:
        layer = [_xor(*layer[i:i + 2]) if i + 1 < len(layer) else layer[i]
                 for i in range(0, len(layer), 2)]
    chain = Formula.leaf(0, "gt")
    for level in range(relation_module._DEPTH):
        chain = Formula.negation(Formula.any_of([
            Formula.leaf(level % len(COMPILED_POLYS), "ge"), chain]))
    node = _xor(chain, layer[0])
    parents: dict = {}
    for parent in node.nodes():
        for ch in parent.children:
            parents[id(ch)] = parents.get(id(ch), 0) + 1
    assert sum(n > 1 for n in parents.values()) >= 2000
    relations = {part: SemiAlgebraicRelation(2, 1, COMPILED_POLYS, part)
                 for part in (node, chain)}
    for part, relation in relations.items():
        code = relation.decider().__code__
        assert not any(isinstance(c, types.CodeType) for c in code.co_consts)
        statements = sum(name[0] == "n" for name in code.co_varnames)
        assert statements >= (2000 if part is node else 1)
    verdicts = set()
    for a in COMPILED_VALUES:
        for b in COMPILED_VALUES:
            def truth(atom):
                value = oracle_eval.eval_fraction(
                    COMPILED_POLYS[atom.poly_index].terms, [a, b])
                return atom.holds((value > 0) - (value < 0))
            for part, relation in relations.items():
                expected = oracle_formula.evaluate(part, truth)
                assert relation.holds_on_coords([a, b]) == expected
                verdicts.add((part is node, expected))
    assert verdicts == {(p, v) for p in (True, False) for v in (True, False)}


def test_a_formula_without_helpers_memoizes_its_forms_in_locals():
    """No shared node other than an atom and none deeper than _DEPTH, as
    in each construction here: decide is one return expression that keeps
    each form in a local s<i>, with no statement n<j>, and reads nothing
    but the kernels k<i>."""
    from semiramsey.constructions import (frankl_wilson_graph,
                                          one_dim_k4_relation, step_up)
    from semiramsey.geometry import one_sided_relation
    for relation in (base_construction(4).relation,
                     step_up(base_construction(2)).relation,
                     one_dim_k4_relation(),
                     frankl_wilson_graph(3, 2)[1],
                     order_type_relation(2),
                     one_sided_relation(3)):
        code = relation.decider().__code__
        used = sorted({a.poly_index for a in relation.formula.atoms()})
        assert code.co_varnames == ("x", *[f"s{i}" for i in used])
        assert set(code.co_names) == {f"k{i}" for i in used}


def test_coefficients_beyond_the_decimal_digit_limit_are_read_exactly():
    """H has a coefficient 35^3000 of 4,633 digits, more than int() renders
    as decimal by default; membership still equals the Fraction oracle."""
    big = {(1, 1): F(1, 3 ** 3000), (1, 0): F(-1, 5 ** 3000),
           (0, 0): F(1, 7 ** 3000)}
    p = Poly(2, big)
    assert max(p.integer_form().terms.values()) > 10 ** 4300
    # x1 = 3^3000 * (1/5^3000 - 1/7^3000) is the zero at x0 = 1.
    root = 3 ** 3000 * (F(1, 5 ** 3000) - F(1, 7 ** 3000))
    rows = [[F(1), root], [F(1), root + F(1, 2 ** 40)], [F(1), root - 1],
            [F(-2, 3), F(5)], [F(0), F(0)]]
    points = OrderedPointSet(1, [[c] for row in rows for c in row])
    for cmp in COMPARISONS:
        relation = SemiAlgebraicRelation(2, 1, [p], Formula.leaf(0, cmp))
        signs = []
        for k, row in enumerate(rows):
            value = oracle_eval.eval_fraction(p.terms, row)
            sign = (value > 0) - (value < 0)
            signs.append(sign)
            expected = Atom(0, cmp).holds(sign)
            assert relation.holds_on_coords(row) == expected
            assert eval_membership(relation, points,
                                   (2 * k + 1, 2 * k + 2)) == expected
        assert set(signs) == {-1, 0, 1}


def test_decider_is_generated_on_the_first_read(monkeypatch):
    from semiramsey import relation as relation_module
    calls: list = []

    def counted(formula, polys, _generate=relation_module._generate):
        calls.append(formula)
        return _generate(formula, polys)
    monkeypatch.setattr(relation_module, "_generate", counted)
    relation = SemiAlgebraicRelation(2, 1, COMPILED_POLYS,
                                     Formula.leaf(0, "gt"))
    assert calls == []
    assert relation.holds_on_coords([F(1), F(0)])
    assert not relation.decider()([0, 1, 1])
    assert calls == [relation.formula]


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


# -- order atoms folded on a point set -------------------------------------------


def order_signs(polys, rows, arity=2, dim=1) -> dict:
    relation = SemiAlgebraicRelation(arity, dim, polys, Formula.all_of(
        Formula.leaf(i, "gt") for i in range(len(polys))))
    return _order_signs(relation, rows)


RISING = [(1,), (2,), (5,)]
FALLING = RISING[::-1]


def test_order_signs_read_the_slot_order_and_the_trend():
    assert order_signs([x(1, 2) - x(0, 2)], RISING) == {0: 1}
    assert order_signs([x(1, 2) - x(0, 2)], FALLING) == {0: -1}
    assert order_signs([2 * (x(0, 2) - x(1, 2)),
                        F(1, 3) * (x(1, 2) - x(0, 2))], RISING) == {0: -1, 1: 1}
    assert order_signs([2 * (x(0, 2) - x(1, 2)),
                        F(1, 3) * (x(1, 2) - x(0, 2))], FALLING) == {0: 1, 1: -1}
    # Slots 0 and 2 of a triple, the later slot written second.
    assert order_signs([x(0, 3) - x(2, 3)], RISING, arity=3) == {0: -1}


def test_order_signs_leave_out_ties_zigzags_and_other_shapes():
    rise = x(1, 2) - x(0, 2)
    assert order_signs([rise], [(1,), (2,), (2,), (3,)]) == {}
    assert order_signs([rise], [(1,), (3,), (2,)]) == {}
    # In R^2, the first coordinate rises and the second zigzags.
    plane = [(1, 0), (2, 5), (3, 1)]
    assert order_signs([x(2, 4) - x(0, 4), x(3, 4) - x(1, 4)],
                       plane, dim=2) == {0: 1}
    others = [x(2, 4) - x(1, 4),  # two coordinates
              x(2, 3) - 2 * x(1, 3) + x(0, 3),  # three terms
              2 * x(2, 3) - x(0, 3),  # unequal coefficients
              x(1, 3) - x(0, 3) + Poly.constant(3, 1),
              x(1, 3) ** 2 - x(0, 3) ** 2]
    assert order_signs(others[:1], plane, dim=2) == {}
    assert order_signs(others[1:], RISING, arity=3) == {}


def test_one_point_is_harmless():
    points = OrderedPointSet(1, [[4]])
    assert order_signs([x(1, 2) - x(0, 2)], points.scaled()[1]) == {}
    result = max_homogeneous(points, base_construction(2).relation)
    assert (result.subset, result.polarity) == ((1,), "in")


def test_fold_keeps_a_shared_node_shared_and_an_untouched_node_as_it_is():
    shared = Formula.all_of([Formula.leaf(0, "gt"), Formula.leaf(1, "ge")])
    untouched = Formula.any_of([Formula.leaf(1, "eq"), Formula.leaf(2, "gt")])
    root = Formula.any_of([shared, Formula.negation(shared), untouched])
    folded = _fold(root, {0: 1})
    kept, negated, same = folded.children
    assert negated.children[0] is kept and same is untouched
    assert [(n.op, n.atom) for n in kept.children] == [("atom", Atom(1, "ge"))]
    assert _fold(root, {2: 1}) is not root and _fold(root, {3: 1}) is root


def test_fold_simplifies_constants_upward():
    false = _fold(Formula.all_of([Formula.leaf(0, "gt"), Formula.leaf(1, "ge")]),
                  {0: -1})
    assert (false.op, false.children) == ("or", ())
    true = _fold(Formula.any_of([Formula.leaf(1, "ge"), Formula.leaf(0, "ge")]),
                 {0: 1})
    assert (true.op, true.children) == ("and", ())
    for sign, op in ((1, "or"), (-1, "and")):
        folded = _fold(Formula.negation(Formula.leaf(0, "gt")), {0: sign})
        assert (folded.op, folded.children) == (op, ())
    kept = _fold(Formula.all_of([Formula.leaf(0, "eq"), Formula.leaf(1, "gt")]),
                 {1: 1})
    assert [n.atom for n in kept.children] == [Atom(0, "eq")]


def test_a_fully_folded_formula_reads_no_kernel(monkeypatch):
    def no_kernel(self):
        raise AssertionError("a kernel was generated")
    monkeypatch.setattr(Poly, "kernel", no_kernel)
    only_order = SemiAlgebraicRelation(
        3, 1, base_construction(2).relation.polys,
        Formula.all_of([Formula.leaf(0, "gt"), Formula.leaf(1, "gt")]))
    for rows, want in ((RISING, True), (FALLING, False)):
        decide = only_order.decider_on(rows)
        assert decide.__code__.co_names == ()
        assert decide([1, 2, 5, 1]) is want


@pytest.mark.parametrize("seed", [1, 7])
def test_folded_decider_matches_the_unfolded_one(seed):
    """Random formulas over COMPILED_POLYS, whose first polynomial is the
    order atom x0 - x1: on every increasing pair of a rising and a falling
    point set the folded decider agrees with the decider and the
    recursive walk."""
    rng = SeededRng(seed)
    rising = OrderedPointSet(1, [[v] for v in COMPILED_VALUES])
    sets = (rising, OrderedPointSet(1, rising.points[::-1]))
    folded_any = 0
    for _ in range(150):
        formula = random_formula(rng, 4, [])
        relation = SemiAlgebraicRelation(2, 1, COMPILED_POLYS, formula)
        for points in sets:
            scale, rows = points.scaled()
            folded = relation.decider_on(rows)
            folded_any += folded is not relation.decider()
            for a, b in itertools.combinations(range(len(rows)), 2):
                coords = [points.points[a][0], points.points[b][0]]

                def truth(atom):
                    value = oracle_eval.eval_fraction(
                        COMPILED_POLYS[atom.poly_index].terms, coords)
                    return atom.holds((value > 0) - (value < 0))
                row = [*rows[a], *rows[b], scale]
                assert (folded(row) == relation.decider()(row)
                        == oracle_formula.evaluate(formula, truth))
    assert folded_any > 100


# -- sign vectors ----------------------------------------------------------------


def sign_vector(family, point) -> tuple:
    """The family's signs at the point, each read off its eval."""
    return tuple(oracle_eval.sign(p, point) for p in family)


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
    """A family drawn as `verify milnor-thom` draws one, one value per
    call: the sizes, each polynomial's term count, every term's variables
    and then every coefficient; empty when that command would skip the
    trial."""
    dim = rng.randint(2, 3)
    family_size = rng.randint(dim, 6)
    degree = rng.randint(1, 3)
    counts = [rng.randint(1, 6) for _ in range(family_size)]
    exponents = []
    for _ in range(sum(counts)):
        e = [0] * dim
        for _ in range(degree):
            e[rng.randint(0, dim - 1)] += 1
        exponents.append(tuple(e))
    coefficients = [rng.randint(-5, 5) for _ in exponents]
    drawn = iter(zip(exponents, coefficients))
    polys = []
    for count in counts:
        terms = {}
        for _ in range(count):
            e, c = next(drawn)
            terms[e] = terms.get(e, 0) + c
        p = Poly(dim, terms)
        if not p.is_zero() and p.degree() >= 1:
            polys.append(p)
    return polys if len(polys) >= dim else []


def oracle_sign_vector_count(polys, points) -> int:
    return len({tuple((v > 0) - (v < 0) for v in (
        oracle_eval.eval_fraction(p.terms, pt) for p in polys))
        for pt in points})


def _grid_point(rng: SeededRng, lo: F, hi: F) -> F:
    """lo + (hi - lo) * k / d, with d drawn from 1..40 and then k from
    0..d: a point of a grid coarser than that of `SeededRng.fraction`."""
    d = rng.randint(1, 40)
    return lo + (hi - lo) * F(rng.randint(0, d), d)


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
        mixed = [[_grid_point(rng, F(-2), F(3, 2)) for _ in range(dim)]
                 for _ in range(20)]
        # The drawn polynomials are homogeneous; shifted ones are not.
        shifted = [p + F(rng.randint(-9, 9), rng.randint(1, 5)) for p in polys]
        for family in (polys, shifted):
            for points in (grid, ints, mixed, grid + ints + mixed):
                assert (count_distinct_sign_vectors(family, points)
                        == oracle_sign_vector_count(family, points))
        # Int rows over a denominator, as `verify milnor-thom` reads its
        # grid: only a family that is not homogeneous tells the scale L of
        # the integer form apart, so the shifted one is read this way too.
        # The draws come from a derived stream, so the families drawn above
        # stay those of the seed.
        d_rng = rng.derive(f"denominator-{families}")
        denominator = d_rng.randint(1, 1 << 16)
        rows = [d_rng.randints(-3 * denominator, 3 * denominator, dim)
                for _ in range(20)]
        points = [[F(v, denominator) for v in row] for row in rows]
        for family in (polys, shifted):
            assert (count_distinct_sign_vectors(family, rows,
                                                denominator=denominator)
                    == oracle_sign_vector_count(family, points))


@pytest.mark.parametrize("seed", [1, 7])
def test_integer_grid_count_equals_fraction_grid_count(seed, capsys):
    """The trials of `verify milnor-thom` replayed one value at a time: the
    family as `milnor_thom_family` draws it, then the grid's k in [0, 2^16),
    the 16-bit lanes of `next_u64` words, lowest lane first.  The int rows
    20 k - 10 * 2^16 over 2^16 count as the same points taken as Fractions,
    and as the oracle; summed over the trials they are the verifier's
    stats, whose batched draws must reproduce this stream."""
    rng = SeededRng(seed)
    families = evaluations = vectors = 0
    for trial in range(200):
        t_rng = rng.derive(f"trial-{trial}")
        polys = milnor_thom_family(t_rng)
        if not polys:
            continue
        families += 1
        dim = polys[0].num_vars
        lanes = []
        while len(lanes) < 30 * dim:
            u = t_rng.next_u64()
            lanes += [u >> shift & 0xFFFF for shift in (0, 16, 32, 48)]
        rows = [[20 * k - (10 << 16) for k in lanes[at:at + dim]]
                for at in range(0, 30 * dim, dim)]
        points = [[F(v, 1 << 16) for v in row] for row in rows]
        assert all(-10 <= x < 10 for p in points for x in p)
        got = count_distinct_sign_vectors(polys, rows, denominator=1 << 16)
        assert got == count_distinct_sign_vectors(polys, points)
        assert got == oracle_sign_vector_count(polys, points)
        evaluations += len(polys) * len(rows)
        vectors += got
    assert families > 100
    assert cli.main(["verify", "milnor-thom", "--points", "30", "--trials",
                     "200", "--seed", str(seed)]) == 0
    assert json.loads(capsys.readouterr().out)["stats"] == {
        "families": families, "sign_evaluations": evaluations,
        "sign_vectors": vectors}


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
