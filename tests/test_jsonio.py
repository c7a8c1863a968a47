"""Round-trip and determinism tests for the canonical JSON layer."""

from fractions import Fraction as F

import pytest

from semiramsey import jsonio
from semiramsey.constructions import ConstructionInstance, base_construction
from semiramsey.errors import ArgumentError, MAX_DEGREE, ResourceLimitError
from semiramsey.geometry import Arrangement, Hyperplane
from semiramsey.poly import MultivariatePolynomial as Poly
from semiramsey.relation import Formula, OrderedPointSet, SemiAlgebraicRelation
from semiramsey.solvers import HomogeneousResult, Hypergraph3, TransitiveColoring


# -- rationals ------------------------------------------------------------


def test_fraction_to_json_is_exact_string():
    assert jsonio.fraction_to_json(F(3)) == "3"
    assert jsonio.fraction_to_json(F(-1, 2)) == "-1/2"
    assert jsonio.fraction_to_json(7) == "7"


def test_fraction_from_json_parses_strings_and_ints():
    assert jsonio.fraction_from_json("3") == F(3)
    assert jsonio.fraction_from_json("-1/2") == F(-1, 2)
    assert jsonio.fraction_from_json(12) == F(12)


@pytest.mark.parametrize("bad", ["", "a/b", "1/0", "1.5.2", None, 0.5, True, [1]])
def test_fraction_from_json_rejects_non_rationals(bad):
    with pytest.raises(ArgumentError):
        jsonio.fraction_from_json(bad)


def test_fraction_round_trip():
    for value in [F(0), F(5), F(-7, 3), F(22, 7), F(10**12, 13)]:
        assert jsonio.fraction_from_json(jsonio.fraction_to_json(value)) == value


# -- polynomials ----------------------------------------------------------


def test_poly_round_trip():
    p = (Poly.variable(0, 2) * Poly.variable(1, 2)
         - Poly.constant(2, F(1, 2)) * Poly.variable(0, 2)
         + Poly.constant(2, 3))
    again = jsonio.poly_from_json(jsonio.poly_to_json(p))
    assert again == p
    assert again.num_vars == 2


def test_poly_json_shape():
    p = Poly.variable(1, 3)
    data = jsonio.poly_to_json(p)
    assert data == {"vars": 3, "terms": [{"c": "1", "e": [0, 1, 0]}]}


@pytest.mark.parametrize("data", [
    {"vars": 2, "terms": [{"c": "1", "e": [1.9, "2"]}]},
    {"vars": 2, "terms": [{"c": "1", "e": [1.0, 2]}]},
    {"vars": 2, "terms": [{"c": "1", "e": [True, 2]}]},
    {"vars": 2.0, "terms": [{"c": "1", "e": [1, 2]}]},
])
def test_poly_from_json_refuses_non_int_exponents_and_vars(data):
    with pytest.raises(ArgumentError):
        jsonio.poly_from_json(data)


# -- relations and point sets ----------------------------------------------


def sample_relation() -> SemiAlgebraicRelation:
    x0 = Poly.variable(0, 2)
    x1 = Poly.variable(1, 2)
    polys = [x1 - x0, x0 * x1 - Poly.constant(2, 1)]
    formula = Formula.all_of([Formula.leaf(0, "gt"),
                              Formula.negation(Formula.leaf(1, "eq"))])
    return SemiAlgebraicRelation(2, 1, polys, formula)


def test_relation_round_trip_preserves_membership():
    rel = sample_relation()
    data = jsonio.relation_to_json(rel)
    again = jsonio.relation_from_json(data)
    assert again.arity == rel.arity and again.point_dim == rel.point_dim
    assert jsonio.relation_to_json(again) == data
    points = OrderedPointSet(1, [[F(1, 3)], [F(2)], [F(3)]])
    for pair in [(1, 2), (1, 3), (2, 3)]:
        coords = points.coords_for(pair)
        assert again.holds_on_coords(coords) == rel.holds_on_coords(coords)


def test_formula_json_rejects_unknown_op():
    with pytest.raises(ArgumentError):
        jsonio.formula_from_json({"op": "xor", "args": []})


def test_points_round_trip():
    pts = OrderedPointSet(2, [[F(1, 2), F(-3)], [F(0), F(5, 7)]])
    again = jsonio.points_from_json(jsonio.points_to_json(pts))
    assert again.dim == 2
    assert again.points == pts.points


# -- construction instances -------------------------------------------------


def test_instance_round_trip_with_epsilon():
    inst = base_construction(2)
    data = jsonio.instance_to_json(inst)
    again = jsonio.instance_from_json(data)
    assert again.points.points == inst.points.points
    assert again.epsilon == inst.epsilon
    assert jsonio.instance_to_json(again) == data


def test_instance_epsilon_may_be_null():
    inst = base_construction(2)
    bare = ConstructionInstance(points=inst.points, relation=inst.relation,
                                epsilon=None, provenance={"kind": "test"})
    data = jsonio.instance_to_json(bare)
    assert data["epsilon"] is None
    again = jsonio.instance_from_json(data)
    assert again.epsilon is None
    assert again.provenance == {"kind": "test"}


def test_instance_with_high_degree_polynomial_is_refused():
    data = jsonio.instance_to_json(base_construction(2))
    terms = data["relation"]["polys"][-1]["terms"]
    terms.append({"c": "1", "e": [0, 0, MAX_DEGREE + 1]})
    with pytest.raises(ResourceLimitError):
        jsonio.instance_from_json(data)
    terms[-1]["e"] = [1, 0, MAX_DEGREE - 1]  # total degree at the cap
    assert jsonio.instance_from_json(data).relation.polys[-1].degree() == MAX_DEGREE


# -- hypergraphs, hyperplanes, arrangements ----------------------------------


def test_hypergraph_round_trip_normalizes_edges():
    graph = Hypergraph3.make(6, [(4, 5, 6), (1, 2, 3)])
    data = jsonio.hypergraph_to_json(graph)
    assert data == {"n": 6, "edges": [[1, 2, 3], [4, 5, 6]]}
    again = jsonio.hypergraph_from_json(data)
    assert again.n == 6 and again.edges == graph.edges


def test_hyperplane_round_trip():
    h = Hyperplane.make([F(1, 2), F(-3)], F(7, 5))
    again = jsonio.hyperplane_from_json(jsonio.hyperplane_to_json(h))
    assert again.a == h.a and again.b == h.b


def test_arrangement_round_trip():
    arr = Arrangement(2, [Hyperplane.make([F(1), F(0)], F(2)),
                          Hyperplane.make([F(0), F(1)], F(-1))])
    data = jsonio.arrangement_to_json(arr)
    again = jsonio.arrangement_from_json(data)
    assert again.dim == 2
    assert [again.hyperplane(i) for i in (1, 2)] == \
        [arr.hyperplane(i) for i in (1, 2)]


# -- solver results ----------------------------------------------------------


def test_result_round_trip():
    res = HomogeneousResult(subset=(1, 2, 3), polarity="in", certified=True,
                            stats={"nodes": 17, "maximum": True, "method": "branch-and-bound"})
    again = jsonio.result_from_json(jsonio.result_to_json(res))
    assert again.subset == (1, 2, 3)
    assert again.polarity == "in"
    assert again.certified is True
    assert again.stats["nodes"] == 17


def test_coloring_round_trip():
    col = TransitiveColoring(4, {(1, 2, 3): "red", (1, 2, 4): "blue",
                                 (1, 3, 4): "red", (2, 3, 4): "red"})
    again = jsonio.coloring_from_json(jsonio.coloring_to_json(col))
    assert again.n == 4
    assert again.colors == col.colors


# -- canonical dumps ----------------------------------------------------------


def test_dumps_is_deterministic_and_compact():
    a = {"zulu": F(1, 2), "alpha": [1, (2, 3)]}
    b = {"alpha": [1, [2, 3]], "zulu": "1/2"}
    text = jsonio.dumps(a)
    assert text == jsonio.dumps(b)
    assert text == '{"alpha":[1,[2,3]],"zulu":"1/2"}\n'
    assert text.endswith("\n") and " " not in text


def test_dumps_round_trips_through_loads():
    obj = {"eps": F(1, 10), "rows": [[F(-3), 4], [0, F(5, 6)]]}
    assert jsonio.loads(jsonio.dumps(obj)) == {
        "eps": "1/10", "rows": [["-3", 4], [0, "5/6"]]}


def test_jsonable_rejects_foreign_objects():
    with pytest.raises(ArgumentError):
        jsonio.jsonable(object())
    with pytest.raises(ArgumentError):
        jsonio.dumps({"p": Poly.variable(0, 1)})
