"""Round-trip and determinism tests for the canonical JSON layer."""

import dataclasses
from fractions import Fraction as F

import pytest

from semiramsey import jsonio
from semiramsey.constructions import (ConstructionInstance, base_construction,
                                      frankl_wilson_graph,
                                      one_dim_k4_construction, step_up)
from semiramsey.errors import (ArgumentError, MAX_DEGREE, MAX_DIGITS,
                               MAX_PROVENANCE_DEPTH, ResourceLimitError)
from semiramsey.geometry import (Hyperplane, one_sided_relation,
                                 order_type_relation)
from semiramsey.poly import MultivariatePolynomial as Poly
from semiramsey.relation import Formula, OrderedPointSet, SemiAlgebraicRelation
from semiramsey.solvers import HomogeneousResult


# -- rationals ------------------------------------------------------------


def test_fraction_to_json_is_exact_string():
    assert jsonio.fraction_to_json(F(3)) == "3"
    assert jsonio.fraction_to_json(F(-1, 2)) == "-1/2"
    assert jsonio.fraction_to_json(7) == "7"


def test_fraction_from_json_parses_strings_and_ints():
    assert jsonio.fraction_from_json("3") == F(3)
    assert jsonio.fraction_from_json("-1/2") == F(-1, 2)
    assert jsonio.fraction_from_json(12) == F(12)
    assert jsonio.fraction_from_json("007/010") == F(7, 10)
    assert jsonio.fraction_from_json(-(10 ** MAX_DIGITS - 1)) == 1 - 10 ** MAX_DIGITS


# Besides non-strings: exponents (the 12-byte "1e-10000000" would decode to
# a 33-million-bit denominator), decimals, underscores, whitespace, a plus
# sign, non-ASCII digits, and integers of more than MAX_DIGITS digits.
@pytest.mark.parametrize("bad", [
    "", "a/b", "1/0", "1.5.2", None, 0.5, True, [1],
    "1e-10000000", "1e3", "1E3", "1.5", "-0.5", ".5", "1_000", " 1", "1 ",
    "1\n", "+1", "1/+2", "-1/-2", "1/-2", "--1", "/2", "1/", "1/2/3",
    "\uff11", "1/\u0662", "inf", "nan", "0x10",
    pytest.param("1" * (MAX_DIGITS + 1), id="long-numerator"),
    pytest.param("1/" + "1" * (MAX_DIGITS + 1), id="long-denominator"),
    pytest.param(10 ** MAX_DIGITS, id="long-int"),
    pytest.param(-10 ** MAX_DIGITS, id="long-negative-int")])
def test_fraction_from_json_rejects_non_rationals(bad):
    with pytest.raises(ArgumentError):
        jsonio.fraction_from_json(bad)


@pytest.mark.parametrize("value", [
    F(10 ** MAX_DIGITS), F(-(10 ** MAX_DIGITS)), F(1, 10 ** MAX_DIGITS),
    F(-1, 3 ** 10_000)])
def test_fraction_to_json_refuses_more_than_max_digits(value):
    """The digit cap of `report tower`, so that no interpreter's
    int-to-str limit decides what is printed."""
    with pytest.raises(ResourceLimitError):
        jsonio.fraction_to_json(value)
    with pytest.raises(ResourceLimitError):
        jsonio.dumps({"x": value})


def test_fraction_round_trip():
    big = 10 ** MAX_DIGITS - 1  # the most digits either side may have
    for value in [F(0), F(5), F(-7, 3), F(22, 7), F(10**12, 13), F(-big),
                  F(1, big), F(-big, big - 1)]:
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
        coords = [x for i in pair for x in points.point(i)]
        assert again.holds_on_coords(coords) == rel.holds_on_coords(coords)


def test_formula_json_rejects_unknown_op():
    with pytest.raises(ArgumentError):
        jsonio.formula_from_json([{"op": "xor", "args": []}])


def test_formula_json_has_no_depth_cap():
    """A chain of nots and ands 10^4 levels deep over one atom is 10^4
    entries, each reading the one before it, and writes back as read."""
    data = [{"op": "atom", "poly": 0, "cmp": "ge"}]
    for level in range(1, 10 ** 4):
        data.append({"op": "not", "arg": level - 1} if level % 2
                    else {"op": "and", "args": [level - 1]})
    assert jsonio.formula_to_json(jsonio.formula_from_json(data)) == data


def test_shared_formula_is_written_once():
    """formula_to_json writes the nodes() post-order, root last, a child as
    the index of its entry: a shared node is one entry, read by index under
    each of its parents, and reads back shared."""
    atom = Formula.leaf(0, "ge")
    middle = Formula.any_of([atom, Formula.negation(atom)])
    shared = Formula.all_of([middle, Formula.leaf(1, "gt"), middle])
    want = [{"op": "atom", "poly": 0, "cmp": "ge"}, {"op": "not", "arg": 0},
            {"op": "or", "args": [0, 1]}, {"op": "atom", "poly": 1, "cmp": "gt"},
            {"op": "and", "args": [2, 3, 2]}]
    assert jsonio.formula_to_json(shared) == want
    again = jsonio.formula_from_json(want)
    assert again.children[0] is again.children[2]
    assert jsonio.formula_to_json(again) == want


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


@pytest.mark.parametrize("build", [
    lambda: base_construction(3).relation,
    lambda: step_up(base_construction(2)).relation,
    lambda: one_dim_k4_construction(2).relation,
    lambda: frankl_wilson_graph(3, 2)[1],
    lambda: order_type_relation(2),
    lambda: one_sided_relation(2),
], ids=["base", "stepup", "onedim-k4", "frankl-wilson", "order-type",
        "one-sided"])
def test_every_construction_writes_back_its_own_bytes(build):
    """Each construction family's relation, formula included, is written,
    read and written again to identical bytes."""
    text = jsonio.dumps(jsonio.relation_to_json(build()))
    again = jsonio.relation_from_json(jsonio.loads(text))
    assert jsonio.dumps(jsonio.relation_to_json(again)) == text


def test_instance_epsilon_may_be_null():
    inst = base_construction(2)
    bare = ConstructionInstance(points=inst.points, relation=inst.relation,
                                epsilon=None, provenance={"kind": "test"})
    data = jsonio.instance_to_json(bare)
    assert data["epsilon"] is None
    again = jsonio.instance_from_json(data)
    assert again.epsilon is None
    assert again.provenance == {"kind": "test"}


def nested_provenance(levels: int):
    """A provenance of `levels` levels: the objects of a chain of step-ups
    around one base, every other one inside a one-item array."""
    provenance = {"kind": "base", "n": 2}
    for level in range(2, levels + 1):
        provenance = ({"kind": "step-up", "base": provenance} if level % 2
                      else [provenance])
    return provenance


def test_instance_provenance_depth_cap():
    """A provenance MAX_PROVENANCE_DEPTH levels deep is read and written back;
    one level more is refused as malformed, read or written."""
    data = jsonio.instance_to_json(base_construction(2))
    data["provenance"] = nested_provenance(MAX_PROVENANCE_DEPTH)
    inst = jsonio.instance_from_json(data)
    assert jsonio.instance_to_json(inst) == data
    deeper = nested_provenance(MAX_PROVENANCE_DEPTH + 1)
    with pytest.raises(ArgumentError, match="provenance nested too deeply"):
        jsonio.instance_to_json(dataclasses.replace(inst, provenance=deeper))
    data["provenance"] = deeper
    with pytest.raises(ArgumentError, match="provenance nested too deeply"):
        jsonio.instance_from_json(data)


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
    graph = jsonio.hypergraph_from_json(
        {"n": 6, "edges": [[4, 5, 6], [3, 1, 2], [1, 2, 3]]})
    assert graph.n == 6
    assert graph.edges == frozenset({(1, 2, 3), (4, 5, 6)})


def test_hyperplane_round_trip():
    h = jsonio.hyperplane_from_json({"a": ["1/2", "-3"], "b": "7/5"})
    assert h == Hyperplane.make([F(1, 2), F(-3)], F(7, 5))


def test_arrangement_round_trip():
    arr = jsonio.arrangement_from_json(
        {"dim": 2, "hyperplanes": [{"a": ["1", "0"], "b": "2"},
                                   {"a": [0, "1/2"], "b": "-1"}]})
    assert arr.dim == 2
    assert [arr.hyperplane(i) for i in (1, 2)] == [
        Hyperplane.make([F(1), F(0)], F(2)),
        Hyperplane.make([F(0), F(1, 2)], F(-1))]


# -- solver results ----------------------------------------------------------


def test_result_to_json_is_a_literal_dict():
    res = HomogeneousResult(subset=(1, 2, 3), polarity="in",
                            stats={"nodes": 17, "maximum": True,
                                   "method": "branch-and-bound",
                                   "ratio": F(1, 3), "levels": [(1, 2)]})
    assert jsonio.result_to_json(res) == {
        "subset": [1, 2, 3], "polarity": "in", "certified": True,
        "stats": {"nodes": 17, "maximum": True, "method": "branch-and-bound",
                  "ratio": "1/3", "levels": [[1, 2]]}}


def test_coloring_to_json_is_a_literal_dict():
    colors = {(2, 3, 4): "red", (1, 2, 4): "blue", (1, 3, 4): "red",
              (1, 2, 3): "red"}
    assert jsonio.coloring_to_json(4, colors) == {
        "n": 4, "triples": [{"t": [1, 2, 3], "color": "red"},
                            {"t": [1, 2, 4], "color": "blue"},
                            {"t": [1, 3, 4], "color": "red"},
                            {"t": [2, 3, 4], "color": "red"}]}


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
