"""Canonical JSON encoding for every object the command line exchanges.

Rationals are encoded as exact strings ("3", "-1/2"), never floats.  dumps
is deterministic: keys sorted, compact separators, one trailing newline, so
equal objects serialize to identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .errors import ArgumentError, ResourceLimitError, MAX_DEGREE
from .geometry import Arrangement, Hyperplane
from .poly import MultivariatePolynomial
from .relation import Formula, OrderedPointSet, SemiAlgebraicRelation
from .constructions import ConstructionInstance
from .solvers import Hypergraph3, HomogeneousResult, TransitiveColoring


def fraction_to_json(value) -> str:
    return str(Fraction(value))


def fraction_from_json(data) -> Fraction:
    if isinstance(data, bool):
        raise ArgumentError(f"not a rational: {data!r}")
    if isinstance(data, (int, str)):
        try:
            return Fraction(data)
        except (ValueError, ZeroDivisionError) as exc:
            raise ArgumentError(f"not a rational: {data!r}") from exc
    raise ArgumentError(f"not a rational: {data!r}")


def poly_to_json(p: MultivariatePolynomial) -> dict:
    terms = [{"c": fraction_to_json(c), "e": list(e)}
             for e, c in sorted(p.terms.items())]
    return {"vars": p.num_vars, "terms": terms}


def poly_from_json(data: dict) -> MultivariatePolynomial:
    terms = {tuple(t["e"]): fraction_from_json(t["c"]) for t in data["terms"]}
    p = MultivariatePolynomial(data["vars"], terms)
    if p.degree() > MAX_DEGREE:
        raise ResourceLimitError(
            f"polynomial of degree {p.degree()} exceeds cap {MAX_DEGREE}")
    return p


def formula_to_json(f: Formula) -> dict:
    if f.op == "atom":
        return {"op": "atom", "poly": f.atom.poly_index, "cmp": f.atom.cmp}
    if f.op == "not":
        return {"op": "not", "arg": formula_to_json(f.children[0])}
    return {"op": f.op, "args": [formula_to_json(c) for c in f.children]}


def formula_from_json(data: dict) -> Formula:
    op = data["op"]
    if op == "atom":
        return Formula.leaf(data["poly"], data["cmp"])
    if op == "not":
        return Formula.negation(formula_from_json(data["arg"]))
    if op == "and":
        return Formula.all_of(formula_from_json(c) for c in data["args"])
    if op == "or":
        return Formula.any_of(formula_from_json(c) for c in data["args"])
    raise ArgumentError(f"unknown formula op {op!r}")


def relation_to_json(rel: SemiAlgebraicRelation) -> dict:
    return {
        "arity": rel.arity,
        "dim": rel.point_dim,
        "polys": [poly_to_json(p) for p in rel.polys],
        "formula": formula_to_json(rel.formula),
    }


def relation_from_json(data: dict) -> SemiAlgebraicRelation:
    return SemiAlgebraicRelation(
        data["arity"], data["dim"],
        [poly_from_json(p) for p in data["polys"]],
        formula_from_json(data["formula"]))


def points_to_json(points: OrderedPointSet) -> dict:
    return {"dim": points.dim,
            "points": [[fraction_to_json(c) for c in points.point(i)]
                       for i in range(1, len(points) + 1)]}


def points_from_json(data: dict) -> OrderedPointSet:
    return OrderedPointSet(
        data["dim"],
        [[fraction_from_json(c) for c in row] for row in data["points"]])


def instance_to_json(inst: ConstructionInstance) -> dict:
    return {
        "points": points_to_json(inst.points),
        "relation": relation_to_json(inst.relation),
        "epsilon": None if inst.epsilon is None else fraction_to_json(inst.epsilon),
        "provenance": jsonable(inst.provenance),
    }


def instance_from_json(data: dict) -> ConstructionInstance:
    eps = data.get("epsilon")
    return ConstructionInstance(
        points=points_from_json(data["points"]),
        relation=relation_from_json(data["relation"]),
        epsilon=None if eps is None else fraction_from_json(eps),
        provenance=data.get("provenance", {}),
    )


def hypergraph_to_json(graph: Hypergraph3) -> dict:
    return {"n": graph.n, "edges": sorted(list(e) for e in graph.edges)}


def hypergraph_from_json(data: dict) -> Hypergraph3:
    return Hypergraph3.make(data["n"], data["edges"])


def hyperplane_to_json(h: Hyperplane) -> dict:
    return {"a": [fraction_to_json(c) for c in h.a],
            "b": fraction_to_json(h.b)}


def hyperplane_from_json(data: dict) -> Hyperplane:
    return Hyperplane.make([fraction_from_json(c) for c in data["a"]],
                           fraction_from_json(data["b"]))


def arrangement_to_json(arr: Arrangement) -> dict:
    return {"dim": arr.dim,
            "hyperplanes": [hyperplane_to_json(arr.hyperplane(i))
                            for i in range(1, len(arr) + 1)]}


def arrangement_from_json(data: dict) -> Arrangement:
    return Arrangement(data["dim"],
                       [hyperplane_from_json(h) for h in data["hyperplanes"]])


def result_to_json(res: HomogeneousResult) -> dict:
    return {
        "subset": list(res.subset),
        "polarity": res.polarity,
        "certified": res.certified,
        "stats": jsonable(res.stats),
    }


def result_from_json(data: dict) -> HomogeneousResult:
    return HomogeneousResult(
        subset=tuple(data["subset"]),
        polarity=data["polarity"],
        certified=data["certified"],
        stats=data.get("stats", {}),
    )


def coloring_to_json(col: TransitiveColoring) -> dict:
    return {"n": col.n,
            "triples": [{"t": list(t), "color": c}
                        for t, c in sorted(col.colors.items())]}


def coloring_from_json(data: dict) -> TransitiveColoring:
    return TransitiveColoring(
        data["n"],
        {tuple(row["t"]): row["color"] for row in data["triples"]})


def jsonable(value: Any) -> Any:
    """Normalize nested containers to plain JSON values; Fractions become
    exact strings, tuples become lists."""
    if isinstance(value, Fraction):
        return fraction_to_json(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ArgumentError(f"cannot serialize {type(value).__name__}")


def dumps(obj: Any) -> str:
    """Deterministic serialization: sorted keys, compact separators,
    trailing newline."""
    return json.dumps(jsonable(obj), sort_keys=True,
                      separators=(",", ":")) + "\n"


def loads(text: str) -> Any:
    return json.loads(text)
