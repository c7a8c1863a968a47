"""Canonical JSON encoding for every object the command line exchanges.

Rationals are encoded as exact strings ("3", "-1/2"), never floats, and
decoded from those strings or JSON ints alone.  dumps is deterministic:
keys sorted, compact separators, one trailing newline, so equal objects
serialize to identical bytes.  A formula is the flat array of its nodes,
root last (`formula_to_json`): nothing recurses over it.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .errors import (ArgumentError, ResourceLimitError, MAX_DEGREE,
                     MAX_DIGITS, MAX_PROVENANCE_DEPTH)
from .geometry import Arrangement, Hyperplane
from .poly import MultivariatePolynomial, Scalar
from .relation import Formula, OrderedPointSet, SemiAlgebraicRelation
from .constructions import ConstructionInstance
from .solvers import Hypergraph3, HomogeneousResult


_RATIONAL = re.compile(r"(-?[0-9]{1,%d})(?:/([0-9]{1,%d}))?"
                       % (MAX_DIGITS, MAX_DIGITS))
_DIGIT_LIMIT = 10 ** MAX_DIGITS


def fraction_to_json(value: Scalar) -> str:
    """"p" or "p/q", refused (ResourceLimitError) if p or q has more than
    MAX_DIGITS digits, so that every interpreter prints it alike."""
    if max(abs(value.numerator), value.denominator) >= _DIGIT_LIMIT:
        raise ResourceLimitError(
            f"a rational of more than {MAX_DIGITS} decimal digits to print")
    return str(value)


def fraction_from_json(data) -> Fraction:
    """The rational of a JSON int or of a string "p" or "p/q" as written,
    in ASCII digits, p and q of at most MAX_DIGITS digits and q > 0; all
    else (exponents, decimals, "_", whitespace, "+") is an ArgumentError."""
    if type(data) is int:
        if abs(data) < _DIGIT_LIMIT:
            return Fraction(data)  # so that a decoded value prints as "3"
        raise ArgumentError(f"an int of more than {MAX_DIGITS} digits")
    match = _RATIONAL.fullmatch(data) if type(data) is str else None
    if match is not None:
        denominator = int(match[2] or 1)
        if denominator:
            return Fraction(int(match[1]), denominator)
    raise ArgumentError(f"not a rational: {data!r:.60}")


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


def formula_to_json(f: Formula) -> list:
    """The formula as its node list: the nodes of `Formula.nodes()` in that
    post-order, root last, each child written as the index of its earlier
    entry, so a shared node is written once."""
    index: dict[int, int] = {}
    out = []
    for node in f.nodes():
        args = [index[id(ch)] for ch in node.children]
        index[id(node)] = len(out)
        if node.op == "atom":
            out.append({"op": "atom", "poly": node.atom.poly_index,
                        "cmp": node.atom.cmp})
        elif node.op == "not":
            out.append({"op": "not", "arg": args[0]})
        else:
            out.append({"op": node.op, "args": args})
    return out


def formula_from_json(data: list) -> Formula:
    """The formula of a node list as `formula_to_json` writes it, refused
    (ArgumentError) unless it is a nonempty array in which each reference is
    an int j with 0 <= j < its own position and each entry but the last is
    read by a later one."""
    nodes: list[Formula] = []
    unread = set()

    def read(j) -> Formula:
        if type(j) is not int or not 0 <= j < len(nodes):
            raise ArgumentError(f"formula node {len(nodes)} reads {j!r:.60}, "
                                f"not an earlier node")
        unread.discard(j)
        return nodes[j]

    for node in _array(data, "a formula"):
        op = node["op"]
        if op == "atom":
            formula = Formula.leaf(node["poly"], node["cmp"])
        elif op == "not":
            formula = Formula.negation(read(node["arg"]))
        else:  # Formula refuses an op other than "and" and "or"
            formula = Formula(op, tuple(
                [read(j) for j in _array(node["args"], "a formula's args")]))
        unread.add(len(nodes))
        nodes.append(formula)
    if unread != {len(nodes) - 1}:
        raise ArgumentError("a formula must be a nonempty node list, each "
                            "node but the last read by a later one")
    return nodes[-1]


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


def _array(data, what: str) -> list:
    """data, refused (ArgumentError) unless it is a JSON array."""
    if type(data) is not list:
        raise ArgumentError(f"{what} must be an array, not {data!r:.60}")
    return data


def points_from_json(data: dict) -> OrderedPointSet:
    return OrderedPointSet(
        data["dim"], [[fraction_from_json(c) for c in _array(row, "a point")]
                      for row in _array(data["points"], "points")])


def _provenance(value):
    """value, refused (ArgumentError) read or written when its objects and
    arrays nest more than MAX_PROVENANCE_DEPTH levels deep."""
    level, depth = [value], 0
    while level := [c for c in level if isinstance(c, (dict, list, tuple))]:
        depth += 1
        if depth > MAX_PROVENANCE_DEPTH:
            raise ArgumentError(f"provenance nested too deeply: more than "
                                f"{MAX_PROVENANCE_DEPTH} levels")
        level = [v for c in level
                 for v in (c.values() if isinstance(c, dict) else c)]
    return value


def instance_to_json(inst: ConstructionInstance) -> dict:
    return {
        "points": points_to_json(inst.points),
        "relation": relation_to_json(inst.relation),
        "epsilon": None if inst.epsilon is None else fraction_to_json(inst.epsilon),
        "provenance": jsonable(_provenance(inst.provenance)),
    }


def instance_from_json(data: dict) -> ConstructionInstance:
    eps = data.get("epsilon")
    return ConstructionInstance(
        points=points_from_json(data["points"]),
        relation=relation_from_json(data["relation"]),
        epsilon=None if eps is None else fraction_from_json(eps),
        provenance=_provenance(data.get("provenance", {})),
    )


def hypergraph_from_json(data: dict) -> Hypergraph3:
    return Hypergraph3.make(data["n"], data["edges"])


def hyperplane_from_json(data: dict) -> Hyperplane:
    return Hyperplane.make(
        [fraction_from_json(c) for c in _array(data["a"], "a hyperplane's a")],
        fraction_from_json(data["b"]))


def arrangement_from_json(data: dict) -> Arrangement:
    return Arrangement(data["dim"],
                       [hyperplane_from_json(h) for h in data["hyperplanes"]])


def result_to_json(res: HomogeneousResult) -> dict:
    return {
        "subset": list(res.subset),
        "polarity": res.polarity,
        # Constant: every solver certifies its subset before returning it,
        # and raises when the certificate fails.
        "certified": True,
        "stats": jsonable(res.stats),
    }


def coloring_to_json(n: int, colors: dict) -> dict:
    return {"n": n, "triples": [{"t": list(t), "color": c}
                                for t, c in sorted(colors.items())]}


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
    """Deterministic serialization in one pass: sorted keys, compact
    separators, trailing newline, Fractions written by `jsonable`."""
    return json.dumps(obj, default=jsonable, sort_keys=True,
                      separators=(",", ":")) + "\n"


def loads(text: str) -> Any:
    return json.loads(text)
