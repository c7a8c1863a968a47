"""Reference greedy extraction for the test suite.

This is the class-refinement greedy that erdos_rado_greedy ran before the
point set was scaled to integers: polynomials are restricted in Fraction
arithmetic at the rational points and every atom compares an exact
Fraction value with 0.  Restriction and evaluation here read only term
maps and share no code with the integer forms under test; the formula is
read by tests/oracle_formula.py and the arity-2 tail is the prefix-loop
search of tests/oracle_bnb.py.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from oracle_bnb import max_homogeneous_prefix_loop
from oracle_eval import eval_fraction
from oracle_formula import evaluate
from semiramsey.relation import OrderedPointSet, SemiAlgebraicRelation
from semiramsey.poly import MultivariatePolynomial


def restrict_fraction(terms: dict, num_vars: int, fixed: dict) -> dict:
    """Term map of `terms` with each variable of `fixed` replaced by its
    Fraction value; the others are re-indexed in order."""
    keep = [i for i in range(num_vars) if i not in fixed]
    out: dict[tuple, Fraction] = {}
    for e, c in terms.items():
        c = Fraction(c)
        for i, v in fixed.items():
            if e[i]:
                c *= Fraction(v) ** e[i]
        key = tuple(e[i] for i in keep)
        out[key] = out.get(key, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def greedy_fraction(points: OrderedPointSet, relation: SemiAlgebraicRelation):
    """(subset, polarity, classes_per_level) of the greedy pass, with the
    polarity read off the subset's first k-tuple ("in" when it has none)."""
    classes: list = []
    coords = [points.point(i) for i in range(1, len(points) + 1)]
    polys = [(p.num_vars, p.terms) for p in relation.polys]
    subset = _level(coords, list(range(1, len(points) + 1)), polys,
                    relation, relation.arity, classes)
    subset = tuple(sorted(subset))
    first = subset[:relation.arity]
    polarity = "in"
    if len(first) == relation.arity:
        point = [x for i in first for x in points.point(i)]
        inside = evaluate(relation.formula, lambda atom: atom.holds(_sign(
            eval_fraction(relation.polys[atom.poly_index].terms, point))))
        polarity = "in" if inside else "out"
    return subset, polarity, classes


def _sign(value: Fraction) -> int:
    return (value > 0) - (value < 0)


def _level(coords, indices, polys, relation, k, classes):
    d = relation.point_dim
    if k == 2:
        lower = SemiAlgebraicRelation(
            2, d, [MultivariatePolynomial(n, t) for n, t in polys],
            relation.formula)
        subset, _, _, _ = max_homogeneous_prefix_loop(
            OrderedPointSet(d, coords), lower)
        return [indices[i - 1] for i in subset]

    chosen = list(range(k - 2))
    survivors = list(range(k - 2, len(coords)))
    level_log = []
    atoms_by_poly: dict = {}
    for atom in sorted(set(relation.formula.atoms()),
                       key=lambda a: (a.poly_index, a.cmp)):
        atoms_by_poly.setdefault(atom.poly_index, []).append(atom)

    while survivors:
        q = survivors.pop(0)
        chosen.append(q)
        if not survivors:
            break
        restricted = []
        for prefix in itertools.combinations(chosen[:-1], k - 2):
            fixed = {}
            for slot, pos in enumerate(prefix + (q,)):
                for c in range(d):
                    fixed[slot * d + c] = coords[pos][c]
            for pi, atoms in atoms_by_poly.items():
                n, terms = polys[pi]
                restricted.append(
                    (restrict_fraction(terms, n, fixed), atoms))
        groups: dict = {}
        for w in survivors:
            sig = []
            for terms, atoms in restricted:
                s = _sign(eval_fraction(terms, coords[w]))
                sig.extend(atom.holds(s) for atom in atoms)
            groups.setdefault(tuple(sig), []).append(w)
        level_log.append((len(chosen) - 1, len(groups)))
        survivors = max(groups.values(), key=lambda g: (len(g), -g[0]))
    classes.append(level_log)

    last = chosen[-1]
    rest = chosen[:-1]
    fixed = {(k - 1) * d + c: coords[last][c] for c in range(d)}
    lower = [(n - d, restrict_fraction(t, n, fixed)) for n, t in polys]
    inner = _level([coords[i] for i in rest], [indices[i] for i in rest],
                   lower, relation, k - 1, classes)
    return inner + [indices[last]]
