"""Predicates on triple systems for the test suite.

Clique freeness of the 3-uniform hypergraph that a ternary relation
induces on a point set, read one triple at a time through the checked
eval_membership, and the transitivity and monochromatic cliques of a
2-coloring of the triples of 1..n (a dict, sorted triple -> color), the
properties that verify_transitive_ramsey's witnesses must have and lack.
No command reads them; they check the package's constructions and
witnesses.
"""

from __future__ import annotations

import itertools

from semiramsey.relation import eval_membership


def is_Ks3_free(points, relation, s: int):
    """No s points with all triples in the ternary relation.  (True, None) or
    (False, the first such s-subset in combinations order)."""
    for sub in itertools.combinations(range(1, len(points) + 1), s):
        if all(eval_membership(relation, points, t)
               for t in itertools.combinations(sub, 3)):
            return False, sub
    return True, None


def is_K4e_free(points, relation):
    """Every 4 points induce at most two member triples of the ternary
    relation.  (True, None) or (False, the first 4-subset with three or
    four)."""
    for quad in itertools.combinations(range(1, len(points) + 1), 4):
        if sum(eval_membership(relation, points, t)
               for t in itertools.combinations(quad, 3)) > 2:
            return False, quad
    return True, None


def is_transitive(n: int, colors: dict) -> bool:
    """Any two triples (i1,i2,i3), (i2,i3,i4) of one color force (i1,i2,i4)
    and (i1,i3,i4) into that color."""
    for i1, i2, i3, i4 in itertools.combinations(range(1, n + 1), 4):
        c = colors.get((i1, i2, i3))
        if c is not None and c == colors.get((i2, i3, i4)):
            if colors.get((i1, i2, i4)) != c or colors.get((i1, i3, i4)) != c:
                return False
    return True


def monochromatic_subset(n: int, colors: dict, size: int, color: str):
    """The first size-subset of 1..n, in combinations order, with all its
    triples of the color, or None."""
    for sub in itertools.combinations(range(1, n + 1), size):
        if all(colors[t] == color for t in itertools.combinations(sub, 3)):
            return sub
    return None
