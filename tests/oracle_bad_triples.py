"""Reference bad-triple search for the test suite.

This is the loop that find_bad_triples ran before the point set was scaled
to integers: each polynomial is restricted in Fraction arithmetic at two
rational points and read at the third as an exact Fraction value.  It
reads only term maps (tests/oracle_greedy.py restricts, tests/oracle_eval.py
evaluates) and shares no code with the integer forms under test.
"""

from __future__ import annotations

from oracle_eval import eval_fraction
from oracle_greedy import restrict_fraction
from semiramsey.relation import OrderedPointSet, SemiAlgebraicRelation


def find_bad_triples_fraction(points: OrderedPointSet,
                              relation: SemiAlgebraicRelation):
    """(sorted bad triples, skipped zero restrictions), in the order and
    form of find_bad_triples, for a ternary relation on the line."""
    n = len(points)
    vals = [points.point(i)[0] for i in range(1, n + 1)]
    bad: set[tuple] = set()
    skipped: list[tuple] = []
    slot_pairs = (((1, 2), 0), ((0, 2), 1), ((0, 1), 2))  # fixed slots, free slot
    for a in range(n):
        for b in range(a + 1, n):
            family = []
            for pi, poly in enumerate(relation.polys):
                for fixed_slots, free in slot_pairs:
                    restricted = restrict_fraction(
                        poly.terms, 3, {fixed_slots[0]: vals[a],
                                        fixed_slots[1]: vals[b]})
                    if not restricted:
                        skipped.append((a + 1, b + 1, pi, free))
                        continue
                    if max(e for e, in restricted) < 1:
                        continue
                    family.append(restricted)
            if not family:
                continue
            for c in range(n):
                if c == a or c == b:
                    continue
                if any(eval_fraction(f, [vals[c]]) == 0 for f in family):
                    bad.add(tuple(sorted((a + 1, b + 1, c + 1))))
    return sorted(bad), skipped
