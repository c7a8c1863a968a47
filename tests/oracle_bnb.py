"""Reference homogeneous-subset search for the test suite.

This is the branch and bound that max_homogeneous ran before it carried
its candidates as bitmasks: every candidate is checked against all
(k-1)-subsets of the partial set, and the bound counts the unchecked
candidates.  It memoizes eval_membership in its own dict and shares no
code with the bitset search under test.
"""

from __future__ import annotations

import itertools

from semiramsey.relation import eval_membership


def max_homogeneous_prefix_loop(points, relation, budget: int = 10 ** 6):
    """(subset, polarity, maximum, nodes) of the largest homogeneous subset,
    "in" searched first and preferred on ties."""
    n = len(points)
    k = relation.arity
    cache: dict[tuple, bool] = {}

    def member(t: tuple) -> bool:
        if t not in cache:
            cache[t] = eval_membership(relation, points, t)
        return cache[t]

    nodes = 0
    exhausted = False

    def search(want: bool) -> tuple:
        nonlocal nodes, exhausted
        best: tuple = ()

        def extend(current: list[int], candidates: list[int]):
            nonlocal best, nodes, exhausted
            nodes += 1
            if nodes > budget:
                exhausted = True
                return
            if len(current) > len(best):
                best = tuple(current)
            for pos, cand in enumerate(candidates):
                if len(current) + len(candidates) - pos <= len(best):
                    break
                if exhausted:
                    return
                if len(current) >= k - 1 and any(
                        member(prefix + (cand,)) != want
                        for prefix in itertools.combinations(current, k - 1)):
                    continue
                extend(current + [cand], candidates[pos + 1:])

        extend([], list(range(1, n + 1)))
        return best

    best_in = search(True)
    best_out = search(False)
    if len(best_in) >= len(best_out):
        return best_in, "in", not exhausted, nodes
    return best_out, "out", not exhausted, nodes
