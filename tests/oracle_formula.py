"""Reference formula evaluation for the test suite.

This is the recursive walk that Formula.evaluate ran before relations
compiled their formulas: each node is decided by recursion over its
children, memoized on node identity so shared subtrees count once.  It
reads only a formula's nodes and shares no code with the compiled decider
under test.
"""

from __future__ import annotations

from typing import Callable


def evaluate(formula, atom_truth: Callable, _cache: dict | None = None) -> bool:
    """Truth of the formula with each atom decided by atom_truth(atom)."""
    if _cache is None:
        _cache = {}
    key = id(formula)
    if key in _cache:
        return _cache[key]
    if formula.op == "atom":
        v = atom_truth(formula.atom)
    elif formula.op == "not":
        v = not evaluate(formula.children[0], atom_truth, _cache)
    elif formula.op == "and":
        v = all(evaluate(ch, atom_truth, _cache) for ch in formula.children)
    else:
        v = any(evaluate(ch, atom_truth, _cache) for ch in formula.children)
    _cache[key] = v
    return v
