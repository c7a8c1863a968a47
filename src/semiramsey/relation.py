"""Semi-algebraic k-ary relations on ordered point sets.

A relation of arity k on points in R^d is a Boolean combination of
polynomial sign conditions in k*d variables.  Variables are blocked
slot-major: slot s (0-based) occupies variables [s*d, (s+1)*d).
Membership is only ever evaluated on strictly increasing index tuples,
matching the convention that point sets are ordered.

A relation reads a tuple at one integer point (X, L) through one generated
function (`_generate`): its formula as a short-circuit expression over the
straight-line kernels of its polynomials' integer forms
(`MultivariatePolynomial.kernel`).  Both are generated on the first read.
`eval_membership` checks every tuple it reads; a search that reads many
checks once and reads the decider itself (`solvers.MembershipOracle`),
folded on its point set (`decider_on`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import MAX_BITS, ArgumentError, ResourceLimitError
from .poly import MultivariatePolynomial, Scalar, _cleared, _compile, _int_signs

COMPARISONS = ("ge", "gt", "eq")


@dataclass(frozen=True)
class Atom:
    """Sign condition on one polynomial of the relation: p >= 0, > 0 or = 0."""
    poly_index: int
    cmp: str

    def __post_init__(self):
        if self.cmp not in COMPARISONS:
            raise ArgumentError(f"unknown comparison {self.cmp!r}")
        if type(self.poly_index) is not int or self.poly_index < 0:
            raise ArgumentError(
                f"polynomial index must be a nonnegative int, got {self.poly_index!r}")

    def holds(self, sign: int) -> bool:
        """Whether the condition holds where the polynomial has this sign
        (-1, 0 or 1)."""
        if self.cmp == "ge":
            return sign >= 0
        if self.cmp == "gt":
            return sign > 0
        return sign == 0


class Formula:
    """Boolean formula tree over atoms.

    Nodes are immutable and may be shared between parents.  An AND with no
    children is constant true, an OR with no children constant false.
    Every reader folds over `nodes()` by node identity.  A relation decides
    its formula through one generated function (`_generate`), built on its
    first read.
    """

    __slots__ = ("op", "children", "atom")

    def __init__(self, op: str, children: tuple = (), atom: Atom | None = None):
        if op not in ("and", "or", "not", "atom"):
            raise ArgumentError(f"unknown formula op {op!r}")
        if op == "atom":
            if atom is None:
                raise ArgumentError("atom node needs an Atom")
            children = ()
        elif op == "not":
            if len(children) != 1:
                raise ArgumentError("not takes exactly one child")
        self.op = op
        self.children = tuple(children)
        self.atom = atom

    @classmethod
    def leaf(cls, poly_index: int, cmp: str) -> "Formula":
        return cls("atom", atom=Atom(poly_index, cmp))

    @classmethod
    def all_of(cls, children: Iterable["Formula"]) -> "Formula":
        return cls("and", tuple(children))

    @classmethod
    def any_of(cls, children: Iterable["Formula"]) -> "Formula":
        return cls("or", tuple(children))

    @classmethod
    def negation(cls, child: "Formula") -> "Formula":
        return cls("not", (child,))

    def nodes(self):
        """Yield every node once (a shared node too), after all of its
        children, last child first: the one walk of a formula, iterative,
        so its atoms come in the order of a last-child-first pre-order."""
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
            elif id(node) not in seen:
                seen.add(id(node))
                stack.append((node, True))
                stack.extend((ch, False) for ch in node.children)

    def atoms(self) -> list[Atom]:
        return [node.atom for node in self.nodes() if node.op == "atom"]


class SemiAlgebraicRelation:
    """Arity-k relation on R^d given by polynomials and a Boolean formula."""

    def __init__(self, arity: int, point_dim: int,
                 polys: Sequence[MultivariatePolynomial], formula: Formula):
        if type(arity) is not int or arity < 1:
            raise ArgumentError(f"arity must be an int of at least 1, got {arity!r}")
        if type(point_dim) is not int or point_dim < 1:
            raise ArgumentError(
                f"point dimension must be an int of at least 1, got {point_dim!r}")
        nv = arity * point_dim
        for i, p in enumerate(polys):
            if p.num_vars != nv:
                raise ArgumentError(
                    f"poly {i} has {p.num_vars} variables, expected arity*dim = {nv}")
        top = max((a.poly_index for a in formula.atoms()), default=-1)
        if top >= len(polys):
            raise ArgumentError(f"formula references poly {top}, only {len(polys)} given")
        self.arity = arity
        self.point_dim = point_dim
        self.polys = tuple(polys)
        self.formula = formula
        self._decide = None

    def complexity(self) -> int:
        """Description complexity t: ambient dimension, polynomial count and
        max degree all bounded by t."""
        max_deg = max((p.degree() for p in self.polys), default=0)
        return max(self.arity * self.point_dim, len(self.polys), max_deg)

    def holds_on_coords(self, coords: Sequence[Scalar]) -> bool:
        """Evaluate on already-concatenated coordinates of an index tuple,
        cleared once to (X, L) with L their common denominator."""
        if len(coords) != self.arity * self.point_dim:
            raise ArgumentError("coordinate vector has the wrong length")
        xs, lcm = _cleared(coords)
        return (self._decide or self.decider())([*xs, lcm])

    def decider(self) -> Callable[[Sequence[int]], bool]:
        """The relation's decider decide([*X, L]), generated by `_generate`
        on the first call: membership at the rational point X / L, given
        the integer coordinates X of a whole tuple and L > 0.  It checks
        nothing; `eval_membership` and `solvers.MembershipOracle` check first."""
        if self._decide is None:
            self._decide = _generate(self.formula, self.polys)
        return self._decide

    def decider_on(self, rows: Sequence[Sequence[int]]
                   ) -> Callable[[Sequence[int]], bool]:
        """decider() for increasing tuples of the scaled points `rows` only:
        the formula folded on `_order_signs`, or decider() if none folds."""
        signs = _order_signs(self, rows)
        return (_generate(_fold(self.formula, signs), self.polys) if signs
                else self.decider())


def _order_signs(relation: SemiAlgebraicRelation,
                 rows: Sequence[Sequence[int]]) -> dict[int, int]:
    """poly index -> its sign on every increasing tuple of the rows, for
    each a*(x_u - x_v) with u = j*d + c, v = i*d + c and i != j, where the
    rows (two at least) strictly increase in coordinate c: sign(a) *
    sign(j - i), negated where they strictly decrease."""
    d = relation.point_dim
    steps = list(zip(rows, rows[1:]))
    trend = [all(a[c] < b[c] for a, b in steps) - all(a[c] > b[c] for a, b in steps)
             for c in range(d)]
    signs = {}
    for i, p in enumerate(relation.polys):
        if len(p.terms) != 2:
            continue
        (eu, a), (ev, b) = p.terms.items()
        if a == -b and sum(eu) == sum(ev) == 1:
            u, v = eu.index(1), ev.index(1)
            if u % d == v % d and trend[u % d]:
                signs[i] = (1 if a > 0 else -1) * (1 if u > v else -1) * trend[u % d]
    return signs


def _fold(formula: Formula, signs: dict[int, int]) -> Formula:
    """The formula with each atom on a polynomial of `signs` a constant
    (AND with no children, true; OR with none, false), simplified upward.
    Nodes map by identity, so a shared node stays shared."""
    done: dict[int, Formula] = {}
    for node in formula.nodes():
        op, new = node.op, node
        kids = [done[id(ch)] for ch in node.children]
        truths = [ch.op == "and" if ch.op != "atom" and not ch.children else None
                  for ch in kids]
        if op == "atom" and node.atom.poly_index in signs:
            new = Formula("and" if node.atom.holds(signs[node.atom.poly_index])
                          else "or")
        elif op == "not" and truths[0] is not None:
            new = Formula("or" if truths[0] else "and")
        elif op != "not" and (op == "or") in truths:  # false in AND, true in OR
            new = Formula("or" if op == "and" else "and")
        elif kids != list(node.children):  # drops true from AND, false from OR
            new = Formula(op, tuple(ch for ch, t in zip(kids, truths) if t is None))
        done[id(node)] = new
    return done[id(formula)]


# Deepest nesting of one generated expression: a deeper node becomes a
# statement of its own (CPython refuses 200 nested parentheses).
_DEPTH = 32

_COMPARE = {"ge": ">=", "gt": ">", "eq": "=="}


def _generate(formula: Formula, polys: Sequence[MultivariatePolynomial]
              ) -> Callable[[Sequence[int]], bool]:
    """The formula as one generated function decide(x), reading polynomial
    i through the kernel k<i> of its integer form at the integer point
    x = (X, L).

    AND and OR are Python's short-circuit `and` and `or`, NOT is `not`, and
    the form of polynomial i is read at most once per call: it is memoized
    in the local s<i>.  Every node is written out once, and the kernels
    are names bound in the generated globals: the source holds only names,
    operators, ints, None, True and False.

    An atom is written inline at each of its parents.  Any other node with
    more than one parent, or one that would nest deeper than _DEPTH,
    becomes one statement n<j> = ... before the return, in post-order: it
    is decided once per call, whether or not the expression that reads it
    gets that far.  Reads are pure, so only the read count changes.
    """
    order = list(formula.nodes())
    parents = Counter(id(ch) for node in order for ch in node.children)
    # id(node) -> (expression, its nesting depth)
    done: dict[int, tuple[str, int]] = {}
    statements: list[str] = []
    for node in order:
        if node.op == "atom":
            i = node.atom.poly_index
            done[id(node)] = (f"((s{i} if s{i} is not None else (s{i} := k{i}(x)))"
                              f" {_COMPARE[node.atom.cmp]} 0)", 4)
            continue
        kids = [done[id(ch)] for ch in node.children]
        if node.op == "not":
            expr, depth = f"(not {kids[0][0]})", kids[0][1] + 1
        elif kids:
            joiner = " and " if node.op == "and" else " or "
            expr = "(" + joiner.join([e for e, _ in kids]) + ")"
            depth = 1 + max(d for _, d in kids)
        else:
            expr, depth = ("True" if node.op == "and" else "False"), 0
        if parents[id(node)] > 1 or depth > _DEPTH:
            statements.append(f" n{len(statements)} = {expr}")
            expr, depth = f"n{len(statements) - 1}", 0
        done[id(node)] = (expr, depth)
    used = sorted({node.atom.poly_index for node in order if node.op == "atom"})
    memos = [" " + " = ".join(f"s{i}" for i in used) + " = None"] if used else []
    source = "\n".join(["def decide(x):", *memos, *statements,
                        f" return {done[id(formula)][0]}"])
    namespace = {f"k{i}": polys[i].integer_form().kernel() for i in used}
    exec(compile(source, "<SemiAlgebraicRelation.decide>", "exec"), namespace)
    return namespace["decide"]


class OrderedPointSet:
    """Finite ordered list of rational points; indices are 1-based.

    Coordinates are kept as given, ints or Fractions; any other type (bool
    and float included) is refused.
    """

    def __init__(self, dim: int, points: Sequence[Sequence[Scalar]]):
        if type(dim) is not int or dim < 1:
            raise ArgumentError(f"dimension must be an int of at least 1, got {dim!r}")
        pts = []
        all_ints = True
        for p in points:
            if len(p) != dim:
                raise ArgumentError(f"point {p} does not have dimension {dim}")
            p = tuple(p)
            for x in p:  # poly._coef's rule inline: a call per x is 2.5x slower
                if type(x) is not int:
                    if not isinstance(x, Fraction):
                        raise ArgumentError(
                            f"coordinate {x!r} of point {p} is not an int or a Fraction")
                    all_ints = False
            pts.append(p)
        self.dim = dim
        self.points = tuple(pts)
        self._scaled = (1, self.points) if all_ints else None

    def __len__(self):
        return len(self.points)

    def _check_index(self, index: int) -> None:
        if not 1 <= index <= len(self.points):
            raise ArgumentError(f"point index {index} out of range 1..{len(self.points)}")

    def point(self, index: int) -> tuple[Scalar, ...]:
        self._check_index(index)
        return self.points[index - 1]

    def scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(M, X): M is the LCM of every coordinate denominator and X the
        points times M, as int tuples in index order, built on first use.
        A set of int coordinates has M = 1 and is its own X, set when the
        set is made: the points are kept, not copied.

        Raises ResourceLimitError when M has more than MAX_BITS bits.
        """
        if self._scaled is None:
            points = self.points
            scale = 1
            for d in {x.denominator for p in points for x in p}:
                scale = math.lcm(scale, d)
                if scale.bit_length() > MAX_BITS:
                    raise ResourceLimitError(
                        f"common denominator of the points exceeds {MAX_BITS} bits")
            self._scaled = (scale, tuple(
                tuple([x.numerator * (scale // x.denominator) for x in p])
                for p in points))
        return self._scaled


def _check_spaces(relation: SemiAlgebraicRelation,
                  points: OrderedPointSet) -> None:
    if relation.point_dim != points.dim:
        raise ArgumentError(
            f"relation lives in R^{relation.point_dim}, points in R^{points.dim}")


def eval_membership(relation: SemiAlgebraicRelation, points: OrderedPointSet,
                    indices: Sequence[int]) -> bool:
    """Whether the index tuple (1-based, strictly increasing) is in the
    relation, decided by integer signs on the scaled point set.

    This is the checked path: on every call it refuses (ArgumentError) a
    relation and points in different spaces, and a tuple that is not
    `relation.arity` strictly increasing indices in 1..len(points); the
    scale is checked too.  A search that reads many tuples checks once,
    at `solvers.MembershipOracle`, which then reads the decider itself,
    and certifies its answer through this function."""
    _check_spaces(relation, points)
    if len(indices) != relation.arity:
        raise ArgumentError(
            f"tuple has {len(indices)} indices, relation arity is {relation.arity}")
    for a, b in zip(indices, indices[1:]):
        if a >= b:
            raise ArgumentError(f"indices must be strictly increasing, got {tuple(indices)}")
    # Increasing, so the first and the last index bound all of them.
    points._check_index(indices[0])
    points._check_index(indices[-1])
    scale, scaled = points.scaled()
    row = [x for i in indices for x in scaled[i - 1]]
    row.append(scale)
    return (relation._decide or relation.decider())(row)


def count_distinct_sign_vectors(polys: Sequence[MultivariatePolynomial],
                                points: Iterable[Sequence[Scalar]],
                                denominator: int = 1) -> int:
    """Number of distinct sign vectors of the family over the points, each
    point being the given coordinates divided by `denominator` (a positive
    int).

    The coordinates are scaled to integers X once (`OrderedPointSet.scaled`:
    one LCM M), and the polynomials' integer forms H are read at the rows
    [*X, M * denominator], as `eval_membership` reads them, the whole
    family in one pass of the column reader (`poly._int_signs`), so no
    value is formed and no form is restricted.  M * denominator is refused
    above MAX_BITS bits.  The points must have as many coordinates as every
    polynomial has variables.
    """
    if type(denominator) is not int or denominator < 1:
        raise ArgumentError(
            f"denominator must be a positive int, got {denominator!r}")
    points = list(points)
    if not points:
        return 0
    if not polys:
        return 1  # every point has the empty sign vector
    dim = polys[0].num_vars
    for p in polys:
        if p.num_vars != dim:
            raise ArgumentError(
                f"family mixes polynomials in {dim} and {p.num_vars} variables")
    scale, scaled = OrderedPointSet(dim, points).scaled()
    scale *= denominator
    if scale.bit_length() > MAX_BITS:
        raise ResourceLimitError(
            f"common denominator of the points exceeds {MAX_BITS} bits")
    return len(set(zip(*_int_signs([_compile(p.integer_form().terms)
                                    for p in polys],
                                   [[*x, scale] for x in scaled]))))


def milnor_thom_bound(max_degree: int, family_size: int, dim: int) -> int:
    """Upper bound (50*D*r/d)^d on realized sign vectors of r polynomials of
    degree <= D in R^d, with the rational base rounded up before taking the
    d-th power so the result is an exact integer.

    Hypotheses: r >= d >= 2 and D >= 1.
    """
    if dim < 2 or family_size < dim:
        raise ArgumentError("requires family_size >= dim >= 2")
    if max_degree < 1:
        raise ArgumentError("requires max_degree >= 1")
    base = math.ceil(Fraction(50 * max_degree * family_size, dim))
    return base ** dim
