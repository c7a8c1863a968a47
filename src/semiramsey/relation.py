"""Semi-algebraic k-ary relations on ordered point sets.

A relation of arity k on points in R^d is a Boolean combination of
polynomial sign conditions in k*d variables.  Variables are blocked
slot-major: slot s (0-based) occupies variables [s*d, (s+1)*d).
Membership is only ever evaluated on strictly increasing index tuples,
matching the convention that point sets are ordered.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import MAX_BITS, ArgumentError, ResourceLimitError
from .poly import IntegerForm, MultivariatePolynomial, Scalar, _cleared

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
    children is constant true, an OR with no children constant false.  A
    relation decides its formula through one compiled decider (`_compile`).
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
        """Yield every node of the tree, shared nodes once, in depth-first
        stack order (last child first)."""
        seen = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            yield node
            stack.extend(node.children)

    def atoms(self) -> list[Atom]:
        return [node.atom for node in self.nodes() if node.op == "atom"]

    def max_poly_index(self) -> int:
        return max((a.poly_index for a in self.atoms()), default=-1)

    def __repr__(self):
        if self.op == "atom":
            return f"p{self.atom.poly_index} {self.atom.cmp} 0"
        if self.op == "not":
            return f"not({self.children[0]!r})"
        joiner = " and " if self.op == "and" else " or "
        inner = joiner.join(repr(c) for c in self.children)
        return f"({inner})" if self.children else ("true" if self.op == "and" else "false")


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
        top = formula.max_poly_index()
        if top >= len(polys):
            raise ArgumentError(f"formula references poly {top}, only {len(polys)} given")
        self.arity = arity
        self.point_dim = point_dim
        self.polys = tuple(polys)
        self.formula = formula
        self._decide = _compile(formula, [p.integer_form() for p in self.polys])

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
        return self.holds_at_scale(lcm, xs)

    def holds_at_scale(self, scale: int, coords: Sequence[int]) -> bool:
        """Evaluate at the rational point coords / scale, given the integer
        coordinates of an index tuple (see OrderedPointSet.scaled)."""
        return self._decide([*coords, scale])


def _compile(formula: Formula, forms: Sequence[IntegerForm]
             ) -> Callable[[Sequence[int]], bool]:
    """The formula as one decider(x), with forms[i].sign(x) the sign of
    polynomial i at the integer point x = (X, L).

    Each node becomes a closure over a per-call memo list, built once
    however many parents share it.  An atom reads its polynomial's sign
    from the memo, so each sign is computed at most once per call; AND and
    OR stop at the first child that settles them; a node with more than
    one parent keeps its truth value in the memo too, so it is decided at
    most once per call.
    """
    parents = Counter(id(ch) for node in formula.nodes() for ch in node.children)
    built: dict[int, Callable] = {}
    slots = len(forms)

    def build(node: Formula) -> Callable:
        nonlocal slots
        f = built.get(id(node))
        if f is not None:
            return f
        if node.op == "atom":
            pi = node.atom.poly_index
            form = forms[pi]
            truth = tuple(node.atom.holds(s) for s in (0, 1, -1))

            def f(memo, x):
                s = memo[pi]
                if s is None:
                    s = memo[pi] = form.sign(x)
                return truth[s]
        elif node.op == "not":
            child = build(node.children[0])

            def f(memo, x):
                return not child(memo, x)
        else:
            kids = tuple(build(ch) for ch in node.children)
            settles = node.op == "or"  # the child value that decides

            def f(memo, x):
                for kid in kids:
                    if kid(memo, x) is settles:
                        return settles
                return not settles
        if node.op != "atom" and parents[id(node)] > 1:
            slot, inner = slots, f
            slots += 1

            def f(memo, x):
                v = memo[slot]
                if v is None:
                    v = memo[slot] = inner(memo, x)
                return v
        built[id(node)] = f
        return f

    root = build(formula)

    def decide(x: Sequence[int]) -> bool:
        return root([None] * slots, x)

    return decide


class OrderedPointSet:
    """Finite ordered list of rational points; indices are 1-based.

    Coordinates are kept as given, ints or Fractions; any other type (bool
    and float included) is refused.
    """

    def __init__(self, dim: int, points: Sequence[Sequence[Scalar]]):
        if type(dim) is not int or dim < 1:
            raise ArgumentError(f"dimension must be an int of at least 1, got {dim!r}")
        pts = []
        for p in points:
            if len(p) != dim:
                raise ArgumentError(f"point {p} does not have dimension {dim}")
            p = tuple(p)
            for x in p:
                if type(x) is not int and not isinstance(x, Fraction):
                    raise ArgumentError(
                        f"coordinate {x!r} of point {p} is not an int or a Fraction")
            pts.append(p)
        self.dim = dim
        self.points = tuple(pts)
        self._scaled = None

    def __len__(self):
        return len(self.points)

    def _check_index(self, index: int) -> None:
        if not 1 <= index <= len(self.points):
            raise ArgumentError(f"point index {index} out of range 1..{len(self.points)}")

    def point(self, index: int) -> tuple[Scalar, ...]:
        self._check_index(index)
        return self.points[index - 1]

    def coords_for(self, indices: Sequence[int]) -> list[Scalar]:
        return [x for i in indices for x in self.point(i)]

    def scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(M, X), built on first use: M is the LCM of every coordinate
        denominator and X the points times M, as int tuples in index order.

        Raises ResourceLimitError when M has more than MAX_BITS bits.
        """
        if self._scaled is None:
            ratios = [[x.as_integer_ratio() for x in p] for p in self.points]
            scale = 1
            for d in {q for r in ratios for _, q in r}:
                scale = math.lcm(scale, d)
                if scale.bit_length() > MAX_BITS:
                    raise ResourceLimitError(
                        f"common denominator of the points exceeds {MAX_BITS} bits")
            self._scaled = (scale, tuple(
                tuple([n * (scale // q) for n, q in r]) for r in ratios))
        return self._scaled


def eval_membership(relation: SemiAlgebraicRelation, points: OrderedPointSet,
                    indices: Sequence[int]) -> bool:
    """Whether the index tuple (1-based, strictly increasing) is in the
    relation, decided by integer signs on the scaled point set."""
    if relation.point_dim != points.dim:
        raise ArgumentError(
            f"relation lives in R^{relation.point_dim}, points in R^{points.dim}")
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
    coords = [x for i in indices for x in scaled[i - 1]]
    return relation.holds_at_scale(scale, coords)


SignVector = tuple  # tuple of -1 / 0 / +1, one entry per polynomial


def sign_vector(polys: Sequence[MultivariatePolynomial],
                point: Sequence[Scalar]) -> SignVector:
    """Componentwise sign of a polynomial family at a point."""
    return tuple([p.sign(point) for p in polys])


def count_distinct_sign_vectors(polys: Sequence[MultivariatePolynomial],
                                points: Iterable[Sequence[Scalar]],
                                denominator: int = 1) -> int:
    """Number of distinct sign vectors of the family over the points, each
    point being the given coordinates divided by `denominator` (a positive
    int).

    The coordinates are scaled to integers X once (`OrderedPointSet.scaled`:
    one LCM M), and each polynomial is read through its integer form with L
    fixed at M * denominator, one column of signs per polynomial over all
    points (`IntegerForm.signs`), so no value is formed.  M * denominator
    is refused above MAX_BITS bits.  The points must have as many
    coordinates as every polynomial has variables.
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
    return len(set(zip(*[p.integer_form().restrict({dim: scale}).signs(scaled)
                         for p in polys])))


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
