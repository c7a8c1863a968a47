"""Homogeneous-subset solvers and hypergraph routines.

max_homogeneous is an exact branch-and-bound over both polarities, with
its candidate sets kept as int bitmasks.
erdos_rado_greedy is the recursive class-refinement extraction: it seeds
k-2 points, repeatedly keeps the largest membership-signature class, and
recurses at one lower arity with the last chosen point fixed in the
relation's integer forms, certifying the final subset against the original
relation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import (ArgumentError, BudgetExhaustedError, PreconditionError,
                     ResourceLimitError)
from .poly import IntegerForm, MultivariatePolynomial
from .relation import (Atom, OrderedPointSet, SemiAlgebraicRelation,
                       eval_membership, milnor_thom_bound)
from .rng import SeededRng


@dataclass
class HomogeneousResult:
    """A homogeneous subset: indices (1-based, increasing), which side of the
    relation they all fall on, whether homogeneity was re-verified
    exhaustively, and solver statistics (including whether the subset is a
    certified maximum)."""
    subset: tuple
    polarity: str  # "in" or "out"
    certified: bool
    stats: dict = field(default_factory=dict)


class MembershipOracle:
    """Membership of index tuples of one point set in one relation.

    The point set and the relation must live in the same space; that is
    checked once, here.  Membership is memoized once, per (k-1)-prefix as a
    bitmask; `evaluations` counts the tuples evaluated.  polarity() is the
    homogeneity check every solver certifies with.
    """

    def __init__(self, points: OrderedPointSet,
                 relation: SemiAlgebraicRelation):
        if relation.point_dim != points.dim:
            raise ArgumentError(
                f"relation lives in R^{relation.point_dim}, "
                f"points in R^{points.dim}")
        self.points = points
        self.relation = relation
        self.masks: dict[tuple, tuple[int, int]] = {}
        self.evaluations = 0

    def member(self, indices: tuple) -> bool:
        if not indices or not 1 <= indices[-1] <= len(self.points):
            # No bit to read: eval_membership refuses every such tuple.
            return eval_membership(self.relation, self.points, indices)
        return bool(self.above(indices[:-1], 1 << indices[-1]))

    def above(self, prefix: tuple, within: int) -> int:
        """Bitmask with bit c set for each point index c in the bitmask
        `within` such that prefix + (c,) is in the relation; prefix has k-1
        entries and `within` only indices after prefix[-1].  Each tuple is
        evaluated once: the mask of every prefix is kept with the bits it
        is known on."""
        known, mask = self.masks.get(prefix, (0, 0))
        todo = within & ~known
        if todo:
            self.evaluations += todo.bit_count()
            relation, points = self.relation, self.points
            while todo:
                low = todo & -todo
                todo ^= low
                if eval_membership(relation, points,
                                   prefix + (low.bit_length() - 1,)):
                    mask |= low
            self.masks[prefix] = (known | within, mask)
        return mask & within

    def polarity(self, subset: tuple):
        """("in" | "out", None) when all k-tuples of the increasing subset
        fall on one side (subsets smaller than k are "in"), else
        (None, the first k-tuple on the other side from the first one)."""
        tuples = itertools.combinations(subset, self.relation.arity)
        first = next(tuples, None)
        if first is None:
            return "in", None
        want = self.member(first)
        for tup in tuples:
            if self.member(tup) != want:
                return None, tup
        return ("in" if want else "out"), None


def max_homogeneous(points: OrderedPointSet, relation: SemiAlgebraicRelation,
                    budget: int = 10 ** 6) -> HomogeneousResult:
    """Maximum homogeneous subset by branch and bound over both polarities.

    The search runs once per polarity, "in" then "out", and grows an
    increasing subset `current` one point at a time.  It carries its
    candidates as an int bitmask (bit c for point c): the points after the
    last one chosen that keep every k-tuple of `current` + (c,) on the
    chosen side.  When v joins `current`, the later candidates are cut to
    oracle.above(S + (v,), candidates), or to the rest of them for "out",
    for each (k-2)-subset S of the earlier points; S + (v,) are the only
    new (k-1)-prefixes.  Candidates are taken lowest bit first, and a branch
    is pruned when |current| + popcount(candidates) cannot beat the best
    subset found.

    At arity k >= 2, a node with at least k-2 chosen points is first
    bounded by colouring (Carraghan-Pardalos; Tomita-Seki).  With T the
    last k-2 of them, two candidates a < b are adjacent when T + (a, b) is
    on the searched side, read through oracle.above(T + (a,), ...).  Every
    homogeneous extension of `current` is a clique of that graph, so the
    number of colours of a greedy colouring (lowest bit first) bounds it,
    and the node is pruned when |current| plus that number cannot beat the
    best subset found.  A valid bound only skips branches that cannot
    strictly improve on the best subset, so the result is the first
    maximum in search order ("in" before "out") whatever the bound; only
    the counters depend on it.

    If the node budget runs out the best subset found so far is returned
    with stats["maximum"] set to False (it is still a certified homogeneous
    subset).  stats also counts the nodes visited (at most the budget), the
    popcount prunes ("prunes"), the colouring prunes ("colour_prunes") and
    the distinct tuples evaluated ("evaluations", MembershipOracle's count).
    """
    n = len(points)
    k = relation.arity
    if n < 1:
        raise ArgumentError("empty point set")
    if budget < 0:
        raise ArgumentError("budget must be at least 0")
    oracle = MembershipOracle(points, relation)
    above = oracle.above
    nodes = prunes = colour_prunes = 0
    exhausted = False

    def search(want: bool) -> tuple:
        nonlocal nodes, prunes, colour_prunes, exhausted
        best: tuple = ()

        def colours(link: tuple, uncoloured: int, room: int) -> int:
            """Colours of the greedy colouring of the link graph of `link`
            on the bitmask `uncoloured`, or room + 1 as soon as room
            colour classes leave a point uncoloured."""
            used = 0
            while uncoloured:
                if used == room:
                    return room + 1
                used += 1
                free = uncoloured
                while free:
                    low = free & -free
                    free ^= low
                    uncoloured ^= low
                    if free:
                        mask = above(link + (low.bit_length() - 1,), free)
                        free = free ^ mask if want else mask
            return used

        def extend(current: list[int], candidates: int):
            nonlocal best, nodes, prunes, colour_prunes, exhausted
            if nodes >= budget:
                exhausted = True
                return
            nodes += 1
            if len(current) > len(best):
                best = tuple(current)
            room = len(best) - len(current)
            if (k > 1 and len(current) >= k - 2
                    and candidates.bit_count() > room
                    and colours(tuple(current[len(current) - k + 2:]),
                                candidates, room) <= room):
                colour_prunes += 1
                return
            while candidates:
                if len(current) + candidates.bit_count() <= len(best):
                    prunes += 1
                    break
                if exhausted:
                    return
                low = candidates & -candidates
                candidates ^= low
                v = low.bit_length() - 1
                child = candidates
                if k > 1:
                    for s in itertools.combinations(current, k - 2):
                        if not child:
                            break
                        mask = above(s + (v,), child)
                        child = mask if want else child ^ mask
                extend(current + [v], child)

        candidates = (1 << (n + 1)) - 2
        if k == 1:
            mask = above((), candidates)
            candidates = mask if want else candidates ^ mask
        extend([], candidates)
        return best

    best_in = search(True)
    best_out = search(False)
    if len(best_in) >= len(best_out):
        subset, polarity = best_in, "in"
    else:
        subset, polarity = best_out, "out"
    certified = oracle.polarity(subset)[0] == polarity
    return HomogeneousResult(
        subset=subset,
        polarity=polarity,
        certified=certified,
        stats={"nodes": nodes, "prunes": prunes,
               "colour_prunes": colour_prunes,
               "evaluations": oracle.evaluations, "maximum": not exhausted,
               "method": "branch-and-bound"},
    )


def homogeneous_check(points: OrderedPointSet, relation: SemiAlgebraicRelation,
                      subset: Sequence[int]):
    """Polarity of a subset if homogeneous, else (None, witness) where the
    witness is a k-tuple of the subset on the other side from its first
    k-tuple."""
    return MembershipOracle(points, relation).polarity(tuple(sorted(subset)))


# -- greedy extraction --------------------------------------------------------


def erdos_rado_greedy(points: OrderedPointSet, relation: SemiAlgebraicRelation,
                      budget: int = 10 ** 6) -> HomogeneousResult:
    """Greedy homogeneous-subset extraction for arity >= 3.

    One pass: seed the first k-2 points, then repeatedly take the smallest-
    indexed survivor q and split the rest by the truth values of every atom
    polynomial restricted at (each (k-2)-subset of chosen points, q, .),
    keeping a largest class (ties to the one holding the smallest index).
    Fixing the last chosen point in the final slot then drops the arity by
    one; at arity 2 an exact budgeted search finishes the job.  The returned
    subset is re-certified exhaustively against the original relation.

    The pass runs on the scaled point set (OrderedPointSet.scaled) and the
    relation's integer forms, so every restriction and every sign is
    computed in ints.  stats counts the restrictions and the sign
    evaluations of the class splits.
    """
    oracle = MembershipOracle(points, relation)
    k = relation.arity
    if k < 3:
        raise ArgumentError("greedy extraction needs arity at least 3")
    if len(points) < k:
        raise ArgumentError("need at least arity many points")
    if budget < 0:
        raise ArgumentError("budget must be at least 0")

    scale, scaled = points.scaled()
    stats = {"classes_per_level": [], "restrictions": 0, "sign_evaluations": 0}
    forms = [p.integer_form().restrict({p.num_vars: scale})
             for p in relation.polys]
    subset = _greedy_level(list(scaled), list(range(1, len(points) + 1)),
                           forms, relation, k, budget, stats)
    subset = tuple(sorted(subset))

    polarity, witness = oracle.polarity(subset)
    if polarity is None:
        raise AssertionError(
            f"greedy produced a non-homogeneous subset, witness {witness}")
    stats["method"] = "greedy"
    return HomogeneousResult(
        subset=subset,
        polarity=polarity,
        certified=True,
        stats=stats,
    )


def _greedy_level(coords: list, indices: list[int], forms: list[IntegerForm],
                  relation: SemiAlgebraicRelation, k: int, budget: int,
                  stats: dict) -> list[int]:
    """One arity level of the greedy recursion on integer points, with
    `forms` the relation's integer forms with all but the first k slots
    fixed; returns original indices."""
    d = relation.point_dim
    if k == 2:
        lower = SemiAlgebraicRelation(
            2, d, [MultivariatePolynomial(f.num_vars, f.terms) for f in forms],
            relation.formula)
        res = max_homogeneous(OrderedPointSet(d, coords), lower, budget=budget)
        return [indices[i - 1] for i in res.subset]

    def restrict(form: IntegerForm, fixed: dict) -> IntegerForm:
        stats["restrictions"] += 1
        return form.restrict(fixed)

    chosen: list[int] = list(range(k - 2))       # positions into coords
    survivors = list(range(k - 2, len(coords)))
    level_log: list[int] = []

    # cache[(poly, prefix-positions)] = form with the first k-2 slots fixed,
    # leaving the last two slots (2d variables) free
    prefix_cache: dict[tuple, IntegerForm] = {}

    def prefix_restricted(pi: int, prefix: tuple) -> IntegerForm:
        key = (pi, prefix)
        got = prefix_cache.get(key)
        if got is None:
            fixed = {slot * d + c: v for slot, pos in enumerate(prefix)
                     for c, v in enumerate(coords[pos])}
            got = prefix_cache[key] = restrict(forms[pi], fixed)
        return got

    # The distinct atoms grouped by polynomial, in (poly_index, cmp) order,
    # with their truth values indexed by sign: truths[s] for s in 0, 1, -1.
    atoms_by_poly: dict[int, list[Atom]] = {}
    for atom in sorted(set(relation.formula.atoms()),
                       key=lambda a: (a.poly_index, a.cmp)):
        atoms_by_poly.setdefault(atom.poly_index, []).append(atom)
    truths_by_poly = {pi: tuple(tuple(a.holds(s) for a in atoms)
                                for s in (0, 1, -1))
                      for pi, atoms in atoms_by_poly.items()}

    while survivors:
        q = survivors.pop(0)
        chosen.append(q)
        if not survivors:
            break
        # Signature of a survivor w: truth of every atom of the relation
        # restricted at ((k-2)-subset of earlier chosen, q, w).  A form
        # without variables has one sign for every w and splits no class,
        # so it is left out.
        restricted: list[tuple[IntegerForm, tuple]] = []
        fixed = dict(enumerate(coords[q]))
        for prefix in itertools.combinations(chosen[:-1], k - 2):
            for pi, truths in truths_by_poly.items():
                form = restrict(prefix_restricted(pi, prefix), fixed)
                if any(any(e) for e in form.terms):
                    restricted.append((form, truths))
        # One truth column per restricted form over all survivors, zipped
        # into the survivors' signatures; with no form, one class of ().
        rows = [coords[w] for w in survivors]
        columns = [list(map(truths.__getitem__, form.signs(rows)))
                   for form, truths in restricted]
        groups: dict[tuple, list[int]] = {}
        for w, sig in zip(survivors,
                          zip(*columns) if columns else itertools.repeat(())):
            groups.setdefault(sig, []).append(w)
        stats["sign_evaluations"] += len(survivors) * len(restricted)
        level_log.append((len(chosen) - 1, len(groups)))
        survivors = max(groups.values(), key=lambda g: (len(g), -g[0]))

    stats["classes_per_level"].append(level_log)

    # Fix the last chosen point into the final slot: arity drops by one.
    last = chosen[-1]
    rest = chosen[:-1]
    fixed = {(k - 1) * d + c: v for c, v in enumerate(coords[last])}
    inner = _greedy_level([coords[i] for i in rest],
                          [indices[i] for i in rest],
                          [restrict(f, fixed) for f in forms], relation,
                          k - 1, budget, stats)
    return inner + [indices[last]]


def greedy_class_bound_check(relation: SemiAlgebraicRelation,
                             classes_at_step: int, chosen: int) -> bool | None:
    """Compare an observed class count at a greedy step against the sign-
    pattern bound for the restricted family (None when the bound's
    hypotheses do not apply)."""
    k = relation.arity
    d = relation.point_dim
    t = len(relation.polys)
    family = t * math.comb(chosen, k - 2)
    deg = max((p.degree() for p in relation.polys), default=0)
    if d < 2 or family < d or deg < 1:
        return None
    return classes_at_step <= milnor_thom_bound(deg, family, d)


# -- monotone subsequences ----------------------------------------------------


def longest_monotone_subsequence(values: Sequence) -> list:
    """Longest strictly increasing or strictly decreasing subsequence
    (the longer of the two) by exact dynamic programming.

    Entries must be distinct.  Always at least ceil(sqrt(len(values))) long.
    """
    vals = [v if isinstance(v, (int, Fraction)) else Fraction(v)
            for v in values]
    if len(set(vals)) != len(vals):
        raise ArgumentError("entries must be distinct")
    if not vals:
        return []

    def longest(cmp) -> list:
        n = len(vals)
        length = [1] * n
        prev = [-1] * n
        for i in range(n):
            for j in range(i):
                if cmp(vals[j], vals[i]) and length[j] + 1 > length[i]:
                    length[i] = length[j] + 1
                    prev[i] = j
        end = max(range(n), key=lambda i: length[i])
        out = []
        while end != -1:
            out.append(vals[end])
            end = prev[end]
        return out[::-1]

    inc = longest(lambda a, b: a < b)
    dec = longest(lambda a, b: a > b)
    return inc if len(inc) >= len(dec) else dec


# -- transitive Ramsey --------------------------------------------------------


@dataclass
class TransitiveColoring:
    """2-coloring of the triples of 1..n, transitive when any two triples
    (i1,i2,i3), (i2,i3,i4) of one color force (i1,i2,i4) and (i1,i3,i4)
    into that color."""
    n: int
    colors: dict  # sorted triple -> "red" | "blue"

    def color(self, triple) -> str:
        return self.colors[tuple(sorted(triple))]

    def is_transitive(self) -> bool:
        for quad in itertools.combinations(range(1, self.n + 1), 4):
            i1, i2, i3, i4 = quad
            c = self.colors.get((i1, i2, i3))
            if c is not None and c == self.colors.get((i2, i3, i4)):
                if (self.colors.get((i1, i2, i4)) != c
                        or self.colors.get((i1, i3, i4)) != c):
                    return False
        return True

    def monochromatic_subset(self, size: int, color: str):
        need = math.comb(size, 3)
        for sub in itertools.combinations(range(1, self.n + 1), size):
            if need == 0 or all(self.colors[t] == color
                                for t in itertools.combinations(sub, 3)):
                return sub
        return None


def transitive_ramsey_number(s: int, n: int) -> int:
    """Least N such that every transitive 2-coloring of triples of 1..N has
    a red clique of size s or a blue clique of size n:
    binomial(s + n - 4, s - 2) + 1."""
    if s < 3 or n < 3:
        raise ArgumentError("both clique sizes must be at least 3")
    return math.comb(s + n - 4, s - 2) + 1


def verify_transitive_ramsey(s: int, n: int, N: int,
                             budget: int = 10 ** 7):
    """Check whether every transitive coloring of triples of 1..N contains a
    red K_s or blue K_n, by backtracking over transitivity-consistent
    colorings with early pruning of completed monochromatic cliques.

    Returns (True, None) or (False, witness_coloring).  Raises
    BudgetExhaustedError when the node budget runs out (inconclusive).
    """
    if s < 3 or n < 3:
        raise ArgumentError("both clique sizes must be at least 3")
    if N < 1:
        raise ArgumentError("N must be positive")
    if budget < 0:
        raise ArgumentError("budget must be at least 0")
    triples = list(itertools.combinations(range(1, N + 1), 3))
    colors: dict[tuple, str] = {}
    nodes = 0

    def consistent_after(t: tuple, c: str) -> bool:
        # The triple t = (i2, i3, i4) is the lexicographically largest of its
        # 4-sets {i1 < i2 < i3 < i4}; check those transitivity constraints.
        i2, i3, i4 = t
        for i1 in range(1, i2):
            a = colors.get((i1, i2, i3))
            if a == c:
                if colors.get((i1, i2, i4)) != c or colors.get((i1, i3, i4)) != c:
                    return False
        return True

    def completes_clique(t: tuple, c: str, size: int) -> bool:
        if math.comb(size, 3) > len(colors) + 1:
            return False
        others = [v for v in range(1, N + 1) if v not in t]
        for extra in itertools.combinations(others, size - 3):
            group = tuple(sorted(t + extra))
            if all(colors.get(tr) == c or tr == t
                   for tr in itertools.combinations(group, 3)):
                return True
        return False

    def assign(pos: int):
        nonlocal nodes
        if pos == len(triples):
            coloring = TransitiveColoring(N, dict(colors))
            if (coloring.monochromatic_subset(s, "red") is None
                    and coloring.monochromatic_subset(n, "blue") is None):
                return coloring
            return None
        t = triples[pos]
        for c, limit in (("red", s), ("blue", n)):
            nodes += 1
            if nodes > budget:
                raise BudgetExhaustedError(
                    f"transitive-coloring search exceeded {budget} nodes")
            if not consistent_after(t, c):
                continue
            if completes_clique(t, c, limit):
                continue
            colors[t] = c
            found = assign(pos + 1)
            if found is not None:
                return found
            del colors[t]
        return None

    witness = assign(0)
    if witness is None:
        return True, None
    return False, witness


# -- 3-uniform hypergraphs ----------------------------------------------------


@dataclass
class Hypergraph3:
    """3-uniform hypergraph on vertices 1..n."""
    n: int
    edges: frozenset

    @classmethod
    def make(cls, n: int, edges) -> "Hypergraph3":
        if type(n) is not int or n < 1:
            raise ArgumentError(f"vertex count must be an int of at least 1, got {n!r}")
        clean = set()
        for e in edges:
            if any(type(v) is not int for v in e):
                raise ArgumentError(f"edge {e} has a vertex that is not an int")
            t = tuple(sorted(e))
            if len(t) != 3 or len(set(t)) != 3:
                raise ArgumentError(f"edge {e} is not a 3-set")
            if not all(1 <= v <= n for v in t):
                raise ArgumentError(f"edge {e} out of vertex range")
            clean.add(t)
        return cls(n, frozenset(clean))

    def is_independent(self, vertices) -> bool:
        vs = set(vertices)
        return not any(set(e) <= vs for e in self.edges)


def spencer_independent_set(graph: Hypergraph3, seed: int = 0,
                            max_rounds: int = 10 ** 4) -> tuple[list[int], dict]:
    """Deletion-method independent set of size at least
    (2N/3) * sqrt(N / (3|E|)) for hypergraphs with |E| >= N/3.

    Samples vertices with probability sqrt(N / (3|E|)), deletes one vertex of
    every surviving edge, and retries with fresh seeded randomness until the
    exact integer comparison 27 * |S|^2 * |E| >= 4 * N^3 certifies the bound
    (at most max_rounds attempts).  Returns (vertices, stats).
    """
    if max_rounds < 1:
        raise ArgumentError("max_rounds must be at least 1")
    n = graph.n
    m = len(graph.edges)
    if m * 3 < n:
        raise PreconditionError(
            f"needs at least N/3 edges, got {m} for N = {n}")
    p = math.sqrt(n / (3 * m))
    rng = SeededRng(seed)
    for round_no in range(1, max_rounds + 1):
        sampled = {v for v in range(1, n + 1) if rng.random() < p}
        surviving = [e for e in graph.edges if set(e) <= sampled]
        for e in sorted(surviving):
            if set(e) <= sampled:
                sampled.discard(max(e))
        result = sorted(sampled)
        assert graph.is_independent(result)
        if 27 * len(result) ** 2 * m >= 4 * n ** 3:
            return result, {"rounds": round_no, "probability": p,
                            "bound_check": f"27*{len(result)}^2*{m} >= 4*{n}^3"}
    raise ResourceLimitError(
        f"no round out of {max_rounds} met the deletion bound")


def is_Ks3_free(points: OrderedPointSet, relation: SemiAlgebraicRelation,
                s: int):
    """No s points with all triples in the relation.  (True, None) or
    (False, witness_subset)."""
    if relation.arity != 3:
        raise ArgumentError("clique freeness is for ternary relations")
    if s < 3:
        raise ArgumentError("clique size must be at least 3")
    member = MembershipOracle(points, relation).member
    for sub in itertools.combinations(range(1, len(points) + 1), s):
        if all(member(t) for t in itertools.combinations(sub, 3)):
            return False, sub
    return True, None


def is_K4e_free(points: OrderedPointSet, relation: SemiAlgebraicRelation):
    """Every 4 points induce at most two member triples.  (True, None) or
    (False, witness_quad)."""
    if relation.arity != 3:
        raise ArgumentError("this freeness notion is for ternary relations")
    member = MembershipOracle(points, relation).member
    for quad in itertools.combinations(range(1, len(points) + 1), 4):
        if sum(member(t) for t in itertools.combinations(quad, 3)) > 2:
            return False, quad
    return True, None


def find_bad_triples(points: OrderedPointSet, relation: SemiAlgebraicRelation):
    """Index triples where a defining polynomial, restricted through two of
    the points, vanishes at the third.

    For each index pair a < b, each atom polynomial is pinned at (p_a, p_b)
    in each of the three slot pairs; identically-zero restrictions impose no
    roots and are skipped but reported.  A triple is bad when any surviving
    univariate polynomial vanishes at a third point.  Returns
    (sorted_bad_triples, skipped_zero_restrictions).  The integer forms
    are pinned at L = M of the scaled points (OrderedPointSet.scaled), and
    x -> x/M keeps zero polynomials, degrees and signs.
    """
    if relation.arity != 3 or relation.point_dim != 1:
        raise ArgumentError("bad triples are defined for ternary relations on the line")
    n = len(points)
    scale, scaled = points.scaled()
    vals = [x for x, in scaled]
    forms = [p.integer_form().restrict({3: scale}) for p in relation.polys]
    bad: set[tuple] = set()
    skipped: list[tuple] = []
    slot_pairs = (((1, 2), 0), ((0, 2), 1), ((0, 1), 2))  # fixed slots, free slot
    for a in range(n):
        for b in range(a + 1, n):
            family = []
            for pi, form in enumerate(forms):
                for fixed_slots, free in slot_pairs:
                    restricted = form.restrict({fixed_slots[0]: vals[a],
                                                fixed_slots[1]: vals[b]})
                    if not restricted.terms:
                        skipped.append((a + 1, b + 1, pi, free))
                        continue
                    if not any(e[0] for e in restricted.terms):
                        continue
                    family.append(restricted)
            for f in family:
                for c, s in enumerate(f.signs(scaled)):
                    if not s and c != a and c != b:
                        bad.add(tuple(sorted((a + 1, b + 1, c + 1))))
    return sorted(bad), skipped
