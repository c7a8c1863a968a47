"""Homogeneous-subset solvers and the combinatorial checks beside them.

max_homogeneous is an exact branch-and-bound over both polarities, with
its candidate sets kept as int bitmasks.
erdos_rado_greedy is the recursive class-refinement extraction: it seeds
k-2 points, repeatedly keeps the largest membership-signature class, and
recurses at one lower arity with the last chosen point fixed in the
relation's integer forms (at arity 2, the exact search's polynomials),
certifying the final subset against the original relation.
The rest are the side results the CLI and the acceptance checks read: the
longest monotone subsequence (Erdos-Szekeres), transitive-coloring Ramsey
thresholds with their exhaustive verification (a witness coloring is a
dict, sorted triple -> color), and deletion-method independent sets in
3-uniform hypergraphs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import (MAX_PAIRS, MAX_ROUNDS, MAX_TUPLES, ArgumentError,
                     BudgetExhaustedError, PreconditionError, ResourceLimitError)
from .poly import MultivariatePolynomial, _coef, _int_signs
from .relation import (Atom, OrderedPointSet, SemiAlgebraicRelation,
                       _check_spaces, eval_membership)
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
    """Membership of index tuples of one point set in one relation, for a
    search that reads many of them.

    The point set and the relation must live in the same space; that is
    checked once, here.  above() and below() then read the relation's
    decider without a per-tuple check: their callers pass only increasing
    tuples of the point set.  Membership is memoized in two layouts, each
    a bitmask per (k-1)-tuple: per prefix, with the varying point last
    (above), and per suffix, with the varying point first (below).  A
    tuple below() does not know yet is looked up in the prefix memo before
    the decider is read, so when every above() read comes first, as in
    max_homogeneous, `evaluations` counts each distinct tuple once.
    polarity() is the homogeneity check every solver certifies with, and
    reads each k-tuple through eval_membership, independently of the memos.
    """

    def __init__(self, points: OrderedPointSet,
                 relation: SemiAlgebraicRelation):
        _check_spaces(relation, points)
        self.points = points
        self.relation = relation
        self.masks: dict[tuple, tuple[int, int]] = {}
        self.suffix_masks: dict[tuple, tuple[int, int]] = {}
        self.evaluations = 0
        self._layout = None

    def _first_read(self) -> tuple:
        """(decide, M, rows [*X_c, M], rows [*X_c]) of the points X_c / M,
        taken on the first read and kept (`OrderedPointSet.scaled` refuses
        M above MAX_BITS bits).  Bit c of a mask is point c, at row c - 1."""
        scale, scaled = self.points.scaled()
        self._layout = (self.relation.decider(), scale,
                        [[*x, scale] for x in scaled],
                        [list(x) for x in scaled])
        return self._layout

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
            decide, _, lasts, firsts = self._layout or self._first_read()
            coords = [x for i in prefix for x in firsts[i - 1]]
            while todo:
                low = todo & -todo
                todo ^= low
                if decide(coords + lasts[low.bit_length() - 2]):
                    mask |= low
            self.masks[prefix] = (known | within, mask)
        return mask & within

    def below(self, suffix: tuple, within: int) -> int:
        """Bitmask with bit c set for each point index c in the bitmask
        `within` such that (c,) + suffix is in the relation; suffix has k-1
        entries and `within` only indices before suffix[0].  The mask of
        every suffix is kept with the bits it is known on, and a bit it
        does not know is first looked up in the prefix memo of above(),
        under the prefix (c,) + suffix[:-1] and the bit suffix[-1]."""
        known, mask = self.suffix_masks.get(suffix, (0, 0))
        todo = within & ~known
        if todo:
            masks = self.masks
            if not suffix:  # arity 1: both memos are keyed by ()
                prefix_known, prefix_mask = masks.get((), (0, 0))
                unread = todo & ~prefix_known
                mask |= todo & prefix_mask
            else:
                head, last = suffix[:-1], 1 << suffix[-1]
                unread = 0
                rest = todo
                while rest:
                    low = rest & -rest
                    rest ^= low
                    prefix_known, prefix_mask = masks.get(
                        (low.bit_length() - 1,) + head, (0, 0))
                    if not prefix_known & last:
                        unread |= low
                    elif prefix_mask & last:
                        mask |= low
            if unread:
                self.evaluations += unread.bit_count()
                decide, scale, _, firsts = self._layout or self._first_read()
                coords = [x for i in suffix for x in firsts[i - 1]] + [scale]
                while unread:
                    low = unread & -unread
                    unread ^= low
                    if decide(firsts[low.bit_length() - 2] + coords):
                        mask |= low
            self.suffix_masks[suffix] = (known | within, mask)
        return mask & within

    def polarity(self, subset: tuple):
        """("in" | "out", None) when all k-tuples of the increasing subset
        fall on one side (subsets smaller than k are "in"), else
        (None, the first k-tuple on the other side from the first one).
        Each k-tuple is read through eval_membership, not the memo."""
        relation, points = self.relation, self.points
        tuples = itertools.combinations(subset, relation.arity)
        first = next(tuples, None)
        if first is None:
            return "in", None
        want = eval_membership(relation, points, first)
        for tup in tuples:
            if eval_membership(relation, points, tup) != want:
                return None, tup
        return ("in" if want else "out"), None


def max_homogeneous(points: OrderedPointSet, relation: SemiAlgebraicRelation,
                    budget: int = 10 ** 6) -> HomogeneousResult:
    """Maximum homogeneous subset by branch and bound over both polarities.

    The search runs once per polarity, "in" then "out", each in its own
    order: "in" grows an increasing subset `current` one point at a time,
    lowest index first, and "out" a decreasing one, highest index first.
    (Vertex order drives the bounds below, and on base(n), whose mirror
    image swaps the sides up to ties, the short proof of each side runs in
    that side's order.)  Each carries its candidates as an int bitmask (bit
    c for point c): the points after the last one chosen, in search order,
    that keep every k-tuple of `current` and c on the searched side.  When
    v joins `current`, then for each (k-2)-subset S of the earlier points,
    taken increasing, "in" cuts the candidates to
    oracle.above(S + (v,), candidates) and "out" drops the bits of
    oracle.below((v,) + S, candidates); these are the only new
    (k-1)-tuples.  A branch is pruned when
    |current| + popcount(candidates) cannot beat the best subset found.

    At arity k >= 2, a node with at least k-2 chosen points is first
    bounded by colouring (Carraghan-Pardalos; Tomita-Seki).  With T the
    last k-2 of them, two candidates a before b in search order are
    adjacent when the k-tuple of T, a and b is on the searched side, read
    through oracle.above(T + (a,), ...) or oracle.below((a,) + T, ...).
    Every homogeneous extension of `current` is a clique of that graph, so
    the number of colours of a greedy colouring (in search order) bounds
    it, and the node is pruned when |current| plus that number cannot beat
    the best subset found.  A valid bound only skips branches that cannot
    strictly improve on the best subset, so each side's result is its
    first maximum in its own search order whatever the bound, and the
    larger side wins, "in" on a tie; only the counters depend on the
    bound.  The node budget is shared: "out" gets what "in" left.

    Membership is read through one MembershipOracle, which checks the
    point set, the relation and the scale once and then reads the
    relation's decider directly, each tuple once: "out" first looks up
    what "in" has read.  The subset returned is certified through
    MembershipOracle.polarity, which reads each of its k-tuples through the
    checked eval_membership, independently of the search's reads; a
    certificate that disagrees with the search raises AssertionError, as in
    erdos_rado_greedy (a bug, never a verdict).

    If the node budget runs out the best subset found so far is returned
    with stats["maximum"] set to False (it is still a certified homogeneous
    subset).  stats also counts the nodes visited (at most the budget), the
    popcount prunes ("prunes"), the colouring prunes ("colour_prunes") and
    the distinct tuples the search evaluated ("evaluations",
    MembershipOracle's count, which leaves out the certification).
    """
    n = len(points)
    k = relation.arity
    if n < 1:
        raise ArgumentError("empty point set")
    if budget < 0:
        raise ArgumentError("budget must be at least 0")
    oracle = MembershipOracle(points, relation)
    above, below = oracle.above, oracle.below
    nodes = prunes = colour_prunes = 0
    exhausted = False

    def search(want: bool) -> tuple:
        """The first maximum on one side: "in" (want) takes the lowest
        candidate first and reads prefixes through above(), "out" the
        highest first and reads suffixes through below()."""
        nonlocal nodes, prunes, colour_prunes, exhausted
        best: tuple = ()
        step = 1 if want else -1  # reads `current` in increasing order

        def colours(link: tuple, uncoloured: int, room: int) -> int:
            """Colours of the greedy colouring of the link graph of `link`
            on the bitmask `uncoloured`, in search order, or room + 1 as
            soon as room colour classes leave a point uncoloured."""
            used = 0
            while uncoloured:
                if used == room:
                    return room + 1
                used += 1
                free = uncoloured
                while free:
                    if want:
                        bit = free & -free
                        free ^= bit
                        uncoloured ^= bit
                        if free:
                            free ^= above(link + (bit.bit_length() - 1,),
                                          free)
                    else:
                        a = free.bit_length() - 1
                        free ^= 1 << a
                        uncoloured ^= 1 << a
                        if free:
                            free = below((a,) + link, free)
            return used

        def extend(current: list[int], candidates: int):
            # current is in search order: increasing for "in", decreasing
            # for "out".
            nonlocal best, nodes, prunes, colour_prunes, exhausted
            if nodes >= budget:
                exhausted = True
                return
            nodes += 1
            if len(current) > len(best):
                best = tuple(current[::step])
            room = len(best) - len(current)
            if (k > 1 and len(current) >= k - 2
                    and candidates.bit_count() > room
                    and colours(tuple(current[len(current) - k + 2:][::step]),
                                candidates, room) <= room):
                colour_prunes += 1
                return
            while candidates:
                if len(current) + candidates.bit_count() <= len(best):
                    prunes += 1
                    break
                if exhausted:
                    return
                if want:
                    bit = candidates & -candidates
                    v = bit.bit_length() - 1
                else:
                    v = candidates.bit_length() - 1
                    bit = 1 << v
                candidates ^= bit
                child = candidates
                if k > 1:
                    for s in itertools.combinations(current, k - 2):
                        if not child:
                            break
                        if want:
                            child = above(s + (v,), child)
                        else:
                            child ^= below((v,) + s[::-1], child)
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
    read, witness = oracle.polarity(subset)
    if read != polarity:
        raise AssertionError(
            f"branch and bound produced a subset whose certificate reads "
            f"{read}, not {polarity}, witness {witness}")
    return HomogeneousResult(
        subset=subset,
        polarity=polarity,
        certified=True,
        stats={"nodes": nodes, "prunes": prunes,
               "colour_prunes": colour_prunes,
               "evaluations": oracle.evaluations, "maximum": not exhausted,
               "method": "branch-and-bound"},
    )


# -- greedy extraction --------------------------------------------------------


def erdos_rado_greedy(points: OrderedPointSet, relation: SemiAlgebraicRelation
                      ) -> HomogeneousResult:
    """Greedy homogeneous-subset extraction for arity >= 3.

    One pass: seed the first k-2 points, then repeatedly take the smallest-
    indexed survivor q and split the rest by the truth values of every atom
    polynomial restricted at (each (k-2)-subset of chosen points, q, .),
    keeping a largest class (ties to the one holding the smallest index).
    Fixing the last chosen point in the final slot then drops the arity by
    one; at arity 2 the exact search (max_homogeneous, default budget)
    finishes the job.  The returned subset is re-certified exhaustively
    against the original relation.

    The pass runs on the scaled point set (OrderedPointSet.scaled) and the
    relation's integer forms, so every restriction and every sign is
    computed in ints.  Each level restricts a polynomial through one plan
    (MultivariatePolynomial.plan), read in each split once per distinct
    tuple of the chosen points at the slots the polynomial reads: prefixes
    that differ only in slots it does not read give it the same form, and
    so the same truth column.  stats counts the restrictions (the plan
    reads made, plus the forms fixed each time the arity drops) and the
    sign evaluations of the class splits.
    """
    oracle = MembershipOracle(points, relation)
    k = relation.arity
    if k < 3:
        raise ArgumentError("greedy extraction needs arity at least 3")
    if len(points) < k:
        raise ArgumentError("need at least arity many points")

    scale, scaled = points.scaled()
    stats = {"classes_per_level": [], "restrictions": 0, "sign_evaluations": 0}
    forms = [p.integer_form().restrict({p.num_vars: scale})
             for p in relation.polys]
    subset = _greedy_level(list(scaled), list(range(1, len(points) + 1)),
                           forms, relation, k, stats)
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


def _greedy_level(coords: list, indices: list[int],
                  forms: list[MultivariatePolynomial],
                  relation: SemiAlgebraicRelation, k: int,
                  stats: dict) -> list[int]:
    """One arity level of the greedy recursion on integer points, with
    `forms` the relation's integer forms with all but the first k slots
    fixed; returns original indices."""
    d = relation.point_dim
    if k == 2:
        lower = SemiAlgebraicRelation(2, d, forms, relation.formula)
        res = max_homogeneous(OrderedPointSet(d, coords), lower)
        return [indices[i - 1] for i in res.subset]

    chosen: list[int] = list(range(k - 2))       # positions into coords
    survivors = list(range(k - 2, len(coords)))
    level_log: list[int] = []

    # The distinct atoms grouped by polynomial, in (poly_index, cmp) order,
    # with their truth values indexed by sign: truths[s] for s in 0, 1, -1.
    atoms_by_poly: dict[int, list[Atom]] = {}
    for atom in sorted(set(relation.formula.atoms()),
                       key=lambda a: (a.poly_index, a.cmp)):
        atoms_by_poly.setdefault(atom.poly_index, []).append(atom)
    truths_by_poly = {pi: tuple(tuple(a.holds(s) for a in atoms)
                                for s in (0, 1, -1))
                      for pi, atoms in atoms_by_poly.items()}
    # One restriction plan per polynomial with an atom: its first k-1
    # slots fixed, read at each ((k-2)-subset of chosen, q), leaving w;
    # with the subset slots j < k-2 whose variables j*d .. (j+1)*d-1 it
    # reads (q is the same for a whole split).
    plans = [(forms[pi].plan(range((k - 1) * d)), truths,
              sorted({v // d for e in forms[pi].terms
                      for v, x in enumerate(e[:(k - 2) * d]) if x}))
             for pi, truths in truths_by_poly.items()]

    while survivors:
        q = survivors.pop(0)
        chosen.append(q)
        if not survivors:
            break
        # Signature of a survivor w: truth of every atom of the relation
        # restricted at ((k-2)-subset of earlier chosen, q, w).  A form
        # without variables has one sign for every w and splits no class,
        # so it is left out.  A plan restricts to the same form at prefixes
        # that agree on the slots it reads, and a repeated column splits
        # nothing, so each plan is read once per tuple of those positions.
        restricted: list[tuple[MultivariatePolynomial, tuple]] = []
        seen: set[tuple] = set()
        for prefix in itertools.combinations(chosen[:-1], k - 2):
            values = [v for pos in (*prefix, q) for v in coords[pos]]
            for number, (read, truths, reads) in enumerate(plans):
                key = (number, *[prefix[j] for j in reads])
                if key in seen:
                    continue
                seen.add(key)
                form = read(values)
                stats["restrictions"] += 1
                if any(any(e) for e in form.terms):
                    restricted.append((form, truths))
        # One truth column per restricted form over all survivors, zipped
        # into the survivors' signatures; with no form, one class of ().
        signs = _int_signs([form for form, _ in restricted],
                           [coords[w] for w in survivors])
        columns = [[truths[s] for s in column]
                   for column, (_, truths) in zip(signs, restricted)]
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
    stats["restrictions"] += len(forms)
    inner = _greedy_level([coords[i] for i in rest],
                          [indices[i] for i in rest],
                          [f.restrict(fixed) for f in forms], relation,
                          k - 1, stats)
    return inner + [indices[last]]


# -- monotone subsequences ----------------------------------------------------


def longest_monotone_subsequence(values: Sequence) -> list:
    """Longest strictly increasing or strictly decreasing subsequence
    (the longer of the two) by exact dynamic programming.

    Entries must be distinct ints or Fractions.  Always at least
    ceil(sqrt(len(values))) long.  The DP compares every pair, so more than
    MAX_PAIRS pairs are refused before the first comparison.
    """
    if math.comb(len(values), 2) > MAX_PAIRS:
        raise ResourceLimitError(
            f"C({len(values)}, 2) pairs of values exceed cap {MAX_PAIRS}")
    vals = [_coef(v) for v in values]
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

    Returns (True, None) or (False, colors), where the witness colors maps
    each sorted triple to "red" or "blue", is transitive (any two triples
    (i1,i2,i3), (i2,i3,i4) of one color force (i1,i2,i4) and (i1,i3,i4)
    into that color) and has neither clique.  Raises
    BudgetExhaustedError when the node budget runs out (inconclusive), and
    ResourceLimitError, before listing any, for more than MAX_TUPLES triples.
    """
    if s < 3 or n < 3:
        raise ArgumentError("both clique sizes must be at least 3")
    if N < 1:
        raise ArgumentError("N must be positive")
    if budget < 0:
        raise ArgumentError("budget must be at least 0")
    if math.comb(N, 3) > MAX_TUPLES:
        raise ResourceLimitError(f"C({N}, 3) triples exceed cap {MAX_TUPLES}")
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

    def has_clique(size: int, c: str) -> bool:
        # The leaf check, which certifies a full coloring apart from
        # completes_clique's pruning.
        return any(all(colors[t] == c for t in itertools.combinations(sub, 3))
                   for sub in itertools.combinations(range(1, N + 1), size))

    def assign(pos: int):
        nonlocal nodes
        if pos == len(triples):
            if has_clique(s, "red") or has_clique(n, "blue"):
                return None
            return dict(colors)
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


def spencer_independent_set(graph: Hypergraph3,
                            seed: int = 0) -> tuple[list[int], dict]:
    """Deletion-method independent set of size at least
    (2N/3) * sqrt(N / (3|E|)) for hypergraphs with |E| >= N/3.

    Samples vertices with probability p = sqrt(N / (3|E|)), deletes one
    vertex of every surviving edge, and retries with fresh seeded randomness
    until the exact integer comparison 27 * |S|^2 * |E| >= 4 * N^3
    certifies the bound (at most MAX_ROUNDS attempts, else
    ResourceLimitError).  A vertex is sampled when u / 2^64 < p for a drawn
    u = next_u64(), decided exactly in ints as 3|E| * u^2 < N * 2^128.
    Returns (vertices, stats); stats give p^2 = N / (3|E|) as a Fraction.
    """
    n = graph.n
    m = len(graph.edges)
    if m * 3 < n:
        raise PreconditionError(
            f"needs at least N/3 edges, got {m} for N = {n}")
    threshold = n << 128
    rng = SeededRng(seed)
    for round_no in range(1, MAX_ROUNDS + 1):
        sampled = {v for v in range(1, n + 1)
                   if 3 * m * rng.next_u64() ** 2 < threshold}
        surviving = [e for e in graph.edges if set(e) <= sampled]
        for e in sorted(surviving):
            if set(e) <= sampled:
                sampled.discard(max(e))
        result = sorted(sampled)
        assert graph.is_independent(result)
        if 27 * len(result) ** 2 * m >= 4 * n ** 3:
            return result, {"rounds": round_no,
                            "probability_squared": Fraction(n, 3 * m),
                            "bound_check": f"27*{len(result)}^2*{m} >= 4*{n}^3"}
    raise ResourceLimitError(
        f"no round out of {MAX_ROUNDS} met the deletion bound")
