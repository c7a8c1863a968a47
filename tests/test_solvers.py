"""Homogeneous-subset solvers, monotone subsequences, transitive colorings,
random deletion, and the clique freeness of the base relation."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from semiramsey import (
    ArgumentError,
    BudgetExhaustedError,
    Formula,
    Hypergraph3,
    MultivariatePolynomial as Poly,
    OrderedPointSet,
    PreconditionError,
    ResourceLimitError,
    SemiAlgebraicRelation,
    SeededRng,
    base_construction,
    base_relation,
    erdos_rado_greedy,
    eval_membership,
    longest_monotone_subsequence,
    max_homogeneous,
    milnor_thom_bound,
    one_dim_k4_construction,
    spencer_independent_set,
    step_up,
    transitive_ramsey_number,
    verify_transitive_ramsey,
)
from semiramsey import solvers

import oracle_bnb
import oracle_greedy
import oracle_triples


def x(i: int, n: int) -> Poly:
    return Poly.variable(i, n)


def never_relation(arity: int) -> SemiAlgebraicRelation:
    return SemiAlgebraicRelation(arity, 1, [], Formula.any_of([]))


def always_relation(arity: int) -> SemiAlgebraicRelation:
    return SemiAlgebraicRelation(arity, 1, [], Formula.all_of([]))


def integer_points(*values) -> OrderedPointSet:
    return OrderedPointSet(1, [[v] for v in values])


# -- exact maximum search ---------------------------------------------------------


def jittered_base(n: int, seed: int) -> tuple:
    """base(n) with each point moved by a seeded rational offset in
    [-1/10, 1/10], each with its own denominator."""
    rng = SeededRng(seed)
    inst = base_construction(n)
    points = []
    for i in range(1, len(inst.points) + 1):
        d = rng.randint(2, 97)
        offset = F(-1, 10) + F(1, 5) * F(rng.randint(0, d), d)
        points.append([inst.points.point(i)[0] + offset])
    return OrderedPointSet(1, points), inst.relation


def _instance(inst) -> tuple:
    return inst.points, inst.relation


def test_base_two_has_an_all_in_triangle():
    inst = base_construction(2)
    result = max_homogeneous(inst.points, inst.relation)
    assert len(result.subset) == 3
    assert result.polarity == "in"
    assert result.certified and result.stats["maximum"]


def test_never_true_relation_makes_everything_out_homogeneous():
    points = integer_points(3, 5, 8, 9, 12)
    result = max_homogeneous(points, never_relation(3))
    assert result.subset == (1, 2, 3, 4, 5)
    assert result.polarity == "out"


def test_always_true_relation_makes_everything_in_homogeneous():
    points = integer_points(3, 5, 8)
    result = max_homogeneous(points, always_relation(2))
    assert result.subset == (1, 2, 3) and result.polarity == "in"


def test_budget_exhaustion_degrades_to_uncertified_maximum():
    inst = base_construction(3)
    result = max_homogeneous(inst.points, inst.relation, budget=3)
    assert not result.stats["maximum"]
    assert result.certified  # the subset itself is still re-checked
    assert len(result.subset) >= 1


def test_budget_exhaustion_at_arity_four():
    inst = step_up(base_construction(2))
    result = max_homogeneous(inst.points, inst.relation, budget=40)
    assert result.stats["nodes"] == 40 and not result.stats["maximum"]
    assert result.certified
    assert 4 <= len(result.subset) < 6
    oracle = solvers.MembershipOracle(inst.points, inst.relation)
    assert oracle.polarity(result.subset) == (result.polarity, None)


def _naive_max_homogeneous(points, relation) -> int:
    n = len(points)
    k = relation.arity
    oracle = solvers.MembershipOracle(points, relation)
    best = 0
    for size in range(n, 0, -1):
        if size <= best:
            break
        for subset in itertools.combinations(range(1, n + 1), size):
            polarity, _ = oracle.polarity(subset)
            if polarity is not None:
                best = size
                break
    return best


def _assert_matches_prefix_loop(points, relation, result=None):
    if result is None:
        result = max_homogeneous(points, relation)
    subset, polarity, maximum, nodes = oracle_bnb.max_homogeneous_prefix_loop(
        points, relation)
    assert (result.subset, result.polarity, result.stats["maximum"]) == (
        subset, polarity, maximum)
    assert result.certified
    # The bitset bound counts only candidates that pass, so it never
    # visits more nodes than the prefix loop.
    assert result.stats["nodes"] <= nodes
    return result


def test_branch_and_bound_matches_naive_search_on_random_instances():
    from semiramsey import SeededRng

    rng = SeededRng(99)
    for trial in range(40):
        t_rng = rng.derive(f"instance-{trial}")
        n = t_rng.randint(4, 7)
        arity = t_rng.randint(1, 4)
        values = sorted(t_rng.sample(list(range(-20, 21)), n))
        points = integer_points(*values)
        relation = _random_relation(t_rng, arity, Formula.any_of([
            Formula.leaf(0, "ge"),
            Formula.all_of([Formula.leaf(1, "gt")]),
        ]))
        result = _assert_matches_prefix_loop(points, relation)
        assert result.stats["maximum"]
        assert len(result.subset) == _naive_max_homogeneous(points, relation)


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_constant_relations_match_the_prefix_loop(arity):
    points = integer_points(2, 3, 5, 7, 11, 13)
    for relation, polarity in ((always_relation(arity), "in"),
                               (never_relation(arity), "out")):
        result = _assert_matches_prefix_loop(points, relation)
        assert (result.subset, result.polarity) == ((1, 2, 3, 4, 5, 6),
                                                    polarity)


def _random_relation(t_rng, arity: int, formula) -> SemiAlgebraicRelation:
    """Two seeded linear polynomials in `arity` variables under formula."""
    polys = [
        sum((x(i, arity) * t_rng.randint(-2, 2) for i in range(arity)),
            Poly.constant(arity, t_rng.randint(-4, 4)))
        for _ in range(2)
    ]
    polys = [p if not p.is_zero() else Poly.constant(arity, 1) for p in polys]
    return SemiAlgebraicRelation(arity, 1, polys, formula)


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_out_wins_match_the_prefix_loop(arity):
    """Seeded instances where "out" is the larger side: the search finds
    the reference's first maximum in descending order, and its size is the
    naive maximum."""
    rng = SeededRng(21)
    out_wins = 0
    for trial in range(30):
        t_rng = rng.derive(f"out-{arity}-{trial}")
        values = sorted(t_rng.sample(list(range(-20, 21)),
                                     t_rng.randint(5, 8)))
        points = integer_points(*values)
        relation = _random_relation(t_rng, arity, Formula.all_of([
            Formula.leaf(0, "gt"), Formula.leaf(1, "ge")]))
        result = _assert_matches_prefix_loop(points, relation)
        assert len(result.subset) == _naive_max_homogeneous(points, relation)
        out_wins += result.polarity == "out"
    assert out_wins >= 10


@pytest.mark.parametrize("make, subset, polarity", [
    (lambda: _instance(base_construction(5)), (1, 2, 3, 5, 9, 17), "in"),
    (lambda: _instance(step_up(base_construction(2))),
     (3, 4, 8, 12, 15, 16), "out"),
    (lambda: jittered_base(5, 1), (1, 2, 3, 5, 9, 17), "in"),
    (lambda: jittered_base(5, 7), (1, 2, 3, 5, 9, 17), "in"),
    (lambda: _instance(one_dim_k4_construction(2)),
     (3, 4, 8, 12, 15, 16), "out"),
], ids=["base-5", "step-up-base-2", "jittered5-s1", "jittered5-s7",
        "onedim-k4-2"])
def test_constructions_match_the_prefix_loop(make, subset, polarity,
                                             monkeypatch):
    from semiramsey import relation as relation_module
    # Every read of the relation's decider, and whether it was made inside
    # solvers.eval_membership (the certification) or directly (the search).
    reads, certified = [], []
    inside = False

    def generate(formula, polys, _generate=relation_module._generate):
        decide = _generate(formula, polys)

        def read(x):
            if not inside:
                reads.append(tuple(x))
            return decide(x)
        return read

    def recorded(relation, points, indices):
        nonlocal inside
        certified.append(tuple(indices))
        inside = True
        try:
            return eval_membership(relation, points, indices)
        finally:
            inside = False

    points, relation = make()
    monkeypatch.setattr(relation_module, "_generate", generate)
    monkeypatch.setattr(solvers, "eval_membership", recorded)
    result = max_homogeneous(points, relation)
    assert (result.subset, result.polarity) == (subset, polarity)
    # The search reads each tuple once, in either layout, and counts every
    # read.
    assert len(reads) == len(set(reads)) == result.stats["evaluations"] > 0
    # The certificate reads exactly the k-tuples of the returned subset,
    # each through the checked path.
    assert certified == list(itertools.combinations(result.subset,
                                                    relation.arity))
    _assert_matches_prefix_loop(points, relation, result)
    # The colouring bound prunes on every one of these (arity 3 and 4).
    assert result.stats["colour_prunes"] > 0


def _sign_relation(arity: int) -> tuple:
    """x_1 + ... + x_k > 0 on 7 integer points of both signs."""
    poly = sum((x(i, arity) for i in range(arity)), Poly.constant(arity, 0))
    return (integer_points(-9, -4, -1, 2, 3, 6, 10),
            SemiAlgebraicRelation(arity, 1, [poly], Formula.leaf(0, "gt")))


@pytest.mark.parametrize("make", [
    lambda: _sign_relation(1),
    lambda: _sign_relation(2),
    lambda: jittered_base(5, 1),
    lambda: _instance(step_up(base_construction(2))),
    lambda: _instance(one_dim_k4_construction(2)),
], ids=["arity-1", "arity-2", "jittered5-s1", "step-up-base-2",
        "onedim-k4-2"])
def test_oracle_reads_equal_the_checked_path(make):
    """Every (k-1)-prefix read through above() on all later points, then
    every (k-1)-suffix through below() on all earlier points (the empty
    tuple at arity 1): each bit equals eval_membership on its tuple, and
    below() reads nothing that above() has read.  A fresh oracle read only
    through below() evaluates each tuple once too."""
    points, relation = make()
    n, k = len(points), relation.arity
    every = (1 << (n + 1)) - 2
    oracle = solvers.MembershipOracle(points, relation)
    below_only = solvers.MembershipOracle(points, relation)
    answers = set()
    for fixed in itertools.combinations(range(1, n + 1), k - 1):
        later = every & -(2 << fixed[-1]) if fixed else every
        earlier = every & ((1 << fixed[0]) - 1) if fixed else every
        mask = oracle.above(fixed, later)
        for c in range(1, n + 1):
            if later >> c & 1:
                want = eval_membership(relation, points, fixed + (c,))
                assert bool(mask >> c & 1) == want, fixed + (c,)
                answers.add(want)
        for reader in (oracle, below_only):
            mask = reader.below(fixed, earlier)
            for c in range(1, n + 1):
                if earlier >> c & 1:
                    want = eval_membership(relation, points, (c,) + fixed)
                    assert bool(mask >> c & 1) == want, (c,) + fixed
    assert answers == {True, False}
    assert oracle.evaluations == below_only.evaluations == math.comb(n, k)


def test_search_counters_are_deterministic():
    inst = base_construction(3)
    first = max_homogeneous(inst.points, inst.relation)
    again = max_homogeneous(inst.points, inst.relation)
    assert first.stats == again.stats == {
        "nodes": 29, "prunes": 9, "colour_prunes": 9, "evaluations": 55,
        "maximum": True, "method": "branch-and-bound"}
    # Each evaluation is a distinct triple of the 8 points.
    assert first.stats["evaluations"] <= math.comb(8, 3)


def test_polarity_detects_mixed_subsets():
    inst = base_construction(2)
    oracle = solvers.MembershipOracle(inst.points, inst.relation)
    assert oracle.polarity((1, 2, 3)) == ("in", None)
    # (1, 2, 3) and (1, 2, 4) are in; (1, 3, 4) is the first triple that is
    # not, as 1 + 4 - 2*3 = -1 < -1/2.
    assert oracle.polarity((1, 2, 3, 4)) == (None, (1, 3, 4))
    # Index 0, negative indices, an index above n = 4 and a repeated index
    # are refused, never read as a bit of the memo.
    for subset in ((0, 1, 2), (-3, -2, -1), (1, 2, 5), (1, 2, 2)):
        with pytest.raises(ArgumentError):
            oracle.polarity(subset)


def test_point_and_relation_dimension_mismatch_rejected():
    # Two points are too few for any triple to be evaluated, so only the
    # up-front dimension check can catch the mismatch.
    points = OrderedPointSet(2, [(1, 1), (2, 2)])
    with pytest.raises(ArgumentError):
        max_homogeneous(points, base_relation())


# -- greedy extraction --------------------------------------------------------------


def test_greedy_output_is_certified_on_the_base_instance():
    inst = base_construction(3)
    result = erdos_rado_greedy(inst.points, inst.relation)
    assert result.certified
    assert len(result.subset) >= 3
    assert result.stats["method"] == "greedy"


def test_greedy_on_never_true_relation_keeps_everything():
    points = integer_points(*range(1, 9))
    result = erdos_rado_greedy(points, never_relation(3))
    assert result.polarity == "out"
    assert len(result.subset) == 8


def test_greedy_keeps_one_class_when_no_form_reads_the_last_slot():
    """x0 > x1 at arity 3: once the first two slots are fixed no form has a
    variable left, so every survivor stays in the one class ().  Its 22
    restrictions are 21 plan reads, one per earlier chosen point at each
    of six steps (the form reads every slot, so no read is skipped), and
    the one form fixed when the arity drops."""
    relation = SemiAlgebraicRelation(3, 1, [x(0, 3) - x(1, 3)],
                                     Formula.leaf(0, "gt"))
    result = erdos_rado_greedy(integer_points(5, 2, 8, 1, 9, 3, 7, 4), relation)
    assert (result.subset, result.polarity, result.certified) == (
        (1, 2, 4, 8), "in", True)
    assert result.stats == {
        "classes_per_level": [[(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1)]],
        "restrictions": 22, "sign_evaluations": 0, "method": "greedy"}


def test_greedy_reads_a_form_once_per_tuple_of_the_slots_it_reads():
    """x3 > x0 or x3 > x2 at arity 4, d = 1: the first polynomial reads
    slot 0 and w, the second only q and w.  At a first-level step with m
    earlier chosen points the C(m, 2) prefixes give the first polynomial
    m - 1 distinct smallest points and the second the one q, so m reads
    where reading every prefix would make 2 C(m, 2).  Fixing the last
    chosen point into slot 3 costs 2, and leaves x3 - x0 reading slot 0
    alone (m reads) and x3 - x2 reading only w (one read), so m + 1 reads
    at a second-level step with m earlier chosen points, and 2 more at the
    drop to arity 2.  With steps 2, 3, 4 and then 1, 2 that is
    9 + 2 + 5 + 2 = 18 restrictions, against 20 + 2 + 6 + 2 = 30."""
    relation = SemiAlgebraicRelation(
        4, 1, [x(3, 4) - x(0, 4), x(3, 4) - x(2, 4)],
        Formula.any_of([Formula.leaf(0, "gt"), Formula.leaf(1, "gt")]))
    points = integer_points(5, 2, 8, 1, 9, 3, 7, 4, 6, 10)
    result = erdos_rado_greedy(points, relation)
    subset, polarity, classes = oracle_greedy.greedy_fraction(points, relation)
    assert (result.subset, result.polarity) == (subset, polarity)
    assert result.stats["classes_per_level"] == classes == [
        [(2, 3), (3, 1), (4, 1)], [(1, 2), (2, 1)]]
    assert result.stats["restrictions"] == 18


def _random_linear_relation(rng: SeededRng) -> tuple:
    """(points, relation): 10 to 14 points with int or half-integer
    coordinates, and one to three linear polynomials of arity 3 or 4 in
    dimension 1 or 2, each reading a random set of slots (possibly none,
    possibly not w), under a random AND or OR of one or two atoms each."""
    k, d = rng.randint(3, 4), rng.randint(1, 2)
    n = k * d
    polys, leaves = [], []
    for pi in range(rng.randint(1, 3)):
        reads = [rng.randint(0, 1) for _ in range(k)]
        terms = {(0,) * n: rng.randint(-2, 2)}
        for v in range(n):
            if reads[v // d]:
                terms[tuple(int(i == v) for i in range(n))] = rng.randint(-3, 3)
        polys.append(Poly(n, {e: c for e, c in terms.items() if c}))
        for _ in range(rng.randint(1, 2)):
            leaves.append(Formula.leaf(pi, ("ge", "gt", "eq")[rng.randint(0, 2)]))
    join = Formula.all_of if rng.randint(0, 1) else Formula.any_of
    points = OrderedPointSet(d, [[F(rng.randint(-12, 12), rng.randint(1, 2))
                                  for _ in range(d)]
                                 for _ in range(rng.randint(10, 14))])
    return points, SemiAlgebraicRelation(k, d, polys, join(leaves))


def test_greedy_matches_the_oracle_on_random_relations_with_unread_slots():
    """The reads skipped for unread slots never change the split: the
    subset, polarity and classes equal the Fraction oracle's, which reads
    every polynomial at every prefix.  The restrictions never exceed that
    full count, one read per polynomial with an atom and per prefix at
    each step plus one per polynomial at each drop, and fall below it
    somewhere in the loop."""
    rng = SeededRng(2024)
    skipped = 0
    for _ in range(60):
        points, relation = _random_linear_relation(rng)
        result = erdos_rado_greedy(points, relation)
        subset, polarity, classes = oracle_greedy.greedy_fraction(
            points, relation)
        assert (result.subset, result.polarity,
                result.stats["classes_per_level"]) == (
            subset, polarity, classes)
        with_atoms = len({a.poly_index for a in relation.formula.atoms()})
        full = sum(with_atoms * math.comb(m, k - 2) for k, level in zip(
                       range(relation.arity, 2, -1), classes)
                   for m, _ in level) + len(relation.polys) * len(classes)
        assert result.stats["restrictions"] <= full
        skipped += full - result.stats["restrictions"]
    assert skipped > 0


def test_greedy_certifies_on_the_stepped_up_instance():
    stepped = step_up(base_construction(2))
    result = erdos_rado_greedy(stepped.points, stepped.relation)
    assert result.certified
    assert len(result.subset) >= 3


def test_greedy_depth_grows_with_the_base_height():
    inst = base_construction(4)
    result = erdos_rado_greedy(inst.points, inst.relation)
    assert result.certified
    assert len(result.subset) >= 3
    levels = result.stats["classes_per_level"]
    assert levels and levels[0][0] == (1, 1)


def test_greedy_class_counts_respect_the_sign_pattern_bound():
    """At a first-level step with `step` earlier chosen points, the split
    reads t * C(step, k-2) polynomials restricted to the free point in R^d,
    so it makes at most milnor_thom_bound(deg, that family, d) classes
    wherever the bound's hypotheses hold (family >= d >= 2, deg >= 1)."""
    inst = step_up(base_construction(2))
    relation = inst.relation
    k, d = relation.arity, relation.point_dim
    deg = max(p.degree() for p in relation.polys)
    result = erdos_rado_greedy(inst.points, relation)
    compared = 0
    for step, classes in result.stats["classes_per_level"][0]:
        family = len(relation.polys) * math.comb(step, k - 2)
        if d >= 2 and family >= d and deg >= 1:
            assert classes <= milnor_thom_bound(deg, family, d)
            compared += 1
    assert compared >= 1


@pytest.mark.parametrize("make", [
    lambda: _instance(step_up(base_construction(2))),
    lambda: _instance(one_dim_k4_construction(2)),
    lambda: _instance(base_construction(4)),
    lambda: jittered_base(4, 1),
    lambda: jittered_base(5, 7),
    lambda: jittered_base(5, 11),
], ids=["stepup2", "onedim2", "base4", "jittered4-s1", "jittered5-s7",
        "jittered5-s11"])
def test_greedy_matches_the_fraction_oracle(make):
    points, relation = make()
    result = erdos_rado_greedy(points, relation)
    subset, polarity, classes = oracle_greedy.greedy_fraction(points, relation)
    assert (result.subset, result.polarity,
            result.stats["classes_per_level"]) == (subset, polarity, classes)


def test_greedy_counters_are_deterministic():
    inst = step_up(base_construction(2))
    stats = [erdos_rado_greedy(inst.points, inst.relation).stats
             for _ in range(2)]
    assert stats[0] == stats[1]
    assert (stats[0]["restrictions"], stats[0]["sign_evaluations"]) == (
        616, 792)


def test_common_denominator_over_max_bits_is_refused():
    # Each denominator alone is under MAX_BITS; their LCM is 1,233,986 bits.
    points = OrderedPointSet(1, [[F(1, 2 ** 600000)], [F(1, 3 ** 400000)],
                                 [1]])
    with pytest.raises(ResourceLimitError):
        eval_membership(base_relation(), points, (1, 2, 3))
    with pytest.raises(ResourceLimitError):
        erdos_rado_greedy(points, base_relation())


def test_greedy_rejects_binary_relations():
    with pytest.raises(ArgumentError):
        erdos_rado_greedy(integer_points(1, 2, 3), always_relation(2))


# -- monotone subsequences ------------------------------------------------------------


def test_monotone_example_mixed():
    assert len(longest_monotone_subsequence([1, 3, 2, 4])) == 3


def test_monotone_example_decreasing():
    assert longest_monotone_subsequence([5, 4, 3, 2, 1]) == [5, 4, 3, 2, 1]


def test_monotone_extremal_square():
    assert len(longest_monotone_subsequence([2, 1, 4, 3])) == 2


def test_monotone_refuses_more_than_max_pairs_pairs():
    # C(1415, 2) = 1,000,405 > MAX_PAIRS = C(1415, 2) - 405: refused before
    # the quadratic DP; C(1414, 2) = 998,991 is read.
    with pytest.raises(ResourceLimitError):
        longest_monotone_subsequence(range(1415))
    assert len(longest_monotone_subsequence(range(1414))) == 1414


def test_monotone_rejects_duplicates():
    with pytest.raises(ArgumentError):
        longest_monotone_subsequence([1, 2, 1])


def test_monotone_accepts_fractions():
    seq = [F(1, 2), F(1, 3), F(2, 3), F(1, 6)]
    out = longest_monotone_subsequence(seq)
    assert len(out) == 3  # 1/2 > 1/3 > 1/6


@given(st.permutations(list(range(1, 17))))
@settings(max_examples=120, deadline=None)
def test_monotone_meets_square_root_floor(perm):
    out = longest_monotone_subsequence(perm)
    assert len(out) >= math.isqrt(len(perm) - 1) + 1
    increasing = all(a < b for a, b in zip(out, out[1:]))
    decreasing = all(a > b for a, b in zip(out, out[1:]))
    assert increasing or decreasing
    positions = [perm.index(v) for v in out]
    assert positions == sorted(positions)


# -- transitive colorings ---------------------------------------------------------------


def test_threshold_formula_values():
    assert transitive_ramsey_number(3, 3) == 3
    assert transitive_ramsey_number(4, 4) == 7
    for s in range(3, 8):
        assert transitive_ramsey_number(s, 3) == s


def test_threshold_formula_rejects_small_cliques():
    with pytest.raises(ArgumentError):
        transitive_ramsey_number(2, 3)
    with pytest.raises(ArgumentError):
        transitive_ramsey_number(3, 2)


def test_verification_at_and_below_threshold():
    assert verify_transitive_ramsey(3, 3, 3) == (True, None)
    # Two vertices have no triple: the empty coloring is the witness.
    assert verify_transitive_ramsey(3, 3, 2) == (False, {})

    assert verify_transitive_ramsey(4, 3, 4)[0]
    holds, witness = verify_transitive_ramsey(4, 3, 3)
    assert not holds
    assert oracle_triples.is_transitive(3, witness)
    assert oracle_triples.monochromatic_subset(3, witness, 4, "red") is None
    assert oracle_triples.monochromatic_subset(3, witness, 3, "blue") is None

    # Below R(4, 4) = 7: a full transitive coloring of the 20 triples of 1..6.
    holds, witness = verify_transitive_ramsey(4, 4, 6)
    assert not holds and len(witness) == math.comb(6, 3)
    assert oracle_triples.is_transitive(6, witness)
    for color in ("red", "blue"):
        assert oracle_triples.monochromatic_subset(6, witness, 4, color) is None


def test_verification_budget_exhaustion():
    with pytest.raises(BudgetExhaustedError):
        verify_transitive_ramsey(4, 4, 7, budget=10)


def test_transitive_coloring_predicate():
    triples = list(itertools.combinations(range(1, 5), 3))
    all_red = dict.fromkeys(triples, "red")
    assert oracle_triples.is_transitive(4, all_red)
    assert oracle_triples.monochromatic_subset(4, all_red, 4, "red") == (
        1, 2, 3, 4)

    broken = dict.fromkeys(triples, "red")
    broken[(1, 2, 4)] = "blue"  # (1,2,3) and (2,3,4) red force (1,2,4) red
    assert not oracle_triples.is_transitive(4, broken)


# -- random deletion ---------------------------------------------------------------------


def test_deletion_on_two_disjoint_edges():
    graph = Hypergraph3.make(6, [(1, 2, 3), (4, 5, 6)])
    vertices, stats = spencer_independent_set(graph, seed=11)
    assert graph.is_independent(vertices)
    assert len(vertices) >= 4


def test_deletion_on_the_complete_triple_system():
    edges = list(itertools.combinations(range(1, 7), 3))
    graph = Hypergraph3.make(6, edges)
    vertices, _ = spencer_independent_set(graph, seed=5)
    assert graph.is_independent(vertices)
    assert len(vertices) >= 2


def test_deletion_on_a_single_edge():
    graph = Hypergraph3.make(3, [(1, 2, 3)])
    vertices, _ = spencer_independent_set(graph, seed=0)
    assert graph.is_independent(vertices)
    assert len(vertices) >= 2


def test_deletion_gives_up_after_max_rounds(monkeypatch):
    """Seed 1 meets the bound on the complete triple system only in its
    fourth round: with MAX_ROUNDS at 3 it raises, at 4 it succeeds."""
    graph = Hypergraph3.make(6, itertools.combinations(range(1, 7), 3))
    monkeypatch.setattr(solvers, "MAX_ROUNDS", 3)
    with pytest.raises(ResourceLimitError, match="no round out of 3"):
        spencer_independent_set(graph, seed=1)
    monkeypatch.setattr(solvers, "MAX_ROUNDS", 4)
    assert spencer_independent_set(graph, seed=1)[1]["rounds"] == 4


def _deletion_oracle(graph, seed):
    """The deletion method with each vertex sampled when u / 2^64 < p,
    decided on Fractions as (u / 2^64)^2 < p^2 = N / (3|E|)."""
    n, m = graph.n, len(graph.edges)
    rng = SeededRng(seed)
    for round_no in itertools.count(1):
        sampled = {v for v in range(1, n + 1)
                   if F(rng.next_u64(), 1 << 64) ** 2 < F(n, 3 * m)}
        for e in sorted(e for e in graph.edges if set(e) <= sampled):
            if set(e) <= sampled:
                sampled.discard(max(e))
        if 27 * len(sampled) ** 2 * m >= 4 * n ** 3:
            return sorted(sampled), round_no


def _seeded_hypergraph(seed):
    rng = SeededRng(seed)
    n = rng.randint(6, 40)
    edges = {tuple(sorted(rng.sample(range(1, n + 1), 3)))
             for _ in range(rng.randint(-(-n // 3), 3 * n))}
    return Hypergraph3.make(n, edges)


@pytest.mark.parametrize("graph", [
    Hypergraph3.make(6, [(1, 2, 3), (4, 5, 6)]),
    Hypergraph3.make(6, itertools.combinations(range(1, 7), 3)),
    Hypergraph3.make(3, [(1, 2, 3)]),
    *map(_seeded_hypergraph, (1, 7, 23)),
], ids=["two-edges", "complete-6", "single-edge", "seeded-1", "seeded-7",
        "seeded-23"])
def test_deletion_samples_with_probability_exactly_sqrt_n_over_3m(graph):
    """The int comparison 3|E| * u^2 < N * 2^128 picks what the exact
    rational test u / 2^64 < sqrt(N / (3|E|)) picks, and the stats give
    p^2 exactly."""
    m = len(graph.edges)
    for seed in range(20):
        vertices, stats = spencer_independent_set(graph, seed=seed)
        assert (vertices, stats["rounds"]) == _deletion_oracle(graph, seed)
        assert stats["probability_squared"] == F(graph.n, 3 * m)


def test_deletion_requires_enough_edges():
    graph = Hypergraph3.make(6, [(1, 2, 3)])
    with pytest.raises(PreconditionError):
        spencer_independent_set(graph)


def test_hypergraph_validation():
    with pytest.raises(ArgumentError):
        Hypergraph3.make(4, [(1, 2, 5)])
    with pytest.raises(ArgumentError):
        Hypergraph3.make(4, [(1, 1, 2)])
    for n in (0, -3):
        with pytest.raises(ArgumentError):
            Hypergraph3.make(n, [])
    normalized = Hypergraph3.make(4, [(2, 1, 3)])
    assert (1, 2, 3) in normalized.edges


# -- clique freeness (tests/oracle_triples.py) ----------------------------------------------


def test_ks3_freeness_of_empty_relation():
    points = integer_points(1, 2, 3, 4)
    assert oracle_triples.is_Ks3_free(points, never_relation(3), 3) == (
        True, None)


def test_base_relation_contains_an_in_triangle():
    inst = base_construction(2)
    free, witness = oracle_triples.is_Ks3_free(inst.points, inst.relation, 3)
    assert not free and witness == (1, 2, 3)


def test_base_relation_is_k43_free():
    inst = base_construction(2)
    assert oracle_triples.is_Ks3_free(inst.points, inst.relation, 4) == (
        True, None)


def test_k4e_freeness():
    points = integer_points(1, 2, 3, 4, 5)
    assert oracle_triples.is_K4e_free(points, never_relation(3)) == (True, None)
    free, witness = oracle_triples.is_K4e_free(points, always_relation(3))
    assert not free and witness == (1, 2, 3, 4)


def test_base_relation_is_not_k4e_free():
    inst = base_construction(2)
    free, witness = oracle_triples.is_K4e_free(inst.points, inst.relation)
    assert not free and witness == (1, 2, 3, 4)
