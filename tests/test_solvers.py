"""Homogeneous-subset solvers, monotone subsequences, transitive colorings,
random deletion, and the freeness predicates."""

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
    TransitiveColoring,
    base_construction,
    base_relation,
    erdos_rado_greedy,
    eval_membership,
    find_bad_triples,
    homogeneous_check,
    is_K4e_free,
    is_Ks3_free,
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
from semiramsey.solvers import greedy_class_bound_check

import oracle_bad_triples
import oracle_bnb
import oracle_greedy


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
    points = [[inst.points.point(i)[0] + rng.fraction(
        F(-1, 10), F(1, 10), denominator=rng.randint(2, 97))]
        for i in range(1, len(inst.points) + 1)]
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
    assert homogeneous_check(inst.points, inst.relation,
                             result.subset) == (result.polarity, None)


def _naive_max_homogeneous(points, relation) -> int:
    n = len(points)
    k = relation.arity
    best = 0
    for size in range(n, 0, -1):
        if size <= best:
            break
        for subset in itertools.combinations(range(1, n + 1), size):
            polarity, _ = homogeneous_check(points, relation, subset)
            if polarity is not None:
                best = size
                break
    return best


def _assert_matches_prefix_loop(points, relation):
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
        nv = arity
        polys = [
            sum((x(i, nv) * t_rng.randint(-2, 2) for i in range(nv)),
                Poly.constant(nv, t_rng.randint(-4, 4)))
            for _ in range(2)
        ]
        polys = [p if not p.is_zero() else Poly.constant(nv, 1) for p in polys]
        formula = Formula.any_of([
            Formula.leaf(0, "ge"),
            Formula.all_of([Formula.leaf(1, "gt")]),
        ])
        relation = SemiAlgebraicRelation(arity, 1, polys, formula)
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


@pytest.mark.parametrize("make", [
    lambda: _instance(base_construction(5)),
    lambda: _instance(step_up(base_construction(2))),
    lambda: jittered_base(5, 1),
    lambda: jittered_base(5, 7),
    lambda: _instance(one_dim_k4_construction(2)),
], ids=["base-5", "step-up-base-2", "jittered5-s1", "jittered5-s7",
        "onedim-k4-2"])
def test_constructions_match_the_prefix_loop(make, monkeypatch):
    calls = []

    def recorded(relation, points, indices):
        calls.append(tuple(indices))
        return eval_membership(relation, points, indices)

    monkeypatch.setattr(solvers, "eval_membership", recorded)
    result = _assert_matches_prefix_loop(*make())
    # The colouring bound prunes on every one of these (arity 3 and 4).
    assert result.stats["colour_prunes"] > 0
    # One max_homogeneous call, final certification included, evaluates
    # each tuple once and counts every evaluation.
    assert len(calls) == len(set(calls)) == result.stats["evaluations"]


def test_search_counters_are_deterministic():
    inst = base_construction(3)
    first = max_homogeneous(inst.points, inst.relation)
    again = max_homogeneous(inst.points, inst.relation)
    assert first.stats == again.stats == {
        "nodes": 29, "prunes": 8, "colour_prunes": 9, "evaluations": 53,
        "maximum": True, "method": "branch-and-bound"}
    # Each evaluation is a distinct triple of the 8 points.
    assert first.stats["evaluations"] <= math.comb(8, 3)


def test_homogeneous_check_detects_mixed_subsets():
    inst = base_construction(2)
    assert homogeneous_check(inst.points, inst.relation, [1, 2, 3]) == ("in", None)
    # (1, 2, 3) and (1, 2, 4) are in; (1, 3, 4) is the first triple that is
    # not, as 1 + 4 - 2*3 = -1 < -1/2.
    assert homogeneous_check(inst.points, inst.relation,
                             [1, 2, 3, 4]) == (None, (1, 3, 4))
    # Index 0, negative indices, an index above n = 4 and a repeated index
    # are refused, never read as a bit of the memo.
    for subset in ([0, 1, 2], [-3, -2, -1], [1, 2, 5], [1, 2, 2]):
        with pytest.raises(ArgumentError):
            homogeneous_check(inst.points, inst.relation, subset)


def test_point_and_relation_dimension_mismatch_rejected():
    # Two points are too few for any triple to be evaluated, so only the
    # up-front dimension check can catch the mismatch.
    points = OrderedPointSet(2, [(1, 1), (2, 2)])
    with pytest.raises(ArgumentError):
        max_homogeneous(points, base_relation())
    with pytest.raises(ArgumentError):
        is_Ks3_free(points, base_relation(), 3)


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
    variable left, so every survivor stays in the one class ()."""
    relation = SemiAlgebraicRelation(3, 1, [x(0, 3) - x(1, 3)],
                                     Formula.leaf(0, "gt"))
    result = erdos_rado_greedy(integer_points(5, 2, 8, 1, 9, 3, 7, 4), relation)
    assert (result.subset, result.polarity, result.certified) == (
        (1, 2, 4, 8), "in", True)
    assert result.stats == {
        "classes_per_level": [[(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1)]],
        "restrictions": 28, "sign_evaluations": 0, "method": "greedy"}


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
    inst = base_construction(4)
    result = erdos_rado_greedy(inst.points, inst.relation)
    for step, classes in result.stats["classes_per_level"][0]:
        verdict = greedy_class_bound_check(inst.relation, classes, step)
        assert verdict is None or verdict


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
        1353, 1732)


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
    holds, witness = verify_transitive_ramsey(3, 3, 2)
    assert not holds and witness.n == 2

    assert verify_transitive_ramsey(4, 3, 4)[0]
    holds, witness = verify_transitive_ramsey(4, 3, 3)
    assert not holds
    assert witness.is_transitive()
    assert witness.monochromatic_subset(4, "red") is None
    assert witness.monochromatic_subset(3, "blue") is None


def test_verification_budget_exhaustion():
    with pytest.raises(BudgetExhaustedError):
        verify_transitive_ramsey(4, 4, 7, budget=10)


def test_transitive_coloring_predicate():
    triples = list(itertools.combinations(range(1, 5), 3))
    all_red = TransitiveColoring(4, {t: "red" for t in triples})
    assert all_red.is_transitive()
    assert all_red.monochromatic_subset(4, "red") == (1, 2, 3, 4)

    broken = dict.fromkeys(triples, "red")
    broken[(1, 2, 4)] = "blue"  # (1,2,3) and (2,3,4) red force (1,2,4) red
    assert not TransitiveColoring(4, broken).is_transitive()


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


# -- freeness predicates -------------------------------------------------------------------


def test_ks3_freeness_of_empty_relation():
    points = integer_points(1, 2, 3, 4)
    assert is_Ks3_free(points, never_relation(3), 3) == (True, None)


def test_base_relation_contains_an_in_triangle():
    inst = base_construction(2)
    free, witness = is_Ks3_free(inst.points, inst.relation, 3)
    assert not free and witness == (1, 2, 3)


def test_base_relation_is_k43_free():
    inst = base_construction(2)
    assert is_Ks3_free(inst.points, inst.relation, 4) == (True, None)


def test_k4e_freeness():
    points = integer_points(1, 2, 3, 4, 5)
    assert is_K4e_free(points, never_relation(3)) == (True, None)
    free, witness = is_K4e_free(points, always_relation(3))
    assert not free and witness == (1, 2, 3, 4)


def test_base_relation_is_not_k4e_free():
    inst = base_construction(2)
    free, witness = is_K4e_free(inst.points, inst.relation)
    assert not free and witness == (1, 2, 3, 4)


# -- bad triples ------------------------------------------------------------------------------


def test_base_relation_has_no_bad_triples_on_small_points():
    points = integer_points(1, 2, 3)
    bad, skipped = find_bad_triples(points, base_construction(2).relation)
    assert bad == []
    assert skipped == []


def test_root_at_a_point_is_a_bad_triple():
    nv = 3
    relation = SemiAlgebraicRelation(
        3, 1, [x(1, nv) - Poly.constant(nv, 2)], Formula.leaf(0, "ge"))
    bad, _ = find_bad_triples(integer_points(1, 2, 3), relation)
    assert (1, 2, 3) in bad


def test_constant_atoms_yield_no_bad_triples():
    relation = SemiAlgebraicRelation(
        3, 1, [Poly.constant(3, 5)], Formula.leaf(0, "ge"))
    bad, skipped = find_bad_triples(integer_points(1, 2, 3), relation)
    assert bad == [] and skipped == []


def test_identically_zero_restrictions_are_flagged_not_counted():
    nv = 3
    vanishing = (x(0, nv) - Poly.constant(nv, 1)) * (x(1, nv) - Poly.constant(nv, 2))
    relation = SemiAlgebraicRelation(3, 1, [vanishing], Formula.leaf(0, "ge"))
    bad, skipped = find_bad_triples(integer_points(1, 2, 3), relation)
    assert skipped  # fixing x1 = 1 or x2 = 2 kills the product entirely
    for entry in skipped:
        assert len(entry) == 4


def test_find_bad_triples_matches_the_fraction_oracle():
    """On seeded rational points, with polynomials that vanish at some of
    the points (so some restrictions are identically zero and some third
    points are roots), random ones and a constant."""
    nv = 3
    skipped_seen = bad_seen = 0
    for seed in range(12):
        rng = SeededRng(seed)
        vals = [F(rng.randint(-12, 12), rng.choice([1, 2, 3, 7, 12]))
                for _ in range(rng.randint(3, 7))]
        points = OrderedPointSet(1, [[v] for v in vals])
        i, j = rng.randint(0, 2), rng.randint(0, 2)
        polys = [
            (x(i, nv) - rng.choice(vals)) * (x(j, nv) - rng.choice(vals)),
            x(rng.randint(0, 2), nv) - rng.choice(vals),
            Poly.constant(nv, F(rng.randint(1, 5), rng.randint(1, 5))),
            Poly(nv, {tuple(rng.randint(0, 2) for _ in range(nv)):
                      F(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(4)}),
        ]
        relation = SemiAlgebraicRelation(
            3, 1, polys, Formula.all_of([Formula.leaf(k, "ge")
                                         for k in range(len(polys))]))
        bad, skipped = find_bad_triples(points, relation)
        assert (bad, skipped) == oracle_bad_triples.find_bad_triples_fraction(
            points, relation), seed
        skipped_seen += len(skipped)
        bad_seen += len(bad)
    assert skipped_seen and bad_seen


def test_bad_triples_need_one_dimensional_points():
    square = OrderedPointSet(2, [[0, 0], [1, 0], [0, 1]])
    with pytest.raises(ArgumentError):
        find_bad_triples(square, SemiAlgebraicRelation(
            3, 2, [], Formula.all_of([])))
