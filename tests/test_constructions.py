"""Lower-bound constructions: tower function, base instance, bit-position
index, algebraic stepping-up, the one-dimensional arity-4 instance, the
subset-intersection graph, and the stability verifiers."""

from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import oracle_radius
from semiramsey import constructions
from semiramsey import (
    ArgumentError,
    ConstructionInstance,
    DegenerateInputError,
    Formula,
    MultivariatePolynomial as Poly,
    OrderedPointSet,
    PreconditionError,
    ResourceLimitError,
    SemiAlgebraicRelation,
    base_construction,
    base_relation,
    delta_index,
    eval_membership,
    frankl_wilson_graph,
    max_homogeneous,
    one_dim_k4_construction,
    one_dim_k4_relation,
    slope,
    step_up,
    step_up_membership_rule,
    step_up_points,
    step_up_relation,
    tower,
    verify_delta_properties,
    verify_eps_deep_sampled,
    verify_eps_increasing,
)


def tiny_instance(values, eps=F(1, 10)) -> ConstructionInstance:
    """A 1-D instance with the standard ternary relation, for step-up feeds."""
    points = OrderedPointSet(1, [[v] for v in values])
    return ConstructionInstance(points=points, relation=base_relation(),
                                epsilon=eps, provenance={"kind": "test"})


# -- tower ---------------------------------------------------------------------


def test_tower_values():
    assert tower(1, 5) == 5
    assert tower(2, 10) == 1024
    assert tower(3, 2) == 16
    assert tower(4, 2) == 65536


def test_tower_of_zero():
    assert tower(1, 0) == 0
    assert tower(2, 0) == 1
    assert tower(3, 0) == 2


def test_tower_height_must_be_positive():
    with pytest.raises(ArgumentError):
        tower(0, 5)


def test_tower_refuses_astronomic_results_without_computing_them():
    with pytest.raises(ResourceLimitError):
        tower(4, 10)


# -- base construction -----------------------------------------------------------


def test_base_points_are_the_first_power_of_two_integers():
    inst = base_construction(2)
    assert [inst.points.point(i) for i in range(1, 5)] == [
        (F(1),), (F(2),), (F(3),), (F(4),)]
    assert inst.epsilon == F(1, 10)
    assert inst.relation.arity == 3


def test_base_memberships_at_n2():
    inst = base_construction(2)
    member = {t: eval_membership(inst.relation, inst.points, t)
              for t in itertools.combinations(range(1, 5), 3)}
    assert member[(1, 2, 3)] and member[(2, 3, 4)] and member[(1, 2, 4)]
    assert not member[(1, 3, 4)]


def test_powers_of_two_are_homogeneous_at_n3():
    inst = base_construction(3)
    indices = (1, 2, 4, 8)  # values 1, 2, 4, 8
    for t in itertools.combinations(indices, 3):
        assert eval_membership(inst.relation, inst.points, t)


def test_base_point_count_capped():
    with pytest.raises(ResourceLimitError):
        base_construction(21)


# -- delta index -----------------------------------------------------------------


def test_delta_index_examples():
    assert delta_index(1, 2, 2) == 1
    assert delta_index(3, 6, 3) == 3
    assert delta_index(2, 3, 2) == 2


def test_delta_index_equal_arguments_rejected():
    with pytest.raises(ArgumentError):
        delta_index(3, 3, 3)


def test_delta_index_out_of_range_rejected():
    with pytest.raises(ArgumentError):
        delta_index(1, 5, 2)


@given(st.integers(1, 256), st.integers(1, 256))
@settings(max_examples=120, deadline=None)
def test_delta_index_matches_naive_bit_scan(a, b):
    if a == b:
        return
    expected = max(i + 1 for i in range(8)
                   if (a - 1) >> i & 1 != (b - 1) >> i & 1)
    assert delta_index(a, b, 8) == expected


def test_delta_properties_hold_exhaustively_at_small_widths():
    for bits in (1, 2, 3, 4, 5, 6):
        ok, witness = verify_delta_properties(bits)
        assert ok, witness


def _first_delta_violation(bits, delta):
    """Brute force over all triples: the first A violation by middle point,
    value, a and c, else the first B violation by b, a and c."""
    n = 2 ** bits
    for b in range(2, n):
        hits = [(delta(a, b, bits), a, c) for a in range(1, b)
                for c in range(b + 1, n + 1)
                if delta(a, b, bits) == delta(b, c, bits)]
        if hits:
            _, a, c = min(hits)
            return "A", (a, b, c)
    for b in range(2, n):
        for a in range(1, b):
            for c in range(b + 1, n + 1):
                if delta(a, c, bits) != max(delta(a, b, bits),
                                            delta(b, c, bits)):
                    return "B", (a, b, c)
    return None


@given(st.integers(2, 4), st.dictionaries(
    st.tuples(st.integers(1, 16), st.integers(1, 16)), st.integers(0, 5),
    min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_delta_properties_witness_matches_brute_force(bits, changes):
    def wrong(a, b, width):
        return changes.get((a, b), delta_index(a, b, width))

    ok, witness = verify_delta_properties(bits, delta=wrong)
    expected = _first_delta_violation(bits, wrong)
    assert (ok, witness) == (expected is None, expected)


def test_delta_properties_report_the_smallest_shared_value():
    # With delta(4, 5) = 1 and delta(4, 6) = 2, point 4 shares the values 1
    # (with 3) and 2 (with 1 and 2) on both sides; the witness takes 1.
    changes = {(4, 5): 1, (4, 6): 2}

    def wrong(a, b, bits):
        return changes.get((a, b), delta_index(a, b, bits))

    assert verify_delta_properties(3, delta=wrong) == (False, ("A", (3, 4, 5)))


@pytest.mark.parametrize("count", [2 ** k for k in range(9)])
def test_delta_blocks_hold_each_pair_once_at_its_delta(count):
    seen = {}
    for delta, lo, mid, hi in constructions._delta_blocks(count):
        for i in range(lo, mid):
            for j in range(mid, hi):
                assert (i, j) not in seen
                seen[i, j] = delta
    assert seen == {(i, j): (i ^ j).bit_length()
                    for i, j in itertools.combinations(range(count), 2)}


# -- slope -----------------------------------------------------------------------


def test_slope_examples():
    assert slope((0, 0), (1, 5)) == (F(5),)
    assert slope((0, 0, 0, 0), (1, 2, 1, 3)) == (F(2), F(3))
    assert slope((0, 1), (2, 1)) == (F(0),)


def test_slope_zero_run_rejected():
    with pytest.raises(DegenerateInputError):
        slope((1, 0), (1, 5))


def test_slope_odd_dimension_rejected():
    with pytest.raises(ArgumentError):
        slope((1, 2, 3), (4, 5, 6))


# -- stepping up: points ----------------------------------------------------------


def test_single_point_steps_up_to_origin_and_lift():
    points, eps1 = step_up_points(tiny_instance([3]))
    assert [points.point(1), points.point(2)] == [(F(0), F(0)), (F(1), F(3))]
    assert eps1 > 0


def test_two_point_base_slopes_land_near_base_values():
    base = tiny_instance([1, 2])
    points, _ = step_up_points(base)
    assert len(points) == 4
    for i, j in itertools.combinations(range(1, 5), 2):
        s = slope(points.point(i), points.point(j))[0]
        target = F(delta_index(i, j, 2))
        assert abs(s - target) < F(1, 20)


def test_all_slopes_respect_delta_targets_at_three_levels():
    base = tiny_instance([1, 2, 3])
    points, eps1 = step_up_points(base)
    assert len(points) == 8
    for i, j in itertools.combinations(range(1, 9), 2):
        s = slope(points.point(i), points.point(j))[0]
        target = F(delta_index(i, j, 3))
        assert abs(s - target) < F(1, 20), (i, j, s)
    assert verify_eps_increasing(points, eps1)


def test_step_up_requires_eps_increasing_base():
    squeezed = tiny_instance([F(1), F(11, 10)], eps=F(1, 2))
    with pytest.raises(PreconditionError):
        step_up_points(squeezed)


def test_step_up_requires_strictly_positive_coordinates():
    with pytest.raises(PreconditionError):
        step_up_points(tiny_instance([0, 1]))


def test_step_up_point_cap():
    with pytest.raises(ResourceLimitError):
        step_up_points(base_construction(5))


def test_step_up_pair_cap_refuses_before_building():
    # base(4) steps up to 2^16 points, within MAX_POINTS, but its C(2^16, 2)
    # output pairs exceed MAX_PAIRS; base(3)'s 32,640 pairs pass (below).
    with pytest.raises(ResourceLimitError, match="pairs"):
        step_up_points(base_construction(4))


def perturbed_base(seed: int, n: int = 4, d: int = 1,
                   eps: F = F(1, 10)) -> ConstructionInstance:
    """n points near (i, ..., i) in R^d, i = 1..n, each coordinate moved by
    a seeded multiple of 1/100.  Consecutive points stay 82/100 apart, so
    any eps below 41/100 keeps them eps-increasing."""
    rng = random.Random(seed)
    points = OrderedPointSet(d, [[i + F(rng.randint(-9, 9), 100)
                                  for _ in range(d)] for i in range(1, n + 1)])
    relation = base_relation() if d == 1 else step_up_relation(base_relation())
    return ConstructionInstance(points=points, relation=relation, epsilon=eps,
                                provenance={"kind": "test"})


def two_dim_base() -> ConstructionInstance:
    """step_up(base(1)) moved by (1, 1): four points in R^2, so the radius
    of its own step-up has two coordinate pairs."""
    inner = step_up(base_construction(1))
    moved = OrderedPointSet(2, [(x + 1, y + 1) for x, y in inner.points.points])
    return ConstructionInstance(points=moved, relation=inner.relation,
                                epsilon=inner.epsilon,
                                provenance={"kind": "test"})


@pytest.mark.parametrize("make_base", [
    lambda: base_construction(1), lambda: base_construction(2),
    lambda: base_construction(3), lambda: perturbed_base(7), two_dim_base,
    # eps = 4 around t = 1 reaches 1 + t - eps <= 0 in the radius and
    # 1 + a - eps/2 <= 0 in the box radius.
    lambda: tiny_instance([1, 10], eps=F(4)),
    # Seeded bases of 1 to 7 points in R^1 and R^2 over a range of eps.
    *[lambda args=args: perturbed_base(*args) for args in [
        (1, 1, 1, F(1, 100)), (2, 3, 1, F(2, 5)), (3, 6, 1, F(1, 20)),
        (4, 7, 1, F(3, 10)), (5, 2, 2, F(1, 10)), (6, 3, 2, F(2, 5)),
        (8, 5, 2, F(1, 50)), (9, 6, 2, F(1, 4))]],
], ids=["base1", "base2", "base3", "perturbed-seed7", "two-dim", "wide-eps",
        "seed1-n1-d1", "seed2-n3-d1", "seed3-n6-d1", "seed4-n7-d1",
        "seed5-n2-d2", "seed6-n3-d2", "seed8-n5-d2", "seed9-n6-d2"])
def test_stability_radius_matches_all_pairs_oracle(make_base):
    base = make_base()
    points, eps1 = step_up_points(base)
    assert eps1 == oracle_radius.stepped_stability_radius(
        points.points, base.points.points, base.epsilon)


def hugging_set(seed: int, bits: int, d: int):
    """2^bits points in R^{2d} from the origin by seeded steps with x-step in
    [1, 2] and slope in [101/100, 59/20] per coordinate pair, so every pair
    slope, a weighted mean of step slopes, lies in [1, 3]; eps = 3/2.  Each
    delta below bits has target 2, a window that holds them all.  The top
    delta's window hugs the top block's pair slopes 1/100 away: from below
    for an even seed, so the g bound binds, from above for an odd one, so
    the f bound binds.  Unlike a stepped-up block, whose halves are
    shrunken copies, this block's extreme pairs are far from its others,
    so reading the wrong pairs moves the radius by more than a factor 2."""
    rng = random.Random(seed)
    points = [[F(0)] * (2 * d)]
    for _ in range(2 ** bits - 1):
        point = list(points[-1])
        for c in range(0, 2 * d, 2):
            dx = F(rng.randint(100, 200), 100)
            point[c] += dx
            point[c + 1] += dx * F(rng.randint(101, 295), 100)
        points.append(point)
    eps, mid = F(3, 2), 2 ** (bits - 1)
    top = []
    for c in range(0, 2 * d, 2):
        slopes = [(q[c + 1] - p[c + 1]) / (q[c] - p[c])
                  for p in points[:mid] for q in points[mid:]]
        top.append(min(slopes) + eps - F(1, 100) if seed % 2 == 0
                   else max(slopes) - eps + F(1, 100))
    targets = [[F(2)] * d] * (bits - 1) + [top]
    return OrderedPointSet(2 * d, points), OrderedPointSet(d, targets), eps


@pytest.mark.parametrize("seed", range(16))
def test_stability_radius_matches_oracle_where_a_block_binds(seed):
    out, targets, eps = hugging_set(seed, 3 + seed % 2, 1 + seed // 8)
    assert constructions._stepped_stability_radius(out, targets, eps) == \
        oracle_radius.stepped_stability_radius(out.points, targets.points, eps)


def _cross_balls_ok(anchor, eps, r) -> bool:
    """The exact corner check: separated balls, and the extreme slopes of
    each coordinate within eps/2 of it."""
    return 2 * r < min(1, *anchor) and all(
        (a + 2 * r) / (1 - 2 * r) <= a + eps / 2
        and (a - 2 * r) / (1 + 2 * r) >= a - eps / 2 for a in anchor)


@pytest.mark.parametrize("anchor, eps", [
    ((F(1),), F(1, 10)), ((F(8),), F(1, 10)), ((F(1, 3),), F(1, 10)),
    ((F(1),), F(4)), ((F(10),), F(4)), ((F(2), F(7, 5)), F(1, 7)),
    ((F(3, 2), F(40)), F(40)),
    ((F(1, 2),), F(4)),  # separation binds at equality: 2r < 1/2
])
def test_cross_ball_radius_is_the_largest_passing_dyadic(anchor, eps):
    r = constructions._cross_ball_radius(anchor, eps)
    assert r.numerator == 1 and r.denominator.bit_count() == 1
    assert _cross_balls_ok(anchor, eps, r)
    assert not _cross_balls_ok(anchor, eps, 2 * r)


def test_stepped_epsilons_are_pinned():
    assert step_up(base_construction(2)).epsilon == F(1, 2 ** 31)
    assert step_up(base_construction(3)).epsilon == F(1, 2 ** 76)


# -- stepping up: relation ---------------------------------------------------------


@pytest.fixture(scope="module")
def stepped():
    return step_up(base_construction(2))


def test_stepped_instance_shape(stepped):
    assert len(stepped.points) == 16
    assert stepped.relation.arity == 4
    assert stepped.points.dim == 2
    assert stepped.relation.point_dim == 2


def test_valley_delta_pattern_is_a_member(stepped):
    # delta values of (1,3,4,9): 2, 1, 4 -- a local minimum at the middle.
    assert (delta_index(1, 3, 4), delta_index(3, 4, 4),
            delta_index(4, 9, 4)) == (2, 1, 4)
    assert step_up_membership_rule(base_construction(2), (1, 3, 4, 9))
    assert eval_membership(stepped.relation, stepped.points, (1, 3, 4, 9))


def test_peak_delta_pattern_is_a_non_member(stepped):
    # delta values of (1,4,6,7): 2, 3, 2 -- a local maximum at the middle.
    assert (delta_index(1, 4, 4), delta_index(4, 6, 4),
            delta_index(6, 7, 4)) == (2, 3, 2)
    assert not step_up_membership_rule(base_construction(2), (1, 4, 6, 7))
    assert not eval_membership(stepped.relation, stepped.points, (1, 4, 6, 7))


def test_monotone_delta_pattern_defers_to_base(stepped):
    base = base_construction(2)
    # delta values of (1,2,3,5): 1, 2, 3 -- strictly increasing, so the
    # verdict is the base relation's on those delta values as point indices.
    deltas = (delta_index(1, 2, 4), delta_index(2, 3, 4), delta_index(3, 5, 4))
    assert deltas == (1, 2, 3)
    expected = eval_membership(base.relation, base.points, deltas)
    assert step_up_membership_rule(base, (1, 2, 3, 5)) == expected
    assert eval_membership(stepped.relation, stepped.points,
                           (1, 2, 3, 5)) == expected


def test_rule_and_polynomials_agree_on_sampled_tuples(stepped):
    base = base_construction(2)
    sample = list(itertools.combinations(range(1, 17), 4))[::7]
    for t in sample:
        assert (eval_membership(stepped.relation, stepped.points, t)
                == step_up_membership_rule(base, t)), t


def test_stepped_relation_arity_grows_by_one():
    relation = step_up_relation(base_relation())
    assert relation.arity == 4
    assert relation.point_dim == 2


def test_stepped_hom_is_exactly_six(stepped):
    """The 16-point stepped-up instance has hom = 6.

    The base has hom 3, so it has no homogeneous subset of size 4, and the
    stepping-up lemma (2n + k - 4 with n = 4, k = 3) forbids size 7 after
    doubling: hom <= 2*3 = 6.  The instance attains that bound, witnessed
    below, and brute force confirms no size-7 homogeneous subset exists.
    """
    result = max_homogeneous(stepped.points, stepped.relation, budget=10 ** 7)
    assert result.stats["maximum"]
    assert len(result.subset) == 6
    # Independent spot-check of one maximum witness.
    witness = (1, 2, 5, 9, 13, 14)
    verdicts = {eval_membership(stepped.relation, stepped.points, t)
                for t in itertools.combinations(witness, 4)}
    assert verdicts == {False}


# -- one-dimensional arity-4 construction -------------------------------------------


def test_onedim_points_are_digit_pattern_sums():
    inst = one_dim_k4_construction(1)
    values = [inst.points.point(i)[0] for i in range(1, 5)]
    assert values == [F(1), F(2), F(11), F(12)]
    assert inst.relation.arity == 4


def test_onedim_membership_by_difference_shape():
    relation = one_dim_k4_construction(1).relation
    # Differences (1, 2, 4): increasing, and 1*4 >= 2^2.
    assert relation.holds_on_coords([F(0), F(1), F(3), F(7)])
    # Differences (2, 1, 1): no strict pattern applies.
    assert not relation.holds_on_coords([F(0), F(2), F(3), F(4)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_onedim_points_are_in_pattern_order_with_top_digit_at_delta(n):
    """The digit check's premise: point k (0-based) minus 1, read in
    decimal, is k in binary, the points increase, and points a < b first
    differ at decimal digit bitlen(a ^ b) - 1."""
    digits = 2 ** n

    def top_digit(a: int, b: int) -> int:
        return next(i for i in reversed(range(digits))
                    if a // 10 ** i % 10 != b // 10 ** i % 10)

    values = [int(p[0]) - 1 for p in one_dim_k4_construction(n).points.points]
    assert [int(str(v), 2) for v in values] == list(range(2 ** digits))
    assert values == sorted(values)
    for a, b in itertools.combinations(range(len(values)), 2):
        assert top_digit(values[a], values[b]) == (a ^ b).bit_length() - 1


def test_onedim_base_ten_passes_digit_closeness_at_n2():
    inst = one_dim_k4_construction(2)
    assert len(inst.points) == 16
    largest = inst.points.point(16)[0]
    assert largest == 1 + 1000 + 100 + 10 + 1  # digits 1111 in base 10


def test_onedim_relation_is_the_stepped_rule_at_n2():
    inst = one_dim_k4_construction(2)
    base = base_construction(2)
    mismatches = [t for t in itertools.combinations(range(1, 17), 4)
                  if eval_membership(inst.relation, inst.points, t)
                  != step_up_membership_rule(base, t)]
    assert mismatches == []


def test_onedim_relation_is_the_stepped_rule_on_sampled_tuples_at_n3():
    from semiramsey import SeededRng

    inst = one_dim_k4_construction(3)
    base = base_construction(3)
    rng = SeededRng(5)
    for _ in range(400):
        t = tuple(sorted(rng.sample(range(1, 257), 4)))
        assert eval_membership(inst.relation, inst.points, t) == \
            step_up_membership_rule(base, t), t


def test_quad_factor_lies_between_the_digit_powers():
    relation = one_dim_k4_relation()
    d1, d2, d3 = (Poly.variable(i + 1, 4) - Poly.variable(i, 4)
                  for i in range(3))
    assert 3 * d1 * d3 - d2 * d2 in relation.polys
    assert 10 ** 4 < 3 ** 10 < 10 ** 6


def test_onedim_point_cap():
    with pytest.raises(ResourceLimitError):
        one_dim_k4_construction(5)


# -- subset intersection graph -------------------------------------------------------


def test_frankl_wilson_vertex_count_and_adjacency():
    points, relation, adjacency = frankl_wilson_graph(6, 2)
    assert len(points) == 20
    triples = list(itertools.combinations(range(1, 7), 3))
    index_of = {t: i + 1 for i, t in enumerate(triples)}
    a = index_of[(1, 2, 3)]
    b = index_of[(1, 4, 5)]
    c = index_of[(1, 2, 4)]
    assert adjacency(a, b)       # intersection {1}, size 1 = -1 mod 2
    assert not adjacency(a, c)   # intersection {1, 2}, size 2 = 0 mod 2
    pair = tuple(sorted((a, b)))
    assert eval_membership(relation, points, pair) == adjacency(*pair)


def test_frankl_wilson_encodings_agree_everywhere():
    points, relation, adjacency = frankl_wilson_graph(6, 2)
    for i, j in itertools.combinations(range(1, 21), 2):
        assert (eval_membership(relation, points, (i, j))
                == adjacency(i, j)), (i, j)


def test_frankl_wilson_rejects_composite_modulus():
    with pytest.raises(ArgumentError):
        frankl_wilson_graph(20, 4)


def test_frankl_wilson_rejects_small_ground_set():
    with pytest.raises(ArgumentError):
        frankl_wilson_graph(2, 2)


def test_frankl_wilson_refuses_too_many_literals_before_building():
    # One vertex, C(24, 24), but about 5.6 * 10^12 matching patterns.
    with pytest.raises(ResourceLimitError, match="literals"):
        frankl_wilson_graph(24, 5)


# -- stability verifiers ---------------------------------------------------------------


def test_eps_increasing_examples():
    assert verify_eps_increasing(OrderedPointSet(1, [[1], [2], [3], [4]]),
                                 F(1, 10))
    assert not verify_eps_increasing(OrderedPointSet(2, [[0, 0], [1, 1]]),
                                     F(1, 2))
    assert not verify_eps_increasing(OrderedPointSet(2, [[0, 0], [1, 0]]),
                                     F(1, 100))


def test_eps_deep_holds_for_base_at_its_stated_radius():
    ok, witness = verify_eps_deep_sampled(base_construction(2),
                                          samples_per_tuple=8, seed=1)
    assert ok and witness is None


def test_eps_deep_fails_for_oversized_radius():
    oversized = dataclasses.replace(base_construction(2), epsilon=F(1))
    ok, witness = verify_eps_deep_sampled(oversized, samples_per_tuple=8,
                                          seed=1)
    assert not ok and witness is not None


def test_eps_deep_refuses_an_instance_without_epsilon():
    unstated = dataclasses.replace(base_construction(2), epsilon=None)
    with pytest.raises(ArgumentError):
        verify_eps_deep_sampled(unstated, samples_per_tuple=8, seed=1)


def test_eps_deep_boundary_atom_fails():
    relation = SemiAlgebraicRelation(
        1, 1, [Poly.variable(0, 1)], Formula.leaf(0, "ge"))
    inst = ConstructionInstance(
        points=OrderedPointSet(1, [[0]]), relation=relation,
        epsilon=F(1, 10), provenance={"kind": "test"})
    ok, witness = verify_eps_deep_sampled(inst, samples_per_tuple=8, seed=1)
    assert not ok and witness is not None
