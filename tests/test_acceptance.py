"""Acceptance suite: thirteen numbered end-to-end checks.

Each test prints exactly one line

    ACCEPTANCE nn <name>: PASS|FAIL (<measured detail>)

before asserting, so `pytest tests/test_acceptance.py -v -s` yields a
one-line verdict per criterion.  Criteria 02 and 05 check the
stepping-up lemma: a base relation of arity k whose largest homogeneous
subset has size h has no homogeneous subset of size n = h + 1, so the
stepped-up relation has none of size 2n + k - 4.  With k = 3 both checks
assert hom <= 2h, with h certified by exhaustive search on the base:
02 for step_up(base(2)) and 05 for the digit construction onedim-k4(2).
"""

import itertools
import math
import sys
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from oracle_roots import count_distinct_roots

from semiramsey import constructions, geometry, solvers
from semiramsey.poly import MultivariatePolynomial as Poly
from semiramsey.poly import from_univariate_coeffs
from semiramsey.relation import (count_distinct_sign_vectors, eval_membership,
                                 milnor_thom_bound, OrderedPointSet)
from semiramsey.errors import DegenerateInputError
from semiramsey.rng import SeededRng
from semiramsey.sturm import count_real_roots


def report(number: int, name: str, ok: bool, detail: str) -> str:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d} {name}: {verdict} ({detail})"
    print(line)
    return line


def certified_hom(inst) -> solvers.HomogeneousResult:
    res = solvers.max_homogeneous(inst.points, inst.relation, budget=10 ** 7)
    assert res.stats["maximum"]
    return res


def stepping_up_bound(base_hom: int, k: int) -> int:
    """Largest homogeneous size the stepping-up lemma allows after one step.

    The base has no homogeneous subset of size n = base_hom + 1, so the
    stepped-up relation has none of size 2n + k - 4 (Erdos-Hajnal form).
    """
    n = base_hom + 1
    forbidden = 2 * n + k - 4
    return forbidden - 1


def witness_detail(res: solvers.HomogeneousResult, bits: int) -> str:
    deltas = tuple(constructions.delta_index(a, b, bits)
                   for a, b in zip(res.subset, res.subset[1:]))
    return (f"witness {res.subset} with polarity {res.polarity!r}, "
            f"delta sequence {deltas}")


def test_criterion_01_base_construction_hom():
    got = {}
    for n in (2, 3, 4, 5, 6):
        got[n] = len(certified_hom(constructions.base_construction(n)).subset)
    ok = all(got[n] == n + 1 for n in got)
    assert report(1, "base-hom", ok,
                  f"hom(base(n)) = {got}, expected n+1 each") and ok


def test_criterion_02_stepup_hom_bound():
    base = constructions.base_construction(2)
    base_hom = len(certified_hom(base).subset)
    bound = stepping_up_bound(base_hom, base.relation.arity)
    inst = constructions.step_up(base)
    res = certified_hom(inst)
    hom = len(res.subset)
    ok = hom <= bound
    detail = (f"hom(base(2)) = {base_hom}, lemma bound {bound}, hom = {hom}; "
              f"{witness_detail(res, len(base.points))}, homogeneous over all "
              f"{math.comb(hom, 4)} 4-tuples")
    assert report(2, "stepup-hom-bound", ok, detail) and ok


def test_criterion_03_stepup_consistency():
    base = constructions.base_construction(2)
    inst = constructions.step_up(base)
    assert len(inst.points) == 16 and inst.relation.arity == 4
    mismatches = []
    total = 0
    for t in itertools.combinations(range(1, 17), 4):
        total += 1
        poly_side = eval_membership(inst.relation, inst.points, t)
        rule_side = constructions.step_up_membership_rule(base, t)
        if poly_side != rule_side:
            mismatches.append(t)
    ok = total == 1820 and not mismatches
    assert report(3, "stepup-consistency", ok,
                  f"{total} 4-tuples checked, {len(mismatches)} mismatches") \
        and ok


def test_criterion_04_delta_properties():
    failures = []
    for bits in range(1, 11):
        holds, witness = constructions.verify_delta_properties(bits)
        if not holds:
            failures.append((bits, witness))
    ok = not failures
    assert report(4, "delta-properties-ab", ok,
                  f"bits 1..10 exhaustive, violations: {failures or 'none'}") \
        and ok


def test_criterion_05_onedim_k4_no_size5():
    """The digit positions 0..2^n - 1 play the role of the 2^n points of
    base(n), so the lemma's bound is hom <= 2 * hom(base(n)) = 2n + 2: no
    homogeneous subset of size 2n + 3.  The name records an older target of
    "no size 5" (2n + 1), which misapplied the lemma with n = hom(base).

    The relation agrees with the stepped-up rule of base(n) on every tuple
    (tests/test_constructions.py checks all 1820 at n = 2), so the lemma
    applies; the exhaustive search certifies the bound as well.
    """
    n = 2
    base = constructions.base_construction(n)
    base_hom = len(certified_hom(base).subset)
    bound = stepping_up_bound(base_hom, base.relation.arity)
    inst = constructions.one_dim_k4_construction(n)
    assert len(inst.points) == 16
    res = certified_hom(inst)
    hom = len(res.subset)
    ok = hom <= bound
    detail = (f"precondition passed; hom(base({n})) = {base_hom}, lemma bound "
              f"{bound}, largest homogeneous subset = {hom}; "
              f"{witness_detail(res, 2 ** n)}")
    assert report(5, "onedim-k4-no-size5", ok, detail) and ok


def test_criterion_06_sturm_oracle_equivalence():
    rng = SeededRng(60_617)
    done = 0
    trial = 0
    mismatches = []
    while done < 1000:
        trial += 1
        t_rng = rng.derive(f"sturm-{trial}")
        degree = t_rng.randint(1, 8)
        coeffs = [F(t_rng.randint(-9, 9), t_rng.randint(1, 4))
                  for _ in range(degree)]
        lead = t_rng.randint(-9, 9) or 1
        coeffs.append(F(lead))
        a = F(t_rng.randint(-30, -1), t_rng.randint(1, 3))
        b = F(t_rng.randint(0, 30), t_rng.randint(1, 3))
        g = from_univariate_coeffs(coeffs)
        if g.eval([a]) == 0 or g.eval([b]) == 0:
            continue
        mine = count_real_roots(g, a, b)
        ref = count_distinct_roots(coeffs, a, b)
        if mine != ref:
            mismatches.append((coeffs, a, b, mine, ref))
        done += 1
    ok = done == 1000 and not mismatches
    assert report(6, "sturm-oracle", ok,
                  f"{done} random polynomials of degree <= 8, "
                  f"{len(mismatches)} disagreements") and ok


def test_criterion_07_transitive_ramsey_thresholds():
    expected = {(3, 3): 3, (4, 3): 4, (3, 4): 4, (4, 4): 7}
    problems = []
    for (s, n), want in expected.items():
        formula = solvers.transitive_ramsey_number(s, n)
        if formula != want:
            problems.append(f"formula({s},{n})={formula}")
            continue
        at, _ = solvers.verify_transitive_ramsey(s, n, want, budget=10 ** 9)
        below, witness = solvers.verify_transitive_ramsey(
            s, n, want - 1, budget=10 ** 9)
        if not at:
            problems.append(f"fails at N={want} for ({s},{n})")
        if below or witness is None:
            problems.append(f"no witness coloring at N={want - 1} for ({s},{n})")
    ok = not problems
    assert report(7, "transitive-ramsey", ok,
                  f"thresholds {expected}; problems: {problems or 'none'}") \
        and ok


def test_criterion_08_milnor_thom_empirical():
    rng = SeededRng(80_808)
    families = 0
    trial = 0
    violations = []
    tightest = F(0)
    while families < 100:
        trial += 1
        t_rng = rng.derive(f"family-{trial}")
        d = [2, 3][t_rng.randint(0, 1)]
        r = t_rng.randint(d, 6)
        polys = []
        while len(polys) < r:
            terms = {}
            for _ in range(t_rng.randint(2, 5)):
                e = [0] * d
                for _ in range(t_rng.randint(0, 3)):
                    e[t_rng.randint(0, d - 1)] += 1
                terms[tuple(e)] = terms.get(tuple(e), 0) + t_rng.randint(-4, 4)
            p = Poly(d, terms)
            if not p.is_zero() and 1 <= p.degree() <= 3:
                polys.append(p)
        points = [[t_rng.randint(-50, 50) for _ in range(d)]
                  for _ in range(10 ** 4)]
        got = count_distinct_sign_vectors(polys, points)
        bound = milnor_thom_bound(max(p.degree() for p in polys), r, d)
        if got > bound:
            violations.append((trial, got, bound))
        tightest = max(tightest, F(got, bound))
        families += 1
    ok = families == 100 and not violations
    assert report(8, "milnor-thom", ok,
                  f"{families} families x 10^4 points, violations: "
                  f"{violations or 'none'}, tightest ratio {tightest}") and ok


def test_criterion_09_frankl_wilson_cliques():
    points, _relation, adjacency = constructions.frankl_wilson_graph(6, 2)
    n = len(points)
    adj = [[False] * (n + 1) for _ in range(n + 1)]
    for i, j in itertools.combinations(range(1, n + 1), 2):
        adj[i][j] = adj[j][i] = adjacency(i, j)

    def largest(value: bool) -> int:
        best = 1
        for size in range(2, 8):
            if any(all(adj[a][b] == value
                       for a, b in itertools.combinations(combo, 2))
                   for combo in itertools.combinations(range(1, n + 1), size)):
                best = size
            else:
                break
        return best

    clique = largest(True)
    independent = largest(False)
    ok = n == 20 and clique <= 6 and independent <= 6
    assert report(9, "frankl-wilson", ok,
                  f"{n} vertices, clique number {clique}, "
                  f"independence number {independent}, both required <= 6") \
        and ok


def test_criterion_10_greedy_soundness():
    instances = [(f"base-{n}", constructions.base_construction(n))
                 for n in range(2, 9)]
    instances += [
        ("stepup-base-2", constructions.step_up(constructions.base_construction(2))),
        ("stepup-base-3", constructions.step_up(constructions.base_construction(3))),
        ("onedim-1", constructions.one_dim_k4_construction(1)),
        ("onedim-2", constructions.one_dim_k4_construction(2)),
    ]
    failures = []
    for name, inst in instances:
        assert len(inst.points) <= 300
        res = solvers.erdos_rado_greedy(inst.points, inst.relation)
        polarity, bad = solvers.MembershipOracle(
            inst.points, inst.relation).polarity(res.subset)
        if polarity != res.polarity or bad is not None:
            failures.append((name, res.subset, bad))
    ok = not failures
    assert report(10, "greedy-soundness", ok,
                  f"{len(instances)} instances up to 300 points, "
                  f"re-certification failures: {failures or 'none'}") and ok


def test_criterion_11_erdos_szekeres():
    rng = SeededRng(11_011)
    short = []
    for trial in range(10 ** 4):
        t_rng = rng.derive(f"perm-{trial}")
        n = t_rng.randint(1, 50)
        perm = t_rng.sample(range(1, n + 1), n)
        sub = solvers.longest_monotone_subsequence(perm)
        # ceil(sqrt(n)) == isqrt(n - 1) + 1 for every n >= 1
        if len(sub) < math.isqrt(n - 1) + 1:
            short.append((trial, perm))
    inexact = []
    for n in range(2, 11):
        width = n - 1
        perm = [block * width + (width - offset)
                for block in range(width) for offset in range(width)]
        sub = solvers.longest_monotone_subsequence(perm)
        if len(sub) != width:
            inexact.append((n, len(sub)))
    ok = not short and not inexact
    assert report(11, "erdos-szekeres", ok,
                  f"10^4 permutations all reached ceil(sqrt(N)): {not short}; "
                  f"extremal (n-1)^2 permutations exact for n <= 10: "
                  f"{not inexact}") and ok


def test_criterion_12_spencer_bound():
    rng = SeededRng(12_120)
    failures = []
    for trial in range(100):
        t_rng = rng.derive(f"graph-{trial}")
        n = t_rng.randint(6, 200)
        want_edges = t_rng.randint(max(2, -(-n // 3)),
                                   min(3 * n, math.comb(n, 3)))
        edges = set()
        while len(edges) < want_edges:
            e = tuple(sorted(t_rng.sample(range(1, n + 1), 3)))
            edges.add(e)
        graph = solvers.Hypergraph3.make(n, edges)
        vertices, stats = solvers.spencer_independent_set(graph, seed=trial)
        chosen = set(vertices)
        independent = all(not set(e) <= chosen for e in graph.edges)
        big_enough = 27 * len(chosen) ** 2 * len(graph.edges) >= 4 * n ** 3
        if not (independent and big_enough):
            failures.append((trial, n, want_edges, len(chosen)))
    ok = not failures
    assert report(12, "spencer-bound", ok,
                  f"100 hypergraphs with N <= 200 and |E| >= N/3, "
                  f"failures: {failures or 'none'}") and ok


def test_criterion_13_geometry_cross_check():
    rng = SeededRng(13_013)
    relations = {2: geometry.one_sided_relation(2),
                 3: geometry.one_sided_relation(3)}
    done = {2: 0, 3: 0}
    trial = 0
    tuples_checked = 0
    mismatches = []
    while done[2] + done[3] < 50:
        trial += 1
        t_rng = rng.derive(f"arrangement-{trial}")
        d = 2 if done[2] <= done[3] else 3
        planes = []
        while len(planes) < d + 3:
            coeffs = [F(t_rng.randint(-6, 6)) for _ in range(d)]
            if all(c == 0 for c in coeffs):
                continue
            planes.append(geometry.Hyperplane.make(
                coeffs, F(t_rng.randint(-6, 6))))
        arr = geometry.Arrangement(d, planes)
        general, _ = geometry.general_position_hyperplanes(arr)
        if not general:
            continue
        reps = arr.representation_points()
        for combo in itertools.combinations(range(1, d + 4), d):
            vertex = geometry.hyperplane_intersection(
                [arr.hyperplane(i) for i in combo])
            direct = vertex[d - 1] > 0
            via_relation = eval_membership(relations[d], reps, combo)
            if direct != via_relation:
                mismatches.append((trial, combo))
            tuples_checked += 1
        done[d] += 1

    klein_rng = SeededRng(13_888)
    klein_done = 0
    klein_trial = 0
    klein_failures = []
    while klein_done < 10 ** 4:
        klein_trial += 1
        t_rng = klein_rng.derive(f"klein-{klein_trial}")
        coords = [[F(t_rng.randint(-40, 40)), F(t_rng.randint(-40, 40))]
                  for _ in range(5)]
        pts = OrderedPointSet(2, coords)
        general, _ = geometry.general_position_points(pts)
        if not general:
            continue
        if not any(geometry.is_convex_position(
                OrderedPointSet(2, [coords[i] for i in quad]))
                for quad in itertools.combinations(range(5), 4)):
            klein_failures.append(coords)
        klein_done += 1

    ok = not mismatches and not klein_failures
    assert report(13, "geometry-cross-check", ok,
                  f"{done[2]}+{done[3]} arrangements, {tuples_checked} tuples, "
                  f"{len(mismatches)} sign mismatches; Klein property on "
                  f"{klein_done} 5-point sets, {len(klein_failures)} failures") \
        and ok
