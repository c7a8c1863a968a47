"""Command line: construct | solve | verify | report.

Everything prints canonical JSON (or an aligned text table for report
--format text).  Exit codes: 0 success/verified, 1 property fails with a
witness, 2 bad arguments or violated preconditions, 3 resource limit hit,
4 search gave up inconclusively (budget exhausted), 5 internal error (an
unexpected exception, a failed certificate among them, reported as JSON
on stderr with its traceback).  Only `construct` takes --output.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from fractions import Fraction

from . import constructions, geometry, jsonio, solvers
from .errors import (ArgumentError, BudgetExhaustedError,
                     ResourceLimitError, MAX_DIGITS, MAX_POINTS, MAX_TUPLES)
from .relation import (count_distinct_sign_vectors, eval_membership,
                       milnor_thom_bound)
from .poly import MultivariatePolynomial, _sum_terms
from .rng import SeededRng
from .sturm import count_real_roots, sign_changes_at, sturm_sequence

# No command calls count_real_roots, but it stays exported: the tests of
# the benchmark's tracer (perfbench/test_perfbench.py) patch it here.
__all__ = ["main", "count_real_roots"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INCONCLUSIVE = 4
EXIT_INTERNAL = 5


def _emit(obj) -> None:
    sys.stdout.write(jsonio.dumps(obj))


def _verdict(witness, **fields) -> int:
    """Emit {"ok": true, **fields} and return 0 when witness is None, else
    emit {"ok": false, "witness": witness} and return 1."""
    if witness is None:
        _emit({"ok": True, **fields})
        return EXIT_OK
    _emit({"ok": False, "witness": witness})
    return EXIT_FAIL


def _emit_error(exc: Exception) -> None:
    payload = {"type": type(exc).__name__, "message": str(exc)}
    witness = getattr(exc, "witness", None)
    if witness is not None:
        payload["witness"] = jsonio.jsonable(witness)
    sys.stderr.write(jsonio.dumps({"error": payload}))


def _read_json(path: str, decode=lambda doc: doc):
    """Parse the JSON file at path ("-" is stdin) and decode it.

    A malformed document raises ArgumentError (exit 2), and so does one
    nested too deeply to decode: exit 1 is reserved for a property that
    fails.
    """
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return decode(jsonio.loads(text))
    except ArgumentError:  # a ValueError too: keep its type and witness
        raise
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ArgumentError(
            f"malformed input {path}: {type(exc).__name__}: {exc}") from exc
    except RecursionError as exc:
        raise ArgumentError(
            f"malformed input {path}: nested too deeply") from exc


def _write_instance(args, inst: constructions.ConstructionInstance) -> int:
    """Write the instance to --output (stdout by default).

    With a real output file a summary goes to stdout instead, so the file
    stays byte-deterministic and scripts still get something to read.
    """
    doc = jsonio.instance_to_json(inst)
    if args.output in (None, "-"):
        _emit(doc)
        return EXIT_OK
    # Written over in place and cut to length, never opened with O_TRUNC:
    # on ext4 that open waits for the writeback of the old pages, ~50 ms.
    with open(os.open(args.output, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        size = fh.write(jsonio.dumps(doc).encode())
        if size < os.fstat(fh.fileno()).st_size:
            fh.truncate(size)
    eps = inst.epsilon
    _emit({"points": len(inst.points), "dim": inst.points.dim,
           "arity": inst.relation.arity,
           "complexity": inst.relation.complexity(),
           "epsilon": None if eps is None else jsonio.fraction_to_json(eps)})
    return EXIT_OK


def _write_result(res: solvers.HomogeneousResult) -> int:
    """Emit the result; exit 4 when its search ran out of budget."""
    _emit(jsonio.result_to_json(res))
    return EXIT_INCONCLUSIVE if res.stats.get("maximum") is False else EXIT_OK


# -- construct ----------------------------------------------------------------


def cmd_construct_base(args) -> int:
    inst = constructions.base_construction(args.n)
    return _write_instance(args, inst)


def cmd_construct_stepup(args) -> int:
    if (args.n is None) == (args.input is None):
        raise ArgumentError("give exactly one of --n or --input")
    if args.n is not None:
        base = constructions.base_construction(args.n)
    else:
        base = _read_json(args.input, jsonio.instance_from_json)
    inst = constructions.step_up(base)
    return _write_instance(args, inst)


def cmd_construct_onedim_k4(args) -> int:
    inst = constructions.one_dim_k4_construction(args.n)
    return _write_instance(args, inst)


def cmd_construct_frankl_wilson(args) -> int:
    points, relation, _adj = constructions.frankl_wilson_graph(args.m, args.p)
    inst = constructions.ConstructionInstance(
        points=points, relation=relation, epsilon=None,
        provenance={"kind": "frankl-wilson", "m": args.m, "p": args.p})
    return _write_instance(args, inst)


def cmd_construct_geometric(args) -> int:
    """construct order-type | one-sided: the relation alone, or an instance
    of it on the points read from --input (for one-sided, the
    representation points of the arrangement read)."""
    if args.input is None and args.output is not None:
        raise ArgumentError("--output needs --input: without it the "
                            "relation alone is printed")
    one_sided = args.what == "one-sided"
    relation = (geometry.one_sided_relation if one_sided
                else geometry.order_type_relation)(args.dim)
    if args.input is None:
        _emit(jsonio.relation_to_json(relation))
        return EXIT_OK
    read = _read_json(args.input, jsonio.arrangement_from_json if one_sided
                      else jsonio.points_from_json)
    if read.dim != args.dim:
        raise ArgumentError(f"{args.what} input lives in dimension "
                            f"{read.dim}, expected {args.dim}")
    inst = constructions.ConstructionInstance(
        points=read.representation_points() if one_sided else read,
        relation=relation, epsilon=None,
        provenance={"kind": args.what, "dim": args.dim})
    return _write_instance(args, inst)


# -- solve --------------------------------------------------------------------


def cmd_solve_brute(args) -> int:
    inst = _read_json(args.input, jsonio.instance_from_json)
    res = solvers.max_homogeneous(inst.points, inst.relation,
                                  budget=args.budget)
    return _write_result(res)


def cmd_solve_greedy(args) -> int:
    inst = _read_json(args.input, jsonio.instance_from_json)
    res = solvers.erdos_rado_greedy(inst.points, inst.relation)
    return _write_result(res)


def cmd_solve_monotone(args) -> int:
    if (args.values is None) == (args.input is None):
        raise ArgumentError("give exactly one of --values or --input")
    if args.values is not None:
        raw = [v.strip() for v in args.values.split(",") if v.strip()]
    else:
        raw = _read_json(args.input)
        if not isinstance(raw, list):
            raise ArgumentError("--input must hold a JSON array of rationals")
    values = [jsonio.fraction_from_json(v) for v in raw]
    sub = solvers.longest_monotone_subsequence(values)
    increasing = len(sub) < 2 or sub[0] < sub[1]
    positions = sorted(values.index(v) + 1 for v in sub)
    res = solvers.HomogeneousResult(
        subset=tuple(positions),
        polarity="in" if increasing else "out",
        stats={"direction": "increasing" if increasing else "decreasing",
               "length": len(sub),
               "values": [jsonio.fraction_to_json(v) for v in sub]})
    return _write_result(res)


def cmd_solve_spencer(args) -> int:
    graph = _read_json(args.input, jsonio.hypergraph_from_json)
    vertices, stats = solvers.spencer_independent_set(graph, seed=args.seed)
    res = solvers.HomogeneousResult(
        subset=tuple(vertices), polarity="out", stats=stats)
    return _write_result(res)


# -- verify -------------------------------------------------------------------


def cmd_verify_properties_ab(args) -> int:
    _, witness = constructions.verify_delta_properties(args.bits)
    return _verdict(witness, bits=args.bits)


def cmd_verify_stepup_consistency(args) -> int:
    if args.sample is not None and args.sample < 0:
        raise ArgumentError("--sample must be at least 0")
    base = constructions.base_construction(args.n)
    # Stepping up gives 2^N points and arity k + 1: refuse before building.
    n_pts = 2 ** len(base.points)
    k = base.relation.arity + 1
    if args.sample is None:
        total = math.comb(n_pts, k)
        if total > MAX_TUPLES:
            raise ResourceLimitError(
                f"{total} tuples to check; pass --sample to subsample")
        tuples = itertools.combinations(range(1, n_pts + 1), k)
    elif args.sample > MAX_TUPLES:
        raise ResourceLimitError(
            f"--sample {args.sample} exceeds cap {MAX_TUPLES} tuples")
    inst = constructions.step_up(base)
    if args.sample is not None:
        rng = SeededRng(args.seed)
        pool = list(range(1, n_pts + 1))
        tuples = (tuple(sorted(rng.sample(pool, k)))
                  for _ in range(args.sample))
    checked = 0
    witness = None
    for t in tuples:
        poly_side = eval_membership(inst.relation, inst.points, t)
        rule_side = constructions.step_up_membership_rule(base, t)
        if poly_side != rule_side:
            witness = {"indices": t, "relation": poly_side, "rule": rule_side}
            break
        checked += 1
    return _verdict(witness, tuples_checked=checked)


def cmd_verify_eps_deep(args) -> int:
    inst = _read_json(args.input, jsonio.instance_from_json)
    _, witness = constructions.verify_eps_deep_sampled(
        inst, samples_per_tuple=args.samples, seed=args.seed)
    return _verdict(witness)


def cmd_verify_transitive_ramsey(args) -> int:
    if args.points is not None:
        _, witness = solvers.verify_transitive_ramsey(
            args.s, args.n, args.points, budget=args.budget)
        if witness is not None:
            witness = jsonio.coloring_to_json(args.points, witness)
        return _verdict(witness, s=args.s, n=args.n, points=args.points)
    # No vertex count given: confirm the closed-form threshold is exact.
    # It must hold with that many vertices and fail with one fewer.
    threshold = solvers.transitive_ramsey_number(args.s, args.n)
    at, _ = solvers.verify_transitive_ramsey(
        args.s, args.n, threshold, budget=args.budget)
    below, witness = solvers.verify_transitive_ramsey(
        args.s, args.n, threshold - 1, budget=args.budget)
    ok = at and not below
    out = {"ok": ok, "s": args.s, "n": args.n, "threshold": threshold,
           "holds_at_threshold": at, "holds_below": below}
    if not below and witness is not None:
        out["witness_below"] = jsonio.coloring_to_json(threshold - 1, witness)
    _emit(out)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_verify_milnor_thom(args) -> int:
    if args.trials < 0 or args.points < 0:
        raise ArgumentError("--trials and --points must be at least 0")
    if args.points > MAX_POINTS:
        raise ResourceLimitError(f"--points exceeds cap {MAX_POINTS}")
    rng = SeededRng(args.seed)
    worst = Fraction(0)  # a Fraction, so that --trials 0 prints "0"
    witness = None
    families = evaluations = vectors = 0
    for trial in range(args.trials):
        t_rng = rng.derive(f"trial-{trial}")
        dim = t_rng.randint(2, 3)
        family_size = t_rng.randint(dim, 6)
        degree = t_rng.randint(1, 3)
        # The family in three draws: term counts, variables, coefficients.
        counts = t_rng.randints(1, 6, family_size)
        variables = t_rng.randints(0, dim - 1, degree * sum(counts))
        pairs = iter([
            (tuple(map(variables[at:at + degree].count, range(dim))), c)
            for at, c in zip(range(0, len(variables), degree),
                             t_rng.randints(-5, 5, sum(counts)))])
        polys = []
        for count in counts:
            # The verifier's own int term map, summed and wrapped unchecked.
            # Every term has total degree `degree` >= 1, so a nonzero sum
            # has that degree.
            terms = _sum_terms(itertools.islice(pairs, count))
            if terms:
                polys.append(MultivariatePolynomial._from_terms(dim, terms))
        if len(polys) < dim:
            continue
        # The grid -10 + 20 k / 2^16 for k in [0, 2^16), points of [-10, 10),
        # kept as integer numerators 20 k - 10 * 2^16 over the one
        # denominator 2^16, four k per 64-bit draw, and cut into rows.
        grid = t_rng.uint16s(args.points * dim)
        rows = [[20 * k - (10 << 16) for k in grid[at:at + dim]]
                for at in range(0, len(grid), dim)]
        got = count_distinct_sign_vectors(polys, rows, denominator=1 << 16)
        families += 1
        evaluations += len(polys) * len(rows)
        vectors += got
        bound = milnor_thom_bound(degree, len(polys), dim)
        if got > bound:
            witness = {"trial": trial, "sign_vectors": got, "bound": bound}
            break
        worst = max(worst, Fraction(got, bound))
    return _verdict(witness, trials=args.trials, tightest_ratio=worst, stats={
        "families": families, "sign_evaluations": evaluations,
        "sign_vectors": vectors})


def cmd_verify_sturm(args) -> int:
    if args.trials < 0:
        raise ArgumentError("--trials must be at least 0")
    rng = SeededRng(args.seed)
    witness = None
    members = reads = roots = 0
    for trial in range(args.trials):
        t_rng = rng.derive(f"poly-{trial}")
        degree = t_rng.randint(1, 8)
        coeffs = t_rng.randints(-9, 9, degree)
        coeffs.append(t_rng.randint(1, 9))
        chain = sturm_sequence(coeffs)
        members += len(chain)
        # Each point is read once: the root counts on (a, b), (a, mid) and
        # (mid, b) are differences of the three reads.
        a, b = -100, 100
        while (at_a := sign_changes_at(chain, a)) is None:
            a -= 1
            reads += 1
        while (at_b := sign_changes_at(chain, b)) is None:
            b += 1
            reads += 1
        total = at_a - at_b
        roots += total
        mid = (a + b) // 2 if (a + b) % 2 == 0 else Fraction(a + b, 2)
        at_mid = sign_changes_at(chain, mid)
        reads += 3
        if at_mid is None:
            at_mid = sign_changes_at(chain, mid + Fraction(1, 257))
            reads += 1
        # By Cauchy's bound (|c_i| <= 9, lead >= 1) every root of g lies in
        # (-10, 10), inside (a, b).  So the total is also the count of all
        # real roots, V(-inf) - V(+inf), read from the members' leading
        # coefficients and degrees: two neighbours whose degrees differ by
        # an odd number change sign at one of -inf and +inf, at -inf when
        # their leads have one sign, and other neighbours at both or
        # neither.  The total is at most deg g, and has the parity of deg g
        # when the chain ends in a constant (g square-free).
        real = 0
        prev = chain[0]
        for m in chain[1:]:
            if (len(prev) + len(m)) % 2:
                real += 1 if (prev[-1] > 0) is (m[-1] > 0) else -1
            prev = m
        if not (real == total and total <= degree
                and (len(chain[-1]) > 1 or (degree - total) % 2 == 0)
                and (at_mid is None or at_a >= at_mid >= at_b)):
            witness = {"trial": trial, "degree": degree, "real_roots": real,
                       "reads": [at_a, at_mid, at_b]}
            break
    return _verdict(witness, trials=args.trials, stats={
        "chain_members": members, "sign_reads": reads, "roots": roots})


# -- report -------------------------------------------------------------------


def _table(rows: list[dict], columns: list[str], fmt: str) -> str:
    if fmt == "json":
        return jsonio.dumps(rows)
    widths = [max(len(c), *(len(str(r[c])) for r in rows)) if rows else len(c)
              for c in columns]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    for r in rows:
        lines.append("  ".join(str(r[c]).ljust(w)
                               for c, w in zip(columns, widths)))
    return "\n".join(lines) + "\n"


def cmd_report_tower(args) -> int:
    rows = [{"height": i, "value": constructions.tower(i, 2)}
            for i in range(1, args.height + 1)]
    if rows and rows[-1]["value"] >= 10 ** MAX_DIGITS:
        raise ResourceLimitError(
            f"tower({args.height}, 2) has more than {MAX_DIGITS} "
            "decimal digits to print")
    sys.stdout.write(_table(rows, ["height", "value"], args.format))
    return EXIT_OK


def cmd_report_clique_thresholds(args) -> int:
    if max(args.max_s - 2, 0) * max(args.max_n - 2, 0) > MAX_TUPLES:
        raise ResourceLimitError(f"more than {MAX_TUPLES} rows to report")
    rows = [{"s": s, "n": n,
             "threshold": solvers.transitive_ramsey_number(s, n)}
            for s in range(3, args.max_s + 1)
            for n in range(3, args.max_n + 1)]
    sys.stdout.write(_table(rows, ["s", "n", "threshold"], args.format))
    return EXIT_OK


def cmd_report_hom(args) -> int:
    jobs = [(f"base-{n}", constructions.base_construction(n))
            for n in args.n or []]
    jobs += [(path, _read_json(path, jsonio.instance_from_json))
             for path in args.input or []]
    if not jobs:
        raise ArgumentError("give --n heights and/or --input instance files")
    rows = []
    for name, inst in jobs:
        res = solvers.max_homogeneous(inst.points, inst.relation,
                                      budget=args.budget)
        rows.append({"instance": name, "points": len(inst.points),
                     "hom": len(res.subset), "maximum": res.stats["maximum"]})
    sys.stdout.write(_table(rows, ["instance", "points", "hom", "maximum"],
                            args.format))
    if not all(row["maximum"] for row in rows):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# -- parser -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps
    no state between calls, and `prog` is fixed, so every call of main
    shares it."""
    parser = argparse.ArgumentParser(
        prog="semiramsey",
        description="Exact constructions, solvers and verifiers for "
                    "semi-algebraic homogeneous-subset problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, budget=False, output=False):
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if budget:
            p.add_argument("--budget", type=int, default=10 ** 6)
        if output:
            p.add_argument("--output", default=None,
                           help="write JSON here instead of stdout and "
                                "print a summary line")

    construct = sub.add_parser("construct",
                               help="build point sets and relations")
    csub = construct.add_subparsers(dest="what", required=True)

    p = csub.add_parser("base", help="2^n integers with the ternary "
                                     "midpoint-gap relation")
    p.add_argument("--n", type=int, required=True)
    common(p, output=True)
    p.set_defaults(func=cmd_construct_base)

    p = csub.add_parser("stepup", help="double the exponent: lift an "
                                       "instance to twice the dimension")
    p.add_argument("--n", type=int, default=None,
                   help="step up the height-n base construction")
    p.add_argument("--input", default=None,
                   help="step up an instance read from this JSON file")
    common(p, output=True)
    p.set_defaults(func=cmd_construct_stepup)

    p = csub.add_parser("onedim-k4", help="4-ary construction on the line "
                                          "with tower-size point count")
    p.add_argument("--n", type=int, required=True)
    common(p, output=True)
    p.set_defaults(func=cmd_construct_onedim_k4)

    p = csub.add_parser("frankl-wilson", help="set-intersection graph with "
                                              "small cliques and independent sets")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    common(p, output=True)
    p.set_defaults(func=cmd_construct_frankl_wilson)

    p = csub.add_parser("order-type", help="orientation relation on (d+1)-"
                                           "tuples of points in R^d")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--input", default=None,
                   help="point-set JSON to bundle with the relation")
    common(p, output=True)
    p.set_defaults(func=cmd_construct_geometric)

    p = csub.add_parser("one-sided", help="same-side relation on (d+1)-"
                                          "tuples of hyperplane representations")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--input", default=None,
                   help="arrangement JSON whose representation points "
                        "become the instance points")
    common(p, output=True)
    p.set_defaults(func=cmd_construct_geometric)

    solve = sub.add_parser("solve", help="find homogeneous subsets")
    ssub = solve.add_subparsers(dest="what", required=True)

    p = ssub.add_parser("brute", help="exact maximum by branch and bound")
    p.add_argument("--input", required=True)
    common(p, budget=True)
    p.set_defaults(func=cmd_solve_brute)

    p = ssub.add_parser("greedy", help="class-refinement extraction")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_solve_greedy)

    p = ssub.add_parser("monotone", help="longest monotone subsequence")
    p.add_argument("--values", default=None,
                   help="comma-separated rationals")
    p.add_argument("--input", default=None,
                   help="JSON file holding an array of rationals")
    p.set_defaults(func=cmd_solve_monotone)

    p = ssub.add_parser("spencer", help="independent set in a 3-uniform "
                                        "hypergraph by random deletion")
    p.add_argument("--input", required=True)
    common(p, seed=True)
    p.set_defaults(func=cmd_solve_spencer)

    verify = sub.add_parser("verify", help="check stated properties, "
                                           "producing witnesses on failure")
    vsub = verify.add_subparsers(dest="what", required=True)

    p = vsub.add_parser("properties-ab", help="position-of-highest-"
                                              "differing-bit properties")
    p.add_argument("--N", dest="bits", type=int, required=True,
                   help="check all pairs/triples from {1, ..., 2^N}")
    p.set_defaults(func=cmd_verify_properties_ab)

    p = vsub.add_parser("stepup-consistency",
                        help="polynomial membership against the "
                             "bit-position rule on a stepped-up base")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sample", type=int, default=None,
                   help="check this many random tuples instead of all")
    common(p, seed=True)
    p.set_defaults(func=cmd_verify_stepup_consistency)

    p = vsub.add_parser("eps-deep", help="sampled perturbation check of "
                                         "instance stability")
    p.add_argument("--input", required=True)
    p.add_argument("--samples", type=int, default=20)
    common(p, seed=True)
    p.set_defaults(func=cmd_verify_eps_deep)

    p = vsub.add_parser("transitive-ramsey",
                        help="exhaust transitive triple-colorings for "
                             "monochromatic cliques")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", type=int, default=None,
                   help="number of vertices to color; omit to confirm the "
                        "closed-form threshold is exact")
    common(p, budget=True)
    p.set_defaults(func=cmd_verify_transitive_ramsey)

    p = vsub.add_parser("milnor-thom", help="sign-vector counts against "
                                            "the degree bound on random families")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--points", type=int, default=10 ** 4)
    common(p, seed=True)
    p.set_defaults(func=cmd_verify_milnor_thom)

    p = vsub.add_parser("sturm", help="root-count additivity under "
                                      "interval splitting on random polynomials")
    p.add_argument("--trials", type=int, default=1000)
    common(p, seed=True)
    p.set_defaults(func=cmd_verify_sturm)

    report = sub.add_parser("report", help="small summary tables")
    rsub = report.add_subparsers(dest="what", required=True)

    p = rsub.add_parser("tower", help="iterated exponentials")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_report_tower)

    p = rsub.add_parser("transitive", help="transitive-coloring clique "
                                           "thresholds")
    p.add_argument("--max-s", type=int, default=6)
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_report_clique_thresholds)

    p = rsub.add_parser("hom", help="largest homogeneous subsets of "
                                    "constructed instances")
    p.add_argument("--n", type=int, nargs="+", default=None,
                   help="heights of base constructions to include")
    p.add_argument("--input", nargs="+", default=None,
                   help="instance JSON files to include")
    p.add_argument("--format", choices=("json", "text"), default="json")
    common(p, budget=True)
    p.set_defaults(func=cmd_report_hom)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExhaustedError as exc:
        _emit_error(exc)
        return EXIT_INCONCLUSIVE
    except ResourceLimitError as exc:
        _emit_error(exc)
        return EXIT_RESOURCE
    except ArgumentError as exc:
        _emit_error(exc)
        return EXIT_USAGE
    except OSError as exc:
        _emit_error(exc)
        return EXIT_USAGE
    except Exception as exc:  # a bug, not a verdict: exit 1 means "fails"
        import traceback  # kept off the start-up path
        sys.stderr.write(jsonio.dumps({"error": {
            "type": type(exc).__name__, "message": str(exc),
            "traceback": traceback.format_exc()}}))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
