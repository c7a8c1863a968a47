"""Command line: construct | solve | verify | report.

Everything prints canonical JSON (or an aligned text table for report
--format text).  Exit codes: 0 success/verified, 1 property fails with a
witness, 2 bad arguments or violated preconditions, 3 resource limit hit,
4 search gave up inconclusively (budget exhausted), 5 internal error (an
unexpected exception, reported as JSON on stderr with its traceback).
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from fractions import Fraction

from . import constructions, geometry, jsonio, solvers
from .errors import (ArgumentError, BudgetExhaustedError,
                     ResourceLimitError, MAX_DIGITS, MAX_TUPLES)
from .relation import (count_distinct_sign_vectors, eval_membership,
                       milnor_thom_bound)
from .poly import MultivariatePolynomial, from_univariate_coeffs
from .rng import SeededRng
from .sturm import count_real_roots, sturm_sequence

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

    A malformed document raises ArgumentError (exit 2): exit 1 is reserved
    for a property that fails.
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


def _write(args, doc: dict, summary: dict) -> None:
    """Write the document to --output (stdout by default).

    With a real output file the summary goes to stdout instead, so the file
    stays byte-deterministic and scripts still get something to read.
    """
    if args.output in (None, "-"):
        _emit(doc)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(jsonio.dumps(doc))
        _emit(summary)


def _write_instance(args, inst: constructions.ConstructionInstance) -> int:
    eps = inst.epsilon
    _write(args, jsonio.instance_to_json(inst), {
        "points": len(inst.points), "dim": inst.points.dim,
        "arity": inst.relation.arity,
        "complexity": inst.relation.complexity(),
        "epsilon": None if eps is None else jsonio.fraction_to_json(eps)})
    return EXIT_OK


def _write_result(args, res: solvers.HomogeneousResult) -> int:
    _write(args, jsonio.result_to_json(res),
           {"size": len(res.subset), "polarity": res.polarity,
            "certified": res.certified})
    if not res.certified or res.stats.get("maximum") is False:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


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


def cmd_construct_order_type(args) -> int:
    relation = geometry.order_type_relation(args.dim)
    if args.input is None:
        _emit(jsonio.relation_to_json(relation))
        return EXIT_OK
    points = _read_json(args.input, jsonio.points_from_json)
    if points.dim != args.dim:
        raise ArgumentError(
            f"points have dimension {points.dim}, expected {args.dim}")
    inst = constructions.ConstructionInstance(
        points=points, relation=relation, epsilon=None,
        provenance={"kind": "order-type", "dim": args.dim})
    return _write_instance(args, inst)


def cmd_construct_one_sided(args) -> int:
    relation = geometry.one_sided_relation(args.dim)
    if args.input is None:
        _emit(jsonio.relation_to_json(relation))
        return EXIT_OK
    arr = _read_json(args.input, jsonio.arrangement_from_json)
    if arr.dim != args.dim:
        raise ArgumentError(
            f"arrangement lives in dimension {arr.dim}, expected {args.dim}")
    points = arr.representation_points()
    inst = constructions.ConstructionInstance(
        points=points, relation=relation, epsilon=None,
        provenance={"kind": "one-sided", "dim": args.dim})
    return _write_instance(args, inst)


# -- solve --------------------------------------------------------------------


def cmd_solve_brute(args) -> int:
    inst = _read_json(args.input, jsonio.instance_from_json)
    res = solvers.max_homogeneous(inst.points, inst.relation,
                                  budget=args.budget)
    return _write_result(args, res)


def cmd_solve_greedy(args) -> int:
    inst = _read_json(args.input, jsonio.instance_from_json)
    res = solvers.erdos_rado_greedy(inst.points, inst.relation,
                                    budget=args.budget)
    return _write_result(args, res)


def cmd_solve_monotone(args) -> int:
    if (args.values is None) == (args.input is None):
        raise ArgumentError("give exactly one of --values or --input")
    if args.values is not None:
        raw = [v for v in args.values.split(",") if v.strip()]
    else:
        raw = _read_json(args.input)
        if not isinstance(raw, list):
            raise ArgumentError("--input must hold a JSON array of rationals")
    values = [jsonio.fraction_from_json(str(v).strip()) for v in raw]
    sub = solvers.longest_monotone_subsequence(values)
    increasing = len(sub) < 2 or sub[0] < sub[1]
    positions = sorted(values.index(v) + 1 for v in sub)
    res = solvers.HomogeneousResult(
        subset=tuple(positions),
        polarity="in" if increasing else "out",
        certified=True,
        stats={"direction": "increasing" if increasing else "decreasing",
               "length": len(sub),
               "values": [jsonio.fraction_to_json(v) for v in sub]})
    return _write_result(args, res)


def cmd_solve_spencer(args) -> int:
    graph = _read_json(args.input, jsonio.hypergraph_from_json)
    vertices, stats = solvers.spencer_independent_set(
        graph, seed=args.seed, max_rounds=args.max_rounds)
    res = solvers.HomogeneousResult(
        subset=tuple(vertices), polarity="out", certified=True, stats=stats)
    return _write_result(args, res)


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
    inst = constructions.step_up(base)
    if args.sample is not None:
        rng = SeededRng(args.seed)
        pool = list(range(1, n_pts + 1))
        tuples = [tuple(sorted(rng.sample(pool, k)))
                  for _ in range(args.sample)]
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
            witness = jsonio.coloring_to_json(witness)
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
        out["witness_below"] = jsonio.coloring_to_json(witness)
    _emit(out)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_verify_milnor_thom(args) -> int:
    if args.trials < 0 or args.points < 0:
        raise ArgumentError("--trials and --points must be at least 0")
    rng = SeededRng(args.seed)
    worst = Fraction(0)
    witness = None
    for trial in range(args.trials):
        t_rng = rng.derive(f"trial-{trial}")
        dim = t_rng.randint(2, 3)
        family_size = t_rng.randint(dim, 6)
        degree = t_rng.randint(1, 3)
        polys = []
        for _ in range(family_size):
            terms = {}
            for _ in range(t_rng.randint(1, 6)):
                e = [0] * dim
                for _ in range(degree):
                    e[t_rng.randint(0, dim - 1)] += 1
                terms[tuple(e)] = terms.get(tuple(e), 0) + t_rng.randint(-5, 5)
            p = MultivariatePolynomial(dim, terms)
            if not p.is_zero() and p.degree() >= 1:
                polys.append(p)
        if len(polys) < dim:
            continue
        # The grid of rng.fraction(-10, 10), (20 k - 10 * 2^16) / 2^16, kept
        # as integer numerators over the one denominator 2^16.
        rows = [[20 * t_rng.randint(0, 1 << 16) - (10 << 16)
                 for _ in range(dim)] for _ in range(args.points)]
        got = count_distinct_sign_vectors(polys, rows, denominator=1 << 16)
        bound = milnor_thom_bound(max(p.degree() for p in polys),
                                  len(polys), dim)
        if got > bound:
            witness = {"trial": trial, "sign_vectors": got, "bound": bound}
            break
        worst = max(worst, Fraction(got, bound))
    return _verdict(witness, trials=args.trials, tightest_ratio=worst)


def cmd_verify_sturm(args) -> int:
    if args.trials < 0 or args.degree < 1:
        raise ArgumentError("--trials must be at least 0 and --degree at least 1")
    rng = SeededRng(args.seed)
    witness = None
    for trial in range(args.trials):
        t_rng = rng.derive(f"poly-{trial}")
        degree = t_rng.randint(1, args.degree)
        coeffs = [Fraction(t_rng.randint(-9, 9)) for _ in range(degree)]
        coeffs.append(Fraction(t_rng.randint(1, 9)))
        g = from_univariate_coeffs(coeffs)
        seq = sturm_sequence(g)
        a, b = Fraction(-100), Fraction(100)
        while seq.sign_at(a) == 0:
            a -= 1
        while seq.sign_at(b) == 0:
            b += 1
        total = count_real_roots(g, a, b, seq)
        mid = (a + b) / 2
        if seq.sign_at(mid) == 0:
            mid += Fraction(1, 257)
        if seq.sign_at(mid) == 0:
            continue
        split = (count_real_roots(g, a, mid, seq)
                 + count_real_roots(g, mid, b, seq))
        if split != total:
            witness = {"trial": trial, "total": total, "split": split}
            break
    return _verdict(witness, trials=args.trials)


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
    rows = [{"height": i, "value": constructions.tower(i, args.x)}
            for i in range(1, args.height + 1)]
    if rows and rows[-1]["value"] >= 10 ** MAX_DIGITS:
        raise ResourceLimitError(
            f"tower({args.height}, {args.x}) has more than {MAX_DIGITS} "
            "decimal digits to print")
    sys.stdout.write(_table(rows, ["height", "value"], args.format))
    return EXIT_OK


def cmd_report_clique_thresholds(args) -> int:
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
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_construct_order_type)

    p = csub.add_parser("one-sided", help="same-side relation on (d+1)-"
                                          "tuples of hyperplane representations")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--input", default=None,
                   help="arrangement JSON whose representation points "
                        "become the instance points")
    common(p, output=True)
    p.set_defaults(func=cmd_construct_one_sided)

    solve = sub.add_parser("solve", help="find homogeneous subsets")
    ssub = solve.add_subparsers(dest="what", required=True)

    p = ssub.add_parser("brute", help="exact maximum by branch and bound")
    p.add_argument("--input", required=True)
    common(p, budget=True, output=True)
    p.set_defaults(func=cmd_solve_brute)

    p = ssub.add_parser("greedy", help="class-refinement extraction")
    p.add_argument("--input", required=True)
    common(p, budget=True, output=True)
    p.set_defaults(func=cmd_solve_greedy)

    p = ssub.add_parser("monotone", help="longest monotone subsequence")
    p.add_argument("--values", default=None,
                   help="comma-separated rationals")
    p.add_argument("--input", default=None,
                   help="JSON file holding an array of rationals")
    common(p, output=True)
    p.set_defaults(func=cmd_solve_monotone)

    p = ssub.add_parser("spencer", help="independent set in a 3-uniform "
                                        "hypergraph by random deletion")
    p.add_argument("--input", required=True)
    p.add_argument("--max-rounds", type=int, default=10 ** 4)
    common(p, seed=True, output=True)
    p.set_defaults(func=cmd_solve_spencer)

    verify = sub.add_parser("verify", help="check stated properties, "
                                           "producing witnesses on failure")
    vsub = verify.add_subparsers(dest="what", required=True)

    p = vsub.add_parser("properties-ab", help="position-of-highest-"
                                              "differing-bit properties")
    p.add_argument("--N", "--bits", dest="bits", type=int, required=True,
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
    p.add_argument("--degree", type=int, default=8)
    common(p, seed=True)
    p.set_defaults(func=cmd_verify_sturm)

    report = sub.add_parser("report", help="small summary tables")
    rsub = report.add_subparsers(dest="what", required=True)

    p = rsub.add_parser("tower", help="iterated exponentials")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--x", type=int, default=2)
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
