"""End-to-end command line tests.

Each test drives semiramsey.cli.main(argv) in process and inspects the
exit code plus captured stdout/stderr; one smoke test goes through a real
subprocess to cover the module entry point.
"""

import contextlib
import copy
import io
import json
import subprocess
import sys
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracle_roots
from semiramsey import (ConstructionInstance, Formula, OrderedPointSet,
                        SemiAlgebraicRelation, SeededRng, base_construction,
                        cli, count_real_roots, from_univariate_coeffs, jsonio,
                        step_up, sturm_sequence)
from semiramsey.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# -- construct ----------------------------------------------------------------


def test_construct_base_prints_instance(capsys):
    code, doc, err = run_json(capsys, "construct", "base", "--n", "3")
    assert code == 0 and err == ""
    assert len(doc["points"]["points"]) == 8
    assert doc["points"]["dim"] == 1
    assert doc["relation"]["arity"] == 3
    assert doc["epsilon"] == "1/10"


def test_construct_base_output_file_and_summary(capsys, tmp_path):
    target = tmp_path / "base2.json"
    code, summary, err = run_json(
        capsys, "construct", "base", "--n", "2", "--output", str(target))
    assert code == 0 and err == ""
    assert summary == {"points": 4, "dim": 1, "arity": 3,
                       "complexity": 3, "epsilon": "1/10"}
    doc = json.loads(target.read_text())
    assert len(doc["points"]["points"]) == 4


def test_construct_stepup_from_file_matches_direct(capsys, tmp_path):
    code, direct, err = run(capsys, "construct", "stepup", "--n", "2")
    assert code == 0 and err == ""
    base_file = tmp_path / "base.json"
    code, _, _ = run(capsys, "construct", "base", "--n", "2",
                     "--output", str(base_file))
    assert code == 0
    code, from_file, err = run(capsys, "construct", "stepup",
                               "--input", str(base_file))
    assert code == 0 and err == ""
    assert from_file == direct


def test_construct_stepup_refuses_points_too_long_to_print(capsys, base2_file):
    """base(2) with each point moved by 1 / q, q of 2,001 digits: the
    stepped-up points have more than MAX_DIGITS digits, and are refused
    before any is printed (exit 3) on every interpreter, where Python
    3.11's int-to-str limit once made this an internal error (exit 5)."""
    with open(base2_file) as fh:
        doc = json.load(fh)
    q = 10 ** 2000 + 1
    doc["points"]["points"] = [[str(F(x) + F(1, q + i))]
                               for i, (x,) in enumerate(doc["points"]["points"])]
    with open(base2_file, "w") as fh:
        json.dump(doc, fh)
    code, out, err = run(capsys, "construct", "stepup", "--input", base2_file)
    assert code == cli.EXIT_RESOURCE == 3 and out == ""
    assert json.loads(err)["error"]["type"] == "ResourceLimitError"


def test_construct_stepup_rejects_conflicting_sources(capsys, tmp_path):
    some = tmp_path / "x.json"
    some.write_text("{}")
    code, out, err = run(capsys, "construct", "stepup",
                         "--n", "2", "--input", str(some))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ArgumentError"


def test_construct_onedim_k4(capsys):
    code, doc, err = run_json(capsys, "construct", "onedim-k4", "--n", "1")
    assert code == 0 and err == ""
    assert [row[0] for row in doc["points"]["points"]] == \
        ["1", "2", "11", "12"]
    assert doc["relation"]["arity"] == 4


def test_construct_frankl_wilson_summary(capsys, tmp_path):
    target = tmp_path / "fw.json"
    code, summary, err = run_json(
        capsys, "construct", "frankl-wilson", "--m", "6", "--p", "2",
        "--output", str(target))
    assert code == 0 and err == ""
    assert summary["points"] == 20
    assert summary["epsilon"] is None


def test_construct_order_type_relation_only(capsys):
    code, doc, err = run_json(capsys, "construct", "order-type", "--dim", "2")
    assert code == 0 and err == ""
    assert doc["arity"] == 3 and doc["dim"] == 2
    assert "formula" in doc and "polys" in doc


def test_construct_order_type_with_points(capsys, tmp_path):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps(
        {"dim": 2, "points": [["0", "0"], ["1", "0"], ["0", "1"]]}))
    code, doc, err = run_json(capsys, "construct", "order-type",
                              "--dim", "2", "--input", str(pts))
    assert code == 0 and err == ""
    assert len(doc["points"]["points"]) == 3
    assert doc["relation"]["arity"] == 3


def test_construct_one_sided_relation_only(capsys):
    code, doc, err = run_json(capsys, "construct", "one-sided", "--dim", "2")
    assert code == 0 and err == ""
    assert doc["arity"] == 2 and doc["dim"] == 3


@pytest.mark.parametrize("command", ["order-type", "one-sided"])
def test_construct_geometry_refuses_output_without_input(capsys, tmp_path,
                                                         command):
    # Without --input only the relation is printed, so there is no
    # instance to write: --output is refused, not ignored.
    target = tmp_path / "x.json"
    code, out, err = run(capsys, "construct", command, "--dim", "2",
                         "--output", str(target))
    assert code == cli.EXIT_USAGE == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "ArgumentError"
    assert not target.exists()


@pytest.mark.parametrize("command, doc", [
    ("order-type", {"dim": 2, "points": [["0", "0"], ["1", "0"], ["0", "1"]]}),
    ("one-sided", {"dim": 2, "hyperplanes": [{"a": ["1", "0"], "b": "2"},
                                             {"a": [0, "1/2"], "b": "-1"}]})])
def test_construct_geometry_bundles_input_of_its_dimension(capsys, tmp_path,
                                                           command, doc):
    source = tmp_path / "in.json"
    source.write_text(json.dumps(doc))
    code, inst, err = run_json(capsys, "construct", command, "--dim", "2",
                               "--input", str(source))
    assert code == 0 and err == ""
    assert inst["provenance"] == {"kind": command, "dim": 2}
    assert len(inst["points"]["points"]) == len(doc.get("points")
                                                or doc["hyperplanes"])
    code, out, err = run(capsys, "construct", command, "--dim", "3",
                         "--input", str(source))
    assert code == cli.EXIT_USAGE and out == ""
    assert json.loads(err)["error"]["type"] == "ArgumentError"


@pytest.mark.parametrize("command,dim", [
    ("order-type", "7"), ("order-type", "100000"),
    ("one-sided", "6"), ("one-sided", "100000")])
def test_construct_geometry_dim_above_expansion_cap(capsys, command, dim):
    # The expansion is counted, and refused, before anything is built.
    code, out, err = run(capsys, "construct", command, "--dim", dim)
    assert code == cli.EXIT_RESOURCE == 3 and out == ""
    assert json.loads(err)["error"]["type"] == "ResourceLimitError"


# -- solve --------------------------------------------------------------------


@pytest.fixture()
def base2_file(tmp_path, capsys):
    path = tmp_path / "base2.json"
    code, _, _ = run(capsys, "construct", "base", "--n", "2",
                     "--output", str(path))
    assert code == 0
    return str(path)


def test_solve_brute_finds_maximum(capsys, base2_file):
    code, doc, err = run_json(capsys, "solve", "brute", "--input", base2_file)
    assert code == 0 and err == ""
    assert doc["subset"] == [1, 2, 3]
    assert doc["certified"] is True
    assert doc["stats"]["maximum"] is True


def test_solve_brute_budget_exhaustion_is_inconclusive(capsys, base2_file):
    code, doc, err = run_json(capsys, "solve", "brute", "--input", base2_file,
                              "--budget", "3")
    assert code == 4
    assert doc["stats"]["maximum"] is False
    assert doc["certified"] is True


def test_solve_greedy_certifies(capsys, base2_file):
    code, doc, err = run_json(capsys, "solve", "greedy", "--input", base2_file)
    assert code == 0 and err == ""
    assert doc["certified"] is True
    assert len(doc["subset"]) >= 2


def test_solve_monotone_values(capsys):
    code, doc, err = run_json(capsys, "solve", "monotone",
                              "--values", "1,3,2,4")
    assert code == 0 and err == ""
    assert doc["stats"]["length"] == 3
    assert doc["stats"]["direction"] == "increasing"
    assert len(doc["subset"]) == 3


ARRANGEMENT = {"dim": 2, "hyperplanes": [{"a": ["1", "0"], "b": "2"},
                                         {"a": [0, "1/2"], "b": "-1"}]}


@pytest.mark.parametrize("command, where, bad", [
    (("solve", "brute"), ("points", "points"), "1234"),
    (("solve", "brute"), ("points", "points"), {str(i): 0 for i in range(4)}),
    (("solve", "brute"), ("points", "points", 0), "1"),
    (("solve", "brute"), ("points", "points", 0), {"1": 0}),
    (("construct", "one-sided", "--dim", "2"), ("hyperplanes", 0, "a"), "10"),
    (("construct", "one-sided", "--dim", "2"), ("hyperplanes", 0, "a"),
     {"1": 0, "0": 0}),
], ids=["points-string", "points-object", "row-string", "row-object",
        "a-string", "a-object"])
def test_a_string_or_an_object_in_place_of_an_array_is_refused(
        capsys, tmp_path, base2_file, command, where, bad):
    """A point set, one of its points and a hyperplane's normal must be
    JSON arrays: a string or an object there was once read entry by entry
    (characters, keys) as if it were one, and the command exited 0."""
    if command[0] == "solve":
        with open(base2_file) as fh:
            good = json.load(fh)
    else:
        good = json.loads(json.dumps(ARRANGEMENT))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(good))
    code, _, err = run(capsys, *command, "--input", str(path))
    assert code == 0 and err == ""
    target = good
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = bad
    path.write_text(json.dumps(good))
    code, out, err = run(capsys, *command, "--input", str(path))
    assert code == cli.EXIT_USAGE == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "ArgumentError"


@pytest.mark.parametrize("dim", [True, 1.0])
def test_an_arrangement_dimension_must_be_an_int(capsys, tmp_path, dim):
    """A bool dimension was once taken for 1 and an instance written; a
    float one was refused only by the representation points, naming their
    dimension, one more than the arrangement's."""
    path = tmp_path / "arrangement.json"
    path.write_text(json.dumps({"dim": dim, "hyperplanes": [
        {"a": ["1"], "b": "2"}, {"a": ["3"], "b": "1"}]}))
    code, out, err = run(capsys, "construct", "one-sided", "--dim", "1",
                         "--input", str(path))
    assert code == cli.EXIT_USAGE == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ArgumentError"
    assert error["message"] == f"dimension must be an int of at least 1, got {dim!r}"


@pytest.mark.parametrize("values", ["1e-1000000,1", "1,2.5", "1,+2", "1,0x10"])
def test_solve_monotone_refuses_what_is_not_a_rational_string(capsys, values):
    """Exponent notation once decoded 1e-1000000 to a million-digit
    denominator and then failed to print it (exit 5)."""
    code, out, err = run(capsys, "solve", "monotone", "--values", values)
    assert code == cli.EXIT_USAGE == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "ArgumentError"


def test_solve_monotone_input_reads_ints_and_strings(capsys, tmp_path):
    path = tmp_path / "values.json"
    path.write_text('[3, "1/2", -4, "7"]')
    code, doc, err = run_json(capsys, "solve", "monotone", "--input", str(path))
    assert code == 0 and err == ""
    assert doc["stats"]["values"] == ["3", "1/2", "-4"]
    path.write_text('[1, 2.5]')
    code, out, err = run(capsys, "solve", "monotone", "--input", str(path))
    assert code == 2 and json.loads(err)["error"]["type"] == "ArgumentError"


def test_solve_spencer(capsys, tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(
        {"n": 6, "edges": [[1, 2, 3], [4, 5, 6]]}))
    code, doc, err = run_json(capsys, "solve", "spencer",
                              "--input", str(graph), "--seed", "7")
    assert code == 0 and err == ""
    assert len(doc["subset"]) >= 4
    assert doc["polarity"] == "out"
    # p = sqrt(6 / (3 * 2)) = 1 is given exactly, as p^2.
    assert doc["stats"] == {"rounds": 1, "probability_squared": "1",
                            "bound_check": "27*4^2*2 >= 4*6^3"}


@pytest.mark.parametrize("graph", [
    {"n": 4.5, "edges": [[1, 2, 3], [1, 2, 4]]},
    {"n": True, "edges": []},
    {"n": 4, "edges": [[1, 2, 3.0], [1, 2, 4]]},
    {"n": 4, "edges": [[True, 2, 3], [1, 2, 4]]},
    {"n": 0, "edges": []},
    {"n": -3, "edges": []},
], ids=["float-count", "bool-count", "float-vertex", "bool-vertex",
        "zero-count", "negative-count"])
def test_solve_spencer_refuses_non_int_vertices(capsys, tmp_path, graph):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    code, out, err = run(capsys, "solve", "spencer", "--input", str(path))
    assert code == cli.EXIT_USAGE == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "ArgumentError"


# -- verify -------------------------------------------------------------------


def test_verify_properties_ab(capsys):
    code, doc, err = run_json(capsys, "verify", "properties-ab", "--N", "6")
    assert code == 0 and err == ""
    assert doc == {"bits": 6, "ok": True}


def test_verify_stepup_consistency_small(capsys):
    code, doc, err = run_json(capsys, "verify", "stepup-consistency",
                              "--n", "1")
    assert code == 0 and err == ""
    assert doc["ok"] is True and doc["tuples_checked"] == 1


def test_verify_stepup_consistency_hits_resource_cap(capsys, tmp_path):
    # The caps are checked before stepping up, so even --n 4 (65,536 points)
    # is refused at once: without --sample by the tuple count, with it (and
    # in construct) by its C(65536, 2) point pairs, the bound on the output
    # size.  The point caps are fixed, so the constructions above them are
    # refused before anything is built.  properties-ab visits every point
    # pair, and the pairs of onedim-k4 bound its output size, so both are
    # refused above MAX_PAIRS pairs, with exponents compared before any
    # power of two is formed.  frankl-wilson at p = 5 has one vertex but is
    # refused by its literal count (MAX_LITERALS), and so is every p above
    # 31, before its primality is tested: the prime 2^61 - 1 is refused at
    # once, here with exit 3 and with exit 2 below, where m < p^2 - 1.  An m
    # of 4,001 digits is refused by the vertex count before C(m, r) is formed.
    # transitive-ramsey refuses more than MAX_TUPLES triples (C(N, 3), with
    # N the threshold C(76, 38) + 1 when --points is not given) and eps-deep
    # more than MAX_TUPLES tuples (C(4096, 3) on base(12)), each before the
    # first; report transitive refuses more than MAX_TUPLES rows, and
    # milnor-thom a --points above MAX_POINTS, before anything is drawn.
    big_p = str(2 ** 61 - 1)
    base12 = str(tmp_path / "base12.json")
    assert run(capsys, "construct", "base", "--n", "12",
               "--output", base12)[0] == 0
    for argv in (("verify", "stepup-consistency", "--n", "3"),
                 ("verify", "stepup-consistency", "--n", "4"),
                 ("verify", "stepup-consistency", "--n", "4", "--sample", "1"),
                 ("construct", "stepup", "--n", "4"),
                 ("construct", "base", "--n", "21"),
                 ("construct", "onedim-k4", "--n", "5"),
                 ("construct", "frankl-wilson", "--m", "200", "--p", "2"),
                 ("construct", "frankl-wilson", "--m", "24", "--p", "5"),
                 ("construct", "frankl-wilson", "--m", str(10 ** 40),
                  "--p", big_p),
                 ("construct", "frankl-wilson", "--m", str(10 ** 4000),
                  "--p", "31"),
                 ("construct", "onedim-k4", "--n", "4"),
                 ("construct", "onedim-k4", "--n", "40"),
                 ("construct", "onedim-k4", "--n", "1000000000"),
                 ("construct", "base", "--n", "100000000"),
                 ("verify", "properties-ab", "--N", "11"),
                 ("verify", "properties-ab", "--N", "40"),
                 ("verify", "properties-ab", "--N", "1000000000"),
                 ("verify", "transitive-ramsey", "--s", "3", "--n", "3",
                  "--points", "100000"),
                 ("verify", "transitive-ramsey", "--s", "40", "--n", "40"),
                 ("verify", "eps-deep", "--input", base12, "--samples", "0"),
                 ("report", "transitive", "--max-s", "30000",
                  "--max-n", "30000"),
                 ("verify", "milnor-thom", "--points", "1000000000",
                  "--trials", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ResourceLimitError"
    code, out, err = run(capsys, "construct", "frankl-wilson", "--m", "1",
                         "--p", big_p)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "ArgumentError"


@pytest.mark.parametrize("argv", [
    ["verify", "stepup-consistency", "--n", "2", "--sample", "1000000000"],
    ["verify", "eps-deep", "--input", "{base2}", "--samples", "1000000000"],
    ["verify", "eps-deep", "--input", "{wide}"],
    ["solve", "monotone", "--input", "{values}"],
], ids=["stepup-consistency-sample", "eps-deep-samples", "eps-deep-wide",
        "monotone-input"])
def test_reads_without_a_bound_are_refused_before_the_first(
        capsys, tmp_path, base2_file, argv):
    """A --sample of stepup-consistency above MAX_TUPLES, eps-deep's
    C(n, k) * (k * 2^d + samples) perturbed reads above MAX_TUPLES (with d
    compared before 2^d is formed: 2 points in R^40) and a monotone input of
    10^5 values, more than MAX_PAIRS pairs, are each refused at once, with
    exit 3."""
    wide = tmp_path / "wide.json"
    wide.write_text(jsonio.dumps(jsonio.instance_to_json(ConstructionInstance(
        OrderedPointSet(40, [[0] * 40, [1] * 40]),
        SemiAlgebraicRelation(2, 40, [], Formula.all_of([])),
        F(1, 10), {"kind": "test"}))))
    values = tmp_path / "values.json"
    values.write_text(json.dumps(list(range(10 ** 5))))
    argv = [a.format(base2=base2_file, wide=wide, values=values) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["type"] == "ResourceLimitError"


def test_verify_stepup_consistency_sampled(capsys):
    code, doc, err = run_json(capsys, "verify", "stepup-consistency",
                              "--n", "3", "--sample", "50")
    assert code == 0 and err == ""
    assert doc["ok"] is True and doc["tuples_checked"] == 50


def test_verify_eps_deep(capsys, base2_file):
    code, doc, err = run_json(capsys, "verify", "eps-deep",
                              "--input", base2_file, "--samples", "5")
    assert code == 0 and err == ""
    assert doc == {"ok": True}


def test_verify_transitive_ramsey_threshold_mode(capsys):
    code, doc, err = run_json(capsys, "verify", "transitive-ramsey",
                              "--s", "3", "--n", "3")
    assert code == 0 and err == ""
    assert doc["threshold"] == 3
    assert doc["holds_at_threshold"] is True
    assert doc["holds_below"] is False


def test_verify_transitive_ramsey_fails_below_threshold(capsys):
    code, doc, err = run_json(capsys, "verify", "transitive-ramsey",
                              "--s", "3", "--n", "3", "--points", "2")
    assert code == 1
    assert doc["ok"] is False
    assert "witness" in doc


def test_verify_sturm(capsys):
    code, doc, err = run_json(capsys, "verify", "sturm", "--trials", "40")
    assert code == 0 and err == ""
    assert doc == {"ok": True, "trials": 40, "stats": {
        "chain_members": 247, "sign_reads": 123, "roots": 59}}


def test_verifier_counters_are_pinned_and_roots_are_counted_twice(capsys):
    """The work counts of both verifiers at --trials 40 --seed 1.  The
    trials of `verify sturm` are replayed from the same draws: `roots` is
    the sum of count_real_roots on the Fraction polynomial, and of the
    independent oracle, over the intervals the verifier reads, and
    `chain_members` the sum of the chain lengths of sturm_sequence on the
    drawn ints."""
    code, doc, err = run_json(capsys, "verify", "sturm", "--trials", "40",
                              "--seed", "1")
    assert code == 0 and err == ""
    assert doc["stats"] == {"chain_members": 213, "sign_reads": 121,
                            "roots": 63}
    rng = SeededRng(1)
    members = ours = oracle = 0
    for trial in range(40):
        t_rng = rng.derive(f"poly-{trial}")
        degree = t_rng.randint(1, 8)
        coeffs = [t_rng.randint(-9, 9) for _ in range(degree)]
        coeffs.append(t_rng.randint(1, 9))
        g = from_univariate_coeffs([F(c) for c in coeffs])
        a, b = F(-100), F(100)
        while g.eval([a]) == 0:
            a -= 1
        while g.eval([b]) == 0:
            b += 1
        members += len(sturm_sequence(coeffs))
        ours += count_real_roots(g, a, b)
        oracle += oracle_roots.count_distinct_roots(coeffs, a, b)
    assert (members, ours, oracle) == (213, 63, 63)
    code, doc, err = run_json(capsys, "verify", "milnor-thom", "--trials",
                              "40", "--points", "50", "--seed", "1")
    assert code == 0 and err == ""
    assert doc["stats"] == {"families": 40, "sign_evaluations": 8550,
                            "sign_vectors": 379}


def _negated(coeffs):
    return [-c for c in coeffs]


def _times(coeffs, factor):
    out = [0] * (len(coeffs) + len(factor) - 1)
    for i, c in enumerate(coeffs):
        for j, f in enumerate(factor):
            out[i + j] += c * f
    return out


# Wrong chains, each built from the true chain (`ints`, its int lists) or from
# wrong coefficients.  On every one of them the split at the midpoint adds
# up to the total, as it must (both are differences of the same three
# reads); each is caught by one of the other checks.
_WRONG_CHAINS = {
    # caught by the reads' order, at_a >= at_mid >= at_b
    "last-member-dropped": lambda ints, coeffs: ints[:-1] or ints,
    "derivative-dropped": lambda ints, coeffs: ints[:1] + ints[2:],
    "derivative-negated": lambda ints, coeffs: [
        ints[0], _negated(ints[1]), *ints[2:]],
    "third-member-negated": lambda ints, coeffs: [
        *ints[:2], *map(_negated, ints[2:3]), *ints[3:]],  # if it has one
    # a member whose root 200 is beyond b = 100 (caught at +-inf only)
    "member-past-b-appended": lambda ints, coeffs: [*ints, [-200, 1]],
    # the chain of g': roots of the wrong parity (caught by the parity only)
    "chain-of-derivative": lambda ints, coeffs: sturm_sequence(
        [i * c for i, c in enumerate(coeffs)][1:]),
    # the chain of (x^2 - 1) * g: more roots than deg g where g has all
    # its roots real, as every g of degree 1 has (caught by the degree only)
    "chain-of-x2-minus-1-times-g": lambda ints, coeffs: sturm_sequence(
        _times(coeffs, [-1, 0, 1])),
}


@pytest.mark.parametrize("mutant", _WRONG_CHAINS.values(),
                         ids=_WRONG_CHAINS.keys())
def test_verify_sturm_refuses_a_wrong_chain(capsys, monkeypatch, mutant):
    """The split of the total at the midpoint is a difference of the same
    three reads; the checks against the root count at +-inf, the degree
    of g, its parity and the reads' order find a wrong chain."""
    def wrong_chain(coeffs):
        return mutant(sturm_sequence(coeffs), coeffs)

    monkeypatch.setattr(cli, "sturm_sequence", wrong_chain)
    code, doc, err = run_json(capsys, "verify", "sturm", "--trials", "200",
                              "--seed", "1")
    assert code == cli.EXIT_FAIL == 1 and err == ""
    assert doc["ok"] is False
    assert set(doc["witness"]) == {"trial", "degree", "real_roots", "reads"}


def test_verify_milnor_thom(capsys):
    code, doc, err = run_json(capsys, "verify", "milnor-thom",
                              "--trials", "5", "--points", "50")
    assert code == 0 and err == ""
    assert doc["ok"] is True


@pytest.mark.parametrize("argv", [
    ["verify", "sturm", "--trials", "-1"],
    ["verify", "milnor-thom", "--trials", "-1"],
    ["verify", "milnor-thom", "--points", "-1"],
    ["verify", "properties-ab", "--N", "-1"],
    ["verify", "properties-ab", "--N", "0"],
    ["verify", "eps-deep", "--input", "{base2}", "--samples", "-1"],
    ["verify", "stepup-consistency", "--n", "1", "--sample", "-1"],
    ["verify", "transitive-ramsey", "--s", "3", "--n", "3", "--budget", "-1"],
    ["solve", "brute", "--input", "{base2}", "--budget", "-1"],
    ["report", "hom", "--n", "2", "--budget", "-1"],
], ids=["sturm-trials-negative",
        "milnor-thom-trials-negative", "milnor-thom-points-negative",
        "properties-ab-bits-negative", "properties-ab-bits-0",
        "eps-deep-samples-negative", "stepup-consistency-sample-negative",
        "transitive-ramsey-budget-negative", "brute-budget-negative",
        "hom-budget-negative"])
def test_verify_refuses_counts_out_of_range(capsys, base2_file, argv):
    argv = [a.format(base2=base2_file) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_USAGE == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "ArgumentError"


# -- report -------------------------------------------------------------------


def test_report_tower_json(capsys):
    code, rows, err = run_json(capsys, "report", "tower", "--height", "4")
    assert code == 0 and err == ""
    assert rows == [{"height": 1, "value": 2}, {"height": 2, "value": 4},
                    {"height": 3, "value": 16}, {"height": 4, "value": 65536}]


def test_report_tower_text(capsys):
    code, out, err = run(capsys, "report", "tower", "--height", "3",
                         "--format", "text")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].split() == ["height", "value"]
    assert lines[3].split() == ["3", "16"]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_report_tower_refuses_values_too_long_to_print(capsys, fmt):
    # tower(5, 2) = 2^65536 is within the bit cap, but its 19,729 decimal
    # digits are above MAX_DIGITS.
    code, out, err = run(capsys, "report", "tower", "--height", "5",
                         "--format", fmt)
    assert code == cli.EXIT_RESOURCE == 3 and out == ""
    assert json.loads(err)["error"]["type"] == "ResourceLimitError"


def test_report_transitive_thresholds(capsys):
    code, rows, err = run_json(capsys, "report", "transitive",
                               "--max-s", "4", "--max-n", "4")
    assert code == 0 and err == ""
    table = {(r["s"], r["n"]): r["threshold"] for r in rows}
    assert table == {(3, 3): 3, (3, 4): 4, (4, 3): 4, (4, 4): 7}


def test_report_hom(capsys):
    code, rows, err = run_json(capsys, "report", "hom", "--n", "2", "3")
    assert code == 0 and err == ""
    assert rows == [
        {"instance": "base-2", "points": 4, "hom": 3, "maximum": True},
        {"instance": "base-3", "points": 8, "hom": 4, "maximum": True}]


def test_report_hom_budget_exhaustion_is_inconclusive(capsys):
    """The table is printed, and a row that is not maximum gives exit 4,
    as the same search through `solve brute` does."""
    code, rows, err = run_json(capsys, "report", "hom", "--n", "2", "3",
                               "--budget", "1")
    assert code == cli.EXIT_INCONCLUSIVE == 4 and err == ""
    assert [row["maximum"] for row in rows] == [False, False]
    code, _, _ = run(capsys, "report", "hom", "--n", "3", "--budget", "1",
                     "--format", "text")
    assert code == 4


def test_report_hom_requires_some_input(capsys):
    code, out, err = run(capsys, "report", "hom")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ArgumentError"


# -- cross-cutting behaviour -----------------------------------------------------


def test_identical_invocations_are_byte_identical(capsys):
    _, out1, _ = run(capsys, "construct", "stepup", "--n", "2")
    _, out2, _ = run(capsys, "construct", "stepup", "--n", "2")
    assert out1 == out2
    _, mt1, _ = run(capsys, "verify", "milnor-thom", "--trials", "3",
                    "--points", "20", "--seed", "5")
    _, mt2, _ = run(capsys, "verify", "milnor-thom", "--trials", "3",
                    "--points", "20", "--seed", "5")
    assert mt1 == mt2


def test_one_process_prints_what_fresh_processes_print(capsys):
    """main builds its parser once per process: commands run one after the
    other in this process, a refused option among them, print the same
    bytes and exit codes as each does in a fresh process."""
    commands = [["construct", "base", "--n", "2"],
                ["verify", "sturm", "--trials", "5", "--seed", "1"],
                ["report", "tower", "--height", "2", "--x", "3"],
                ["construct", "base", "--n", "2"]]
    in_process = []
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses with exit 2
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    fresh = []
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "semiramsey", *argv],
                              capture_output=True, text=True, timeout=120)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert in_process == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0]
    assert cli.build_parser() is cli.build_parser()


def test_output_is_canonical_json(capsys):
    code, out, err = run(capsys, "construct", "base", "--n", "2")
    assert code == 0
    assert out.endswith("\n")
    assert out == jsonio.dumps(json.loads(out))


def test_missing_input_file_is_usage_error(capsys):
    code, out, err = run(capsys, "solve", "brute",
                         "--input", "/nonexistent/file.json")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "FileNotFoundError"


def test_malformed_input_is_usage_error(capsys, base2_file):
    with open(base2_file) as fh:
        doc = json.load(fh)
    del doc["relation"]["dim"]
    for text in ("{not json", json.dumps(doc)):
        with open(base2_file, "w") as fh:
            fh.write(text)
        code, out, err = run(capsys, "solve", "brute", "--input", base2_file)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ArgumentError"


@pytest.mark.parametrize("command", [["solve", "brute"],
                                     ["construct", "stepup"]],
                         ids=["solve-brute", "construct-stepup"])
@pytest.mark.parametrize("op, depth", [("and", 300), ("and", 450),
                                       ("not", 2000)],
                         ids=["and-300", "and-450", "not-2000"])
def test_deeply_nested_formula_is_usage_error(capsys, base2_file, command,
                                              op, depth):
    """Nested ands past MAX_FORMULA_DEPTH are refused by the formula
    decoder (300 of them once decoded, and then failed to write the stepped
    instance), and a 2000-deep not chain overflows the JSON decoder: exit
    2, not an internal error."""
    with open(base2_file) as fh:
        doc = json.load(fh)
    inner = json.dumps(doc["relation"]["formula"])
    doc["relation"]["formula"] = "@"
    nested = (f'{{"op": "{op}", "args": [' * depth + inner + "]}" * depth)
    with open(base2_file, "w") as fh:
        fh.write(json.dumps(doc).replace('"@"', nested))
    code, out, err = run(capsys, *command, "--input", base2_file)
    assert code == cli.EXIT_USAGE == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ArgumentError"
    assert "nested too deeply" in error["message"]


def test_stepping_up_past_the_depth_cap_is_refused(capsys, base2_file,
                                                  tmp_path):
    """Stepping up nests the base formula 3 levels deeper.  A base of
    MAX_FORMULA_DEPTH levels is read and solved, but stepping it up is
    refused with 2 and nothing is written; at MAX_FORMULA_DEPTH - 3 levels
    the stepped instance (at the cap) is written and reads back."""
    from semiramsey.errors import MAX_FORMULA_DEPTH
    with open(base2_file) as fh:
        doc = json.load(fh)
    formula = doc["relation"]["formula"]
    assert formula["op"] == "and" and formula["args"][0]["op"] == "atom"
    for levels, written in ((MAX_FORMULA_DEPTH, False),
                            (MAX_FORMULA_DEPTH - 2, False),
                            (MAX_FORMULA_DEPTH - 3, True)):
        nested = formula
        for _ in range(levels - 2):
            nested = {"op": "and", "args": [nested]}
        doc["relation"]["formula"] = nested
        with open(base2_file, "w") as fh:
            json.dump(doc, fh)
        code, out, err = run(capsys, "solve", "brute", "--input", base2_file)
        assert code == cli.EXIT_OK and err == ""
        stepped = tmp_path / f"stepped-{levels}.json"
        code, out, err = run(capsys, "construct", "stepup", "--input",
                             base2_file, "--output", str(stepped))
        if written:
            assert code == cli.EXIT_OK and err == ""
            code, out, err = run(capsys, "solve", "brute",
                                 "--input", str(stepped))
            assert code == cli.EXIT_OK and err == ""
            continue
        assert code == cli.EXIT_USAGE and out == ""
        assert not stepped.exists()
        error = json.loads(err)["error"]
        assert error["type"] == "ArgumentError"
        assert "nested too deeply" in error["message"]


def test_stepping_up_an_instance_without_epsilon_is_usage_error(capsys,
                                                                base2_file):
    with open(base2_file) as fh:
        doc = json.load(fh)
    doc["epsilon"] = None
    with open(base2_file, "w") as fh:
        json.dump(doc, fh)
    code, out, err = run(capsys, "construct", "stepup", "--input", base2_file)
    assert code == cli.EXIT_USAGE == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "PreconditionError"


def _float_exponent(doc):
    doc["relation"]["polys"][0]["terms"][0]["e"][0] = 1.9
    return doc


def _atom_on_float_poly(doc):
    doc["relation"]["formula"] = {"op": "atom", "poly": 0.5, "cmp": "ge"}
    return doc


def _float_arity_without_polys(doc):
    doc["relation"] = {"arity": 2.5, "dim": 1, "polys": [],
                       "formula": {"op": "and", "args": []}}
    return doc


def _float_point_dim(doc):
    doc["points"]["dim"] = 1.0
    return doc


@pytest.mark.parametrize("mutate", [
    _float_exponent, lambda doc: [], _atom_on_float_poly,
    _float_arity_without_polys, _float_point_dim,
], ids=["float-exponent", "top-level-list", "atom-float-poly",
        "float-arity-no-polys", "float-point-dim"])
def test_malformed_instance_shape_is_usage_error(capsys, base2_file, mutate):
    with open(base2_file) as fh:
        doc = mutate(json.load(fh))
    with open(base2_file, "w") as fh:
        json.dump(doc, fh)
    code, out, err = run(capsys, "solve", "brute", "--input", base2_file)
    assert code == cli.EXIT_USAGE == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "ArgumentError"


def test_high_degree_input_is_resource_error(capsys, base2_file):
    # The formula never reads the extra polynomial; decoding refuses it.
    with open(base2_file) as fh:
        doc = json.load(fh)
    doc["relation"]["polys"].append(
        {"vars": 3, "terms": [{"c": "1", "e": [0, 0, 10 ** 9]}]})
    with open(base2_file, "w") as fh:
        json.dump(doc, fh)
    code, out, err = run(capsys, "solve", "brute", "--input", base2_file)
    assert code == cli.EXIT_RESOURCE == 3 and out == ""
    assert json.loads(err)["error"]["type"] == "ResourceLimitError"


def test_unexpected_exception_is_internal_error(capsys, monkeypatch,
                                               base2_file):
    # Exit 1 means "property fails"; a crash must not look like one.
    def broken(*args, **kwargs):
        raise AssertionError("greedy invariant broken")

    monkeypatch.setattr(cli.solvers, "erdos_rado_greedy", broken)
    code, out, err = run(capsys, "solve", "greedy", "--input", base2_file)
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "AssertionError"
    assert error["message"] == "greedy invariant broken"
    assert "Traceback" in error["traceback"]


@pytest.mark.parametrize("command", [
    ["solve", "brute", "--input", "{base3}"], ["report", "hom", "--n", "3"]],
    ids=["solve-brute", "report-hom"])
def test_a_failed_certificate_is_internal_error(capsys, monkeypatch, tmp_path,
                                                command):
    """The search's subset is certified through solvers.eval_membership;
    when that read disagrees with the search, both commands exit 5, as the
    greedy does, and print no verdict."""
    base3 = tmp_path / "base3.json"
    assert run(capsys, "construct", "base", "--n", "3",
               "--output", str(base3))[0] == 0
    reads = []
    original = cli.solvers.eval_membership

    def flipped(*args):
        reads.append(args)
        return original(*args) != (len(reads) == 2)  # flips the second read

    monkeypatch.setattr(cli.solvers, "eval_membership", flipped)
    code, out, err = run(capsys, *[a.format(base3=base3) for a in command])
    assert code == cli.EXIT_INTERNAL == 5 and out == ""
    assert json.loads(err)["error"]["type"] == "AssertionError"
    assert len(reads) >= 2


@pytest.mark.parametrize("argv", [
    ["solve", "brute", "--input", "-", "--output", "x"],
    ["solve", "greedy", "--input", "-", "--output", "x"],
    ["solve", "monotone", "--values", "1,2", "--output", "x"],
    ["solve", "spencer", "--input", "-", "--output", "x"],
    ["verify", "properties-ab", "--bits", "3"],
], ids=["brute-output", "greedy-output", "monotone-output", "spencer-output",
        "properties-ab-bits"])
def test_removed_options_are_refused(capsys, argv):
    """`solve` prints its result on stdout only, and properties-ab takes
    its exponent as --N only: argparse refuses the old spellings."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == cli.EXIT_USAGE == 2
    assert capsys.readouterr().out == ""


# Valid documents for the commands that read one; each mutation below
# rewrites one node of a copy: drops it, or puts a value of the wrong type,
# a string, an empty container or a huge int in its place.
_INSTANCES = {"base-2": jsonio.instance_to_json(base_construction(2)),
              "stepped-base-1": jsonio.instance_to_json(
                  step_up(base_construction(1)))}
_FUZZ_JOBS = [
    (["solve", "brute"], _INSTANCES), (["solve", "greedy"], _INSTANCES),
    (["solve", "spencer"], {"hypergraph": {
        "n": 6, "edges": [[1, 2, 3], [4, 5, 6], [1, 4, 5]]}}),
    (["solve", "monotone"], {"monotone": ["3", 1, "1/2", 4, "-2"]}),
    (["construct", "stepup"], _INSTANCES),
    (["construct", "order-type", "--dim", "2"], {"points": {
        "dim": 2, "points": [["0", "0"], ["1", "0"], ["0", "1"],
                             ["1", "1/2"]]}}),
    (["construct", "one-sided", "--dim", "2"], {"arrangement": ARRANGEMENT}),
    (["verify", "eps-deep"], _INSTANCES),
]
_DROP = object()
_SWAPS = [_DROP, None, True, 0, -1, 1.5, 10 ** 400, -(2 ** 64), "", "x",
          "1/0", "-3/4", [], {}, [[]], {"": None}]


def _nodes(doc, path=()):
    """The path of every node of a JSON document, the root's () first."""
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


@given(st.data())
@settings(derandomize=True, max_examples=400, deadline=None)
def test_mutated_documents_get_a_documented_exit(data):
    """No mutated document crashes a command (exit 5); every error is one
    JSON line on stderr, and only eps-deep's property can fail (exit 1)."""
    command, docs = data.draw(st.sampled_from(_FUZZ_JOBS))
    doc = copy.deepcopy(docs[data.draw(st.sampled_from(sorted(docs)))])
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_nodes(doc))))
        value = data.draw(st.sampled_from(_SWAPS))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is _DROP:
            if path:
                del parent[path[-1]]
            else:
                doc = {}
        elif path:
            parent[path[-1]] = copy.deepcopy(value)
        else:
            doc = copy.deepcopy(value)
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch("sys.stdin", io.StringIO(json.dumps(doc))),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        code = main([*command, "--input", "-"])
    err = err.getvalue()
    assert code in (0, 1, 2, 3, 4), err
    assert err == "" or (err.count("\n") == 1 and err.endswith("\n")
                         and list(json.loads(err)) == ["error"])
    assert code != cli.EXIT_FAIL or command == ["verify", "eps-deep"]


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "semiramsey.cli",
         "construct", "base", "--n", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["points"]["points"]) == 4


def test_package_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "semiramsey",
         "verify", "sturm", "--trials", "5", "--seed", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"ok": True, "trials": 5, "stats": {
        "chain_members": 30, "sign_reads": 15, "roots": 11}}
