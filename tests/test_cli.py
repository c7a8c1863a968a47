"""End-to-end command line tests.

Each test drives semiramsey.cli.main(argv) in process and inspects the
exit code plus captured stdout/stderr; one smoke test goes through a real
subprocess to cover the module entry point.
"""

import json
import subprocess
import sys

import pytest

from semiramsey import cli, jsonio
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


def test_solve_spencer(capsys, tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(
        {"n": 6, "edges": [[1, 2, 3], [4, 5, 6]]}))
    code, doc, err = run_json(capsys, "solve", "spencer",
                              "--input", str(graph), "--seed", "7")
    assert code == 0 and err == ""
    assert len(doc["subset"]) >= 4
    assert doc["polarity"] == "out"


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


def test_verify_stepup_consistency_hits_resource_cap(capsys):
    # The caps are checked before stepping up, so even --n 4 (65,536 points)
    # is refused at once: without --sample by the tuple count, with it (and
    # in construct) by the C(65536, 2) point pairs of the stability radius.
    # The point caps are fixed, so the constructions above them are refused
    # before anything is built.  onedim-k4 and properties-ab visit every
    # point pair, so they are refused above MAX_PAIRS pairs, with exponents
    # compared before any power of two is formed.
    for argv in (("verify", "stepup-consistency", "--n", "3"),
                 ("verify", "stepup-consistency", "--n", "4"),
                 ("verify", "stepup-consistency", "--n", "4", "--sample", "1"),
                 ("construct", "stepup", "--n", "4"),
                 ("construct", "base", "--n", "21"),
                 ("construct", "onedim-k4", "--n", "5"),
                 ("construct", "frankl-wilson", "--m", "200", "--p", "2"),
                 ("construct", "onedim-k4", "--n", "4"),
                 ("construct", "onedim-k4", "--n", "40"),
                 ("construct", "onedim-k4", "--n", "1000000000"),
                 ("construct", "base", "--n", "100000000"),
                 ("verify", "properties-ab", "--N", "11"),
                 ("verify", "properties-ab", "--N", "40"),
                 ("verify", "properties-ab", "--N", "1000000000")):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
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
    assert doc == {"ok": True, "trials": 40}


def test_verify_milnor_thom(capsys):
    code, doc, err = run_json(capsys, "verify", "milnor-thom",
                              "--trials", "5", "--points", "50")
    assert code == 0 and err == ""
    assert doc["ok"] is True


@pytest.mark.parametrize("argv", [
    ["verify", "sturm", "--degree", "0"],
    ["verify", "sturm", "--degree", "-2"],
    ["verify", "sturm", "--trials", "-1"],
    ["verify", "milnor-thom", "--trials", "-1"],
    ["verify", "milnor-thom", "--points", "-1"],
    ["verify", "properties-ab", "--N", "-1"],
    ["verify", "properties-ab", "--N", "0"],
    ["verify", "eps-deep", "--input", "{base2}", "--samples", "-1"],
    ["verify", "stepup-consistency", "--n", "1", "--sample", "-1"],
    ["verify", "transitive-ramsey", "--s", "3", "--n", "3", "--budget", "-1"],
    ["solve", "brute", "--input", "{base2}", "--budget", "-1"],
    ["solve", "greedy", "--input", "{base2}", "--budget", "-1"],
    ["solve", "spencer", "--input", "{graph}", "--max-rounds", "0"],
    ["report", "hom", "--n", "2", "--budget", "-1"],
], ids=["sturm-degree-0", "sturm-degree-negative", "sturm-trials-negative",
        "milnor-thom-trials-negative", "milnor-thom-points-negative",
        "properties-ab-bits-negative", "properties-ab-bits-0",
        "eps-deep-samples-negative", "stepup-consistency-sample-negative",
        "transitive-ramsey-budget-negative", "brute-budget-negative",
        "greedy-budget-negative", "spencer-max-rounds-0",
        "hom-budget-negative"])
def test_verify_refuses_counts_out_of_range(capsys, tmp_path, base2_file,
                                            argv):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"n": 6, "edges": [[1, 2, 3], [4, 5, 6]]}))
    argv = [a.format(base2=base2_file, graph=graph) for a in argv]
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
    assert json.loads(proc.stdout) == {"ok": True, "trials": 5}
