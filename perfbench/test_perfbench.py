"""Tests of the benchmark's own machinery: python3 -m pytest perfbench"""

import itertools
import signal
import time
from fractions import Fraction

import pytest

import speed
import tracing
import workloads
from semiramsey import cli, constructions, jsonio, relation, solvers, sturm


def test_speed_clock_probes_while_running_and_then_stops():
    clock = speed.SpeedClock().start()
    deadline = time.perf_counter() + 0.1
    while time.perf_counter() < deadline:
        pass
    raw, scaled = clock.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.probes) >= 5  # one per 10 ms, and one at stop()
    assert 0.05 < raw < 0.2
    assert scaled > 0


def test_self_times_on_a_nested_call_tree():
    # cli.main [0, 10] -> bnb [1, 7] -> membership [2, 5] -> eval [3, 4]
    #                  -> eval [8, 9]
    spans = [["cli.main", 0.0, 10.0, -1, "0.0", 0.0],
             ["solvers.bnb", 1.0, 7.0, 0, "0.0", 0.0],
             ["relation.membership", 2.0, 5.0, 1, "0.0", 0.0],
             ["poly.eval", 3.0, 4.0, 2, "0.0", 0.0],
             ["poly.eval", 8.0, 9.0, 0, "0.0", 0.0]]
    assert tracing.self_times(spans) == {
        "cli.main": 3.0, "solvers.bnb": 3.0, "relation.membership": 2.0,
        "poly.eval": 2.0}

    tracer = tracing.Tracer()
    tracer.spans.extend(spans)
    tracer.counts["solvers.bnb.nodes"] = 4
    metrics = tracing.layer_metrics(tracer, wall=10.5, passes=1)
    assert metrics["cli.self_s"]["value"] == 3.5  # cli.main self + glue
    assert metrics["solvers.bnb.nodes_per_s"]["value"] == 4 / 6.0
    assert metrics["solvers.bnb.evals_per_node"]["value"] == 1 / 4
    assert metrics["poly.eval.calls"]["value"] == 2
    layer_self = sum(m["value"] for name, m in metrics.items()
                     if name.endswith(".self_s"))
    assert layer_self == pytest.approx(metrics["trace.wall_s"]["value"])


def test_wrapped_calls_nest_and_leave_out_speed_probes():
    def busy():
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            pass

    tracer = tracing.Tracer()
    inner = tracer.wrap("poly.eval", busy)
    outer = tracer.wrap("relation.membership", lambda: (inner(), inner()))
    clock = speed.SpeedClock(tracer.exclude).start()
    outer()
    clock.stop()
    first, second, third = tracer.spans
    assert (second[3], third[3]) == (0, 0)
    excluded = sum(span[5] for span in tracer.spans)
    assert excluded > 0
    own = tracing.self_times(tracer.spans)
    assert sum(own.values()) == pytest.approx(first[2] - first[1] - excluded)


def test_calls_through_import_aliases_are_counted():
    aliases = [(solvers, "eval_membership"), (constructions, "eval_membership"),
               (cli, "eval_membership"), (cli, "count_real_roots"),
               (cli, "sturm_sequence"), (cli, "count_distinct_sign_vectors"),
               (sturm, "univariate_divmod")]
    originals = [getattr(owner, name) for owner, name in aliases]
    inst = constructions.base_construction(2)
    with tracing.Tracer() as tracer:
        for (owner, name), original in zip(aliases, originals):
            assert getattr(owner, name).__wrapped__ is original
        res = solvers.max_homogeneous(inst.points, inst.relation)
    assert [getattr(owner, name) for owner, name in aliases] == originals
    assert tracer.spans[0][0] == "solvers.bnb"
    # max_homogeneous reaches eval_membership only through its solvers alias.
    parents = [parent for layer, _, _, parent, _, _ in tracer.spans
               if layer == "relation.membership"]
    assert parents and set(parents) == {0}
    assert tracer.counts["solvers.bnb.nodes"] == res.stats["nodes"]


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED,
                                  workloads.HELD_OUT_SEED])
def test_jittered_base_keeps_the_base_verdict(seed):
    base = constructions.base_construction(4)
    moved = jsonio.instance_from_json(workloads.jittered_base(4, seed))
    offsets = [moved.points.point(i)[0] - base.points.point(i)[0]
               for i in range(1, 17)]
    assert all(abs(d) <= Fraction(1, 10) for d in offsets)
    assert len(set(offsets)) > 1
    for t in itertools.combinations(range(1, 17), 3):
        assert (relation.eval_membership(moved.relation, moved.points, t)
                == relation.eval_membership(base.relation, base.points, t))
    want = solvers.max_homogeneous(base.points, base.relation)
    got = solvers.max_homogeneous(moved.points, moved.relation)
    assert (len(got.subset), got.polarity, got.stats["maximum"]) == (
        len(want.subset), want.polarity, True) == (5, "in", True)


def test_verdict_checks_reject_wrong_answers():
    check = workloads._exact_search(6, "out")
    right = {"subset": [1, 2, 5, 9, 13, 14], "polarity": "out",
             "certified": True, "stats": {"maximum": True}}
    assert check(right) is None
    assert check({**right, "polarity": "in"}) is not None
    assert check({**right, "subset": [1, 2, 5, 9, 13]}) is not None
    assert check({**right, "stats": {"maximum": False}}) is not None
    job = workloads.Job(("verify", "sturm"), workloads._ok(trials=3))
    assert workloads.check_output(job, 0, '{"ok":true,"trials":3}\n') is None
    assert workloads.check_output(job, 1, '{"ok":true,"trials":3}\n')
    assert workloads.check_output(job, 0, '{"ok":false,"trials":3}\n')
    assert workloads.check_output(job, 0, "Traceback")
