"""tools/bench_json.py: saved benchmark records summarized per workload and
seed."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_json.py"


def write_run(directory: Path, name: str, workload: str, seed: int,
              job2_s: float, trace: int = 0, revision: str = "abc") -> None:
    directory.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": 5,
              "trace": trace, "python": "3.11.7", "git_revision": revision,
              "source_sha256": revision * 2}
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {"job2_s": {"value": job2_s, "unit": "s"}}}
    (directory / name).write_text(json.dumps({"record": record,
                                              "result": result}))


def run_tool(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True)


def test_medians_and_quartiles_per_workload_and_seed(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for i, v in enumerate([0.5, 0.7, 0.6, 0.9, 0.8]):
        write_run(parent, f"p{i}.json", "exact-core", 1, v, revision="aaa")
        write_run(change, f"c{i}.json", "exact-core", 1, v / 2, revision="bbb")
    write_run(parent, "p7.json", "exact-core", 7, 0.4, revision="aaa")
    write_run(change, "c7.json", "exact-core", 7, 0.3, revision="bbb")
    write_run(change, "traced.json", "exact-core", 1, 99.0, trace=1)
    done = run_tool(parent, change)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert doc["parent"]["git_revision"] == ["aaa"]
    assert doc["change"]["source_sha256"] == ["bbbbbb"]
    seed1 = doc["workloads"]["exact-core"]["1"]
    assert seed1["parent"] == {"runs": 5, "failed_runs": 0}
    assert seed1["change"] == {"runs": 5, "failed_runs": 0}
    row = seed1["metrics"]["job2_s"]
    assert row["unit"] == "s"
    assert row["parent"] == {"median": 0.7, "q1": 0.6, "q3": 0.8}
    assert row["change"] == {"median": 0.35, "q1": 0.3, "q3": 0.4}
    assert row["change_over_parent"] == 0.5
    assert (row["pairs"], row["pairs_won"]) == (5, 5)
    assert row["gap_exceeds_parent_iqr"]
    seed7 = doc["workloads"]["exact-core"]["7"]["metrics"]["job2_s"]
    assert seed7["parent"] == {"median": 0.4, "q1": 0.4, "q3": 0.4}
    assert (seed7["pairs"], seed7["pairs_won"]) == (1, 1)


def test_pairs_follow_record_order_and_the_gap_is_held_to_the_iqr(tmp_path):
    """Pair i is the i-th file of each side by name; the change wins a pair
    where it reads lower.  Here it wins 3 of 4 pairs (2 if the values were
    paired in sorted order), and its median is lower by 0.05, inside the
    parent's IQR of 0.15."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for i, (p, c) in enumerate([(0.5, 0.4), (0.6, 0.9), (0.7, 0.5),
                                (0.8, 0.7)]):
        write_run(parent, f"run{i}.json", "bnb-base", 1, p)
        write_run(change, f"run{i}.json", "bnb-base", 1, c)
    done = run_tool(parent, change)
    assert done.returncode == 0, done.stderr
    row = json.loads(done.stdout)["workloads"]["bnb-base"]["1"]["metrics"][
        "job2_s"]
    assert (row["pairs"], row["pairs_won"]) == (4, 3)
    assert row["parent"]["median"] - row["change"]["median"] == \
        pytest.approx(0.05)
    assert row["parent"]["q3"] - row["parent"]["q1"] == pytest.approx(0.15)
    assert not row["gap_exceeds_parent_iqr"]
    # Unequal run counts pair only as far as the shorter side goes.
    write_run(parent, "run4.json", "bnb-base", 1, 2.0)
    row = json.loads(run_tool(parent, change).stdout)["workloads"][
        "bnb-base"]["1"]["metrics"]["job2_s"]
    assert (row["pairs"], row["pairs_won"]) == (4, 3)


def test_refuses_other_arguments_and_empty_directories(tmp_path):
    assert run_tool().returncode == 2
    assert run_tool(tmp_path, tmp_path, tmp_path).returncode == 2
    write_run(tmp_path / "parent", "p.json", "bnb-base", 1, 0.3)
    (tmp_path / "change").mkdir()
    assert run_tool(tmp_path / "parent", tmp_path / "change").returncode == 2
