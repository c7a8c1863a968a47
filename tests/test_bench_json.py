"""tools/bench_json.py: saved benchmark records summarized per workload and
seed."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

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
    seed7 = doc["workloads"]["exact-core"]["7"]["metrics"]["job2_s"]
    assert seed7["parent"] == {"median": 0.4, "q1": 0.4, "q3": 0.4}


def test_refuses_other_arguments_and_empty_directories(tmp_path):
    assert run_tool().returncode == 2
    assert run_tool(tmp_path, tmp_path, tmp_path).returncode == 2
    write_run(tmp_path / "parent", "p.json", "bnb-base", 1, 0.3)
    (tmp_path / "change").mkdir()
    assert run_tool(tmp_path / "parent", tmp_path / "change").returncode == 2
