"""Summarize saved benchmark runs of a parent and a changed checkout.

    python3 tools/bench_json.py PARENT_DIR CHANGE_DIR > BENCH_<n>.json

Each directory holds the result files that `perfbench/run.py` writes to
`.perfbench-work/results/` (`{"record", "result"}`), one per run, under any
names ending in `.json`.  `run.py` names its file by workload, seed and
trace only, so the next such run overwrites it: copy each run's file away
under its own name (a run number first keeps them in run order) before
the next run.  Only untraced runs (`--trace 0`) are read.  For
each workload and seed, every end-to-end metric gets the median and the
quartiles of each side's runs and the change's median over the parent's.
Runs are paired in record order, the i-th parent run with the i-th change
run, both in file name order: `pairs` counts the pairs and `pairs_won` those
where the change reads lower (every end-to-end metric is lower-is-better),
and `gap_exceeds_parent_iqr` tells whether the medians differ by more than
the parent's interquartile range.  Each side also lists its git revisions
and source digests, its run count and its failed runs.  The summary goes to
stdout as JSON.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SIDES = ("parent", "change")


def load_runs(directory: Path) -> list[dict]:
    """The untraced records of a directory, in file name order."""
    docs = [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]
    return [doc for doc in docs if doc["record"]["trace"] == 0]


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is all three)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(parent: list[dict], change: list[dict]) -> dict:
    grouped: dict[tuple, dict[str, list[dict]]] = {}
    for side, runs in zip(SIDES, (parent, change)):
        for run in runs:
            key = (run["record"]["workload"], run["record"]["seed"])
            grouped.setdefault(key, {s: [] for s in SIDES})[side].append(run)
    workloads: dict[str, dict] = {}
    for (workload, seed), sides in sorted(grouped.items()):
        entry = {side: {"runs": len(runs),
                        "failed_runs": sum(not r["result"]["correct"]
                                           for r in runs)}
                 for side, runs in sides.items()}
        metrics = {}
        names = sorted({m for runs in sides.values() for r in runs
                        for m in r["result"]["metrics"]})
        for name in names:
            row, values = {}, {}
            for side, runs in sides.items():
                found = [r["result"]["metrics"][name] for r in runs
                         if name in r["result"]["metrics"]]
                if found:
                    row["unit"] = found[0]["unit"]
                    values[side] = [m["value"] for m in found]
                    row[side] = spread(values[side])
            if "parent" in row and "change" in row:
                parent_row, change_row = row["parent"], row["change"]
                if parent_row["median"]:
                    row["change_over_parent"] = (change_row["median"]
                                                 / parent_row["median"])
                pairs = list(zip(values["parent"], values["change"]))
                row["pairs"] = len(pairs)
                row["pairs_won"] = sum(c < p for p, c in pairs)
                row["gap_exceeds_parent_iqr"] = (
                    abs(change_row["median"] - parent_row["median"])
                    > parent_row["q3"] - parent_row["q1"])
            metrics[name] = row
        entry["metrics"] = metrics
        workloads.setdefault(workload, {})[str(seed)] = entry
    summary = {side: {field: sorted({str(r["record"].get(field))
                                     for r in runs})
                      for field in ("git_revision", "source_sha256",
                                    "python", "seconds")}
               for side, runs in zip(SIDES, (parent, change))}
    summary["workloads"] = workloads
    return summary


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/bench_json.py PARENT_DIR CHANGE_DIR",
              file=sys.stderr)
        return 2
    parent, change = (load_runs(Path(d)) for d in argv)
    if not parent or not change:
        print("bench_json: no untraced run in one of the directories",
              file=sys.stderr)
        return 2
    json.dump(summarize(parent, change), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
