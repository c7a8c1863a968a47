"""Benchmark of the semiramsey CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload bnb-base --seed 1 --seconds 25 --trace 0

Writes the workload's inputs for the seed into .perfbench-work/, measures
set-up in several fresh workers, then runs the jobs in one more fresh
worker for about --seconds seconds and checks every verdict.  Stdout ends
with a record line (environment, stdout digests, raw samples) and a result
line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones
of the traced passes.  Exits 1 when any job failed, 2 when the benchmark
cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

# Fresh workers that only set up; their median, with the measuring
# worker's own set-up, is setup_s.
SETUP_PROBES = 7
# A run must end within 180 s; this leaves room to clean up.
DEADLINE_S = 170.0


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _worker(args: list[str], deadline: float) -> dict:
    """Run perfbench/worker.py to completion and parse its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for another worker")
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    try:
        import workloads
        workloads.check_source()
    except ImportError as exc:
        print(f"perfbench: no semiramsey source in {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    common = ["--workload", args.workload, "--workdir", str(workdir),
              "--seed", str(args.seed)]
    spans = WORK / "spans" / f"{args.workload}.tsv"
    try:
        workloads.write_inputs(args.workload, workdir, args.seed)
        setups = [_worker(common + ["--setup-only"], deadline)["setup"]
                  for _ in range(SETUP_PROBES)]
        measure = common + ["--seconds", str(args.seconds),
                            "--trace", str(args.trace)]
        if args.trace:
            spans.parent.mkdir(parents=True, exist_ok=True)
            measure += ["--spans", str(spans)]
        report = _worker(measure, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(report["setup"])
    # Per pass: [pass, job 1, job 2] as (raw, rescaled) seconds.
    passes = report["passes"]

    def median_scaled(samples):
        return statistics.median(scaled for _, scaled in samples)

    if args.trace:
        metrics = report["layers"]
    else:
        metrics = {
            "wall_s": {"value": median_scaled(p[0] for p in passes),
                       "unit": "s"},
            "job1_s": {"value": median_scaled(p[1] for p in passes),
                       "unit": "s"},
            "job2_s": {"value": median_scaled(p[2] for p in passes),
                       "unit": "s"},
            "setup_s": {"value": median_scaled(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": report["failed"] == 0,
              "attempted": report["attempted"],
              "failed": report["failed"],
              "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "passes_raw_and_rescaled_s": passes,
        "setups_raw_and_rescaled_s": setups,
        "speed_probe_deciles_s": report["probe_s"],
        "digests": report["digests"], "failures": report["failures"],
        "fail_ratio": report["failed"] / report["attempted"],
    }
    if args.trace:
        record["spans"] = report["spans"]
        record["spans_file"] = str(spans.relative_to(ROOT))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({"record": record,
                                            "result": result}, indent=1))

    for failure in report["failures"]:
        print(f"FAILED {failure['job']}: {failure['problem']}",
              file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"fail_ratio {record['fail_ratio']:.3g}", file=sys.stderr)
    for key, metric in metrics.items():
        print(f"  {key:40s} {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
