"""One fresh benchmark worker: set up, then run a workload's jobs in a loop.

    python3 perfbench/worker.py --workload W --workdir D --seed N \
        [--seconds S --trace T --spans FILE | --setup-only]

A closed loop with one client and no threads calls `semiramsey.cli.main`
in process, one job after another, with stdout captured.  A pass is one run
of the workload's job sequence; passes repeat while another one still fits
into the measured interval.  Set-up and every pass are timed by a
SpeedClock (see speed.py).  With tracing on, untraced and traced passes
alternate; end-to-end numbers never come from a traced run.  The worker
prints one JSON object; the inputs must already be in the work directory.
"""

import speed

_SETUP = speed.SpeedClock().start()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from semiramsey import cli  # noqa: E402


def run_job(job: workloads.Job):
    """Call the CLI once; returns (exit code or exception text, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(job.argv))
        except SystemExit as exc:
            code = f"SystemExit({exc.code!r}): {err.getvalue()[-200:]}"
        except Exception as exc:  # a crash is a failed job, not a crash here
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def run_pass(jobs, probes, tracer=None, pass_number=0):
    """Run the job sequence once, adding the speed probes' times to `probes`.

    Returns [pass, job 1, job 2, ...] as (raw, rescaled) seconds, and the
    results.  In a traced pass each speed probe's time is taken out of the
    span it interrupted.
    """
    clock = speed.SpeedClock(None if tracer is None else tracer.exclude)
    read = clock.start().read
    marks = [read()]
    results = []
    for number, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = f"{pass_number}.{number}"
        results.append(run_job(job))
        marks.append(read())
    clock.stop()
    probes.extend(clock.probes)
    intervals = [(marks[0], marks[-1])] + list(zip(marks, marks[1:]))
    return [(end[0] - begin[0], end[1] - begin[1])
            for begin, end in intervals], results


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None,
                        help="write the traced spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workloads.check_source()
    jobs = workloads.jobs(args.workload, args.workdir, args.seed)
    workloads.load_inputs(jobs)
    setup = _SETUP.stop()
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    passes, traced_walls, probes = [], [], []
    outputs = [[] for _ in jobs]
    loop_start = time.perf_counter()
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        times, results = run_pass(jobs, probes)
        passes.append(times)
        if len(passes) == 1:
            # Later passes may run or not with the host's speed; the peak
            # through set-up and one pass is the same in every run.
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for number, result in enumerate(results):
            outputs[number].append(result)
        if tracer is not None:
            with tracer:
                times, results = run_pass(jobs, probes, tracer,
                                          len(traced_walls))
            traced_walls.append(times[0])
            for number, result in enumerate(results):
                outputs[number].append(result)
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        if now - loop_start + longest > args.seconds:
            break

    # Verdicts are checked after the measured interval.
    failures, digests = [], []
    attempted = 0
    for job, results in zip(jobs, outputs):
        attempted += len(results)
        problems = []
        digest = None
        for code, stdout in results:
            this = hashlib.sha256(stdout.encode()).hexdigest()
            digest = digest or this
            problem = workloads.check_output(job, code, stdout)
            if problem is None and this != digest:
                problem = f"stdout digest {this} differs from {digest}"
            if problem is not None:
                problems.append(problem)
        if not problems and job.certify is not None:
            problem = workloads.recertify(job, results[0][1])
            if problem is not None:
                problems = [problem] * len(results)
        failures.extend({"job": job.label, "problem": p} for p in problems)
        digests.append({"job": job.label, "sha256": digest})

    report = {
        "setup": setup,
        "passes": passes,
        "peak_rss_mb": peak_rss_kb / 1024,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "digests": digests,
        "probe_s": statistics.quantiles(probes, n=10),
    }
    if tracer is not None:
        metrics = tracing.layer_metrics(
            tracer, sum(raw for raw, _ in traced_walls), len(traced_walls))
        metrics["trace.overhead_ratio"] = {
            "value": statistics.fmean(scaled for _, scaled in traced_walls)
            / statistics.fmean(times[0][1] for times in passes),
            "unit": "ratio"}
        report["layers"] = metrics
        report["spans"] = len(tracer.spans)
        if args.spans is not None:
            with open(args.spans, "w", encoding="utf-8") as fh:
                fh.write("job\tlayer\tstart\tend\tparent\texcluded\n")
                for layer, start, end, parent, job, excluded in tracer.spans:
                    fh.write(f"{job}\t{layer}\t{start:.9f}\t{end:.9f}"
                             f"\t{parent}\t{excluded:.9f}\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
