"""The benchmark's workloads: seeded inputs, CLI jobs and verdict checks.

Each workload is a fixed sequence of `semiramsey` CLI invocations.  The
benchmark generates every input file from `--seed` itself; the program only
ever receives files and `--seed` flags.  Checks look at verdicts (sizes,
polarities, `ok` flags, the construct summary), never at node counts or
other statistics, so a faster or differently ordered correct search passes.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import semiramsey  # noqa: E402
from semiramsey import constructions, jsonio  # noqa: E402
from semiramsey.relation import eval_membership  # noqa: E402
from semiramsey.rng import SeededRng  # noqa: E402

# Seeds used while the benchmark was written, and one kept out of it.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

# step_up(base(3)) shrinks its stability radius to 2^-76.
STEPUP3_EPSILON = jsonio.fraction_to_json(Fraction(1, 2 ** 76))


def check_source() -> None:
    """Refuse to run against any semiramsey but the checkout's own."""
    here = Path(semiramsey.__file__).resolve()
    if SRC.resolve() not in here.parents:
        raise ImportError(f"semiramsey imported from {here}, not from {SRC}")


@dataclass(frozen=True)
class Job:
    """One CLI call, which must exit 0, and its verdict check.

    `check` gets the parsed stdout and returns a description of what is
    wrong, or None.  When `certify` names an instance file, the subset in
    the output is re-certified against that instance after the run.
    """
    argv: tuple
    check: Callable[[object], str | None]
    certify: Path | None = None

    @property
    def label(self) -> str:
        """The command line with input and output files by name only."""
        return " ".join(Path(a).name if "/" in a else a for a in self.argv)


def _exact_search(hom: int, polarity: str | None = None):
    def check(doc) -> str | None:
        got = (len(doc["subset"]), doc["certified"],
               doc["stats"].get("maximum"))
        if got != (hom, True, True):
            return f"(hom, certified, maximum) = {got}, expected ({hom}, True, True)"
        if polarity is not None and doc["polarity"] != polarity:
            return f"polarity {doc['polarity']!r}, expected {polarity!r}"
        return None
    return check


def _certified_subset(doc) -> str | None:
    if doc["certified"] is not True:
        return "greedy subset is not certified"
    return None


def _ok(**fields):
    def check(doc) -> str | None:
        want = {"ok": True, **fields}
        got = {key: doc.get(key) for key in want}
        return None if got == want else f"{got}, expected {want}"
    return check


def _stepup3_summary(doc) -> str | None:
    want = {"points": 256, "dim": 2, "arity": 4, "epsilon": STEPUP3_EPSILON}
    got = {key: doc.get(key) for key in want}
    return None if got == want else f"summary {got}, expected {want}"


def _instance_text(inst) -> str:
    return jsonio.dumps(jsonio.instance_to_json(inst))


def jittered_base(n: int, seed: int) -> dict:
    """Instance JSON of base(n) with each point moved by a seeded rational
    offset in [-1/10, 1/10].

    The midpoint atom x1 + x3 - 2*x2 >= -1/2 takes integer values on base(n)
    and the offsets move it by at most 4/10, while consecutive points stay
    at least 8/10 apart, so every tuple keeps its membership.
    """
    rng = SeededRng(seed)
    base = constructions.base_construction(n)
    doc = jsonio.instance_to_json(base)
    lo, hi = Fraction(-1, 10), Fraction(1, 10)
    doc["points"]["points"] = [
        [jsonio.fraction_to_json(jsonio.fraction_from_json(x)
                                 + rng.fraction(lo, hi))]
        for (x,) in doc["points"]["points"]]
    doc["epsilon"] = None
    doc["provenance"] = {"kind": "base-jittered", "n": n, "seed": seed}
    return doc


# A workload maps (workdir, seed) to the input files it needs, each with a
# function that makes its text, and to its job sequence.

def _bnb_base(workdir: Path, seed: int):
    base5 = workdir / "base5.json"
    base6 = workdir / "base6-jittered.json"
    inputs = {
        base5: lambda: _instance_text(constructions.base_construction(5)),
        base6: lambda: jsonio.dumps(jittered_base(6, seed)),
    }
    return inputs, [
        Job(("solve", "brute", "--input", str(base5)), _exact_search(6),
            certify=base5),
        Job(("solve", "brute", "--input", str(base6)), _exact_search(7),
            certify=base6),
    ]


def _stepup_membership(workdir: Path, seed: int):
    stepped = workdir / "stepup2.json"
    inputs = {stepped: lambda: _instance_text(
        constructions.step_up(constructions.base_construction(2)))}
    return inputs, [
        Job(("solve", "brute", "--input", str(stepped)),
            _exact_search(6, "out"), certify=stepped),
        Job(("verify", "stepup-consistency", "--n", "2"),
            _ok(tuples_checked=1820)),
    ]


def _stepup_greedy(workdir: Path, seed: int):
    stepped = workdir / "stepup3.json"
    return {}, [
        Job(("construct", "stepup", "--n", "3", "--output", str(stepped)),
            _stepup3_summary),
        Job(("solve", "greedy", "--input", str(stepped)), _certified_subset,
            certify=stepped),
    ]


def _exact_core(workdir: Path, seed: int):
    return {}, [
        Job(("verify", "sturm", "--seed", str(seed), "--trials", "3000"),
            _ok(trials=3000)),
        Job(("verify", "milnor-thom", "--points", "50", "--trials", "800",
             "--seed", str(seed)), _ok(trials=800)),
    ]


WORKLOADS = {
    "bnb-base": _bnb_base,
    "stepup-membership": _stepup_membership,
    "stepup-greedy": _stepup_greedy,
    "exact-core": _exact_core,
}


def write_inputs(workload: str, workdir: Path, seed: int) -> None:
    """Generate the workload's input files for `seed` in `workdir`."""
    workdir.mkdir(parents=True, exist_ok=True)
    for path, make in WORKLOADS[workload](workdir, seed)[0].items():
        path.write_text(make(), encoding="utf-8")


def jobs(workload: str, workdir: Path, seed: int) -> list[Job]:
    return WORKLOADS[workload](workdir, seed)[1]


def load_inputs(jobs: list[Job]) -> list:
    """Parse every input file that exists before the jobs run."""
    return [jsonio.instance_from_json(jsonio.loads(
                path.read_text(encoding="utf-8")))
            for path in dict.fromkeys(job.certify for job in jobs)
            if path is not None and path.exists()]


def check_output(job: Job, code, stdout: str) -> str | None:
    """Verdict of one finished job: None when it passed."""
    if code != 0:
        return f"exit code {code!r}, expected 0"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return f"stdout is not JSON: {stdout[:200]!r}"
    try:
        return job.check(doc)
    except (KeyError, TypeError, AttributeError) as exc:
        return f"unexpected output shape ({exc!r}): {stdout[:200]!r}"


def recertify(job: Job, stdout: str) -> str | None:
    """Re-check the output subset's polarity on every tuple, through
    eval_membership on the instance the job solved."""
    doc = json.loads(stdout)
    inst = jsonio.instance_from_json(jsonio.loads(
        job.certify.read_text(encoding="utf-8")))
    subset = doc["subset"]
    if subset != sorted(set(subset)) or not all(
            1 <= i <= len(inst.points) for i in subset):
        return f"subset {subset} is not increasing indices into the instance"
    k = inst.relation.arity
    if len(subset) < k:
        return f"subset {subset} is smaller than the arity {k}"
    want = doc["polarity"] == "in"
    for t in itertools.combinations(subset, k):
        if eval_membership(inst.relation, inst.points, t) != want:
            return f"tuple {t} is not {doc['polarity']!r}"
    return None
