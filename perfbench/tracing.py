"""Layer tracing from outside the program.

The tracer replaces public functions of the semiramsey modules with
wrappers that record one span per call: layer name, start, end, parent span
and job id.  Spans stay in memory until the benchmark writes them out at
the end.  A layer's self time is its spans' durations minus the parts their
child spans cover.

A wrapper on the defining module alone would miss `from .x import f`
bindings in other modules, so every attribute of every loaded semiramsey
module or class that is the same object as a traced function is replaced.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (layer, module, attribute); "Class.method" patches the class.
TARGETS = (
    ("cli.main", "semiramsey.cli", "main"),
    ("solvers.bnb", "semiramsey.solvers", "max_homogeneous"),
    ("solvers.greedy", "semiramsey.solvers", "erdos_rado_greedy"),
    ("poly.eval", "semiramsey.poly", "MultivariatePolynomial.eval"),
    ("poly.restrict", "semiramsey.poly", "MultivariatePolynomial.restrict"),
    ("poly.arith", "semiramsey.poly", "MultivariatePolynomial.__add__"),
    ("poly.arith", "semiramsey.poly", "MultivariatePolynomial.__sub__"),
    ("poly.arith", "semiramsey.poly", "MultivariatePolynomial.__rsub__"),
    ("poly.arith", "semiramsey.poly", "MultivariatePolynomial.__neg__"),
    ("poly.arith", "semiramsey.poly", "MultivariatePolynomial.__mul__"),
    ("poly.arith", "semiramsey.poly", "MultivariatePolynomial.__pow__"),
    ("poly.divmod", "semiramsey.poly", "univariate_divmod"),
    ("relation.membership", "semiramsey.relation", "eval_membership"),
    ("relation.holds", "semiramsey.relation",
     "SemiAlgebraicRelation.holds_on_coords"),
    ("relation.sign_vectors", "semiramsey.relation",
     "count_distinct_sign_vectors"),
    ("constructions.step_up_points", "semiramsey.constructions",
     "step_up_points"),
    ("constructions.step_up_relation", "semiramsey.constructions",
     "step_up_relation"),
    ("constructions.rule", "semiramsey.constructions",
     "step_up_membership_rule"),
    ("sturm.sequence", "semiramsey.sturm", "sturm_sequence"),
    ("sturm.count", "semiramsey.sturm", "count_real_roots"),
    ("jsonio.encode", "semiramsey.jsonio", "dumps"),
    ("jsonio.encode", "semiramsey.jsonio", "instance_to_json"),
    ("jsonio.encode", "semiramsey.jsonio", "result_to_json"),
    ("jsonio.decode", "semiramsey.jsonio", "loads"),
    ("jsonio.decode", "semiramsey.jsonio", "instance_from_json"),
)


def _count_int_eval(counts: Counter, args) -> None:
    poly, point = args[0], args[1]
    if all(x.denominator == 1 for x in point) and all(
            c.denominator == 1 for c in poly.terms.values()):
        counts["poly.eval.int_calls"] += 1


def _count_nodes(counts: Counter, result) -> None:
    counts["solvers.bnb.nodes"] += result.stats.get("nodes", 0)


def _count_classes(counts: Counter, result) -> None:
    counts["solvers.greedy.classes"] += sum(
        groups for level in result.stats.get("classes_per_level", ())
        for _, groups in level)


def _count_encoded(counts: Counter, text: str) -> None:
    counts["jsonio.bytes"] += len(text)


def _count_decoded(counts: Counter, args) -> None:
    counts["jsonio.bytes"] += len(args[0])


# Counters read at layer boundaries: attribute -> (before, after).  A
# `before` hook runs inside the span and sees the arguments, so the
# integer-path test is part of poly.eval's self time; an `after` hook sees
# the return value.
HOOKS = {
    "MultivariatePolynomial.eval": (_count_int_eval, None),
    "max_homogeneous": (None, _count_nodes),
    "erdos_rado_greedy": (None, _count_classes),
    "dumps": (None, _count_encoded),
    "loads": (_count_decoded, None),
}


class Tracer:
    """Records spans while installed; `job` tags the spans of one CLI job.

    A span is the list [layer, start, end, parent index or -1, job,
    excluded], where `excluded` is time inside the span that belongs to no
    layer (the speed probes of speed.py).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, layer: str, fn, before=None, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.job,
                    0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                if before is not None:
                    before(counts, args)
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(counts, result)
            return result

        return traced

    def exclude(self, seconds: float) -> None:
        """Take `seconds` just spent out of the innermost running span."""
        for index in reversed(self._stack):
            span = self.spans[index]
            if span[1] and not span[2]:
                span[5] += seconds
                return

    def install(self) -> None:
        """Wrap every target and every binding of it in semiramsey."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        owners = []
        for name, module in sorted(sys.modules.items()):
            if name == "semiramsey" or name.startswith("semiramsey."):
                owners.append(module)
                owners.extend(v for v in vars(module).values()
                              if isinstance(v, type)
                              and v.__module__ == name)
        wrappers = {}
        for layer, module_name, attr in TARGETS:
            fn = sys.modules[module_name]
            for part in attr.split("."):
                fn = getattr(fn, part)
            before, after = HOOKS.get(attr, (None, None))
            wrappers[id(fn)] = (fn, self.wrap(layer, fn, before, after))
        for owner in owners:
            for name, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((owner, name, value))
                    setattr(owner, name, hit[1])

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans: list[list]) -> dict[str, float]:
    """Per-layer sum of span duration minus the time covered by children
    and the excluded time."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (layer, start, end, _, _, excluded), child in zip(spans, covered):
        out[layer] += end - start - child - excluded
    return dict(out)


def layer_metrics(tracer: Tracer, wall: float, passes: int) -> dict:
    """Per-layer metrics of `passes` traced job sequences whose wall times
    sum to `wall`: times and counts per sequence, rates and ratios over all.
    The self times plus cli.self_s add up to trace.wall_s."""
    spans, counts = tracer.spans, tracer.counts
    own = self_times(spans)
    calls = Counter(span[0] for span in spans)
    under_bnb: list[bool] = []
    bnb_time = 0.0
    evals_under_bnb = 0
    for layer, start, end, parent, _, excluded in spans:
        outer = parent >= 0 and under_bnb[parent]
        under_bnb.append(outer or layer == "solvers.bnb")
        if under_bnb[-1]:
            bnb_time -= excluded
        if layer == "solvers.bnb" and not outer:
            bnb_time += end - start
        elif layer == "relation.membership" and outer:
            evals_under_bnb += 1
    nodes = counts["solvers.bnb.nodes"]
    evals = calls["poly.eval"]

    def ratio(num, den):
        return num / den if den else 0.0

    def each(value):
        return value / passes

    def self_s(layer):
        return {"value": each(own.get(layer, 0.0)), "unit": "s"}

    def count(value):
        return {"value": each(value), "unit": "count"}

    return {
        "solvers.bnb.self_s": self_s("solvers.bnb"),
        "solvers.bnb.nodes": count(nodes),
        "solvers.bnb.nodes_per_s": {"value": ratio(nodes, bnb_time),
                                    "unit": "1/s"},
        "solvers.bnb.evals_per_node": {"value": ratio(evals_under_bnb, nodes),
                                       "unit": "ratio"},
        "solvers.greedy.self_s": self_s("solvers.greedy"),
        "solvers.greedy.classes": count(counts["solvers.greedy.classes"]),
        "poly.eval.calls": count(evals),
        "poly.eval.self_s": self_s("poly.eval"),
        "poly.eval.int_share": {
            "value": ratio(counts["poly.eval.int_calls"], evals),
            "unit": "ratio"},
        "poly.restrict.calls": count(calls["poly.restrict"]),
        "poly.restrict.self_s": self_s("poly.restrict"),
        "poly.arith.calls": count(calls["poly.arith"]),
        "poly.arith.self_s": self_s("poly.arith"),
        "poly.divmod.calls": count(calls["poly.divmod"]),
        "poly.divmod.self_s": self_s("poly.divmod"),
        "relation.membership.calls": count(calls["relation.membership"]),
        "relation.membership.self_s": self_s("relation.membership"),
        "relation.holds.calls": count(calls["relation.holds"]),
        "relation.holds.self_s": self_s("relation.holds"),
        "relation.sign_vectors.calls": count(calls["relation.sign_vectors"]),
        "relation.sign_vectors.self_s": self_s("relation.sign_vectors"),
        "constructions.step_up_points.self_s":
            self_s("constructions.step_up_points"),
        "constructions.step_up_relation.self_s":
            self_s("constructions.step_up_relation"),
        "constructions.rule.calls": count(calls["constructions.rule"]),
        "constructions.rule.self_s": self_s("constructions.rule"),
        "sturm.sequence.calls": count(calls["sturm.sequence"]),
        "sturm.sequence.self_s": self_s("sturm.sequence"),
        "sturm.count.calls": count(calls["sturm.count"]),
        "sturm.count.self_s": self_s("sturm.count"),
        "jsonio.encode.self_s": self_s("jsonio.encode"),
        "jsonio.decode.self_s": self_s("jsonio.decode"),
        "jsonio.bytes": {"value": each(counts["jsonio.bytes"]), "unit": "B"},
        "cli.self_s": {"value": each(wall - sum(
            t for layer, t in own.items() if layer != "cli.main")),
            "unit": "s"},
        "trace.wall_s": {"value": each(wall), "unit": "s"},
    }
