"""Spans around sslab's public functions, installed from outside the package.

Every public function of each layer module is replaced, at each module
attribute through which callers reach it, by a wrapper that records a span
(name, start, end, parent). Counts come from arguments and return values, never
from the solvers' `cost` dicts. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import types
from collections import defaultdict

import reference

LAYERS = ("cli", "core", "oracle", "classic", "structured", "dispatch", "hashing",
          "combinatorics", "numeric")

_SELF = ("oracle.enumerate_histogram", "oracle.distinct_sums", "oracle.sumset_with_witness",
         "structured.solve_few_sums", "dispatch.solve_large_bin", "classic.meet_in_middle",
         "classic.schroeppel_shamir", "structured.build_filtered_list",
         "structured.representation_attempt", "structured.solve_many_sums", "numeric.random_prime",
         "hashing.reduce_bitlength", "combinatorics.udcp_from_instance", "combinatorics.check_udcp",
         "combinatorics.zero_ternary_counts_by_l1", "combinatorics.bin_l2", "dispatch.classify",
         "cli.main", "core.read_instance")
_CALLS = ("structured.build_filtered_list", "structured.representation_attempt",
          "numeric.random_prime", "hashing.reduce_bitlength")

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    [(f"{name}.self_s", "s", "lower") for name in _SELF]
    + [(f"{name}.calls", "count", "lower") for name in _CALLS]
    + [("oracle.distinct_sums.out", "count", "lower"),
       ("oracle.sumset_with_witness.out", "count", "lower"),
       ("classic.meet_in_middle.sums", "count", "lower"),
       ("classic.meet_in_middle.sums_per_s", "1/s", "higher"),
       ("structured.build_filtered_list.items_out", "count", "lower"),
       ("structured.representation_attempt.hit_ratio", "ratio", "higher"),
       ("hashing.solution_survival", "ratio", "higher")]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [("trace.overhead_s", "s", "lower"), ("bench.unattributed_s", "s", "lower")]
)


class Tracer:
    """Wraps the package's public functions; `install`/`uninstall` toggle the wrappers."""

    def __init__(self, package: str):
        self.spans: list = []   # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.reductions: list = []  # (instance, ReductionRecord), judged after the round
        self._stack: list = []
        self._patches = []
        hooks = self._count_hooks()
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if not fn.__module__.startswith(package + "."):
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                self._patches.append((module, attr, fn, self._wrap(name, fn, hooks.get(name))))

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _count_hooks(self):
        c = self.counts

        def add(key, value):
            c[key] += value

        def mim_sums(n):
            return (1 << (n + 1) // 2) + (1 << n // 2)

        return {
            "oracle.distinct_sums": lambda args, r: add("oracle.distinct_sums.out", r),
            "oracle.sumset_with_witness": lambda args, r: add("oracle.sumset_with_witness.out", len(r[0])),
            "classic.meet_in_middle": lambda args, r: add("classic.meet_in_middle.sums", mim_sums(args[0].n)),
            "structured.build_filtered_list": lambda args, r: add(
                "structured.build_filtered_list.items_out", len(r)),
            "structured.representation_attempt": lambda args, r: add(
                "structured.representation_attempt.hits", r is not None),
            "hashing.reduce_bitlength": lambda args, r: self.reductions.append((args[0], r)),
        }

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def survival(self, planted: dict) -> tuple[int, int]:
        """(survived, judged): reductions under which the planted mask still sums to
        the reduced target, over reductions of instances whose planted mask is known."""
        survived = judged = 0
        for inst, record in self.reductions:
            mask = planted.get((inst.weights, inst.target))
            if mask is None:
                continue
            judged += 1
            reduced = record.reduced
            survived += reference.mask_total(reduced.weights, mask) == reduced.target
        return survived, judged

    def self_times(self, lo: int, hi: int):
        """name -> [self seconds, calls], and the seconds covered by root spans, for spans[lo:hi]."""
        spans = self.spans[lo:hi]
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= lo:
                child[parent - lo] += end - start
        agg = defaultdict(lambda: [0.0, 0])
        rooted = 0.0
        for (name, start, end, parent), inner in zip(spans, child):
            entry = agg[name]
            entry[0] += end - start - inner
            entry[1] += 1
            if parent < lo:
                rooted += end - start
        return agg, rooted

    def per_layer(self, bounds, traced_seconds, plain_seconds, planted) -> dict:
        """Every PER_LAYER value: per-round averages over the traced rounds, whose span
        ranges are `bounds`, and the traced minus the plain median round time."""
        agg = defaultdict(lambda: [0.0, 0])
        unattributed = 0.0
        for (lo, hi), seconds in zip(bounds, traced_seconds):
            times, rooted = self.self_times(lo, hi)
            for name, (self_s, calls) in times.items():
                agg[name][0] += self_s
                agg[name][1] += calls
            unattributed += seconds - rooted
        rounds = len(bounds)
        c = self.counts
        values = {f"{name}.self_s": agg[name][0] / rounds for name in _SELF}
        values.update({f"{name}.calls": agg[name][1] / rounds for name in _CALLS})
        for key in ("oracle.distinct_sums.out", "oracle.sumset_with_witness.out",
                    "classic.meet_in_middle.sums", "structured.build_filtered_list.items_out"):
            values[key] = c[key] / rounds
        mim_self = agg["classic.meet_in_middle"][0]
        values["classic.meet_in_middle.sums_per_s"] = c["classic.meet_in_middle.sums"] / mim_self if mim_self else 0.0
        attempts = agg["structured.representation_attempt"][1]
        values["structured.representation_attempt.hit_ratio"] = (
            c["structured.representation_attempt.hits"] / attempts if attempts else 0.0)
        survived, judged = self.survival(planted)
        values["hashing.solution_survival"] = survived / judged if judged else 0.0
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(v[0] for k, v in agg.items() if k.startswith(layer + ".")) / rounds
        values["trace.overhead_s"] = statistics.median(traced_seconds) - statistics.median(plain_seconds)
        values["bench.unattributed_s"] = unattributed / rounds
        return values

    def dump(self, path, meta: dict) -> None:
        """All spans as [name index, start µs, end µs, parent], times from the first span."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[name], round((start - t0) * 1e6), round((end - t0) * 1e6), parent]
                for name, start, end, parent in self.spans]
        with open(path, "w") as fh:
            json.dump({**meta, "names": names, "fields": ["name", "start_us", "end_us", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
