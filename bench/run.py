"""Benchmark for sslab: times `sslab.cli.main` on seeded workloads and checks every answer.

    python3 bench/run.py --workload exact-join --seed 1 --seconds 28 --trace 0

Set-up imports sslab from ./src, generates the workload's instances with its
generators and writes them under bench/.work/. The run then repeats whole
rounds of the workload's operations for --seconds, judging every answer
against bench/reference.py, and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones, with every time scaled to a fixed host speed (see
`Yardstick`); with --trace 1 it alternates plain and traced rounds and
reports the per-layer metrics, writing the spans to bench/.work/<run>/trace.json.
`--workload all` runs every workload, each in its own process; `--quick` uses
tiny sizes, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5  # set-ups before each round: set-up is sampled across the run

# (name, unit, better) of every end-to-end metric, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("yes_s", "s", "lower"),
    ("no_s", "s", "lower"),
    ("hashed_witnesses_per_s", "1/s", "higher"),
    ("classify_s", "s", "lower"),
    ("verify_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


@dataclass
class Row:
    """The outcome of one operation in one round."""

    kind: str
    start: float
    seconds: float
    failed: bool
    wrong: str | None
    witnesses: int
    fault: str | None


def import_sslab():
    """A fresh import of sslab and its CLI from ./src, dropping any earlier one."""
    for name in [m for m in sys.modules if m == "sslab" or m.startswith("sslab.")]:
        del sys.modules[name]
    importlib.import_module("sslab.cli")
    return sys.modules["sslab"]


class Yardstick:
    """A fixed task that does not touch sslab, timed every INTERVAL_S between operations.

    A shared host's speed drifts by as much as half, over seconds and over
    minutes, and it moves sslab's times and this task's alike: over ten
    consecutive 30 s runs the median time of a fixed task fell steadily from
    0.139 s to 0.089 s. So each operation's time is multiplied by REFERENCE_S
    over the median of the yardstick samples around it. It reads as seconds on
    a host where the yardstick takes REFERENCE_S, about its time on the 2-vCPU
    machine of README.md. The task mixes what sslab spends its time on: a numpy
    sort of a megabyte of int64 values and a Python loop over small integers
    and a dict.
    """

    REFERENCE_S = 0.035
    INTERVAL_S = 0.4
    NEIGHBOURS = 2  # samples on each side of an operation's start that set its scale

    def __init__(self):
        import numpy as np

        self._np = np
        self._values = np.random.default_rng(0).integers(0, 1 << 40, 1 << 17)
        self.starts = []
        self.samples = []

    def sample(self) -> None:
        start = time.perf_counter()
        self._np.unique(self._values)
        table = {}
        for i in range(20000):
            table[i * 7919 % 4096] = i
        self.starts.append(start)
        self.samples.append(time.perf_counter() - start)

    def tick(self) -> None:
        """Samples if INTERVAL_S has passed since the last sample."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= self.INTERVAL_S:
            self.sample()

    def scale(self, at: float) -> float:
        """The factor that turns seconds measured at time `at` into seconds at REFERENCE_S."""
        i = bisect.bisect_right(self.starts, at)
        near = self.samples[max(0, i - self.NEIGHBOURS) : i + self.NEIGHBOURS]
        return self.REFERENCE_S / statistics.median(near)


def run_round(cli, ops, judge, yardstick=None) -> list:
    rows = []
    for op in ops:
        if yardstick is not None:
            yardstick.tick()
        argv = op.args + ([op.path] if op.path else [])
        out = io.StringIO()
        rc = crash = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:  # a crashing operation counts as failed; the round goes on
                crash = traceback.format_exc()
            seconds = time.perf_counter() - start
        if crash:
            print(f"crash in sslab {' '.join(argv)}:\n{crash}", file=sys.stderr)
        try:
            failed, wrong, witnesses = judge(op, rc, out.getvalue())
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            failed, wrong, witnesses = False, f"unreadable output ({exc})", 0
        if wrong:
            wrong = f"sslab {' '.join(argv)}: {wrong}"
        rows.append(Row(op.kind, start, seconds, failed, wrong, witnesses, op.fault))
    return rows


def repeat(seconds: float, step) -> None:
    """Calls `step` at least once, and again while that ends nearer to `seconds`
    than stopping would, judged by the last call's duration."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + (now - began) / 2 >= seconds:
            return


def end_to_end(rounds: list, setups: list, yardstick: Yardstick) -> dict:
    """Each operation's median time over the rounds, summed per kind, every
    time scaled by the yardstick samples around it.

    Every round runs the same operations in the same order. `setups` holds the
    (start, seconds) of every set-up.
    """
    def scaled(start, seconds):
        return seconds * yardstick.scale(start)

    typical = [statistics.median(times)
               for times in zip(*([scaled(row.start, row.seconds) for row in rows] for rows in rounds))]
    sums = defaultdict(float)
    for row, seconds in zip(rounds[0], typical):
        sums[row.kind] += seconds
    witnesses = min(sum(row.witnesses for row in rows if row.kind == "wide") for rows in rounds)
    return {
        "setup_s": statistics.median(scaled(*setup) for setup in setups),
        "yes_s": sums["yes"],
        "no_s": sums["no"],
        "hashed_witnesses_per_s": witnesses / sums["wide"] if sums["wide"] else 0.0,
        "classify_s": sums["classify"],
        "verify_s": sums["verify"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _seconds(rows) -> float:
    return sum(row.seconds for row in rows)


def run_workload(args) -> int:
    import workloads
    from tracer import PER_LAYER, Tracer

    sys.path.insert(0, str(ROOT / "src"))
    try:
        ss = import_sslab()
    except ImportError as exc:
        print(f"error: cannot import sslab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(ss.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: sslab imported from {ss.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    # untimed: the reference picks and proves the no-targets and the expected statistics
    plan = workloads.certify(workloads.build(ss, args.workload, args.seed, args.quick), args.seed)
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}"
    setups = []
    yardstick = Yardstick()

    def set_up():
        yardstick.tick()
        gc.collect()  # the heap the last round left would otherwise be traversed inside the timing
        start = time.perf_counter()
        ss = import_sslab()
        ops = workloads.build(ss, args.workload, args.seed, args.quick)
        workloads.apply(ops, plan)
        workloads.write_files(ss, ops, workdir)
        setups.append((start, time.perf_counter() - start))
        return sys.modules["sslab.cli"], ops

    for _ in range(SETUP_REPEATS):
        cli, ops = set_up()

    def one_round():
        return run_round(cli, ops, workloads.judge)

    plain, traced = [], []
    if args.trace:
        tracer = Tracer("sslab")
        bounds = []

        def pair():
            plain.append(one_round())
            lo = len(tracer.spans)
            tracer.install()
            try:
                traced.append(one_round())
            finally:
                tracer.uninstall()
            bounds.append((lo, len(tracer.spans)))

        repeat(args.seconds, pair)
        planted = {(op.weights, op.target): op.planted for op in ops if op.planted is not None}
        values = tracer.per_layer(bounds, [_seconds(r) for r in traced], [_seconds(r) for r in plain], planted)
        tracer.dump(workdir / "trace.json", {"workload": args.workload, "seed": args.seed, "rounds": bounds})
        names = PER_LAYER
    else:
        def timed_round():
            nonlocal cli, ops
            for _ in range(SETUP_REPEATS):
                cli, ops = set_up()
            plain.append(run_round(cli, ops, workloads.judge, yardstick))

        repeat(args.seconds, timed_round)
        yardstick.sample()  # the last operations' scale looks past them too
        values = end_to_end(plain, setups, yardstick)
        names = END_TO_END

    rows = [row for rounds in (plain, traced) for r in rounds for row in r]
    wrong = [row.wrong for row in rows if row.wrong]
    for message in sorted(set(wrong)):
        print(f"wrong answer: {message}", file=sys.stderr)
    unexpected = sum(row.failed and row.fault is None for row in rows)
    if unexpected:
        print(f"{unexpected} operation(s) failed outside the named faults", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(plain) + len(traced)} round(s) of {len(ops)} operations,"
          f" yardstick median {statistics.median(yardstick.samples):.6f} s", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(rows),
        "failed": sum(row.failed for row in rows),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in names},
    }))
    return 0


def run_all(args, names) -> int:
    """Each workload in its own process, one result line per workload."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        print(json.dumps({"workload": name, **json.loads(proc.stdout.strip().splitlines()[-1])}))
    return status


def main(argv=None) -> int:
    # one numpy thread; set before numpy is first imported, by the modules below
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
