"""The benchmark's workloads: instances made with sslab's generators, the CLI
operations run on them, and the judgement of every answer against reference.py.

A workload is a list of `Op`s. Set-up builds the list and writes one instance
file per distinct (weights, target); `certify` (untimed) has the reference pick
and prove every no-target and compute every expected (beta, distinct).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import reference

KINDS = ("yes", "no", "wide", "classify", "verify")

FIXED_SEED = 1508  # inputs that must not depend on --seed: probes and named faults
WIDE_SOLVER_SEED = 7


@dataclass
class Op:
    """One `sslab` CLI call and what the reference expects of its answer."""

    kind: str                  # metric bucket, one of KINDS
    args: list                 # CLI arguments; the instance file is appended
    weights: tuple = ()
    target: int | None = None  # a no-op's target stays None until `certify` picks it
    no_rule: str | None = None  # how the reference proves a no: join, bitset or above
    key: str = ""              # names the op's no-target draw
    fixed: bool = False        # inputs independent of --seed
    exact: bool = True         # a "no" on a yes-instance is wrong (exact) or a miss (Monte Carlo)
    planted: int | None = None
    family: str | None = None  # closed-form family of a classify op
    expect: tuple | None = None  # (beta, distinct) of a classify op
    fault: str | None = None   # the named fault expected to make this op fail
    path: str | None = None


def _solve(alg, seed, inst, planted=None, **kw) -> Op:
    kind = kw.pop("kind", "yes")
    return Op(kind, ["solve", "--alg", alg, "--seed", str(seed)],
              weights=inst.weights, target=inst.target, planted=planted, **kw)


def _solve_no(alg, seed, weights, rule, key, target=None, **kw) -> Op:
    return Op("no", ["solve", "--alg", alg, "--seed", str(seed)], weights=weights,
              target=target, no_rule=rule, key=key, **kw)


def _classify(inst, family=None, fixed=False) -> Op:
    return Op("classify", ["classify"], weights=inst.weights, target=inst.target,
              family=family, fixed=fixed)


def _exact_join(ss, seed, quick):
    rs = ss.RandomSource(seed)
    ops = []
    for alg, sizes in (("mim", ((12, 2),) if quick else ((36, 4), (38, 3), (40, 1))),
                       ("ss", ((10, 2),) if quick else ((28, 3), (30, 3), (32, 2)))):
        for n, count in sizes:
            for k in range(count):
                inst, mask = ss.gen_planted(n, n + 8, rs.split(f"{alg}:{n}:{k}"))
                ops += [_solve(alg, seed, inst, mask),
                        _solve_no(alg, seed, inst.weights, "join", f"{alg}:{n}:{k}")]
    for n in (10, 12) if quick else (36, 40, 44):
        # base-3 digits 0..2: every value in [0, total] is a subset sum
        weights = ss.gen_geometric_pairs(n).weights
        yes = ss.Instance(weights, rs.split(f"geo:{n}").randint(0, sum(weights)))
        ops += [_solve("largebin", seed, yes), _solve_no("largebin", seed, weights, "above", f"geo:{n}")]
    for n in (9, 10) if quick else (36, 39):
        weights = ss.gen_all_equal(n, value=3).weights
        yes = ss.Instance(weights, 3 * rs.split(f"equal:{n}").randint(0, n))
        ops += [_solve("largebin", seed, yes), _solve_no("largebin", seed, weights, "bitset", f"equal:{n}")]
    for n, count in ((12, 1), (14, 1)) if quick else ((36, 2), (40, 2), (42, 2)):
        for k in range(count):
            weights = ss.gen_random_density(n, 4, rs.split(f"dense:{n}:{k}")).weights
            mask = rs.split(f"dense-mask:{n}:{k}").getrandbits(n)
            yes = ss.Instance(weights, ss.mask_sum(weights, mask))
            ops += [_solve("largebin", seed, yes, mask),
                    _solve_no("largebin", seed, weights, "bitset", f"dense:{n}:{k}")]
    # fault (a): the few-sums join hands a right side of 27+ items to the 26-coordinate limit
    for n in (40, 44):
        fixed = ss.gen_all_equal(n, value=3)
        ops += [_solve("largebin", FIXED_SEED, fixed, fault="a", fixed=True),
                _solve_no("largebin", FIXED_SEED, fixed.weights, "bitset", f"fault-a:{n}",
                          target=fixed.target + 1, fault="a", fixed=True)]
    return ops


def _structure(ss, seed, quick):
    rs = ss.RandomSource(seed)
    ops = [_classify(ss.gen_random_density(n, 1, rs.split(f"dens:{n}:{k}")))
           for k, n in enumerate((10, 11) if quick else (20, 20))]
    families = (("geometric", 10), ("equal", 12), ("superinc", 10)) if quick else (
        ("geometric", 22), ("geometric", 24), ("equal", 24), ("equal", 26), ("superinc", 20))
    ops += [_classify(_family(ss, fam, n), fam, fixed=True) for fam, n in families]
    # one verify per check, so the verify time is sampled at several points of the round
    n_max = "8" if quick else "14"
    ops += [Op("verify", ["verify", "--n-max", n_max, "--seed", str(seed), "--checks", check])
            for check in ("udcp", "l2identity", "cauchyschwarz", "sumsvsbin")]
    return ops


def _repr(ss, seed, quick):
    rs = ss.RandomSource(seed)
    ops = []
    for n in (10, 11) if quick else (16, 17, 18):
        for k in range(3):
            inst, mask = ss.gen_planted(n, 2 * n, rs.split(f"repr:{n}:{k}"))
            ops.append(_solve("repr", seed, inst, mask, exact=False))
    for n, count in ((10, 1),) if quick else ((16, 2), (17, 1)):
        for k in range(count):
            # 2n-bit weights: the first n/2 items are sum-rich, so a "no" runs all n^2 passes
            inst, _ = ss.gen_planted(n, 2 * n, rs.split(f"repr-no:{n}:{k}"))
            ops.append(_solve_no("repr", seed, inst.weights, "join", f"repr-no:{n}:{k}", exact=False))
    # Monte Carlo early stops spread widely per instance, so many instances steady their sum
    for n, count in ((12, 2),) if quick else ((20, 40), (22, 40), (24, 20)):
        for k in range(count):
            inst, mask = ss.gen_planted(n, n, rs.split(f"small:{n}:{k}"))
            ops += [_solve(alg, seed, inst, mask, exact=False) for alg in ("smallbin", "auto")]
    return ops + _wide(ss, quick)


def _wide(ss, quick):
    """Fault (b): 60-bit planted instances take the hashed small-bin path, which keeps
    one random shift, so a planted solution survives with probability about 1/n."""
    rs = ss.RandomSource(FIXED_SEED)
    ops = []
    for n in (10,) if quick else (10, 12, 14):
        for k in range(2 if quick else 8):
            inst, mask = ss.gen_planted(n, 60, rs.split(f"wide:{n}:{k}"))
            ops.append(_solve("smallbin", WIDE_SOLVER_SEED, inst, mask, kind="wide",
                              exact=False, fault="b", fixed=True))
    return ops


def _family(ss, family, n):
    if family == "geometric":
        return ss.gen_geometric_pairs(n)
    if family == "equal":
        return ss.gen_all_equal(n)
    return ss.gen_super_increasing(n)


def _probes(ss, present, quick):
    """Fixed operations for each metric kind the workload does not run, so that
    every end-to-end metric is measured on every workload. Each probe kind
    holds a second or more of calls per round: a smaller sum spreads too
    widely from run to run on a shared host."""
    rs = ss.RandomSource(FIXED_SEED)
    ops = []
    if "yes" not in present or "no" not in present:
        n = 14 if quick else 37
        for k in range(1 if quick else 5):
            inst, mask = ss.gen_planted(n, n + 8, rs.split(f"probe:mim:{k}"))
            ops += [_solve("mim", FIXED_SEED, inst, mask, fixed=True),
                    _solve_no("mim", FIXED_SEED, inst.weights, "join", f"probe:mim:{k}", fixed=True)]
    if "classify" not in present:
        families = (("geometric", 18), ("geometric", 20), ("equal", 20), ("equal", 22), ("equal", 24),
                    ("superinc", 16), ("superinc", 17))
        ops += [_classify(_family(ss, fam, n), fam, fixed=True) for fam, n in families * 2]
    if "verify" not in present:
        ops += [Op("verify", ["verify", "--n-max", "8", "--seed", str(k)], fixed=True) for k in range(8)]
    if "wide" not in present:
        ops += _wide(ss, quick)
    return ops


_MAKERS = {"exact-join": _exact_join, "structure": _structure, "repr": _repr}
WORKLOADS = tuple(_MAKERS)


def build(ss, workload: str, seed: int, quick: bool = False) -> list:
    """The workload's operations on instances made by the freshly imported `ss` package,
    each kind spread evenly over the round: on a shared host the speed drifts over
    seconds, and a kind run in one block would sample a single stretch of it."""
    ops = _MAKERS[workload](ss, seed, quick)
    ops += _probes(ss, {op.kind for op in ops}, quick)
    position = {}
    for kind in KINDS:
        same = [op for op in ops if op.kind == kind]
        position.update({id(op): (i + 0.5) / len(same) for i, op in enumerate(same)})
    return sorted(ops, key=lambda op: position[id(op)])


# ---------------------------------------------------------------------------
# reference side (untimed)

def certify(ops: list, seed: int) -> list:
    """Pick and prove every no-target, and compute every classify expectation.

    Returns the plan, one (target, expect) per op, which `apply` replays on a
    freshly built list.
    """
    for op in ops:
        if op.kind == "classify":
            n = len(op.weights)
            op.expect = (reference.family_stats(op.family, n) if op.family
                         else reference.histogram_stats(op.weights))
        if op.no_rule is None:
            continue
        total = sum(op.weights)
        draw = random.Random(f"{FIXED_SEED if op.fixed else seed}:{op.key}")
        if op.no_rule == "above":
            if op.target is None:
                op.target = total + 1 + draw.randrange(total + 1)
            proven = op.target > total
        elif op.no_rule == "bitset":
            reach = reference.reachable_sums(op.weights)
            if op.target is None:
                bits = format(reach, "b")[::-1]
                holes = [t for t, bit in enumerate(bits) if bit == "0"]
                op.target = draw.choice(holes) if holes else total + 1 + draw.randrange(total + 1)
            proven = not (reach >> op.target) & 1
        else:
            join = reference.TwoListJoin(op.weights)
            while op.target is None:
                # the middle quarter of [0, total], where most subset sums lie
                candidate = total * 3 // 8 + draw.randrange(total // 4 + 1)
                if not join.has_solution(candidate):
                    op.target = candidate
            proven = not join.has_solution(op.target)
        if not proven:
            raise AssertionError(f"no-target of {op.key} is reachable")
    for op in ops:
        if op.planted is not None and reference.mask_total(op.weights, op.planted) != op.target:
            raise AssertionError("planted mask does not sum to its target")
    return [(op.target, op.expect) for op in ops]


def apply(ops: list, plan: list) -> None:
    for op, (target, expect) in zip(ops, plan, strict=True):
        op.target, op.expect = target, expect


def write_files(ss, ops: list, workdir: Path) -> None:
    """One instance file per distinct (weights, target), written with sslab's writer."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for op in ops:
        if op.kind == "verify":
            continue
        key = (op.weights, op.target)
        if key not in paths:
            paths[key] = str(workdir / f"{len(paths):03d}.ss")
            ss.write_instance(ss.Instance(op.weights, op.target), paths[key])
        op.path = paths[key]


# ---------------------------------------------------------------------------
# judging answers

def judge(op: Op, rc, stdout: str) -> tuple[bool, str | None, int]:
    """(failed, wrong, witnesses) for one answer.

    `failed` marks an operation that gave no answer: an error exit, a budget
    that ran out, or a Monte Carlo "no" on a yes-instance. `wrong` names an
    answer that contradicts the reference; it makes the run incorrect.
    `witnesses` counts witnesses the benchmark re-summed and accepted.
    """
    if op.kind == "verify":
        if rc == 3:
            return False, "verify reports invariant violations", 0
        if rc != 0:
            return True, None, 0
        lines = [json.loads(ln) for ln in stdout.splitlines() if ln.strip()]
        if not lines or any(ln.get("violations") != 0 or ln.get("instances", 0) < 1 for ln in lines):
            return False, f"verify output {lines!r}", 0
        return False, None, 0
    if rc != 0:
        return True, None, 0
    answer = json.loads(stdout.strip().splitlines()[-1])
    if op.kind == "classify":
        got = (answer.get("beta"), answer.get("distinct"))
        if got != op.expect:
            return False, f"classify (beta, distinct) {got} != reference {op.expect}", 0
        return False, None, 0
    if answer.get("found"):
        hexmask = answer.get("witness_mask_hex")
        mask = int(hexmask, 16) if hexmask else -1
        if mask < 0 or mask >> len(op.weights):
            return False, f"witness {hexmask!r} outside the item range", 0
        total = reference.mask_total(op.weights, mask)
        if total != op.target:
            return False, f"witness sums to {total}, not the target {op.target}", 0
        return False, None, 1
    if answer.get("exhausted"):
        return True, None, 0
    if op.kind == "no":
        return False, None, 0
    if op.exact:
        return False, f"'no' from exact --alg on a yes-instance ({op.args[2]})", 0
    return True, None, 0
