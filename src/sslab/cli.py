"""Command-line front end: generators, solvers, reducers, and verifiers.

One JSON object per result line on stdout; human-readable notes on stderr.
Exit codes: 0 success, 1 capacity/domain error, 2 usage, 3 verify violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from functools import partial
from itertools import combinations

from .classic import bellman_dp, meet_in_middle, modular_sampler, schroeppel_shamir
from .combinatorics import bin_l2, check_udcp, ternary_expansion, udcp_from_instance
from .core import (
    BudgetExhausted,
    CapacityError,
    Instance,
    RandomSource,
    _parse_int,
    density,
    full_mask,
    gen_all_equal,
    gen_geometric_pairs,
    gen_planted,
    gen_random_density,
    gen_super_increasing,
    mask_from_indices,
    mask_sum,
    memory_limit_bytes,
    read_instance,
    write_instance,
)
from .dispatch import _regime_report, classify, measured_gamma, solve_auto, solve_large_bin, solve_small_bin
from .hashing import ReductionNotApplicable, reduce_bitlength
from .oracle import _bin_stats, _dense_stats
from .structured import solve_few_sums, solve_many_sums

_DEFAULT_SAMPLER_BUDGET = 100000


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _integer(text: str, minimum: int | None = None) -> int:
    """The type of every integer flag: the instance file's integer format, an
    optional sign and ASCII digits, and at least `minimum` when one is given."""
    try:
        value = _parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if minimum is not None and value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


def _parse_m(spec: str, n: int) -> int:
    if spec == "auto":
        return mask_from_indices(range(n // 2))
    try:
        indices = [_parse_int(part) for part in spec.split(",")]
    except ValueError:
        raise ValueError(f"--M must be 'auto' or a comma-separated index list, got {spec!r}")
    if len(set(indices)) != len(indices):
        raise ValueError("--M indices must be distinct")
    for i in indices:
        if not 0 <= i < n:
            raise ValueError(f"--M index {i} outside [0, {n})")
    return mask_from_indices(indices)


def _m_and_gamma(args, instance: Instance) -> tuple[int, float]:
    m_mask = _parse_m(args.M, instance.n)
    return m_mask, args.gamma if args.gamma is not None else measured_gamma(instance, m_mask)


# Every --kind: (n, d, bits, value, rng) -> (instance, planted mask or None). Every
# --alg: (args, instance, rng) -> SolverOutcome. Each entry reaches its function
# through the module's globals at call time, so that a wrapper set on this module
# (a tracer, a test's spy) sees the call.
_GENERATORS = {
    "density": lambda n, d, bits, value, rng: (gen_random_density(n, d, rng), None),
    "geometric": lambda n, d, bits, value, rng: (gen_geometric_pairs(n), None),
    "planted": lambda n, d, bits, value, rng: gen_planted(n, bits, rng),
    "equal": lambda n, d, bits, value, rng: (gen_all_equal(n, value=value), None),
    "superinc": lambda n, d, bits, value, rng: (gen_super_increasing(n), None),
}
_SOLVERS = {
    "dp": lambda args, instance, rng: bellman_dp(instance),
    "mim": lambda args, instance, rng: meet_in_middle(instance),
    "ss": lambda args, instance, rng: schroeppel_shamir(instance),
    "sampler": lambda args, instance, rng: modular_sampler(
        instance, args.sigma, rng, _DEFAULT_SAMPLER_BUDGET if args.budget is None else args.budget),
    "repr": lambda args, instance, rng: solve_many_sums(
        instance, *_m_and_gamma(args, instance), rng, step_budget=args.budget),
    "fewsums": lambda args, instance, rng: solve_few_sums(instance, *_m_and_gamma(args, instance)),
    "smallbin": lambda args, instance, rng: solve_small_bin(
        instance, args.epsilon, rng, step_budget=args.budget),
    "largebin": lambda args, instance, rng: solve_large_bin(instance),
    "auto": lambda args, instance, rng: solve_auto(instance),
}


def _outcome_json(alg: str, instance: Instance, out) -> dict:
    if out.witness is not None and mask_sum(instance.weights, out.witness) != instance.target:
        raise RuntimeError("solver returned a witness that fails re-verification")
    obj = {
        "alg": alg,
        "found": out.found,
        "witness_mask_hex": format(out.witness, "x") if out.witness is not None else None,
        "step_counters": dict(out.cost),
        "branch_taken": out.branch,
        "exhausted": out.exhausted,
    }
    if out.iterations:
        obj["iterations"] = out.iterations
    return obj


def _cmd_gen(args) -> int:
    rng = RandomSource(args.seed)
    instance, planted = _GENERATORS[args.kind](args.n, args.d, args.bits, args.value, rng)
    write_instance(instance, args.out)
    obj = {"kind": args.kind, "n": instance.n, "target": instance.target, "out": args.out}
    if planted is not None:
        obj["planted_mask_hex"] = format(planted, "x")
    _emit(obj)
    _note(f"wrote {args.kind} instance n={instance.n} to {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    for path in args.files:
        instance = read_instance(path)
        try:
            dens = density(instance)
        except ValueError:
            dens = None
        beta, distinct, l2 = _bin_stats(instance)
        _emit({"n": instance.n, "density": dens, "beta": beta, "distinct_sums": distinct, "l2_norm_squared": l2})
        _note(f"analyzed {path}")
    return 0


def _cmd_classify(args) -> int:
    instance = read_instance(args.file)
    report = classify(instance)
    _emit(asdict(report))
    _note(f"classified {args.file}: beta exponent {report.beta_exponent:.4f}")
    return 0


def _cmd_solve(args) -> int:
    instance = read_instance(args.file)
    out = _SOLVERS[args.alg](args, instance, RandomSource(args.seed))
    _emit(_outcome_json(args.alg, instance, out))
    verdict = "found" if out.found else ("exhausted" if out.exhausted else "no solution")
    _note(f"{args.alg} on {args.file}: {verdict}")
    return 0


def _cmd_hash(args) -> int:
    instance = read_instance(args.file)
    rng = RandomSource(args.seed)
    record = reduce_bitlength(instance, args.B, rng)
    p, r = record.chain[-1]
    obj = {
        "B": record.B,
        "p": p,
        "r": r,
        "rounds": record.rounds,
        "chain": [[p, r] for p, r in record.chain],
    }
    if args.out is not None:
        write_instance(record.reduced, args.out)
        obj["out"] = args.out
    _emit(obj)
    _note(f"reduced {args.file} in {record.rounds} round(s)")
    return 0


def _verify_corpus(n_max: int, rng: RandomSource):
    """Deterministic generated corpus: (name, instance) pairs."""
    for n in range(2, n_max + 1):
        for d in (0.5, 1.0, 2.0, 4.0):
            sub = rng.split(f"corpus:density:{n}:{d}")
            yield f"density-n{n}-d{d}", gen_random_density(n, d, sub)
        if n % 2 == 0:
            yield f"geometric-n{n}", gen_geometric_pairs(n)
        yield f"equal-n{n}", gen_all_equal(n)
        yield f"superinc-n{n}", gen_super_increasing(n)
        inst, _ = gen_planted(n, n, rng.split(f"corpus:planted:{n}"))
        yield f"planted-n{n}", inst


def _udcp(instance: Instance, stats):
    pair = udcp_from_instance(instance)
    if not check_udcp(pair):
        return "pair not uniquely decodable"
    beta, distinct, _ = stats(instance)  # |w(2^[n])| and beta, not from the extraction's sort
    if pair.a_masks.size != distinct or pair.b_masks.size != beta:
        return "extracted sizes mismatch"
    return None


def _l2identity(instance: Instance, stats):
    rhs = ternary_expansion(instance)
    lhs = stats(instance)[2]
    return None if lhs == rhs else f"bin_l2 {lhs} != ternary expansion {rhs}"


def _cauchyschwarz(instance: Instance, stats):
    n = instance.n
    beta = stats(instance)[0]
    half = n // 2
    if n <= 10:
        # a split and its complement give one product: for even n, check only the
        # splits that hold item 0; they come first, so the first violation is the same
        splits = [s for s in combinations(range(n), half) if n % 2 or s[0] == 0]
        others = [[i for i in range(n) if i not in s] for s in splits]
        norms = zip(*(_dense_stats(instance.weights, rows)[2].tolist() for rows in (splits, others)))
    else:  # one split, through bin_l2, whose tables past 14 items deduplicate: a half of a
        # sum-poor instance (all-equal n = 60) has few distinct sums but far too many subsets
        splits = [tuple(range(half))]
        s_mask = mask_from_indices(splits[0])
        norms = [(bin_l2(instance, s_mask), bin_l2(instance, full_mask(n) ^ s_mask))]
    for left, (a, b) in zip(splits, norms):
        if beta * beta > a * b:
            return f"beta^2 {beta * beta} > {a * b} on split {list(left)}"
    return None


def _sumsvsbin(instance: Instance, stats):
    beta, distinct, _ = stats(instance)
    report = _regime_report(instance, beta, distinct)  # classify's thresholds on the shared stats
    if report.sums_vs_bin_holds:
        return None
    return f"distinct {report.distinct} rich but beta {report.beta} over bound"


# Every check: (the smallest n it is defined on, (instance, stats) -> a violation's detail or
# None), where stats(instance) is the instance's whole-block _bin_stats, shared by the checks.
# An instance below the floor, or one whose tables the memory limit refuses, is skipped;
# nothing else is. Each function reaches the library through the module's globals.
_CHECKS = {
    "udcp": (1, _udcp),
    "l2identity": (0, _l2identity),
    "cauchyschwarz": (2, _cauchyschwarz),
    "sumsvsbin": (1, _sumsvsbin),  # classify needs an item
}


def _cmd_verify(args) -> int:
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    if not checks:
        raise ValueError(f"--checks names no check; choose from {', '.join(_CHECKS)}")
    for c in checks:
        if c not in _CHECKS:
            raise ValueError(f"unknown check {c!r}; choose from {', '.join(_CHECKS)}")
    if args.file is not None:
        corpus = [(args.file, read_instance(args.file))]
    elif args.n_max < 2:
        raise ValueError("need --n-max >= 2: the generated corpus starts at n = 2")
    else:
        corpus = list(_verify_corpus(args.n_max, RandomSource(args.seed)))
    norm = "l2identity" in checks  # the one check that reads the sum of count^2
    held = {}  # id of a corpus instance -> its _bin_stats, made by the first check that reads it

    def stats(instance: Instance):
        key = id(instance)  # the corpus holds every instance until the command returns
        if key not in held:  # a refusal raises here and stores nothing: each check retries it
            held[key] = _bin_stats(instance, norm=norm)
        return held[key]

    violations: list = []
    idle = []  # the checks that ran on no instance
    refused = []  # for each check that ran, a note of how many instances the memory limit skipped
    for check in checks:
        floor, run = _CHECKS[check]
        ran = over = 0
        before = len(violations)
        for name, instance in corpus:
            if instance.n < floor:
                continue
            try:
                detail = run(instance, stats)
            except CapacityError:
                over += 1
                continue
            ran += 1
            if detail is not None:
                violations.append({"check": check, "instance": name, "detail": detail})
        _emit({"check": check, "instances": ran, "violations": len(violations) - before})
        if not ran:
            idle.append(check)
        elif over:
            refused.append(f"{check} skipped {over} of {len(corpus)} instance(s) past the memory limit")
    for v in violations:
        _emit(v)
    if violations:
        head = f"{len(violations)} invariant violation(s)"
    elif idle:  # a check that ran on no instance passed nothing; a skip still exits 0
        head = f"no violations, but {', '.join(idle)} ran on none of {len(corpus)} instance(s)"
    else:
        head = "no violations" if refused else f"all checks passed on {len(corpus)} instance(s)"
    _note("; ".join([head] + refused))
    return 3 if violations else 0


def _cmd_bench(args) -> int:
    if args.n_from < 1 or args.n_to < args.n_from:
        raise ValueError("need 1 <= --n-from <= --n-to")
    # every instance is made before any solve, so that a generator error loses no solved row
    sweep = [(n, _GENERATORS[args.kind](n, args.d, n, 1, RandomSource(args.seed).split(f"bench:{n}"))[0])
             for n in range(args.n_from, args.n_to + 1)]
    rows = []
    for n, instance in sweep:
        out = _SOLVERS[args.alg](args, instance, RandomSource(args.seed))
        rows.append({"n": n, **out.cost})
    fields = ["n"] + sorted({k for row in rows for k in row} - {"n"})
    with open(args.csv, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, restval="")
        writer.writeheader()
        writer.writerows(rows)
    _emit({"alg": args.alg, "csv": args.csv, "rows": len(rows)})
    _note(f"benchmarked {args.alg} for n in [{args.n_from}, {args.n_to}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sslab",
        description="Exact Subset Sum solvers parameterized by sum structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solver = argparse.ArgumentParser(add_help=False)  # the flags _SOLVERS reads
    solver.add_argument("--alg", choices=_SOLVERS, required=True)
    solver.add_argument("--seed", type=_integer, default=0,
                        help="random seed of sampler, repr and smallbin, and of bench's instances")
    solver.add_argument("--budget", type=partial(_integer, minimum=0), default=None,
                        help="step budget of sampler, repr and smallbin, a non-negative int")
    solver.add_argument("--sigma", type=float, default=0.5, help="sampler residue exponent")
    solver.add_argument("--M", default="auto", help="comma-separated indices or 'auto'")
    solver.add_argument("--gamma", type=float, default=None, help="sum-richness exponent of M")
    solver.add_argument("--epsilon", type=float, default=1.0 / 6.0,
                        help="promise margin of smallbin, in (0, 1/6]")

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--kind", choices=_GENERATORS, required=True)
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--d", type=float, default=1.0, help="density for --kind density")
    p.add_argument("--bits", type=_integer, default=12, help="weight bits for --kind planted")
    p.add_argument("--value", type=_integer, default=1, help="weight for --kind equal")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--out", required=True, help="destination instance file")

    p = sub.add_parser("analyze", help="report structure statistics per instance")
    p.add_argument("files", nargs="+")

    p = sub.add_parser("classify", help="emit the regime report for an instance")
    p.add_argument("file")

    p = sub.add_parser("solve", parents=[solver], help="run one solver on an instance file")
    p.add_argument("file")

    p = sub.add_parser("hash", help="reduce an instance's bit length")
    p.add_argument("file")
    p.add_argument("--B", type=_integer, required=True, help="bin-size budget of the reduction")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--out", default=None, help="write the reduced instance here")

    p = sub.add_parser("verify", help="check combinatorial invariants on a corpus")
    p.add_argument("file", nargs="?", default=None, help="single instance file (default: generated corpus)")
    p.add_argument("--checks", default=",".join(_CHECKS), help="comma-separated subset of checks")
    p.add_argument("--n-max", dest="n_max", type=_integer, default=12)
    p.add_argument("--seed", type=_integer, default=0)

    p = sub.add_parser("bench", parents=[solver], help="sweep n for one algorithm, counters to CSV")
    p.add_argument("--n-from", dest="n_from", type=_integer, required=True)
    p.add_argument("--n-to", dest="n_to", type=_integer, required=True)
    p.add_argument("--kind", choices=_GENERATORS, default="density")
    p.add_argument("--d", type=float, default=1.0)
    p.add_argument("--csv", required=True, help="output CSV path")

    return parser


# Every command: args -> exit code, looked up by name at call time, so that the parser,
# built once per process, holds no function that a wrapper may replace.
_COMMANDS = {
    "gen": lambda args: _cmd_gen(args),
    "analyze": lambda args: _cmd_analyze(args),
    "classify": lambda args: _cmd_classify(args),
    "solve": lambda args: _cmd_solve(args),
    "hash": lambda args: _cmd_hash(args),
    "verify": lambda args: _cmd_verify(args),
    "bench": lambda args: _cmd_bench(args),
}
_parser = None  # build_parser(), made on the first main call: importing sslab.cli stays cheap


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        memory_limit_bytes()  # every command refuses a malformed limit, before it does anything
        return _COMMANDS[args.command](args)
    except (CapacityError, ValueError, OverflowError, ReductionNotApplicable, BudgetExhausted, RuntimeError,
            OSError) as exc:
        _note(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
