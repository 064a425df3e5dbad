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
from itertools import combinations

from .classic import bellman_dp, meet_in_middle, modular_sampler, schroeppel_shamir
from .combinatorics import bin_l2, check_udcp, l2_identity_terms, udcp_from_instance
from .core import (
    BudgetExhausted,
    CapacityError,
    Instance,
    RandomSource,
    density,
    full_mask,
    gen_all_equal,
    gen_geometric_pairs,
    gen_planted,
    gen_random_density,
    gen_super_increasing,
    mask_from_indices,
    mask_sum,
    read_instance,
    write_instance,
)
from .dispatch import classify, measured_gamma, solve_auto, solve_large_bin, solve_small_bin
from .hashing import ReductionNotApplicable, reduce_bitlength
from .oracle import distinct_sums, max_bin
from .structured import solve_few_sums, solve_many_sums

_GEN_KINDS = ("density", "geometric", "planted", "equal", "superinc")
_ALGS = ("dp", "mim", "ss", "sampler", "repr", "fewsums", "smallbin", "largebin", "auto")
_CHECKS = ("udcp", "l2identity", "cauchyschwarz", "sumsvsbin")
_DEFAULT_SAMPLER_BUDGET = 100000


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _generate(kind: str, n: int, d: float, bits: int, value: int, rng: RandomSource):
    """Returns (instance, planted_mask_or_None)."""
    if kind == "density":
        return gen_random_density(n, d, rng), None
    if kind == "geometric":
        return gen_geometric_pairs(n), None
    if kind == "planted":
        return gen_planted(n, bits, rng)
    if kind == "equal":
        return gen_all_equal(n, value=value), None
    return gen_super_increasing(n), None


def _parse_m(spec: str, n: int) -> int:
    if spec == "auto":
        return mask_from_indices(range(n // 2))
    try:
        indices = [int(part) for part in spec.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"--M must be 'auto' or a comma-separated index list, got {spec!r}")
    if not indices:
        raise ValueError("--M index list is empty")
    if len(set(indices)) != len(indices):
        raise ValueError("--M indices must be distinct")
    for i in indices:
        if not 0 <= i < n:
            raise ValueError(f"--M index {i} outside [0, {n})")
    return mask_from_indices(indices)


def _run_solver(args, instance: Instance):
    rng = RandomSource(args.seed)
    alg = args.alg
    if alg == "dp":
        return bellman_dp(instance)
    if alg == "mim":
        return meet_in_middle(instance)
    if alg == "ss":
        return schroeppel_shamir(instance)
    if alg == "sampler":
        budget = args.budget if args.budget is not None else _DEFAULT_SAMPLER_BUDGET
        return modular_sampler(instance, args.sigma, rng, budget)
    if alg in ("repr", "fewsums"):
        m_mask = _parse_m(args.M, instance.n)
        gamma = args.gamma if args.gamma is not None else measured_gamma(instance, m_mask)
        if alg == "fewsums":
            return solve_few_sums(instance, m_mask, gamma)
        return solve_many_sums(instance, m_mask, gamma, rng, step_budget=args.budget)
    if alg == "smallbin":
        epsilon = args.epsilon if args.epsilon is not None else 1.0 / 6.0
        return solve_small_bin(instance, epsilon, rng, step_budget=args.budget)
    if alg == "largebin":
        return solve_large_bin(instance)
    if args.epsilon is not None:
        return solve_auto(instance, rng, budget=args.budget, epsilon=args.epsilon)
    return solve_auto(instance, rng, budget=args.budget)


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
    if alg == "repr" and out.iterations:
        obj["iterations"] = out.iterations
    return obj


def _cmd_gen(args) -> int:
    rng = RandomSource(args.seed)
    instance, planted = _generate(args.kind, args.n, args.d, args.bits, args.value, rng)
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
        _emit({
            "n": instance.n,
            "density": dens,
            "beta": max_bin(instance),
            "distinct_sums": distinct_sums(instance),
            "l2_norm_squared": bin_l2(instance),
        })
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
    out = _run_solver(args, instance)
    _emit(_outcome_json(args.alg, instance, out))
    verdict = "found" if out.found else ("exhausted" if out.exhausted else "no solution")
    _note(f"{args.alg} on {args.file}: {verdict}")
    return 0


def _cmd_hash(args) -> int:
    instance = read_instance(args.file)
    rng = RandomSource(args.seed)
    record = reduce_bitlength(instance, args.B, rng)
    obj = {
        "B": record.B,
        "p": record.p,
        "r": record.shift,
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


def _check_one(check: str, name: str, instance: Instance, violations: list) -> bool:
    """Runs one named invariant check; returns False when skipped."""
    n = instance.n
    if check == "udcp":
        if n > 14:
            return False
        pair = udcp_from_instance(instance)
        ok = check_udcp(pair)
        sizes_ok = (
            len(pair.a_masks) == distinct_sums(instance)
            and len(pair.b_masks) == max_bin(instance)
        )
        if not (ok and sizes_ok):
            violations.append({
                "check": check, "instance": name,
                "detail": "pair not uniquely decodable" if not ok else "extracted sizes mismatch",
            })
        return True
    if check == "l2identity":
        if n > 14:
            return False
        lhs, rhs = l2_identity_terms(instance)
        if lhs != rhs:
            violations.append({
                "check": check, "instance": name,
                "detail": f"bin_l2 {lhs} != ternary expansion {rhs}",
            })
        return True
    if check == "cauchyschwarz":
        if n < 2 or n > 16:
            return False
        beta = max_bin(instance)
        half = n // 2
        if n <= 10:
            splits = combinations(range(n), half)
        else:
            splits = [tuple(range(half))]
        everything = full_mask(n)
        for left in splits:
            s_mask = mask_from_indices(left)
            prod = bin_l2(instance, s_mask) * bin_l2(instance, everything ^ s_mask)
            if beta * beta > prod:
                violations.append({
                    "check": check, "instance": name,
                    "detail": f"beta^2 {beta * beta} > {prod} on split {list(left)}",
                })
                return True
        return True
    # sumsvsbin
    report = classify(instance)
    if not report.sums_vs_bin_holds:
        violations.append({
            "check": check, "instance": name,
            "detail": f"distinct {report.distinct} rich but beta {report.beta} over bound",
        })
    return True


def _cmd_verify(args) -> int:
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    for c in checks:
        if c not in _CHECKS:
            raise ValueError(f"unknown check {c!r}; choose from {', '.join(_CHECKS)}")
    if args.file is not None:
        corpus = [(args.file, read_instance(args.file))]
    else:
        corpus = list(_verify_corpus(args.n_max, RandomSource(args.seed)))
    violations: list = []
    for check in checks:
        ran = 0
        before = len(violations)
        for name, instance in corpus:
            if _check_one(check, name, instance, violations):
                ran += 1
        _emit({"check": check, "instances": ran, "violations": len(violations) - before})
    for v in violations:
        _emit(v)
    if violations:
        _note(f"{len(violations)} invariant violation(s)")
        return 3
    _note(f"all checks passed on {len(corpus)} instance(s)")
    return 0


def _cmd_bench(args) -> int:
    if args.n_from < 1 or args.n_to < args.n_from:
        raise ValueError("need 1 <= --n-from <= --n-to")
    rows = []
    for n in range(args.n_from, args.n_to + 1):
        rng = RandomSource(args.seed)
        instance, _ = _generate(args.kind, n, args.d, n, 1, rng.split(f"bench:{n}"))
        out = _run_solver(args, instance)
        row = {"n": n}
        for key, val in out.cost.items():
            row[key] = val
        rows.append(row)
    fields = ["n"] + sorted({k for row in rows for k in row} - {"n"})
    with open(args.csv, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    _emit({"alg": args.alg, "csv": args.csv, "rows": len(rows)})
    _note(f"benchmarked {args.alg} for n in [{args.n_from}, {args.n_to}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sslab",
        description="Exact Subset Sum solvers parameterized by sum structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--kind", choices=_GEN_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=float, default=1.0, help="density for --kind density")
    p.add_argument("--bits", type=int, default=12, help="weight bits for --kind planted")
    p.add_argument("--value", type=int, default=1, help="weight for --kind equal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="destination instance file")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("analyze", help="report structure statistics per instance")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("classify", help="emit the regime report for an instance")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("solve", help="run one solver on an instance file")
    p.add_argument("file")
    p.add_argument("--alg", choices=_ALGS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--sigma", type=float, default=0.5, help="sampler residue exponent")
    p.add_argument("--M", default="auto", help="comma-separated indices or 'auto'")
    p.add_argument("--gamma", type=float, default=None, help="sum-richness exponent of M")
    p.add_argument("--epsilon", type=float, default=None, help="small-bin promise margin")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("hash", help="reduce an instance's bit length")
    p.add_argument("file")
    p.add_argument("--B", type=int, required=True, help="bin-size budget of the reduction")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the reduced instance here")
    p.set_defaults(func=_cmd_hash)

    p = sub.add_parser("verify", help="check combinatorial invariants on a corpus")
    p.add_argument("file", nargs="?", default=None, help="single instance file (default: generated corpus)")
    p.add_argument("--checks", default=",".join(_CHECKS), help="comma-separated subset of checks")
    p.add_argument("--n-max", dest="n_max", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="sweep n for one algorithm, counters to CSV")
    p.add_argument("--alg", choices=_ALGS, required=True)
    p.add_argument("--n-from", dest="n_from", type=int, required=True)
    p.add_argument("--n-to", dest="n_to", type=int, required=True)
    p.add_argument("--kind", choices=_GEN_KINDS, default="density")
    p.add_argument("--d", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", required=True, help="output CSV path")
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--M", default="auto")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CapacityError, ValueError, ReductionNotApplicable, BudgetExhausted, RuntimeError, OSError) as exc:
        _note(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
