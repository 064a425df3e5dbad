"""Every solver counts through one StepMeter: each outcome reports `steps`
next to its named counters."""

import pytest

from sslab import (
    Instance,
    RandomSource,
    bellman_dp,
    brute_solve,
    distinct_sums,
    gen_all_equal,
    gen_planted,
    mask_from_indices,
    meet_in_middle,
    modular_sampler,
    partition_blocks,
    schroeppel_shamir,
    solve_auto,
    solve_few_sums,
    solve_large_bin,
    solve_many_sums,
    solve_small_bin,
)
from sslab.core import memory_limit_bytes

CLASSIC = {"sums_enumerated", "pairs_checked", "dict_lookups", "samples_drawn"}
JOIN = {"sums_enumerated", "dict_lookups", "pairs_checked"}
REPR = {"sums_enumerated", "pairs_scanned", "attempts"}
EPS = 1.0 / 6.0


def _planted():
    return gen_planted(14, 14, RandomSource(74))[0]


def _smallbin_representation():
    # the block scan is charged to the same meter as the representation solver
    inst = _planted()
    out = solve_small_bin(inst, EPS, RandomSource(75))
    rich = mask_from_indices(partition_blocks(inst.n, EPS)[0])  # 16 distinct sums: rich
    sub = solve_many_sums(inst, rich, 1.0 - EPS / 2.0, RandomSource(75))
    assert out.branch == "representation" and out.iterations == sub.iterations
    scan = distinct_sums(inst, rich)
    return out, REPR, lambda c: c["steps"] == scan + sub.cost["steps"]


def _auto_ss():
    # at 1 MB mim's charge is refused, and auto's counters are the ss join's own
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SSLAB_MEM_LIMIT_MB", "1")
        inst = gen_planted(30, 30, RandomSource(1030))[0]
        out = solve_auto(inst)
        join = schroeppel_shamir(inst).cost
    assert out.branch == "ss"
    return out, CLASSIC | {"peak_retained_sums"}, lambda c: c == join and _same_as_sums(c)


def _auto_ss_small_target():
    # past mim's charge, target 6 < 2n takes the ss join as well
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sslab.dispatch._mim_bytes", lambda instance: memory_limit_bytes() + 1)
        out = solve_auto(gen_all_equal(12))
    join = schroeppel_shamir(gen_all_equal(12)).cost
    assert out.branch == "ss"
    return out, CLASSIC | {"peak_retained_sums"}, lambda c: c == join and _same_as_sums(c)


def _branch(out, branch, keys, steps_ok):
    assert out.branch == branch
    return out, keys, steps_ok


def _same_as_sums(c):
    return c["steps"] == c["sums_enumerated"]


CASES = {
    "brute": lambda: (brute_solve(_planted()), CLASSIC, _same_as_sums),
    "dp": lambda: (bellman_dp(gen_all_equal(12)), CLASSIC, _same_as_sums),
    "mim": lambda: (meet_in_middle(_planted()), CLASSIC, _same_as_sums),
    "ss": lambda: (schroeppel_shamir(_planted()), CLASSIC | {"peak_retained_sums"}, _same_as_sums),
    "sampler": lambda: (modular_sampler(_planted(), 0.5, RandomSource(5), 50),
                        CLASSIC | {"table_cells"},
                        lambda c: c["steps"] == c["table_cells"] + c["samples_drawn"]),
    "fewsums": lambda: (solve_few_sums(_planted(), mask_from_indices(range(7)), 1.0),
                        JOIN, _same_as_sums),
    "largebin": lambda: (solve_large_bin(gen_all_equal(14)), JOIN | {"measured_gamma"},
                         _same_as_sums),
    "repr": lambda: (solve_many_sums(_planted(), mask_from_indices(range(7)), 1.0, RandomSource(9)),
                     REPR, lambda c: c["steps"] > c["sums_enumerated"] + c["pairs_scanned"]),
    "smallbin-tiny": lambda: _branch(
        solve_small_bin(Instance((3, 5, 7, 9), 12), EPS, RandomSource(0)), "tiny", CLASSIC,
        _same_as_sums),
    "smallbin-wide": lambda: _branch(
        solve_small_bin(Instance((1, 2, 3, 1 << 80, 5, 7), 10), EPS, RandomSource(0)),
        "representation", REPR, lambda c: c["steps"] > c["sums_enumerated"] + c["pairs_scanned"]),
    "smallbin-representation": _smallbin_representation,
    "smallbin-join": lambda: _branch(
        solve_small_bin(gen_all_equal(12), EPS, RandomSource(73)), "join", JOIN,
        lambda c: c["steps"] > c["sums_enumerated"]),
    "auto-mim": lambda: _branch(solve_auto(_planted()), "mim", CLASSIC,
                                lambda c: c == meet_in_middle(_planted()).cost and _same_as_sums(c)),
    "auto-ss": _auto_ss,
    "auto-ss-small-target": _auto_ss_small_target,
}


@pytest.mark.parametrize("case", list(CASES))
def test_every_outcome_reports_steps(case):
    out, keys, steps_ok = CASES[case]()
    assert set(out.cost) == keys | {"steps"}
    assert steps_ok(out.cost)
