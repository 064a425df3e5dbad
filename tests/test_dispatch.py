import math
import tracemalloc
from fractions import Fraction

import pytest

from sslab import (
    CapacityError,
    Instance,
    RandomSource,
    brute_solve,
    classify,
    gen_all_equal,
    gen_geometric_pairs,
    gen_planted,
    gen_random_density,
    gen_super_increasing,
    mask_sum,
    meet_in_middle,
    partition_blocks,
    schroeppel_shamir,
    small_bin_runtime_exponent,
    small_bin_time_exponents,
    solve_auto,
    solve_large_bin,
    solve_many_sums,
    solve_partition_join,
    solve_small_bin,
)

from sslab.classic import _mim_bytes
from sslab.core import memory_limit_bytes

from _corpus import block_table, rich_no_instance


def test_exponent_peak_value():
    assert small_bin_runtime_exponent(Fraction(1, 6)) == Fraction(23, 48)


def test_exponent_closed_forms():
    c = Fraction(8113, 10000)
    for eps in (Fraction(1, 100), Fraction(1, 12), Fraction(1, 6)):
        mu = Fraction(3, 2) * eps
        gamma = 1 - eps / 2
        list_term, pair_term = small_bin_time_exponents(eps)
        assert list_term == Fraction(1, 2) + c * mu - gamma * mu
        assert list_term == Fraction(1, 2) - Fraction(28305, 100000) * eps + Fraction(3, 4) * eps * eps
        assert pair_term == Fraction(1, 2) - eps + (Fraction(3, 2) - gamma) * mu
        assert pair_term == Fraction(1, 2) - eps / 4 + Fraction(3, 4) * eps * eps


def test_exponent_domain():
    with pytest.raises(ValueError):
        small_bin_time_exponents(Fraction(0))
    with pytest.raises(ValueError):
        small_bin_time_exponents(Fraction(1, 5))


def test_partition_blocks_shape():
    blocks = partition_blocks(12, 1.0 / 6.0)
    assert blocks == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
    for n in (5, 9, 16, 23):
        for eps in (0.01, 0.08, 1.0 / 6.0):
            blocks = partition_blocks(n, eps)
            flat = [i for b in blocks for i in b]
            assert flat == list(range(n))
            cap = max(1, math.ceil(1.5 * eps * n - 1e-9))
            assert all(1 <= len(b) <= cap for b in blocks)


def test_partition_join_matches_brute():
    rng = RandomSource(71)
    for k in range(40):
        n = rng.randint(2, 14)
        inst = gen_random_density(n, rng.choice((0.5, 1.0, 2.0, 4.0)), rng.split(str(k)))
        got = solve_partition_join(inst, 1.0 / 6.0)
        expect = brute_solve(inst)
        assert got.found == expect.found
        if got.found:
            assert mask_sum(inst.weights, got.witness) == inst.target


def test_small_bin_tiny_branch():
    inst = gen_random_density(4, 1.0, RandomSource(72))
    out = solve_small_bin(inst, 1.0 / 6.0, RandomSource(0))
    assert out.branch == "tiny"
    assert out.found == brute_solve(inst).found


def test_small_bin_join_branch_on_sum_poor():
    eq = gen_all_equal(12)
    out = solve_small_bin(eq, 1.0 / 6.0, RandomSource(73))
    assert out.branch == "join"
    assert out.found and mask_sum(eq.weights, out.witness) == eq.target


def test_small_bin_exhaustion_names_its_stage():
    # the budget runs out while the blocks' distinct sums are being measured
    inst, _ = gen_planted(14, 14, RandomSource(74))
    out = solve_small_bin(inst, 1.0 / 6.0, RandomSource(75), step_budget=10)
    assert out.exhausted and out.branch == "scan"
    # the all-equal blocks are sum-poor: a scan of 16 steps, then the join runs out
    out = solve_small_bin(gen_all_equal(12), 1.0 / 6.0, RandomSource(73), step_budget=22)
    assert out.exhausted and out.branch == "join" and out.cost["steps"] > 16


def test_small_bin_representation_branch_on_sum_rich():
    inst, _ = gen_planted(14, 14, RandomSource(74))
    out = solve_small_bin(inst, 1.0 / 6.0, RandomSource(75))
    assert out.branch == "representation"
    assert out.found
    assert mask_sum(inst.weights, out.witness) == inst.target


def test_small_bin_measures_the_block_once(monkeypatch):
    # the block scan's measurement is the representation solve's only one
    def refuse(*args):
        raise AssertionError("the sum-rich block was measured again")

    monkeypatch.setattr("sslab.structured.distinct_sums", refuse)
    inst, _ = gen_planted(14, 14, RandomSource(74))
    out = solve_small_bin(inst, 1.0 / 6.0, RandomSource(75))
    assert out.branch == "representation" and out.found


def test_small_bin_epsilon_domain():
    inst = gen_all_equal(8)
    with pytest.raises(ValueError):
        solve_small_bin(inst, 0.0, RandomSource(0))
    with pytest.raises(ValueError):
        solve_small_bin(inst, 0.2, RandomSource(0))


def test_small_bin_solves_long_weights():
    # 60-bit weights at n=12 are solved as given, with no hashing, so every
    # planted solution is found; each witness verifies on the weights
    hits = 0
    for seed in range(12):
        inst, _ = gen_planted(12, 60, RandomSource(200 + seed))
        out = solve_small_bin(inst, 1.0 / 6.0, RandomSource(seed))
        if out.found:
            hits += 1
            assert mask_sum(inst.weights, out.witness) == inst.target
    assert hits == 12


def test_classify_frozen_geometric():
    rep = classify(gen_geometric_pairs(12))
    assert rep.beta == 2**6
    assert rep.distinct == 3**6
    # beta^2 equals 2^n exactly, so no positive-margin epsilon exists
    assert not rep.small_bin and rep.small_bin_epsilon == 0.0
    assert rep.beta_exponent == 0.5
    assert not rep.large_bin      # 64 < 2^(0.661*12) ~ 244.1
    assert not rep.many_sums
    assert rep.sums_vs_bin_holds


def test_classify_frozen_all_equal():
    rep = classify(gen_all_equal(12))
    assert rep.beta == 924
    assert rep.large_bin          # 924 >= 2^(0.661*12)
    assert not rep.small_bin
    assert rep.sums_vs_bin_holds


def test_classify_frozen_super_increasing():
    rep = classify(gen_super_increasing(12))
    assert rep.beta == 1 and rep.distinct == 2**12
    assert rep.many_sums          # 2^12 >= 2^(0.997*12)
    assert rep.sums_vs_bin_holds  # beta = 1 is far under the bin bound
    assert rep.small_bin and rep.small_bin_epsilon == 0.5


def test_solve_large_bin_matches_brute():
    rng = RandomSource(76)
    for k in range(30):
        n = rng.randint(2, 14)
        kind = k % 3
        if kind == 0:
            inst = gen_all_equal(n)
        elif kind == 1:
            inst = gen_geometric_pairs(n - (n % 2) + 2)
        else:
            inst = gen_random_density(n, 4.0, rng.split(str(k)))
        got = solve_large_bin(inst)
        expect = brute_solve(inst)
        assert got.found == expect.found
        assert got.branch == "few-sums"
        if got.found:
            assert mask_sum(inst.weights, got.witness) == inst.target


def test_solve_large_bin_beyond_enum_limit():
    # the few-sums join's right side has 27+ items, but only n+1 distinct sums
    for n in (40, 44):
        weights = gen_all_equal(n, value=3).weights
        for k in (0, 7, n // 2, n):
            yes = solve_large_bin(Instance(weights=weights, target=3 * k))
            assert yes.found and yes.witness.bit_count() == k
            assert mask_sum(weights, yes.witness) == 3 * k
            no = solve_large_bin(Instance(weights=weights, target=3 * k + 1))
            assert not no.found and not no.exhausted


def test_all_equal_past_26_items():
    # n + 1 distinct sums: only the tables' bytes bound classify and the few-sums join
    report = classify(gen_all_equal(40))
    assert report.beta == math.comb(40, 20) and report.distinct == 41 and report.large_bin
    inst = gen_all_equal(60, value=3)
    out = solve_large_bin(inst)
    assert out.found and mask_sum(inst.weights, out.witness) == inst.target


def test_refused_classify_stays_under_the_limit(monkeypatch):
    # 2^22 distinct sums: the table's merge to 2^17 rows would peak past 4 MB, and
    # classify's windows of 2^16 pair sums past 2 MB, so each is refused first
    for limit_mb, refused in ((4, block_table), (2, classify)):
        monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", str(limit_mb))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                refused(gen_super_increasing(22))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mb << 20


def _same_outcome(out, join):
    return (out.witness, out.cost, out.found, out.exhausted) == (
        join.witness, join.cost, join.found, join.exhausted)


def test_solve_auto_planted_and_no_instance():
    # where mim's charge fits, auto is meet_in_middle: its witness, counters and exact "no"
    inst, _ = gen_planted(14, 14, RandomSource(77))
    out = solve_auto(inst)
    assert out.branch == "mim" and out.found
    assert mask_sum(inst.weights, out.witness) == inst.target
    assert _same_outcome(out, meet_in_middle(inst))
    no = rich_no_instance(12, 6, 12, seed=79)
    out = solve_auto(no)
    assert out.branch == "mim" and not out.found and not out.exhausted
    assert _same_outcome(out, meet_in_middle(no))


def test_solve_auto_small_target_falls_through_to_ss(monkeypatch):
    # past mim's charge, auto is schroeppel_shamir, on a small target as on any other
    inst = gen_all_equal(12)  # target 6 < 2n
    assert _same_outcome(solve_auto(inst), meet_in_middle(inst))
    monkeypatch.setattr("sslab.dispatch._mim_bytes", lambda instance: memory_limit_bytes() + 1)
    out = solve_auto(inst)
    assert out.branch == "ss" and out.found
    assert mask_sum(inst.weights, out.witness) == inst.target
    assert _same_outcome(out, schroeppel_shamir(inst))


def test_solve_auto_tiny_budget_falls_through_to_ss(monkeypatch):
    # with no memory to spend, ss is refused too, and auto tries nothing else
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "0")
    inst, _ = gen_planted(12, 16, RandomSource(82))
    for case in (inst, Instance(inst.weights, inst.target + 1)):
        with pytest.raises(CapacityError):
            solve_auto(case)


def test_solve_auto_joins_when_the_memory_limit_skips_every_list(monkeypatch):
    # at 1 MB every representation list is refused, so repr and smallbin searched
    # nothing and say exhausted, not "no"; auto's exact join finds the planted witness
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "1")
    inst, _ = gen_planted(30, 30, RandomSource(1030))
    rep = solve_many_sums(inst, 1, 1.0, RandomSource(0))
    assert rep.iterations and all(row["skipped"] == row["attempts"] for row in rep.iterations)
    assert not rep.found and rep.exhausted
    above = solve_many_sums(Instance(inst.weights, inst.total() + 1), 1, 1.0, RandomSource(0))
    assert above.cost["attempts"] == 0 and not above.found and not above.exhausted  # exact "no"
    small = solve_small_bin(inst, 0.0004, RandomSource(0))
    assert small.branch == "representation" and not small.found and small.exhausted
    # mim's charge, 1.82 MB, passes 2 MB and not 1 MB
    assert 1 << 20 < _mim_bytes(inst) <= 2 << 20
    out = solve_auto(inst)
    assert out.branch == "ss" and out.found and not out.iterations
    assert mask_sum(inst.weights, out.witness) == inst.target
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "2")
    out = solve_auto(inst)
    assert out.branch == "mim" and out.found
    assert _same_outcome(out, meet_in_middle(inst))


def test_solve_auto_both_steps_stay_under_the_limit(monkeypatch):
    # at 1 MB auto runs ss, and the whole run, choice and join, peaks under 1 MB
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "1")
    inst, _ = gen_planted(30, 30, RandomSource(1030))
    tracemalloc.start()
    try:
        out = solve_auto(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.branch == "ss" and out.found
    assert peak <= 1 << 20
