import random
import sys
from itertools import product

import pytest

from sslab import (
    CapacityError,
    Instance,
    RandomSource,
    bellman_dp,
    brute_solve,
    gen_all_equal,
    gen_geometric_pairs,
    gen_planted,
    gen_random_density,
    mask_sum,
    meet_in_middle,
    modular_sampler,
    residue_count_table,
    sample_subset_in_class,
    schroeppel_shamir,
)
from sslab import classic, oracle
from sslab.numeric import is_prime

_FROZEN = Instance(weights=(1, 2, 4, 8, 16, 32, 64, 128), target=170)


def _loop_instances(seed, count, n_lo=1, n_hi=14, densities=(1.0, 2.0, 4.0)):
    rng = RandomSource(seed)
    for k in range(count):
        n = rng.randint(n_lo, n_hi)
        yield gen_random_density(n, rng.choice(densities), rng.split(str(k)))


def test_bellman_matches_brute():
    for inst in _loop_instances(31, 60):
        expect = brute_solve(inst)
        got = bellman_dp(inst)
        assert got.found == expect.found
        if got.found:
            assert mask_sum(inst.weights, got.witness) == inst.target
        assert got.cost["sums_enumerated"] == inst.n * (inst.target + 1)


def test_bellman_zero_target():
    out = bellman_dp(Instance(weights=(4, 5), target=0))
    assert out.found and out.witness == 0


def test_bellman_capacity_guard():
    with pytest.raises(CapacityError):
        bellman_dp(Instance(weights=(1, 2, 3, 4), target=1 << 44))


@pytest.mark.parametrize("n", [1, 2, 3, 6, *range(8, 17)])
def test_bellman_peak_stays_under_its_charge(charges, traced, n):
    # few items and a large t: the temporaries of each item, not the snapshots, set the
    # peak; from n = 8 on a 20-bit t, where the snapshots before t is reached are short
    for seed in range(4):
        rng = RandomSource(100 * n + seed)
        lo, hi = (1 << 22, (1 << 23) + (1 << 22)) if n <= 6 else ((1 << 20) // n, (1 << 21) // n)
        weights = tuple(rng.randint(lo, hi) for _ in range(n))
        inst = Instance(weights, sum(weights) // 2 + 1)
        assert n <= 6 or inst.target.bit_length() == 20
        charges.clear()
        out, peak = traced(bellman_dp, inst, refusal=True)
        assert not isinstance(out, CapacityError)
        assert peak <= max(charges)


def test_bellman_charges_snapshots_by_their_prefix_sums():
    # 14 weights near 2^25 and a 28-bit t: n + 4 full rows would ask 605 MB, but the early
    # snapshots are short, and the solve peaks at 424 MB (tracemalloc)
    rng = random.Random(1)
    weights = tuple(rng.randint(1 << 24, (1 << 25) + (1 << 24)) for _ in range(14))
    inst = Instance(weights, sum(weights) // 2 + 1)
    assert classic._dp_bytes(inst) <= 512 << 20
    # a weight above t adds nothing to the snapshots after it
    row = 24 + 4 * (100 // 30 + 1)
    assert classic._dp_bytes(Instance((1000, 1000, 5), 100)) == 3 * 28 + 4 * row


def test_meet_in_middle_matches_brute():
    for inst in _loop_instances(32, 80, densities=(0.5, 1.0, 2.0, 4.0)):
        expect = brute_solve(inst)
        got = meet_in_middle(inst)
        assert got.found == expect.found
        if got.found:
            # both pick the lexicographically smallest witness mask
            assert got.witness == expect.witness


@pytest.mark.parametrize("inst", [
    *(pytest.param(gen_all_equal(20, t), id=f"equal-{t}") for t in (0, 1, 7, 10, 19, 20, 21)),
    *(pytest.param(Instance(gen_geometric_pairs(20).weights, t), id=f"geometric-{t}")
      for t in (0, 1, 5, 9841, 29524, 59048, 59049)),
    *(pytest.param(gen_random_density(22, 4, RandomSource(k)), id=f"density4-{k}") for k in range(4)),
])
def test_meet_in_middle_smallest_witness_on_repeated_sums(inst):
    # the left half's sums repeat, so the smallest left mask must be picked among many
    expect = brute_solve(inst)
    got = meet_in_middle(inst)
    assert got.found == expect.found
    assert got.witness == expect.witness


@pytest.mark.parametrize("bits", [30, 22])
def test_meet_in_middle_matches_brute_past_the_join_filter(monkeypatch, bits):
    # at n = 30 each half has 2^15 rows, so the join prefilters its needs by the left
    # sums' low bits; it must find what a full scan finds, and the same smallest witness
    monkeypatch.setattr(oracle, "ENUM_LIMIT", 30)
    inst, _ = gen_planted(30, bits, RandomSource(bits))
    for target in (inst.target, inst.target + 1, inst.total() // 2):
        case = Instance(inst.weights, target)
        expect = brute_solve(case)
        got = meet_in_middle(case)
        assert got.found == expect.found
        assert got.witness == expect.witness


def test_meet_in_middle_frozen():
    out = meet_in_middle(_FROZEN)
    assert out.found and out.witness == 0xAA
    assert out.cost["sums_enumerated"] == 2**4 + 2**4


def test_schroeppel_shamir_matches_brute():
    for inst in _loop_instances(33, 80, densities=(0.5, 1.0, 2.0, 4.0)):
        expect = brute_solve(inst)
        got = schroeppel_shamir(inst)
        assert got.found == expect.found
        if got.found:
            assert mask_sum(inst.weights, got.witness) == inst.target


def test_schroeppel_shamir_frozen_and_peak():
    out = schroeppel_shamir(_FROZEN)
    assert out.found and mask_sum(_FROZEN.weights, out.witness) == 170
    assert out.cost["peak_retained_sums"] <= 8 * 2 ** (8 / 4)
    # the all-equal instance maximizes tie-group sizes; still bounded
    eq = gen_all_equal(12)
    out = schroeppel_shamir(eq)
    assert out.found
    assert out.cost["peak_retained_sums"] <= 8 * 2 ** (12 / 4)


def _ss_factor(n):
    """The least prime at or above 2^ceil(n/4), about the size of a quarter's table."""
    return next(p for p in range(max(2, 1 << -(-n // 4)), 1 << 16) if is_prime(p))


def _ss_big_int(rng):
    # weights past 2^62 and targets past 2^62: the quarters, windows and joins hold Python ints
    for k in range(12):
        n = rng.randint(2, 12)
        weights = tuple((1 << rng.randint(62, 90)) + rng.randint(0, 1000) for _ in range(n))
        mask = rng.getrandbits(n)
        yield Instance(weights, mask_sum(weights, mask) + k % 2)


def _ss_heavy_class(rng):
    # weights all multiples of one prime near 2^(n/4): every pair sum shares that factor, so
    # the windows' pair sums lie that far apart, and the third target, off the multiples, meets none
    for n in range(12, 21):
        m = _ss_factor(n)
        weights = tuple(m * rng.randint(1, 1 << 12) for _ in range(n))
        mask = rng.getrandbits(n)
        for target in (mask_sum(weights, mask), mask_sum(weights, mask) + m, mask_sum(weights, mask) + 1):
            yield Instance(weights, target)


def _ss_tiny(rng):
    for n in range(5):
        weights = tuple(rng.randint(0, 9) for _ in range(n))
        for target in range(sum(weights) + 3):  # up to two past the total
            yield Instance(weights, target)


@pytest.mark.parametrize("family", [_ss_big_int, _ss_heavy_class, _ss_tiny])
def test_schroeppel_shamir_edge_families(family):
    for inst in family(RandomSource(39)):
        got = schroeppel_shamir(inst)
        assert got.found == brute_solve(inst).found
        if got.found:
            assert mask_sum(inst.weights, got.witness) == inst.target
        assert got.cost["peak_retained_sums"] <= 8 * 2 ** (inst.n / 4)


def test_schroeppel_shamir_heavy_class_stays_linear():
    # every weight a multiple of 131: the planted target and a no-target that is
    # also a multiple of 131 must not cost more than the 2 * 2^(n/2) pair rows
    base, _ = gen_planted(28, 36, RandomSource(928))
    weights = tuple(131 * w for w in base.weights)
    for target, found in ((131 * base.target, True), (131 * base.target + 131, False)):
        inst = Instance(weights, target)
        assert meet_in_middle(inst).found == found
        got = schroeppel_shamir(inst)
        assert got.found == found
        if found:
            assert mask_sum(weights, got.witness) == target
        assert got.cost["sums_enumerated"] <= 4 * 2 ** (28 / 2)
        assert got.cost["peak_retained_sums"] <= 8 * 2 ** (28 / 4)


@pytest.mark.parametrize("inst", [gen_all_equal(40), gen_geometric_pairs(36)],
                         ids=["equal", "geometric"])
def test_schroeppel_shamir_piled_up_pair_sums(inst):
    # many pairs share each pair-sum value; a window of one value still holds
    # at most one pair per a-row, since quarter sums are distinct
    got = schroeppel_shamir(inst)
    assert got.found and mask_sum(inst.weights, got.witness) == inst.target
    assert got.cost["peak_retained_sums"] <= 8 * 2 ** (inst.n / 4)


def _searches(fn, *args):
    """fn(*args) and how many sorted searches it ran, counted where Python calls
    `searchsorted`, which numpy's function of that name does through the array method."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "c_call" and getattr(arg, "__name__", None) == "searchsorted":
            calls += 1

    sys.setprofile(profile)
    try:
        return fn(*args), calls
    finally:
        sys.setprofile(None)


def test_schroeppel_shamir_crosses_wide_gaps_in_few_windows():
    # weights 2^1000 + 2^i: the pair sums cluster 2^1000 apart, and no subset reaches
    # sum // 2 + 1 (12 items would need a low part of 2^23, which one item alone has), so
    # ss sweeps the whole range. An overfull window is cut to the span of its pair sums;
    # halving [lo, hi) took one halving per bit of a gap, about 64,000 searches
    weights = tuple((1 << 1000) + (1 << i) for i in range(24))
    inst = Instance(weights, sum(weights) // 2 + 1)
    out, searches = _searches(schroeppel_shamir, inst)
    assert not out.found and not meet_in_middle(inst).found
    assert searches < 6000  # under one search per two bits of the gaps


def test_pair_windows_jump_the_gaps_between_clusters():
    # the same low parts 2^i under a high part of 2^40 and of 2^1000: a window where no side
    # holds a pair moves to the least pair sum past it, so the width of the 12 gaps between
    # clusters costs no searches. Growing such a window 0.9 cap-fold at a time crossed each
    # 2^1000 gap in about 1000 / log2(cap) windows: 2,301 searches against 335 at 2^40
    searches = []
    for high in (40, 1000):
        weights = tuple((1 << high) + (1 << i) for i in range(24))
        out, count = _searches(schroeppel_shamir, Instance(weights, sum(weights) // 2 + 1))
        assert not out.found
        searches.append(count)
    assert searches[1] <= searches[0] < 600


def test_meet_in_middle_memory_cap(monkeypatch, charges, traced):
    # all-equal: every right row hits, so a right row takes its 42 bytes and a
    # left row its 16, 15.2 MB at n = 36
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "8")
    out, peak = traced(meet_in_middle, gen_all_equal(36), refusal=True)
    assert isinstance(out, CapacityError)
    assert peak < 8 * (1 << 18)  # below one dense half alone: refused before either
    # the charge covers what the solve really allocates
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "4")
    out, peak = traced(meet_in_middle, gen_all_equal(32))
    assert out.found
    assert peak <= (16 + 42) * (1 << 16)
    # also when its rows hold Python ints of up to 63, 200 and 1000 bits, with
    # no right row that hits and with every right row a hit
    for bits in (63, 200, 1000):
        inst, _ = gen_planted(24, bits, RandomSource(bits))
        equal = Instance((3 << bits,) * 24, (3 << bits) * 12)
        for case, found in ((Instance(inst.weights, inst.target + 1), False), (equal, True)):
            charges.clear()
            out, peak = traced(meet_in_middle, case)
            assert out.found == found
            assert peak <= max(charges)


def test_meet_in_middle_refuses_before_the_left_table(monkeypatch):
    # at 512 MB n = 46 fits and n = 47 does not, whatever its sums: neither dense
    # half may be enumerated before the refusal
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "512")

    def no_half(*args):
        raise AssertionError("a half was enumerated before the refusal")

    monkeypatch.setattr(classic, "_dense_sums", no_half)
    inst, _ = gen_planted(47, 40, RandomSource(5))
    with pytest.raises(CapacityError):
        meet_in_middle(inst)


def test_schroeppel_shamir_memory_cap(monkeypatch, charges, traced):
    # four quarter lists of 2^11 rows at 140 bytes a row exceed 1 MB
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "1")
    out, peak = traced(schroeppel_shamir, gen_all_equal(44), refusal=True)
    assert isinstance(out, CapacityError)
    assert peak < 8 * (1 << 11)  # below one quarter's dense sums: refused before them
    # the charge covers what the solve really allocates
    out, peak = traced(schroeppel_shamir, gen_all_equal(24))
    assert out.found
    assert peak <= 140 * 4 * (1 << 6)
    # also when its rows hold Python ints of up to 63, 200 and 1000 bits
    for bits in (63, 200, 1000):
        inst, _ = gen_planted(28, bits, RandomSource(bits))
        charges.clear()
        out, peak = traced(schroeppel_shamir, Instance(inst.weights, inst.target + 1))
        assert not out.found
        assert peak <= max(charges)


@pytest.mark.parametrize("solve, n, limit_mb", [(meet_in_middle, 28, 5), (schroeppel_shamir, 36, 1)])
def test_wide_joins_stay_inside_the_limit(monkeypatch, traced, solve, n, limit_mb):
    # 1000-bit weights: every sum a join holds is a Python int of about 160 bytes
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", str(limit_mb))
    inst, _ = gen_planted(n, 1000, RandomSource(n))
    out, peak = traced(solve, Instance(inst.weights, inst.target + 1), refusal=True)
    if isinstance(out, CapacityError):
        assert peak < 1 << 16  # refused before any table was built
    else:
        assert peak <= limit_mb << 20


def test_residue_count_table_exact():
    rng = RandomSource(34)
    for k in range(20):
        n = rng.randint(1, 8)
        weights = tuple(rng.randint(0, 50) for _ in range(n))
        q = rng.choice((2, 3, 5, 7, 11))
        rows = residue_count_table(weights, q)
        manual = [0] * q
        for picks in product((0, 1), repeat=n):
            manual[sum(w for b, w in zip(picks, weights) if b) % q] += 1
        assert rows[n] == manual
        assert sum(rows[n]) == 2**n
    with pytest.raises(ValueError):
        residue_count_table((1, 2), 1)


@pytest.mark.parametrize("n, q", [(20, 3), (90, 1031), (200, 1031)])
def test_residue_count_table_charges_its_rows(n, q, charges, traced):
    # rows of Python-int counts: a list header a row, and a slot and an int a
    # cell, the int as wide as 2^n at most
    weights = gen_planted(n, 64, RandomSource(n))[0].weights
    assert traced(residue_count_table, weights, q)[1] <= max(charges)


def test_sample_subset_in_class_stays_in_class():
    rng = RandomSource(35)
    weights = tuple(rng.randint(1, 99) for _ in range(10))
    q = 7
    rows = residue_count_table(weights, q)
    for residue in range(q):
        if rows[10][residue] == 0:
            continue
        for _ in range(50):
            mask = sample_subset_in_class(rows, weights, q, residue, rng)
            assert mask_sum(weights, mask) % q == residue


def test_sample_subset_empty_class_raises():
    weights = (3, 3, 3)
    rows = residue_count_table(weights, 3)
    with pytest.raises(ValueError):
        sample_subset_in_class(rows, weights, 3, 1, RandomSource(0))


def test_modular_sampler_outcomes():
    # all weights multiples of 15, target is not: empty class regardless of q
    no = Instance(weights=(15, 30, 45, 60, 75, 90, 105, 120), target=7)
    out = modular_sampler(no, 1.0, RandomSource(36), budget=100)
    assert not out.found and not out.exhausted
    # planted hit inside a generous budget
    yes = Instance(weights=(3, 5, 9, 14, 21, 33, 50, 61), target=3 + 9 + 33)
    out = modular_sampler(yes, 0.5, RandomSource(37), budget=5000)
    assert out.found and mask_sum(yes.weights, out.witness) == yes.target
    # zero budget on a non-empty class reports exhaustion, not a decision
    out = modular_sampler(yes, 0.5, RandomSource(38), budget=0)
    assert not out.found and out.exhausted


def test_modular_sampler_validation():
    inst = Instance(weights=(1, 2), target=2)
    with pytest.raises(ValueError):
        modular_sampler(inst, -0.1, RandomSource(0), budget=1)
    with pytest.raises(ValueError):
        modular_sampler(inst, 0.5, RandomSource(0), budget=-1)
