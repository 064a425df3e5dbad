import math
from itertools import combinations

import pytest

from sslab import (
    CapacityError,
    Instance,
    RandomSource,
    StepMeter,
    brute_solve,
    build_filtered_list,
    derive_params,
    distinct_sums,
    full_mask,
    gen_all_equal,
    gen_random_density,
    mask_from_indices,
    mask_indices,
    mask_sum,
    representation_attempt,
    solve_few_sums,
    solve_many_sums,
)
from sslab.numeric import is_prime

from _corpus import rich_no_instance, rich_planted


def test_derive_params_frozen_case():
    m_mask = mask_from_indices(range(8))
    par = derive_params(16, m_mask, 1.0, 4, 2, rng=RandomSource(51))
    assert par.sigma == pytest.approx(0.5)
    assert par.pi == pytest.approx(0.5)
    assert par.lam == pytest.approx(0.25)
    assert par.left_mask.bit_count() == 4
    assert 16 <= par.p <= 32 and is_prime(par.p)
    assert 0 <= par.t_l < par.p
    assert par.s2 == 2 and par.mu == pytest.approx(0.5)


def test_derive_params_partitions_items():
    m_mask = mask_from_indices(range(5))
    par = derive_params(12, m_mask, 0.8, 4, 1, rng=RandomSource(52))
    assert par.left_mask & par.right_mask == 0
    assert par.left_mask & m_mask == 0 and par.right_mask & m_mask == 0
    assert par.left_mask | par.right_mask | m_mask == full_mask(12)


def test_derive_params_fixed_modulus():
    m_mask = mask_from_indices(range(4))
    par = derive_params(10, m_mask, 1.0, 3, 1, modulus=(17, 5))
    assert par.p == 17 and par.t_l == 5


def test_derive_params_validation():
    m_big = mask_from_indices(range(9))
    with pytest.raises(ValueError):
        derive_params(16, m_big, 1.0, 5, 2, rng=RandomSource(0))  # |M| > n/2
    m_mask = mask_from_indices(range(8))
    with pytest.raises(ValueError):
        derive_params(16, m_mask, 1.5, 4, 2, rng=RandomSource(0))
    with pytest.raises(ValueError):
        derive_params(16, m_mask, 1.0, 2, 1, rng=RandomSource(0))  # s < |M|/2
    with pytest.raises(ValueError):
        derive_params(16, m_mask, 1.0, 4, 3, rng=RandomSource(0))  # s1 > s - s1


def _brute_filtered(instance, side_mask, m_mask, s_i, p, residue):
    universe = side_mask | m_mask
    out = set()
    sub = universe
    while True:
        if bin(sub & m_mask).count("1") == s_i:
            s = mask_sum(instance.weights, sub)
            if s % p == residue % p:
                out.add((sub, s))
        if sub == 0:
            break
        sub = (sub - 1) & universe
    return out


def test_build_filtered_list_exact():
    rng = RandomSource(53)
    inst = gen_random_density(9, 1.0, rng)
    m_mask = mask_from_indices([0, 1, 2])
    side = mask_from_indices([3, 4, 5, 6])
    for p, residue, s_i in ((5, 2, 1), (7, 0, 0), (3, 1, 3), (11, 6, 2)):
        expect = _brute_filtered(inst, side, m_mask, s_i, p, residue)
        for dict_size in (None, 0, 2, 4):
            got = build_filtered_list(inst, side, m_mask, s_i, p, residue,
                                      dict_size=dict_size)
            assert set(got) == expect


def _reference_filtered(instance, side_mask, m_mask, s_i, p, residue, dict_size):
    """The filtered list as a plain triple loop: the scan half outermost, the
    s_i-subsets of M next, the dictionary half's residue bucket innermost."""
    ws = instance.weights
    side = mask_indices(side_mask)
    m_idx = mask_indices(m_mask)
    if dict_size is None:
        dict_size = round((len(side) + math.log2(max(1, math.comb(len(m_idx), s_i)))) / 2.0)
    dict_size = min(max(dict_size, 0), len(side))

    def subsets(indices):
        out = [(0, 0)]
        for i in indices:
            out += [(m | 1 << i, s + ws[i]) for m, s in out]
        return out

    buckets = {}
    for m, s in subsets(side[:dict_size]):
        buckets.setdefault(s % p, []).append((m, s))
    combos = [(sum(1 << i for i in c), sum(ws[i] for i in c)) for c in combinations(m_idx, s_i)]
    out = []
    for y_mask, y_sum in subsets(side[dict_size:]):
        for c_mask, c_sum in combos:
            for d_mask, d_sum in buckets.get((residue - y_sum - c_sum) % p, ()):
                out.append((y_mask | c_mask | d_mask, y_sum + c_sum + d_sum))
    return out


def test_build_filtered_list_order():
    # the first-hit witness of an attempt depends on this exact order
    inst = gen_random_density(10, 1.0, RandomSource(70))
    m_mask = mask_from_indices([0, 1, 2, 3])
    side = mask_from_indices([4, 5, 6, 7, 8])
    for p, residue in ((3, 1), (5, 7), (13, 4)):
        for s_i in (0, 2, 4):
            for dict_size in (None, 0, 2, 5):
                want = _reference_filtered(inst, side, m_mask, s_i, p, residue, dict_size)
                meter = StepMeter()
                got = build_filtered_list(inst, side, m_mask, s_i, p, residue,
                                          dict_size=dict_size, meter=meter)
                assert got == want
                k = dict_size if dict_size is not None else round(
                    (5 + math.log2(math.comb(4, s_i))) / 2.0)
                combos = math.comb(4, s_i)
                assert meter.count == (1 << k) + (1 << (5 - k)) * (1 + combos) + combos + len(want)


def test_build_filtered_list_validation():
    inst = gen_random_density(10, 1.0, RandomSource(54))
    m_mask = mask_from_indices([0, 1])
    with pytest.raises(ValueError):
        build_filtered_list(inst, mask_from_indices([1, 2]), m_mask, 1, 5, 0)
    with pytest.raises(ValueError):
        build_filtered_list(inst, mask_from_indices([2, 3]), m_mask, 3, 5, 0)
    with pytest.raises(ValueError):
        build_filtered_list(inst, mask_from_indices([2, 3]), m_mask, 1, 1, 0)


def test_build_filtered_list_capacity_guard():
    wide = Instance(weights=(1,) * 32, target=5)
    side = mask_from_indices(range(30))
    m_mask = mask_from_indices([30, 31])
    with pytest.raises(CapacityError):
        build_filtered_list(wide, side, m_mask, 1, 2, 0)


def test_representation_attempt_finds_planted_split():
    inst, mask = rich_planted(12, 6, 12, seed=55)
    m_mask = mask_from_indices(range(6))
    s_true = bin(mask & m_mask).count("1")
    target, want = inst.target, mask
    if s_true < 3:  # put the heavy side of the split inside M
        target, want = inst.total() - inst.target, full_mask(12) ^ mask
        s_true = 6 - s_true
    found = 0
    for seed in range(40):
        records = []
        got = representation_attempt(
            inst, m_mask, 1.0, s_true, target, RandomSource(seed), records=records)
        assert records and all(
            set(r) >= {"p", "t_l", "s1", "size_left", "size_right", "pairs_scanned"}
            for r in records)
        if got is not None:
            assert mask_sum(inst.weights, got) == target
            found += 1
    assert found >= 8  # each draw succeeds with constant probability


def test_representation_attempt_standalone_matches_solve(monkeypatch):
    # attempts that share one solve's tables give the records, steps and RNG
    # stream of attempts that each build their own
    inst = rich_no_instance(12, 6, 12, seed=71)
    m_mask = mask_from_indices(range(6))
    solve_rng = RandomSource(72)
    out = solve_many_sums(inst, m_mask, 1.0, solve_rng, passes=2)
    assert not out.found and not out.exhausted
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "0")  # no room: every table is rebuilt per use
    unkept = solve_many_sums(inst, m_mask, 1.0, RandomSource(72), passes=2)
    assert (unkept.iterations, unkept.cost) == (out.iterations, out.cost)
    rng, meter, records = RandomSource(72), StepMeter(), []
    for _ in range(2):
        for s in range(3, 7):
            for target in (inst.target, inst.total() - inst.target):
                assert representation_attempt(inst, m_mask, 1.0, s, target, rng,
                                              meter=meter, records=records) is None
    assert records == out.iterations
    assert meter.count == out.cost["steps"]
    assert rng.randrange(1 << 30) == solve_rng.randrange(1 << 30)


def test_solve_many_sums_reports_sums_enumerated():
    inst, _ = rich_planted(12, 6, 12, seed=56)
    out = solve_many_sums(inst, mask_from_indices(range(6)), 1.0, RandomSource(57))
    assert out.found
    listed = sum(r["size_left"] + r["size_right"] for r in out.iterations)
    assert out.cost["sums_enumerated"] == listed > 0


def test_records_carry_clamps():
    inst, _ = rich_planted(12, 6, 12, seed=73)
    m_mask = mask_from_indices(range(6))
    for gamma, s, clamped in ((0.5, 3, True), (1.0, 3, False), (1.0, 6, False)):
        # pi = gamma - 1 + s/|M|, so gamma = 0.5 with s = |M|/2 asks for 2^0 < 3
        assert (2.0 ** ((gamma - 1.0 + s / 6) * 6) < 3.0) == clamped
        records = []
        representation_attempt(inst, m_mask, gamma, s, inst.target, RandomSource(74),
                               records=records)
        assert records and all(r["clamped_prime"] is clamped for r in records)
        for r in records:
            par = derive_params(12, m_mask, gamma, s, r["s1"], rng=RandomSource(74))
            assert (r["p"], r["t_l"]) == (par.p, par.t_l)
            assert r["clamped_left"] is par.clamped_left
        assert derive_params(12, m_mask, gamma, s, 0, rng=RandomSource(74)).clamped_prime is clamped
        if s == 6:  # s1 = 0 wants ell = ceil(0.75 n) = 9 of the 6 items outside M
            assert records[0]["clamped_left"]


def test_solve_many_sums_requires_rich_block():
    eq = gen_all_equal(12)
    with pytest.raises(ValueError):
        solve_many_sums(eq, mask_from_indices(range(6)), 1.0, RandomSource(0))


def test_solve_many_sums_finds_planted():
    inst, _ = rich_planted(12, 6, 12, seed=56)
    out = solve_many_sums(inst, mask_from_indices(range(6)), 1.0, RandomSource(57))
    assert out.found
    assert mask_sum(inst.weights, out.witness) == inst.target
    assert out.iterations
    assert out.cost["attempts"] >= 1


def test_solve_many_sums_complement_route():
    # solution touching M in a single item is only representable after
    # flipping to the complementary target; the solver must still return a
    # witness for the original one
    rng = RandomSource(58)
    while True:
        inst0 = gen_random_density(12, 1.0, rng.split(str(rng.randrange(1 << 30))))
        m_mask = mask_from_indices(range(6))
        if distinct_sums(inst0, m_mask) != 64:
            continue
        sol = mask_from_indices([0, 6, 7, 8])
        inst = Instance(weights=inst0.weights, target=mask_sum(inst0.weights, sol))
        if inst.target >= 2:
            break
    out = solve_many_sums(inst, m_mask, 1.0, RandomSource(59))
    assert out.found
    assert mask_sum(inst.weights, out.witness) == inst.target


def test_solve_many_sums_no_instance_is_honest():
    inst = rich_no_instance(12, 6, 12, seed=60)
    out = solve_many_sums(inst, mask_from_indices(range(6)), 1.0, RandomSource(61),
                          passes=8)
    assert not out.found
    assert out.witness is None


def test_solve_many_sums_budget_exhaustion():
    inst = rich_no_instance(12, 6, 12, seed=62)
    out = solve_many_sums(inst, mask_from_indices(range(6)), 1.0, RandomSource(63),
                          step_budget=50)
    assert out.exhausted and not out.found
    assert out.cost["steps"] <= 50 + 64  # one batched add may overshoot
    # the meter stops at the first charge past the budget; under 32 that is
    # the first list's dictionary half (2^5 subsets), charged on its own
    for budget, steps in ((10, 32), (50, 65), (500, 501)):
        out = solve_many_sums(inst, mask_from_indices(range(6)), 1.0, RandomSource(63),
                              step_budget=budget)
        assert out.exhausted and out.cost["steps"] == steps


def test_solve_few_sums_frozen_example():
    inst = Instance(weights=(1, 1, 1, 1, 7, 13, 29, 61), target=42)
    m_mask = mask_from_indices(range(4))
    gamma = math.log2(distinct_sums(inst, m_mask)) / 4
    out = solve_few_sums(inst, m_mask, gamma)
    assert out.found
    assert out.witness == mask_from_indices([5, 6])  # 13 + 29 is the only way


def test_solve_few_sums_matches_brute():
    rng = RandomSource(64)
    for k in range(40):
        n = rng.randint(2, 14)
        if k % 3 == 0:
            inst = gen_all_equal(n)
        else:
            inst = gen_random_density(n, rng.choice((1.0, 2.0, 4.0)), rng.split(str(k)))
        m = n // 2
        m_mask = mask_from_indices(range(m))
        gamma = min(1.0, math.log2(max(distinct_sums(inst, m_mask), 1)) / max(m, 1))
        got = solve_few_sums(inst, m_mask, gamma)
        expect = brute_solve(inst)
        assert got.found == expect.found
        if got.found:
            assert mask_sum(inst.weights, got.witness) == inst.target


def test_solve_few_sums_empty_block():
    inst = gen_random_density(10, 2.0, RandomSource(65))
    got = solve_few_sums(inst, 0, 0.0)
    assert got.found == brute_solve(inst).found


def test_solve_few_sums_validation():
    inst = gen_random_density(8, 1.0, RandomSource(66))
    with pytest.raises(ValueError):
        solve_few_sums(inst, mask_from_indices(range(5)), 0.5)
    with pytest.raises(ValueError):
        solve_few_sums(inst, mask_from_indices(range(4)), 1.5)


def test_distinct_sums_product_bound():
    # the engine behind the few-sums join: |w(2^(A u B))| <= |w(2^A)| |w(2^B)|
    rng = RandomSource(67)
    for k in range(30):
        n = rng.randint(2, 12)
        inst = gen_random_density(n, rng.choice((1.0, 2.0)), rng.split(str(k)))
        cut = rng.randint(1, n - 1) if n > 1 else 0
        a = mask_from_indices(range(cut))
        b = mask_from_indices(range(cut, n))
        assert distinct_sums(inst) <= distinct_sums(inst, a) * distinct_sums(inst, b)
