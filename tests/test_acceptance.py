"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with plain pytest; the summary lines bypass capture so they are visible
in normal runs. Every randomized check is fully seeded and deterministic.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

from scipy.stats import chisquare

from sslab import (
    CapacityError,
    Instance,
    RandomSource,
    bellman_dp,
    bin_l2,
    brute_solve,
    build_filtered_list,
    check_reduction_properties,
    check_udcp,
    distinct_sums,
    entropy_around_half_bound,
    full_mask,
    gen_all_equal,
    gen_geometric_pairs,
    gen_planted,
    gen_random_density,
    gen_super_increasing,
    h2,
    l2_identity_terms,
    mask_from_indices,
    mask_sum,
    max_bin,
    meet_in_middle,
    merged_profile_entropy,
    modular_sampler,
    output_bound,
    random_prime,
    reduce_bitlength,
    residue_count_table,
    sample_subset_in_class,
    schroeppel_shamir,
    small_bin_runtime_exponent,
    small_bin_time_exponents,
    solve_auto,
    solve_few_sums,
    solve_large_bin,
    solve_many_sums,
    solve_partition_join,
    solve_small_bin,
    udcp_from_instance,
)

from sslab.structured import _split_table

from _corpus import random_corpus, rich_no_instance, rich_planted, structured_corpus


def _report(capfd, num: int, ok: bool, detail: str) -> None:
    with capfd.disabled():
        print(f"{'PASS' if ok else 'FAIL'} [{num}] {detail}", flush=True)
    assert ok, f"criterion {num} failed: {detail}"


def test_a1_oracle_equivalence(capfd):
    instances = random_corpus(2000, seed=101) + structured_corpus(200, seed=102)
    checked = Counter()
    bad = []
    for inst in instances:
        expect = brute_solve(inst).found
        outs = {}
        try:
            outs["bellman_dp"] = bellman_dp(inst)
        except CapacityError:
            pass  # table exceeds the memory cap; solver out of range here
        outs["meet_in_middle"] = meet_in_middle(inst)
        outs["schroeppel_shamir"] = schroeppel_shamir(inst)
        m = inst.n // 2
        m_mask = mask_from_indices(range(m))
        gamma = min(1.0, math.log2(max(distinct_sums(inst, m_mask), 1)) / max(m, 1))
        outs["solve_few_sums"] = solve_few_sums(inst, m_mask, gamma)
        outs["solve_large_bin"] = solve_large_bin(inst)
        outs["solve_partition_join"] = solve_partition_join(inst, 1.0 / 6.0)
        for name, out in outs.items():
            checked[name] += 1
            witness_ok = out.witness is None or (
                mask_sum(inst.weights, out.witness) == inst.target)
            if out.found != expect or not witness_ok:
                bad.append((name, inst))
    runs = sum(checked.values())
    _report(capfd, 1, not bad,
            f"oracle equivalence: {len(instances)} instances, {runs} solver runs, "
            f"{len(bad)} mismatches (bellman fit {checked['bellman_dp']})")


def test_a2_monte_carlo_completeness(capfd):
    n, m = 16, 8
    m_mask = mask_from_indices(range(m))
    hits = 0
    for k in range(200):
        inst, _ = rich_planted(n, m, 16, seed=2000 + k)
        out = solve_many_sums(inst, m_mask, 1.0, RandomSource(3000 + k))
        if out.found:
            assert mask_sum(inst.weights, out.witness) == inst.target
            hits += 1
    false_pos = 0
    for k in range(20):
        inst = rich_no_instance(n, m, 16, seed=4000 + k)
        out = solve_many_sums(inst, m_mask, 1.0, RandomSource(5000 + k))
        if out.found:
            false_pos += 1
    ok = hits >= 190 and false_pos == 0
    _report(capfd, 2, ok,
            f"monte carlo completeness: {hits}/200 planted found (need >= 190), "
            f"{false_pos}/20 false positives (need 0)")


def test_a3_hashing_statistics(capfd):
    p1 = 0
    bound = output_bound(16, 1 << 12)
    for k in range(1000):
        rng = RandomSource(300 + k)
        while True:
            inst = gen_random_density(16, 1.0, rng)
            if inst.target >= 32:
                break
        try:
            rec = reduce_bitlength(inst, 1 << 12, RandomSource(1300 + k))
        except RuntimeError:
            continue
        if rec.reduced.target < bound and all(w < bound for w in rec.reduced.weights):
            p1 += 1

    joint = 0
    for k in range(2000):
        rng = RandomSource(6000 + k)
        while True:
            inst, _ = gen_planted(14, 14, rng)
            if inst.target >= 28:
                break
        rec = reduce_bitlength(inst, 10 * distinct_sums(inst), RandomSource(7000 + k))
        rep = check_reduction_properties(inst, rec)
        if rep.solutions_preserved and rep.sums_preserved:
            joint += 1
    joint_need = math.ceil(2000 / (10 * 14))

    p4 = 0
    for k in range(2000):
        rng = RandomSource(8000 + k)
        while True:
            inst, _ = gen_planted(14, 14, rng)
            if inst.target >= 28:
                break
        ds = distinct_sums(inst)
        rec = reduce_bitlength(inst, 5 * ds * ds, RandomSource(9000 + k))
        rep = check_reduction_properties(inst, rec)
        if rep.bins_preserved:
            p4 += 1

    ok = p1 == 1000 and joint >= joint_need and p4 >= 1200
    _report(capfd, 3, ok,
            f"hashing statistics: output bound {p1}/1000 (need 1000), "
            f"solutions+sums preserved {joint}/2000 (need >= {joint_need}), "
            f"bins preserved {p4}/2000 (need >= 1200)")


def _identity_corpus(count: int, seed: int, n_lo: int, n_hi: int):
    rng = RandomSource(seed)
    out = []
    for k in range(count):
        n = rng.randint(n_lo, n_hi)
        kind = k % 6
        if kind < 4:
            out.append(gen_random_density(n, (0.5, 1.0, 2.0, 4.0)[kind], rng.split(str(k))))
        elif kind == 4:
            out.append(gen_all_equal(n) if k % 2 else gen_geometric_pairs(n - (n % 2)))
        else:
            out.append(gen_super_increasing(n))
    return out


def test_a4_exact_identities(capfd):
    norm_bad = 0
    for inst in _identity_corpus(200, seed=401, n_lo=2, n_hi=14):
        lhs, rhs = l2_identity_terms(inst)
        if lhs != rhs:
            norm_bad += 1

    cs_bad = 0
    cs_checked = 0
    for inst in _identity_corpus(30, seed=402, n_lo=4, n_hi=10):
        n = inst.n
        beta_sq = max_bin(inst) ** 2
        everything = full_mask(n)
        for left in combinations(range(n), n // 2):
            s_mask = mask_from_indices(left)
            cs_checked += 1
            if beta_sq > bin_l2(inst, s_mask) * bin_l2(inst, everything ^ s_mask):
                cs_bad += 1

    udcp_bad = 0
    for inst in _identity_corpus(200, seed=403, n_lo=2, n_hi=14):
        pair = udcp_from_instance(inst)
        sizes_ok = (len(pair.a_masks) == distinct_sums(inst)
                    and len(pair.b_masks) == max_bin(inst))
        if not (sizes_ok and check_udcp(pair)):
            udcp_bad += 1

    ok = norm_bad == 0 and cs_bad == 0 and udcp_bad == 0
    _report(capfd, 4, ok,
            f"exact identities: l2 decomposition 200 instances ({norm_bad} bad), "
            f"cauchy-schwarz {cs_checked} partitions ({cs_bad} bad), "
            f"udcp extraction 200 instances ({udcp_bad} bad)")


def test_a5_counter_scaling(capfd):
    mim_ok = ss_ok = True
    for n in range(8, 25):
        inst = gen_random_density(n, 1.0, RandomSource(500 + n))
        if meet_in_middle(inst).cost["sums_enumerated"] > 4 * 2 ** (n / 2):
            mim_ok = False
        if schroeppel_shamir(inst).cost["peak_retained_sums"] > 8 * 2 ** (n / 4):
            ss_ok = False

    # mean filtered-list size against W_L / 2^(pi m) at the frozen parameters
    n, m, s, s1 = 16, 8, 6, 3
    m_mask = mask_from_indices(range(m))
    inst = gen_random_density(n, 1.0, RandomSource(551))
    sizes = []
    _, p_min, _, shapes = _split_table(n, m_mask, 1.0)[s]
    left = shapes[s1][1][0]
    ell = len(left)
    for k in range(200):
        rng = RandomSource(5100 + k)
        p = random_prime(p_min, rng)
        lst = build_filtered_list(inst, mask_from_indices(left), m_mask, s1, p, rng.randrange(p))
        sizes.append(len(lst))
    w_l = (2 ** ell) * math.comb(m, s1)
    pi_m = (1.0 - 1.0 + s / m) * m  # gamma = 1
    list_bound = 8.0 * w_l / 2.0 ** pi_m
    mean_size = sum(sizes) / len(sizes)

    # mean total pairs scanned by full amplified runs on no-instances
    pair_means = []
    pair_bounds = []
    for k in range(200):
        no = rich_no_instance(n, m, 16, seed=5500 + k)
        out = solve_many_sums(no, m_mask, 1.0, RandomSource(5700 + k))
        assert not out.found
        pair_means.append(out.cost["pairs_scanned"])
        pair_bounds.append(8.0 * n * n * max_bin(no) * 2.0 ** (0.5 * 0.5 * n))
    mean_pairs = sum(pair_means) / len(pair_means)
    pairs_bound = min(pair_bounds)

    ok = mim_ok and ss_ok and mean_size <= list_bound and mean_pairs <= pairs_bound
    _report(capfd, 5, ok,
            f"counter scaling: mim<=4*2^(n/2) {mim_ok}, ss peak<=8*2^(n/4) {ss_ok}, "
            f"mean list {mean_size:.1f} <= {list_bound:.1f}, "
            f"mean pairs {mean_pairs:.1f} <= {pairs_bound:.0f}")


def test_a6_exponent_arithmetic(capfd):
    peak_ok = small_bin_runtime_exponent(Fraction(1, 6)) == Fraction(23, 48)
    expand_ok = True
    for eps in (Fraction(1, 100), Fraction(1, 12), Fraction(1, 6)):
        list_term, pair_term = small_bin_time_exponents(eps)
        want_list = Fraction(1, 2) - Fraction(28305, 100000) * eps + Fraction(3, 4) * eps**2
        want_pair = Fraction(1, 2) - eps / 4 + Fraction(3, 4) * eps**2
        if abs(list_term - want_list) > Fraction(1, 10**12):
            expand_ok = False
        if abs(pair_term - want_pair) > Fraction(1, 10**12):
            expand_ok = False
    ok = peak_ok and expand_ok
    _report(capfd, 6, ok,
            f"exponent arithmetic: peak 23/48 {peak_ok}, expansions exact {expand_ok}")


def test_a7_numeric_properties(capfd):
    concave_ok = True
    for i in range(100):
        for j in range(100):
            a, b = (i + 0.5) / 100.0, (j + 0.5) / 100.0
            if h2(a) + h2(b) > 2.0 * h2((a + b) / 2.0) + 1e-12:
                concave_ok = False
    fact_ok = all(entropy_around_half_bound(k / 2000.0) for k in range(1001))
    peak_ok = True
    for sigma in (0.2, 0.5, 0.8, 1.0):
        lo, hi = 0.0, 1.0
        for _ in range(120):  # ternary search; the profile entropy is concave in tau
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if merged_profile_entropy(sigma, m1) < merged_profile_entropy(sigma, m2):
                lo = m1
            else:
                hi = m2
        tau_star = (lo + hi) / 2.0
        if abs(tau_star - 0.5) > 1e-6:
            peak_ok = False
        if abs(merged_profile_entropy(sigma, 0.5) - (1.0 + h2(sigma / 2.0))) > 1e-9:
            peak_ok = False
    ok = concave_ok and fact_ok and peak_ok
    _report(capfd, 7, ok,
            f"numeric properties: concavity {concave_ok}, "
            f"half-bound fact {fact_ok}, profile peak at 1/2 {peak_ok}")


def test_a8_sampler_uniformity(capfd):
    weights = (1,) * 8
    q, residue = 5, 4
    rows = residue_count_table(weights, q)
    rng = RandomSource(801)
    counts = Counter()
    for _ in range(100000):
        counts[sample_subset_in_class(rows, weights, q, residue, rng)] += 1
    class_masks = [mask_from_indices(c) for c in combinations(range(8), 4)]
    support_ok = set(counts) == set(class_masks)
    stat, p_value = chisquare([counts[m] for m in class_masks])
    ok = support_ok and p_value > 0.001
    _report(capfd, 8, ok,
            f"sampler uniformity: 100000 draws over {len(class_masks)} subsets, "
            f"support exact {support_ok}, chi-square p={p_value:.4f} (need > 0.001)")


def test_a9_wide_weight_completeness(capfd):
    yes, no = [], []
    for n in range(8, 15):
        for k in range(10):
            bits = 40 + 24 * k // 9  # 40 to 64 bits
            inst, _ = gen_planted(n, bits, RandomSource(9000 + 10 * n + k))
            yes.append(inst)
            off = Instance(inst.weights, inst.target + 1)
            if not brute_solve(off).found:
                no.append(off)
    solvers = {
        "smallbin": lambda inst, k: solve_small_bin(inst, 1.0 / 6.0, RandomSource(9200 + k)),
        "auto": lambda inst, k: solve_auto(inst),
    }
    hits = Counter()
    false_pos = Counter()
    for name, solve in solvers.items():
        for k, inst in enumerate(yes):
            out = solve(inst, k)
            if out.found:
                assert mask_sum(inst.weights, out.witness) == inst.target
                hits[name] += 1
        for k, inst in enumerate(no):
            if solve(inst, k).found:
                false_pos[name] += 1
    ok = all(hits[name] >= 66 and false_pos[name] == 0 for name in solvers)
    _report(capfd, 9, ok,
            f"wide-weight completeness: planted n=8-14 at 40-64 bits, "
            f"smallbin {hits['smallbin']}/70, auto {hits['auto']}/70 found (need >= 66 each), "
            f"{sum(false_pos.values())} false positives on {len(no)} certified no-instances "
            f"(need 0)")
