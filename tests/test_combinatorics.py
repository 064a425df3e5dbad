import math
from itertools import product

import numpy as np
import pytest

from sslab import (
    CapacityError,
    Instance,
    RandomSource,
    UdcpPair,
    all_subset_sums,
    bin_l2,
    check_udcp,
    distinct_sums,
    gen_all_equal,
    gen_geometric_pairs,
    gen_random_density,
    gen_super_increasing,
    l2_identity_terms,
    max_bin,
    udcp_from_instance,
    zero_ternary_counts_by_l1,
)
from sslab import combinatorics, oracle
from sslab.cli import _verify_corpus

from _corpus import block_table


def test_frozen_1133_norm_and_pair():
    inst = Instance(weights=(1, 1, 3, 3), target=4)
    assert bin_l2(inst) == 36
    lhs, rhs = l2_identity_terms(inst)
    assert lhs == rhs == 36
    pair = udcp_from_instance(inst)
    assert len(pair.a_masks) == 9
    assert len(pair.b_masks) == 4
    assert check_udcp(pair)


def test_zero_ternary_frozen():
    assert zero_ternary_counts_by_l1(Instance(weights=(1, 1), target=1))[2] == 2
    assert zero_ternary_counts_by_l1(Instance(weights=(5, 9, 13), target=1))[0] == 1
    counts = zero_ternary_counts_by_l1(Instance(weights=(1, 1, 3, 3), target=1))
    assert counts == [1, 0, 4, 0, 4]


def test_zero_ternary_matches_enumeration():
    rng = RandomSource(91)
    for k in range(25):
        n = rng.randint(1, 9)
        inst = gen_random_density(n, rng.choice((1.0, 2.0, 4.0)), rng.split(str(k)))
        # the same weights shifted by 2^70 and 2^1000 put the keys on Python ints
        for shift in (0, 1 << 70, 1 << 1000):
            weights = tuple(shift + w for w in inst.weights)
            manual = [0] * (n + 1)
            for vec in product((-1, 0, 1), repeat=n):
                if sum(v * w for v, w in zip(vec, weights)) == 0:
                    manual[sum(1 for v in vec if v)] += 1
            assert zero_ternary_counts_by_l1(Instance(weights, 1)) == manual


@pytest.mark.parametrize("n", [21, 22])
def test_zero_ternary_all_ones_closed_form(n):
    # y.1 = 0 with ||y||_1 = k: choose the k nonzero places, then which half is +1
    expected = [math.comb(n, k) * math.comb(k, k // 2) if k % 2 == 0 else 0 for k in range(n + 1)]
    assert zero_ternary_counts_by_l1(Instance(weights=(1,) * n, target=1)) == expected


def test_l2_identity_random_and_big_weights():
    rng = RandomSource(92)
    for k in range(25):
        n = rng.randint(1, 12)
        inst = gen_random_density(n, rng.choice((0.5, 1.0, 2.0, 4.0)), rng.split(str(k)))
        lhs, rhs = l2_identity_terms(inst)
        assert lhs == rhs
    # push the histogram onto the big-int path
    big = Instance(weights=tuple((1 << 70) + w for w in (3, 3, 7, 9)), target=1)
    lhs, rhs = l2_identity_terms(big)
    assert lhs == rhs


@pytest.mark.parametrize("n", [15, 16, 17, 18])
def test_l2_identity_past_14_items(n):
    rng = RandomSource(94)
    cases = [gen_random_density(n, d, rng.split(f"{n}:{d}")) for d in (1.0, 2.0)]
    if n % 2 == 0:
        cases.append(gen_geometric_pairs(n))
    for inst in cases:
        lhs, rhs = l2_identity_terms(inst)
        assert lhs == rhs


def test_udcp_extraction_sizes_match_oracle():
    rng = RandomSource(93)
    for k in range(20):
        n = rng.randint(1, 12)
        inst = gen_random_density(n, rng.choice((1.0, 2.0)), rng.split(str(k)))
        pair = udcp_from_instance(inst)
        assert len(pair.a_masks) == distinct_sums(inst)
        assert len(pair.b_masks) == max_bin(inst)
        assert check_udcp(pair)


def test_udcp_modal_bin_choice():
    # [1,1,1,1]: modal bin is sum 2 with six subsets
    pair = udcp_from_instance(gen_all_equal(4))
    assert len(pair.b_masks) == 6
    sums = {bin(m).count("1") for m in pair.b_masks}
    assert sums == {2}


def _table_extraction(inst):
    # the pair read off the instance's sum table: its smallest mask per distinct sum, and
    # every mask whose dense sum is the table's first modal one
    table = block_table(inst)
    modal = table.sums[int(np.argmax(table.counts))]
    return UdcpPair(table.masks, np.flatnonzero(all_subset_sums(inst) == modal), inst.n)


def test_udcp_extraction_matches_the_table_extraction():
    # verify's corpus up to n = 12, zero weights (one bin of every mask), and weights of 63
    # and 1000 bits, whose sums are Python ints
    cases = [inst for _, inst in _verify_corpus(12, RandomSource(0))] + [Instance((0,) * 16, 1)]
    cases += [Instance(tuple((1 << bits) + (1 << i) for i in range(14)), 1) for bits in (63, 1000)]
    for inst in cases:
        pair, want = udcp_from_instance(inst), _table_extraction(inst)
        assert np.array_equal(pair.a_masks, want.a_masks) and np.array_equal(pair.b_masks, want.b_masks)


def test_udcp_extraction_builds_no_sum_table(monkeypatch):
    builds = []
    monkeypatch.setattr(oracle, "_sum_table", lambda *args: builds.append(args))
    for inst in (gen_random_density(12, 1.0, RandomSource(5)), gen_all_equal(10)):
        assert check_udcp(udcp_from_instance(inst))
    assert builds == []


def test_check_udcp_rejects_colliding_pair():
    # {0, e1} + {0, e1} has 1+1 = 2 colliding with itself in one coordinate?
    # no: 0+e1 = e1+0, a genuine collision across A x B
    pair = UdcpPair(a_masks=(0, 1), b_masks=(0, 1), n=1)
    assert not check_udcp(pair)


def test_check_udcp_deduplicates_once(traced):
    # A = {01, 10} and B = {10, 01}: 01 + 10 = 10 + 01 is the one collision, between A's two
    # rows. A pair's sums are sorted once, in place, whether or not they collide: 2,000 x 100
    # of them are never held twice, at 8 bytes each with int64
    assert not check_udcp(UdcpPair(a_masks=(1, 2), b_masks=(2, 1), n=2))
    assert check_udcp(udcp_from_instance(gen_random_density(8, 2.0, RandomSource(4))))
    pair = UdcpPair(tuple(range(2000)), tuple((j << 12) | (1 << 19) for j in range(100)), 20)
    out, peak = traced(check_udcp, pair)
    assert out
    assert peak < 2 * 8 * 2000 * 100


@pytest.mark.parametrize("n", [40, 64])
def test_check_udcp_past_62_bits(n):
    # A = {00, 11} and B = {00, 01, 10} in the top two coordinates give six distinct sums,
    # and a fourth B vector 11 makes 00 + 11 = 11 + 00. Every mask also holds one pattern
    # of alternating low bits, so the low coordinates of every sum hold 2s
    top = n - 2
    low = int("01" * 32, 2) & ((1 << top) - 1)
    a = tuple(low | d << top for d in (0, 3))
    assert check_udcp(UdcpPair(a, tuple(low | d << top for d in (0, 1, 2)), n))
    assert not check_udcp(UdcpPair(a, tuple(low | d << top for d in (0, 1, 2, 3)), n))


def test_udcp_pair_validation():
    with pytest.raises(ValueError):
        UdcpPair(a_masks=(0, 0), b_masks=(1,), n=2)
    with pytest.raises(ValueError):
        UdcpPair(a_masks=(4,), b_masks=(1,), n=2)
    with pytest.raises(ValueError):
        check_udcp(UdcpPair(a_masks=(), b_masks=(1,), n=2))
    with pytest.raises(ValueError):  # a domain error, not a capacity one
        udcp_from_instance(Instance(weights=(), target=0))
    # arrays: int64 masks up to n = 62, object masks of Python ints past it
    for n, dtype in ((3, np.int64), (64, object)):
        top = 1 << (n - 1)
        pair = UdcpPair(np.array([0, top], dtype=dtype), np.array([1], dtype=dtype), n)
        assert pair.a_masks.dtype == dtype and check_udcp(pair)
        for masks in ([top, 1, top], [1, 2 * top], [-1, 1]):  # a duplicate, past bit n - 1, negative
            with pytest.raises(ValueError):
                UdcpPair(np.array(masks, dtype=dtype), np.array([1], dtype=dtype), n)
            with pytest.raises(ValueError):
                UdcpPair(np.array([1], dtype=dtype), np.array(masks, dtype=dtype), n)
    with pytest.raises(ValueError):  # past int64, where the masks are int64
        UdcpPair(np.array([1 << 64], dtype=object), (1,), 62)


def test_udcp_capacity_guard():
    big = UdcpPair(a_masks=tuple(range(1 << 14)), b_masks=tuple(range(1 << 13)), n=14)
    with pytest.raises(CapacityError):
        check_udcp(big)


def test_udcp_memory_limit(monkeypatch):
    # 2^12 * 2^10 pair sums are charged 38,010,880 bytes to deduplicate (9 each, numpy's
    # buffers and the rows of A and B), past 36 MiB
    big = UdcpPair(a_masks=tuple(range(1 << 12)), b_masks=tuple(range(1 << 10)), n=12)
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "36")
    with pytest.raises(CapacityError):
        check_udcp(big)
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "1")
    pair = udcp_from_instance(Instance(weights=(1, 1, 3, 3), target=4))
    assert check_udcp(pair)  # 9 * 4 pair sums still fit


@pytest.mark.parametrize("n", [20, 39, 40, 64])
def test_check_udcp_peak_stays_under_its_charge(charges, traced, n):
    # decodable pairs, so every pair sum starts its own run: the larger set's masks in the
    # low 12 coordinates and the other's above them, with the top one set, in shapes of
    # 2,000 x 100, 4,000 x 1, 1 x 4,000, 9 x 4 and 100 x 82, just past numpy's buffers of 8,192
    # sums; int64 keys up to n = 39, Python ints past it
    for na, nb in ((2000, 100), (4000, 1), (1, 4000), (9, 4), (100, 82)):
        low = tuple(range(max(na, nb)))
        high = tuple((j << 12) | (1 << (n - 1)) for j in range(min(na, nb)))
        pair = UdcpPair(*((low, high) if na >= nb else (high, low)), n)
        charges.clear()
        out, peak = traced(check_udcp, pair)
        assert out
        assert peak <= charges[0], (na, nb)


def test_udcp_extraction_charges_its_masks(monkeypatch, charges, traced):
    # the sort of 2^16 dense sums is charged 30 bytes a subset, 1,966,080, before it is made;
    # then the order and each bin's start, length and mask: 532,504 bytes for the one bin of
    # 16 zero weights, and 2,105,344 for the 2^16 bins of 16 super-increasing weights
    zeros, rich = Instance((0,) * 16, 1), gen_super_increasing(16)
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "1")
    for inst in (zeros, rich):
        with pytest.raises(CapacityError, match="sort of 65536 dense sums"):
            udcp_from_instance(inst)
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "2")
    charges.clear()
    assert udcp_from_instance(zeros).b_masks.size == 1 << 16
    assert charges[-1] < 1 << 20  # the bins' charge follows the one bin, not the 2^16 masks
    with pytest.raises(CapacityError, match="masks of 65536 bins"):
        udcp_from_instance(rich)
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "3")
    for inst in (zeros, rich):
        charges.clear()
        assert traced(udcp_from_instance, inst)[1] <= max(charges)


@pytest.mark.parametrize("case", ["equal16", "zeros14", "zeros16", "superinc14", "superinc16", "dense16",
                                  "wide63", "wide200", "wide1000"])
def test_udcp_extraction_peak_stays_under_its_charges(monkeypatch, charges, traced, case):
    # a big modal bin (all-equal, all-zero weights) as well as many distinct sums, with
    # int64 sums and Python-int ones
    if case.startswith("wide"):
        inst = Instance(tuple((1 << int(case[4:])) + (1 << i) for i in range(14)), 1)
    else:
        n = int(case[-2:])
        inst = {"equal": gen_all_equal, "zeros": lambda n: Instance((0,) * n, 1),
                "superinc": gen_super_increasing,
                "dense": lambda n: gen_random_density(n, 1.0, RandomSource(n))}[case[:-2]](n)
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "64")
    assert traced(udcp_from_instance, inst)[1] <= max(charges)


def test_bin_l2_subset_restriction():
    inst = Instance(weights=(1, 1, 3, 3, 10), target=4)
    sub = 0b01111
    counts = block_table(inst, sub).counts.tolist()
    assert bin_l2(inst, sub) == sum(c * c for c in counts) == 36


def test_bin_l2_past_int64_is_exact():
    # the squares of C(n, k) sum to C(2n, n): past 2^63 at n = 34, and near the
    # int64 choice at n = 30-32
    for n in (30, 31, 32, 34):
        assert bin_l2(gen_all_equal(n)) == math.comb(2 * n, n)


def test_ternary_halves_are_charged_their_bytes(monkeypatch, charges, traced):
    # a 1.0-density half has a distinct key per vector, 42 B each with int64 keys:
    # the 2 x 3^9 vectors of n = 18 are refused under 1 MB before either half is
    # built, and the 3^6 + 3^7 of n = 13 fit under it; with 1000-bit weights a
    # vector is charged 274 B, so the 2 x 3^7 of n = 14 are refused
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "1")
    cases = [(gen_random_density(n, 1.0, RandomSource(n)), n == 18) for n in (18, 13)]
    wide = gen_random_density(14, 1.0, RandomSource(14))
    cases.append((Instance(tuple((1 << 1000) + w for w in wide.weights), 1), True))
    for inst, refused in cases:
        charges.clear()
        counts, peak = traced(zero_ternary_counts_by_l1, inst, refusal=True)
        assert peak <= min(charges[0], 1 << 20)
        assert isinstance(counts, CapacityError) == refused
    # wherever the count runs, its peak is at or under its charge
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "64")
    for bits in (0, 200, 1000):
        for n in (13, 14):
            inst = gen_random_density(n, 1.0, RandomSource(n))
            inst = Instance(tuple((1 << bits) - 1 + w for w in inst.weights), 1)
            charges.clear()
            assert traced(zero_ternary_counts_by_l1, inst)[1] <= charges[0]
