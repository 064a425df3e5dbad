import tracemalloc
from collections import Counter
from itertools import product

import pytest

from sslab import (
    CapacityError,
    Instance,
    RandomSource,
    all_subset_sums,
    brute_solve,
    distinct_sums,
    enumerate_histogram,
    gen_random_density,
    gen_super_increasing,
    mask_from_indices,
    mask_sum,
    max_bin,
    sumset_with_witness,
)


def _python_histogram(weights, indices):
    hist = Counter()
    for picks in product((0, 1), repeat=len(indices)):
        hist[sum(w for b, w in zip(picks, (weights[i] for i in indices)) if b)] += 1
    return dict(hist)


def _python_smallest_masks(weights, indices):
    """sum -> smallest mask over the subsets of `indices` reaching it."""
    best = {}
    for picks in product((0, 1), repeat=len(indices)):
        mask = sum(1 << i for b, i in zip(picks, indices) if b)
        s = mask_sum(weights, mask)
        best[s] = min(best.get(s, mask), mask)
    return best


def _table_cases():
    """(weights, indices) that need merge steps after the 12 densely enumerated
    items, sums at or past 2^62, masks past bit 62, or several of these."""
    rng = RandomSource(16)
    small = tuple(rng.randint(1, 300) for _ in range(15))
    big = tuple((1 << 62) + rng.randint(0, 50) for _ in range(14))
    huge = tuple(rng.randint(1, 1 << 90) for _ in range(8))
    wide = tuple(rng.randint(1, 40) for _ in range(70))
    wide_big = tuple((1 << 63) + w for w in wide)
    return [
        (small, list(range(15))),
        (big, list(range(14))),
        (huge, [0, 2, 3, 5, 7]),
        (wide, [0, 63, 69]),
        (wide, [1, 5, 30, 41, 47, 52, 58, 61, 62, 64, 65, 66, 68, 69]),
        (wide_big, [0, 40, 63, 69]),
    ]


def test_frozen_histogram_1133():
    inst = Instance(weights=(1, 1, 3, 3), target=4)
    hist = enumerate_histogram(inst)
    assert hist.entries == {0: 1, 1: 2, 2: 1, 3: 2, 4: 4, 5: 2, 6: 1, 7: 2, 8: 1}
    assert hist.total() == 16
    assert hist.max_count() == 4
    assert hist.l2_squared() == 36
    assert max_bin(inst) == 4
    assert distinct_sums(inst) == 9


def test_frozen_counts():
    assert distinct_sums(Instance(weights=(2, 4, 8, 16), target=1)) == 16
    assert max_bin(Instance(weights=(1, 1, 1, 1), target=1)) == 6  # the middle bin


def test_histogram_matches_python_enumeration():
    rng = RandomSource(11)
    for k in range(40):
        n = rng.randint(1, 10)
        inst = gen_random_density(n, rng.choice((0.5, 1.0, 2.0, 4.0)), rng.split(str(k)))
        assert enumerate_histogram(inst).entries == _python_histogram(inst.weights, range(n))


def test_histogram_subset_restriction():
    rng = RandomSource(12)
    inst = gen_random_density(12, 1.0, rng)
    subset = mask_from_indices([0, 3, 5, 8, 11])
    hist = enumerate_histogram(inst, subset)
    assert hist.entries == _python_histogram(inst.weights, [0, 3, 5, 8, 11])
    assert hist.total() == 2**5


def test_big_weight_fallback_agrees():
    # weights above the int64-safe range push the oracle onto the big-int path
    rng = RandomSource(13)
    small = tuple(rng.randint(1, 100) for _ in range(10))
    big = tuple(w + (1 << 70) for w in small)
    small_hist = enumerate_histogram(Instance(weights=small, target=1))
    big_hist = enumerate_histogram(Instance(weights=big, target=1))
    # low bits carry the small sums, high bits the popcount; folding the
    # popcount away must reproduce the small histogram exactly
    folded = Counter()
    popcounts = Counter()
    for s, c in big_hist.entries.items():
        folded[s & ((1 << 70) - 1)] += c
        popcounts[s >> 70] += c
    assert dict(folded) == small_hist.entries
    assert popcounts == Counter(enumerate_histogram(
        Instance(weights=(1,) * 10, target=1)).entries)
    # sums at or past 2^62 and masks past bit 62 take object arrays; both merge past 12 items
    for weights, indices in _table_cases():
        inst = Instance(weights=weights, target=1)
        subset = mask_from_indices(indices)
        expect = _python_histogram(weights, indices)
        assert enumerate_histogram(inst, subset).entries == expect
        assert max_bin(inst, subset) == max(expect.values())
        assert distinct_sums(inst, subset) == len(expect)


def test_brute_solve_frozen_example():
    inst = Instance(weights=(1, 2, 4, 8, 16, 32, 64, 128), target=170)
    out = brute_solve(inst)
    assert out.found and out.witness == 0xAA
    assert out.verified


def test_brute_solve_decisions():
    rng = RandomSource(14)
    for k in range(60):
        n = rng.randint(1, 12)
        inst = gen_random_density(n, rng.choice((0.5, 1.0, 2.0)), rng.split(str(k)))
        out = brute_solve(inst)
        achieved = {mask_sum(inst.weights, m) for m in range(1 << n)}
        assert out.found == (inst.target in achieved)
        if out.found:
            assert mask_sum(inst.weights, out.witness) == inst.target


def test_brute_solve_min_mask_witness():
    inst = Instance(weights=(1, 1, 2), target=2)
    # both {0,1} (mask 3) and {2} (mask 4) hit the target; smaller mask wins
    assert brute_solve(inst).witness == 3


def test_brute_solve_short_circuits():
    out = brute_solve(Instance(weights=(1, 2), target=100))
    assert not out.found
    assert out.cost["sums_enumerated"] == 0
    zero = brute_solve(Instance(weights=(3, 4), target=0))
    assert zero.found and zero.witness == 0


def test_all_subset_sums_indexing():
    inst = Instance(weights=(5, 9, 21), target=1)
    sums = all_subset_sums(inst)
    for mask in range(8):
        assert int(sums[mask]) == mask_sum(inst.weights, mask)


def test_enum_limit_guard():
    wide = Instance(weights=(1,) * 27, target=3)
    with pytest.raises(CapacityError):
        enumerate_histogram(wide)
    with pytest.raises(CapacityError):
        brute_solve(wide)


def test_sumset_with_witness_properties():
    rng = RandomSource(15)
    for k in range(30):
        n = rng.randint(1, 12)
        inst = gen_random_density(n, 2.0, rng.split(str(k)))
        indices = [i for i in range(n) if rng.random() < 0.6]
        sums, masks = sumset_with_witness(inst.weights, indices)
        allowed = mask_from_indices(indices)
        seen = sorted({mask_sum(inst.weights, m) for m in range(1 << n)
                       if m & ~allowed == 0})
        assert list(sums) == seen
        for s, m in zip(sums, masks):
            assert int(m) & ~allowed == 0
            assert mask_sum(inst.weights, int(m)) == int(s)
        smallest = _python_smallest_masks(inst.weights, indices)
        assert [int(m) for m in masks] == [smallest[int(s)] for s in sums]
    for weights, indices in _table_cases():
        sums, masks = sumset_with_witness(weights, indices)
        smallest = _python_smallest_masks(weights, indices)
        assert [int(s) for s in sums] == sorted(smallest)
        assert [int(m) for m in masks] == [smallest[s] for s in sorted(smallest)]


def test_tables_refuse_over_memory_limit(monkeypatch):
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "1")
    with pytest.raises(CapacityError):
        enumerate_histogram(gen_super_increasing(20))
    with pytest.raises(CapacityError):
        sumset_with_witness(gen_super_increasing(30).weights, range(30))


def test_table_check_counts_merge_peak(monkeypatch):
    # 2^18 distinct sums: the table is 6 MB (24 bytes a row), but the last
    # merge peaks at 14 MB (56 bytes a row), so 10 MB must refuse it
    inst = gen_super_increasing(18)
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "10")
    with pytest.raises(CapacityError):
        distinct_sums(inst)
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "15")
    assert distinct_sums(inst) == 1 << 18
    # the charge covers what the merge really allocates
    tracemalloc.start()
    try:
        distinct_sums(gen_super_increasing(16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 56 * (1 << 16) + (64 << 10)


def test_sumset_witness_prefers_smallest_mask():
    sums, masks = sumset_with_witness((1, 1), [0, 1])
    assert list(sums) == [0, 1, 2]
    assert list(masks) == [0, 1, 3]  # sum 1 witnessed by item 0, not item 1
    # past ENUM_LIMIT: 40 equal weights have only 41 distinct sums, so no refusal
    sums, masks = sumset_with_witness((3,) * 40, range(40))
    assert [int(s) for s in sums] == [3 * k for k in range(41)]
    assert [int(m) for m in masks] == [(1 << k) - 1 for k in range(41)]
