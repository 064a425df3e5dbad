import math
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

from sslab import (
    CapacityError,
    Instance,
    RandomSource,
    all_subset_sums,
    bin_l2,
    brute_solve,
    distinct_sums,
    gen_all_equal,
    gen_geometric_pairs,
    gen_random_density,
    gen_super_increasing,
    mask_from_indices,
    mask_sum,
    max_bin,
    sumset_with_witness,
)
from sslab import oracle
from sslab.cli import _verify_corpus
from sslab.oracle import _JOIN_BLOCK, _bin_stats, _sorted_join

from _corpus import block_table


def _histogram(inst, subset=None):
    """The exact histogram of w(2^S), sum -> number of subsets, from the library's table."""
    t = block_table(inst, subset)
    return dict(zip(t.sums.tolist(), t.counts.tolist()))


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
    hist = _histogram(inst)
    assert hist == {0: 1, 1: 2, 2: 1, 3: 2, 4: 4, 5: 2, 6: 1, 7: 2, 8: 1}
    assert sum(hist.values()) == 16
    assert max_bin(inst) == 4
    assert bin_l2(inst) == 36
    assert distinct_sums(inst) == 9


def test_frozen_counts():
    assert distinct_sums(Instance(weights=(2, 4, 8, 16), target=1)) == 16
    assert max_bin(Instance(weights=(1, 1, 1, 1), target=1)) == 6  # the middle bin


def test_histogram_matches_python_enumeration():
    rng = RandomSource(11)
    for k in range(40):
        n = rng.randint(1, 10)
        inst = gen_random_density(n, rng.choice((0.5, 1.0, 2.0, 4.0)), rng.split(str(k)))
        assert _histogram(inst) == _python_histogram(inst.weights, range(n))


def test_histogram_subset_restriction():
    rng = RandomSource(12)
    inst = gen_random_density(12, 1.0, rng)
    subset = mask_from_indices([0, 3, 5, 8, 11])
    hist = _histogram(inst, subset)
    assert hist == _python_histogram(inst.weights, [0, 3, 5, 8, 11])
    assert sum(hist.values()) == 2**5


def test_big_weight_fallback_agrees():
    # weights above the int64-safe range push the oracle onto the big-int path
    rng = RandomSource(13)
    small = tuple(rng.randint(1, 100) for _ in range(10))
    big = tuple(w + (1 << 70) for w in small)
    small_hist = _histogram(Instance(weights=small, target=1))
    big_hist = _histogram(Instance(weights=big, target=1))
    # low bits carry the small sums, high bits the popcount; folding the
    # popcount away must reproduce the small histogram exactly
    folded = Counter()
    popcounts = Counter()
    for s, c in big_hist.items():
        folded[s & ((1 << 70) - 1)] += c
        popcounts[s >> 70] += c
    assert dict(folded) == small_hist
    assert popcounts == Counter(_histogram(Instance(weights=(1,) * 10, target=1)))
    # sums at or past 2^62 and masks past bit 62 take object arrays; both merge past 12 items
    for weights, indices in _table_cases():
        inst = Instance(weights=weights, target=1)
        subset = mask_from_indices(indices)
        expect = _python_histogram(weights, indices)
        assert _histogram(inst, subset) == expect
        assert max_bin(inst, subset) == max(expect.values())
        assert distinct_sums(inst, subset) == len(expect)


def test_brute_solve_frozen_example():
    inst = Instance(weights=(1, 2, 4, 8, 16, 32, 64, 128), target=170)
    out = brute_solve(inst)
    assert out.found and out.witness == 0xAA
    assert mask_sum(inst.weights, out.witness) == inst.target


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
    # the same on Python ints: {0,2} (mask 5) beats {1,2} (mask 6)
    big = Instance(weights=(2**63, 2**63, 2**63 + 5), target=2**64 + 5)
    assert brute_solve(big).witness == 5


def test_brute_solve_short_circuits():
    out = brute_solve(Instance(weights=(1, 2), target=100))
    assert not out.found
    assert out.cost["sums_enumerated"] == 0
    zero = brute_solve(Instance(weights=(3, 4), target=0))
    assert zero.found and zero.witness == 0


def test_brute_solve_memory_cap(monkeypatch, traced):
    # at 1 MB the scan's blocks shrink from 2^20 rows (12 MB of int64, 52 MB of
    # 70-bit Python ints) to what fits; the witness and the count stay the same
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "1")
    rng = RandomSource(40)
    for bits in (30, 70):
        weights = tuple(rng.getrandbits(bits) | 1 for _ in range(22))
        inst = Instance(weights, sum(weights))  # only the last mask hits
        out, peak = traced(brute_solve, inst)
        assert out.witness == (1 << 22) - 1
        assert out.cost["sums_enumerated"] == 1 << 22
        assert peak < 1 << 20
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "0")  # not even a one-item block fits
    with pytest.raises(CapacityError):
        brute_solve(Instance((1, 2), 3))


def test_all_subset_sums_indexing():
    inst = Instance(weights=(5, 9, 21), target=1)
    sums = all_subset_sums(inst)
    for mask in range(8):
        assert int(sums[mask]) == mask_sum(inst.weights, mask)


def test_all_subset_sums_memory_cap(monkeypatch, traced):
    # 70-bit weights: a row is charged 52 bytes (an 8-byte slot, its int and 4
    # bytes of slack), so under 2 MB n = 15 fits and n = 16 does not
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "2")
    rng = RandomSource(41)
    refused = []
    for n in (14, 15, 16, 17):
        inst = Instance(tuple(rng.getrandbits(70) | 1 << 69 for _ in range(n)), 1)
        out, peak = traced(all_subset_sums, inst, refusal=True)
        if isinstance(out, CapacityError):
            refused.append(n)
            continue
        assert peak <= 2 << 20
    assert refused == [16, 17]


def test_enum_limit_guard():
    # only the brute-force scan, which streams in constant memory, counts items;
    # the 28-row histogram of 27 equal weights is answered
    wide = Instance(weights=(1,) * 27, target=3)
    assert _histogram(wide) == {k: math.comb(27, k) for k in range(28)}
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
        distinct_sums(gen_super_increasing(20))
    with pytest.raises(CapacityError):
        sumset_with_witness(gen_super_increasing(30).weights, range(30))


def _wide_super_increasing(n, bits):
    """2^bits + 2^i for i < n: 2^n distinct sums, each a Python int of about bits + log2 n bits."""
    return Instance(tuple((1 << bits) + (1 << i) for i in range(n)), 1)


def test_table_check_counts_merge_peak(monkeypatch, charges, traced):
    # 2^18 distinct sums: the table is 6 MB (24 bytes a row), but the last
    # merge peaks at 14 MB (56 bytes a row), so 10 MB must refuse it
    inst = gen_super_increasing(18)
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "10")
    with pytest.raises(CapacityError):
        block_table(inst)
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "15")
    assert block_table(inst).sums.size == 1 << 18
    # the charge covers what the merge really allocates
    peak = traced(block_table, gen_super_increasing(16))[1]
    assert peak <= 56 * (1 << 16) + (64 << 10)
    # also when its sums are Python ints of about 63, 200 and 1000 bits
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "64")
    for bits in (63, 200, 1000):
        charges.clear()
        peak = traced(block_table, _wide_super_increasing(16, bits))[1]
        assert peak <= max(charges)


def test_sum_table_charges_its_dense_start(monkeypatch, charges, traced):
    # a table of at most 12 items is built densely, with no merge after it:
    # its dense rows are charged before they are built
    inst = _wide_super_increasing(12, 1000)
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "0")
    with pytest.raises(CapacityError):
        distinct_sums(inst)
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "64")
    charges.clear()
    assert traced(distinct_sums, inst)[1] <= max(charges)


def test_counts_past_int64_are_exact():
    # 70 mask bits put the table in Python ints, and its counts with it
    assert max_bin(gen_all_equal(70)) == math.comb(70, 35)


def _table_stats(inst, subset=None):
    """(beta, distinct sums, sum of count^2) read off the whole table, in Python ints."""
    counts = block_table(inst, subset).counts.tolist()
    return max(counts), len(counts), sum(c * c for c in counts)


def _sweep_every_block(monkeypatch, window_rows=8):
    """Patch `_bin_stats`' rule so that every block of more than `window_rows` sums is swept,
    none read off dense sums however few its items, and no pair count is too large. Returns
    a list that `_window_stats` appends to each time it folds."""
    monkeypatch.setattr(oracle, "_WINDOW_ROWS", window_rows)
    monkeypatch.setattr(oracle, "_PAIR_FACTOR", 1 << 62)
    monkeypatch.setattr(oracle, "_DENSE_ITEMS", -1)
    folds, fold = [], oracle._window_stats
    monkeypatch.setattr(oracle, "_window_stats", lambda *args: folds.append(args[5]) or fold(*args))
    return folds


@pytest.mark.parametrize("window_rows", [8, 64])
def test_bin_stats_match_the_table_on_the_verify_corpus(monkeypatch, window_rows):
    # with _WINDOW_ROWS this small, every block of more than a few sums is swept in many
    # windows of pair sums, sum-poor ones too, the blocks of 14 items or fewer among them
    folds = _sweep_every_block(monkeypatch, window_rows)
    small = 0  # instances of at most 14 items that were swept
    for name, inst in _verify_corpus(18, RandomSource(0)):
        folds.clear()
        assert _bin_stats(inst) == _table_stats(inst), name
        assert bool(folds) == oracle._sweeps(inst.weights, np.int64), name
        small += bool(folds) and inst.n <= 14
    assert small == {8: 77, 64: 44}[window_rows]


def test_bin_stats_match_the_table_on_subset_masks(monkeypatch):
    rng = RandomSource(28)
    cases = [(inst, rng.getrandbits(inst.n)) for n in (12, 16, 20, 24)
             for inst in (gen_random_density(n, 1, rng.split(f"subset:{n}")), gen_geometric_pairs(n))
             for _ in range(3)]
    cases.append((gen_super_increasing(20), (1 << 20) - 2))  # 2^19 sums: past _WINDOW_ROWS
    for inst, subset in cases:  # dense sums, one table or windows, as the rule picks
        assert _bin_stats(inst, subset) == _table_stats(inst, subset)
    assert _bin_stats(gen_random_density(8, 1, rng), 0) == (1, 1, 1)  # the empty block
    for outside in (1 << 8, -1):  # a mask past the instance's items, or a negative one
        with pytest.raises(ValueError, match="subset mask"):
            _bin_stats(gen_random_density(8, 1, rng), outside)
    folds = _sweep_every_block(monkeypatch)
    for inst, subset in cases:
        folds.clear()
        assert _bin_stats(inst, subset) == _table_stats(inst, subset)
        assert folds
    assert _bin_stats(gen_random_density(8, 1, rng), 0) == (1, 1, 1)  # the empty block


def test_bin_stats_past_int64_are_exact(monkeypatch):
    # all-equal n = 70: counts up to C(70, 35) > 2^63 and a norm of C(140, 70), from one
    # table of 71 sums, and from windows over two tables of 36 sums each
    want = (math.comb(70, 35), 71, math.comb(140, 70))
    assert _bin_stats(gen_all_equal(70)) == want
    folds = _sweep_every_block(monkeypatch)  # 36^2 pairs, 71 sums
    assert _bin_stats(gen_all_equal(70)) == want and folds


@pytest.mark.parametrize("bits", [200, 1000])
def test_bin_stats_on_python_int_sums(monkeypatch, bits):
    # 2^17 subsets: Python-int windows over half tables whose sums have one subset each
    # (distinct powers, 2^17 sums) and many (repeated offsets, 750 sums, swept only
    # because the rule is patched to sweep every block of more than 8 sums)
    folds = _sweep_every_block(monkeypatch)
    for offsets in ([1 << i for i in range(17)], [i % 4 for i in range(17)]):
        inst = Instance(tuple((1 << bits) + x for x in offsets), 1)
        folds.clear()
        assert _bin_stats(inst) == _table_stats(inst) and folds


def test_dense_stats_match_the_table():
    # each row's (beta, distinct sums, sum of count^2) against its block's table: every
    # balanced split and the whole of each instance of verify's corpus up to n = 14, big bins
    # (all-zero, all-equal, geometric pairs) and rows of Python ints of 200 and 1000 bits,
    # the all-equal ones among them with big bins too
    corpus = [inst for _, inst in _verify_corpus(14, RandomSource(0))]
    corpus += [Instance((0,) * 12, 0), gen_all_equal(12), gen_geometric_pairs(12)]
    for bits in (200, 1000):
        dense = gen_random_density(10, 1.0, RandomSource(bits))
        corpus += [Instance(tuple((1 << bits) + w for w in dense.weights), 0), Instance((1 << bits,) * 12, 0)]
    for inst in corpus:
        n = inst.n
        for rows in [[range(n)]] + [list(combinations(range(n), h)) for h in {n // 2, n - n // 2}]:
            want = [_table_stats(inst, mask_from_indices(row)) for row in rows]
            assert [list(x) for x in zip(*oracle._dense_stats(inst.weights, rows))] == [list(w) for w in want]
    assert [x.tolist() for x in oracle._dense_stats((1, 2), [])] == [[], [], []]
    assert [x.tolist() for x in oracle._dense_stats((1, 2), [(), ()])] == [[1, 1], [1, 1], [1, 1]]


@pytest.mark.parametrize("bits", [0, 63, 200, 1000])
def test_dense_stats_peak_stays_under_its_charge(monkeypatch, charges, traced, bits):
    # the splits verify batches at n = 9 and 10, the 924 halves of n = 12, and one row of
    # h = 2-14 items, as `_bin_stats` reads a block, with int64 sums and with Python ints,
    # whose charge grows with the widest row's sum
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "64")
    cases = []
    for n in (9, 10, 12, 14):
        inst = gen_random_density(n, 1.0, RandomSource(n))
        if bits:
            inst = Instance(tuple((1 << bits) - 1 + w for w in inst.weights), 1)
        if n < 14:
            cases += [(inst, list(combinations(range(n), h))) for h in {n // 2, n - n // 2}]
        else:
            cases += [(inst, [range(h)]) for h in range(2, 15)]
    for inst, rows in cases:
        charges.clear()
        assert traced(oracle._dense_stats, inst.weights, rows)[1] <= charges[0]


def test_bin_stats_read_small_int64_blocks_off_dense_sums(monkeypatch):
    # a block of at most 14 items with int64 sums builds no table, also where its masks pass
    # bit 62 (items 56-69 of 70); one of 15 items, or of 14 items whose 63-bit weights put
    # its sums past int64, builds one (each has 2^|S| sums: no windows)
    builds, build = [], oracle._sum_table
    monkeypatch.setattr(oracle, "_sum_table", lambda *args: builds.append(args) or build(*args))
    wide = Instance(tuple((1 << 62) + (1 << i) for i in range(14)), 1)
    high = Instance((1,) * 56 + tuple(1 << i for i in range(14)), 1)
    high_block = ((1 << 14) - 1) << 56
    for inst, subset, tables in ((gen_super_increasing(14), None, 0), (high, high_block, 0),
                                 (gen_super_increasing(15), None, 1), (wide, None, 1)):
        builds.clear()
        size = 1 << (inst.n if subset is None else 14)
        assert _bin_stats(inst, subset) == (1, size, size)
        assert len(builds) == tables


def test_bin_stats_pick_their_dtype_from_the_block_alone(monkeypatch):
    # items 60-79 of 80: 20 density-1 weights are swept, 20 density-4 ones make one table, and
    # either runs on int64 however far past bit 62 the items sit, as the block on its own does;
    # items 60-75 whose 2^62 + i weights put their sums past int64 still run on Python ints
    dtypes, build = [], oracle._sum_table
    monkeypatch.setattr(oracle, "_sum_table", lambda *args: dtypes.append(args[2]) or build(*args))
    block = ((1 << 20) - 1) << 60
    for d in (1, 4):
        tail = gen_random_density(20, d, RandomSource(60 + d)).weights
        dtypes.clear()
        assert _bin_stats(Instance((1,) * 60 + tail, 1), block) == _bin_stats(Instance(tail, 1))
        assert dtypes and set(dtypes) == {np.int64}, d
    tail = tuple((1 << 62) + i for i in range(16))
    dtypes.clear()
    assert _bin_stats(Instance((1,) * 60 + tail, 1), ((1 << 16) - 1) << 60) == _table_stats(Instance(tail, 1))
    assert set(dtypes) == {object}


def test_bin_stats_skip_the_norm_unless_asked(monkeypatch):
    # max_bin, distinct_sums and classify read beta and the distinct count alone
    cases = [gen_super_increasing(18), gen_geometric_pairs(22), gen_all_equal(70)]
    want = [_bin_stats(inst)[:2] for inst in cases]

    def unread(counts, exact):
        raise AssertionError("the norm was computed")

    monkeypatch.setattr(oracle, "_square_sum", unread)
    assert [_bin_stats(inst, norm=False) for inst in cases] == [(*w, None) for w in want]


def test_sum_poor_blocks_keep_their_table():
    # density 4, n = 48: about 10^5 sums but 2.4 * 10^9 pairs of the halves' sums, a
    # sweep of minutes where the table takes a tenth of a second; at n = 60, 2^20 sums
    # and 2^38 pairs. The rule reads the weights alone, before anything is built.
    for n in (48, 60):
        inst = gen_random_density(n, 4, RandomSource(n))
        assert not oracle._sweeps(inst.weights, np.int64), n
    assert _bin_stats(inst := gen_random_density(48, 4, RandomSource(48))) == _table_stats(inst)


def test_a_table_past_the_limit_is_swept(monkeypatch):
    # density 1.5, n = 22: 2^22 pairs and at most about 2.9 * 10^5 sums, so the table
    # does less work; under a limit its last merge would pass, the windows run instead
    inst = gen_random_density(22, 1.5, RandomSource(22))
    assert not oracle._sweeps(inst.weights, np.int64)
    want = _table_stats(inst)
    table = oracle._FIXED_BYTES + 2 * oracle._sums_bound(inst.weights) * 57
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", str(table >> 20))
    assert oracle._sweeps(inst.weights, np.int64)
    assert _bin_stats(inst) == want
    # 17 multiples of 1000 may have 2^17 sums by the weights, but have 154, from two halves of
    # 37 and 100: the sweep's windows hold its 3,700 pairs, not 2^16, so 1 MB admits it
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "1")
    assert distinct_sums(_bin_stats_case("multiples", 17)) == 154


def test_sweeps_past_the_pair_budget_build_the_table(monkeypatch):
    # a sweep of more than 2^ENUM_LIMIT pairs is not run: the table is built instead,
    # and refused where it does not fit, as density-1 blocks past n = 26 are at 512 MB
    monkeypatch.setattr(oracle, "ENUM_LIMIT", 16)

    def unswept(*args):
        raise AssertionError("the pairs were swept")

    monkeypatch.setattr(oracle, "_window_stats", unswept)
    inst = gen_super_increasing(18)  # 2^18 pairs of two tables of 2^9 sums
    assert _bin_stats(inst) == (1, 1 << 18, 1 << 18)
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "10")  # its last merge is charged 15 MB
    with pytest.raises(CapacityError, match="subset-sum table"):
        _bin_stats(inst)


def _bin_stats_case(kind, n):
    if kind == "superinc":
        return gen_super_increasing(n)
    if kind == "geometric":  # half sums with many subsets: the windows sort their counts too
        return gen_geometric_pairs(n)
    if kind == "multiples":  # 2^n subsets but few pairs: one window of all of them
        return Instance(tuple(1000 * (i + 1) for i in range(n)), 1)
    return _wide_super_increasing(n, kind)


@pytest.mark.parametrize("kind, n", [("superinc", 18), ("superinc", 20), ("superinc", 22), ("geometric", 22),
                                     ("multiples", 17), (63, 18), (63, 20), (200, 18), (1000, 18)])
def test_bin_stats_peak_stays_under_its_charge(monkeypatch, charges, traced, kind, n):
    inst = _bin_stats_case(kind, n)
    assert traced(_bin_stats, inst)[1] <= max(charges)


@pytest.mark.parametrize("kind", ["superinc", 63, 1000])
def test_bin_stats_refuse_before_their_windows(monkeypatch, charges, traced, kind):
    # the windows are charged before the first one is made: a byte under that charge
    # refuses the sweep, and what was allocated until then stays under the limit
    inst = _bin_stats_case(kind, 18)
    _bin_stats(inst)
    sweep = charges[-1]
    monkeypatch.setattr("sslab.core.memory_limit_bytes", lambda: sweep - 1)
    out, peak = traced(_bin_stats, inst, refusal=True)
    assert isinstance(out, CapacityError) and "windows of" in str(out)
    assert peak < sweep


def _window_side(rng, size, low, high, dtype, unit=1):
    """Sorted (A, B) of `size` sums each drawn from [low, high) times `unit`, B's distinct."""
    a = sorted(unit * rng.randint(low, high - 1) for _ in range(size))
    b = sorted({unit * rng.randint(low, high - 1) for _ in range(size)})
    return np.array(a, dtype=dtype), np.array(b, dtype=dtype)


def _window_sides(kind, count):
    """`count` sides of pair sums: int64, Python ints, or sums clustered 2^40 or 2^1000 apart."""
    rng = RandomSource(count)
    if kind == "int64":  # a second side runs from below 0, as ss's reversed right side does
        return [_window_side(rng, 40, -300 * k, 400, np.int64) for k in range(count)], 600
    if kind == "python":
        return [_window_side(rng, 30, 0, 400, object, 1 << 190) for _ in range(count)], 1 << 200
    sides = []
    for k in range(count):  # a few clusters, each of one high part and a low part under 64
        high = 1 << (40 if k else 1000)
        a, b = (np.array([high * rng.randint(0, 3) + x for x in part.tolist()], dtype=object)
                for part in _window_side(rng, 30, 0, 64, object))
        sides.append((np.sort(a), np.unique(b)))
    return sides, 4 << 1000


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("kind", ["int64", "python", "clustered"])
def test_pair_windows_yield_each_pair_sum_once(kind, count):
    sides, top = _window_sides(kind, count)
    cap = max(a.size for a, _ in sides)  # the least cap: overfull windows are cut
    pairs = [Counter(x + y for x in a.tolist() for y in b.tolist() if 0 <= x + y <= top) for a, b in sides]
    seen = [Counter() for _ in sides]
    last = -1
    for window in oracle._pair_windows(sides, top, cap):
        sums = [(a[i] + b[j]).tolist() for (a, b), (i, j) in zip(sides, window)]
        assert all(0 < len(s) <= cap for s in sums)  # no yielded side is empty or over cap
        lo, hi = min(map(min, sums)), max(map(max, sums))
        assert last < lo  # windows ascend and share no value
        for got, side, had in zip(sums, pairs, seen):
            # a window holds every pair sum of a side inside its span
            assert Counter(got) == Counter({v: c for v, c in side.items() if lo <= v <= hi})
            had.update(got)
        last = hi
    if count == 1:  # every pair sum in [0, top] lies in one window
        assert seen == pairs
    else:  # a value both sides hold lies in a window, so that a join there meets it
        common = pairs[0].keys() & pairs[1].keys()
        assert common and all(v in had for had in seen for v in common)


def test_sumset_witness_prefers_smallest_mask():
    sums, masks = sumset_with_witness((1, 1), [0, 1])
    assert list(sums) == [0, 1, 2]
    assert list(masks) == [0, 1, 3]  # sum 1 witnessed by item 0, not item 1
    # past ENUM_LIMIT: 40 equal weights have only 41 distinct sums, so no refusal
    sums, masks = sumset_with_witness((3,) * 40, range(40))
    assert [int(s) for s in sums] == [3 * k for k in range(41)]
    assert [int(m) for m in masks] == [(1 << k) - 1 for k in range(41)]


def _join_reference(left, right, target):
    """(right rows that meet a left sum, the first of them or -1), by a Python scan."""
    have = set(left)
    rows = [j for j, r in enumerate(right) if target - r in have]
    return len(rows), rows[0] if rows else -1


def _join_cases():
    rng = np.random.default_rng(22)
    repeats = np.sort(rng.integers(0, 50, 400))
    yield "left sums that repeat", repeats, rng.integers(0, 100, 3000), 90
    yield "no hit", np.arange(0, 1000, 2), 2 * rng.integers(0, 600, 5000), 999
    yield "every row a hit", np.arange(1000), rng.integers(0, 1000, 5000), 999
    late = np.full(3 * _JOIN_BLOCK, 10**9)
    late[_JOIN_BLOCK + 12345] = late[2 * _JOIN_BLOCK + 7] = 40
    yield "first hit past the first block", np.arange(0, 100, 3), late, 100
    # most needs t - r fall below zero, and some meet the negative left sums
    yield "needs below zero", np.arange(-500, 50, 7), rng.integers(0, 2000, 5000), 300
    big = 1 << 70
    left = np.array(sorted(big + x for x in range(0, 3000, 3)) * 2, dtype=object)
    left.sort()
    right = np.array([big + int(x) for x in rng.integers(0, 4000, 4000)], dtype=object)
    yield "object arrays past 2^62", left, right, 2 * big + 3500
    # 2^15 left rows, whose bitmap has 2^18 entries
    size = 1 << 15
    yield "2^15 left rows: no hit", np.arange(0, 2 * size, 2), 2 * rng.integers(0, size, 3 * size), 2 * size + 1
    yield "2^15 left rows: first hit past the first block", np.arange(0, 3 * size, 3), late, 100
    yield "2^15 left rows: needs below zero", np.arange(-size, size, 3), rng.integers(0, 4 * size, 4 * size), 300
    repeats = np.sort(rng.integers(0, size // 4, size))
    yield "2^15 left rows: left sums that repeat", repeats, rng.integers(0, size // 2, 2 * size), size // 3
    left = np.array([big + x for x in range(0, 3 * size, 3)], dtype=object)
    right = np.array([big + int(x) for x in rng.integers(0, 4 * size, 2 * size)], dtype=object)
    yield "2^15 left rows: object arrays past 2^62", left, right, 2 * big + 2 * size + 1
    # every sum a multiple of 2^40: all needs share the low bits of every left sum
    left = np.sort(rng.integers(0, size, size)) << 40
    yield "2^15 left rows: every need passes", left, rng.integers(0, size, 2 * size) << 40, (size // 2) << 40


@pytest.mark.parametrize("case", list(_join_cases()), ids=lambda case: case[0])
def test_sorted_join_matches_a_python_scan(case):
    _, left, right, target = case
    assert _sorted_join(left, right, target) == _join_reference(left.tolist(), right.tolist(), target)
