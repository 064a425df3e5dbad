"""Exhaustive ground truth: subset-sum tables, bin statistics, reference solver.

Everything here is exact. One kernel, `_sum_table`, builds w(2^S) for a block
S: the sorted distinct subset sums, how many subsets reach each, and the
smallest mask reaching each. `_sorted_join`, the Horowitz-Sahni two-list join,
matches a second list of sums against any sorted list of sums, such a table's
or a sorted copy of dense sums: it sorts the needed values, not their indices,
and returns how many right rows meet and the first that does, which is all an
exact join reads; the caller looks up the left row it meets. It first drops
every need whose low bits no left sum shares, by a bitmap of those bits.
`_join_bytes` is what a join holds beyond its two lists, which a caller charges
with its own tables. `_bin_stats` folds beta, the distinct count and the sum of
count^2 of a block that `max_bin`, `distinct_sums`, `bin_l2` and `classify` read.
It builds the block's table, unless `_sweeps` finds the table may pass
_WINDOW_ROWS rows and the pair sums of two half tables no more than
_PAIR_FACTOR times as many, or the table past the memory limit: then it sweeps
those pair sums in windows of ascending value, in the memory of the halves and
one window, not of the 2^|S| sums. `_pair_windows` is that one sweep, of the
pair sums of one or more pairs of sorted lists, for the fold and for
`classic.schroeppel_shamir`'s join alike. Values live in int64 arrays while
every sum and mask fits; otherwise the same code runs on object arrays of Python
ints. `_table_dtype` alone makes that choice.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    CLASSIC_COUNTERS,
    CapacityError,
    Instance,
    SolverOutcome,
    StepMeter,
    _wide_sum_bytes,
    check_bytes,
    full_mask,
    mask_indices,
    mask_sum,
    memory_limit_bytes,
    verified_outcome,
)

ENUM_LIMIT = 26       # items brute_solve scans, which streams in constant memory
_BLOCK_BITS = 20      # streaming block: 2^20 sums (8 MB of int64) at a time
_DENSE_BITS = 12      # items a sum table enumerates densely before its first sort
_INT64_SAFE = 1 << 62
_JOIN_BLOCK = 1 << 16  # right rows a join filters, or scans for its first hit, at a time
# what a sum table or a join takes beyond its rows, numpy's fixed costs in a fresh process:
# a 2-row table passed its per-row charge by 6.5 KB, a 2^10-row one by 352 bytes
_FIXED_BYTES = 8192
_WINDOW_ROWS = 1 << 16  # a block with at most this many distinct sums is one table; a window's least cap
_PAIR_FACTOR = 4  # a block is swept where its pair sums are at most this many times its sums (`_sweeps`)


def _table_dtype(weights: Sequence[int], *extra: int, mask_bits: int = 0):
    """np.int64 when every subset sum of `weights`, every `extra` value (a
    target) and every mask below bit `mask_bits` stays under 2^62; object
    (Python ints) otherwise. Sums, masks, joins and targets follow this one choice.
    """
    fits = mask_bits <= 62 and sum(weights) < _INT64_SAFE and all(0 <= x < _INT64_SAFE for x in extra)
    return np.int64 if fits else object


def _dense_sums(weights, dtype=np.int64, coefficients: Sequence[int] = (1,)) -> np.ndarray:
    """Every sum of c_i * weights[i] with each c_i in {0, *coefficients}, indexed by
    base-(1 + len(coefficients)) digits (digit i = 0 for c_i = 0, else 1 + the
    position of c_i in `coefficients`). The default gives all 2^k subset sums,
    indexed by mask (bit i = weights[i]). `weights` may also be a (k, h) array:
    then row j of the result holds the sums of weights[j]. It is a transposed
    view, so that each digit's block of sums, written from the blocks before it,
    stays one contiguous range (numpy copies an operand that may overlap its output)."""
    base = 1 + len(coefficients)
    if isinstance(weights, np.ndarray) and weights.ndim == 2:
        columns, rows = weights.T, weights.shape[:1]
    else:  # a 1-D block adds Python ints, which numpy adds faster than scalars of its own
        columns, rows = weights, ()
    arr = np.zeros((base ** len(columns),) + rows, dtype=dtype)
    size = 1
    for w in columns:
        for digit, c in enumerate(coefficients, 1):
            np.add(arr[:size], c * w, out=arr[digit * size : (digit + 1) * size])
        size *= base
    return arr.T if rows else arr


class SumTable(NamedTuple):
    """w(2^S) of a block S: sorted distinct sums, subsets per sum, smallest mask per sum."""

    sums: np.ndarray
    counts: np.ndarray
    masks: np.ndarray


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first entry of every run of equal values in a sorted array."""
    return np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))


def _table_row(weights: Sequence[int], indices: Sequence[int], dtype) -> int:
    """What `_sum_table` charges a merged row of the table of `indices`."""
    # a merged row's peak, measured with tracemalloc at n = 16-20: 56 bytes with int64 (sums,
    # counts, masks, the sort order, the run starts, the rows they pick, the reordered masks),
    # and a 57th covers the 1.6 KB a table takes beyond them (fresh process, n = 13-18); with
    # Python ints, at most 133 with 70-bit sums and masks, plus the widths of the largest sum and mask
    if dtype is np.int64:
        return 57
    return 136 + _wide_sum_bytes(sum(weights[i] for i in indices)) + _wide_sum_bytes(sum(1 << i for i in indices))


def _sum_table(weights: Sequence[int], indices: Sequence[int], dtype, held: int = 0) -> SumTable:
    """w(2^S) for S = `indices`, masks in the original coordinates.

    The first _DENSE_BITS items are enumerated densely and sorted once; every
    further item i is merged in by one stable sort of [table, table + w_i].
    Each sort is followed by a run-length pass that folds equal sums into one
    row. Items go in ascending index order and the sort is stable, so the
    smaller mask leads each run and every sum keeps its smallest mask. The
    memory limit is checked before the dense rows and before every doubling,
    each time against a merge's peak per row plus _FIXED_BYTES and the `held`
    bytes the caller keeps meanwhile.
    Arrays are rebound as soon as they are replaced, which keeps the peak down.
    """
    idx = sorted(indices)
    row = _table_row(weights, idx, dtype)
    held += _FIXED_BYTES
    head, rest = idx[:_DENSE_BITS], iter(idx[_DENSE_BITS:])
    check_bytes(held + (1 << len(head)) * row, f"a subset-sum table of {1 << len(head)} rows")
    sums = _dense_sums([weights[i] for i in head], dtype)
    counts = np.ones(sums.size, dtype=dtype)  # at most 2^|S|, inside the masks' dtype
    masks = _dense_sums([1 << i for i in head], dtype)
    while True:
        order = np.argsort(sums, kind="stable")
        sums = sums[order]
        starts = _run_starts(sums)
        masks = masks[order[starts]]
        counts = np.add.reduceat(counts[order], starts)
        sums = sums[starts]
        del order, starts
        i = next(rest, None)
        if i is None:
            return SumTable(sums, counts, masks)
        check_bytes(held + 2 * sums.size * row, f"a subset-sum table of {2 * sums.size} rows")
        sums = np.concatenate([sums, sums + weights[i]])
        counts = np.concatenate([counts, counts])
        masks = np.concatenate([masks, masks | (1 << i)])


def _run_rows(start: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (i, j) with start[i] <= j < stop[i], in order of i, then of j: (the i, the j)."""
    width = stop - start
    i = np.repeat(np.arange(width.size), width)
    j = np.arange(i.size) + np.repeat(start + width - np.cumsum(width), width)
    return i, j


def _pair_windows(sides, top: int, cap: int):
    """Sweep the pair sums a + b of each side, a pair (A, B) of ascending arrays of sums with
    B's distinct, over [0, top] in windows [lo, hi) of ascending value. For each window where
    every side holds a pair, yield per side `_run_rows`' (a-rows, b-rows) of its pairs there.
    A side holds at most `cap` >= |A| pairs a window: an overfull window is cut to the span of
    the pair sums it holds and halved, so sums that cluster far apart (wide weights with one
    high part) take no halving per bit, and one of a single value holds at most one pair per
    a-row. The next window holds about 9/10 of `cap` rows at the last one's density; after a
    window where no side holds a pair, it keeps that width but starts at the least pair sum
    past it, so a gap between clusters costs one window however wide it is."""
    lo, starts = 0, [b.searchsorted(-a) for a, b in sides]
    width = max(1, (top + 1) * cap // max(a.size * b.size for a, b in sides))
    while lo <= top:
        hi = min(lo + width, top + 1)
        stops = [b.searchsorted(hi - a) for a, b in sides]
        rows = [int((e - s).sum()) for s, e in zip(starts, stops)]
        if min(rows) and max(rows) > cap:  # so the window holds two values
            first, last = top, lo  # no pair sum lies in [lo, first): `starts` holds
            for (a, b), s, e in zip(sides, starts, stops):
                paired = e > s
                first = min(first, int((a[paired] + b[s[paired]]).min()))
                last = max(last, int((a[paired] + b[e[paired] - 1]).max()))
            lo, width = first, (last + 1 - first) // 2
            continue
        if not max(rows):  # no side holds a pair: move to the least pair sum past hi
            ahead = [a[e < b.size] + b[e[e < b.size]] for (a, b), e in zip(sides, stops)]
            lo, starts = min((int(x.min()) for x in ahead if x.size), default=top + 1), stops
            continue
        if min(rows):
            yield [_run_rows(s, e) for s, e in zip(starts, stops)]
        width = max(1, (hi - lo) * 9 * cap // (10 * max(rows)))
        lo, starts = hi, stops


def _sorted(values: np.ndarray) -> np.ndarray:
    """A sorted copy of `values`. Python's list sort orders Python ints about twice as
    fast as numpy orders an object array, so an object array is sorted as a list."""
    if values.dtype != object:
        return np.sort(values)
    return np.array(sorted(values.tolist()), dtype=object)


def _found_in(sorted_values: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Which of `values` occur in the sorted, non-empty `sorted_values`: a bool array."""
    pos = np.searchsorted(sorted_values, values)
    np.minimum(pos, sorted_values.size - 1, out=pos)
    return sorted_values[pos] == values


def _low_bits(values: np.ndarray, low: int) -> np.ndarray:
    """values & low, the mask of the low bits, as indices (& keeps a negative int's low bits)."""
    return (values & low).astype(np.intp, copy=False)


def _marked_needs(left_sums: np.ndarray, right_sums: np.ndarray, target: int) -> np.ndarray:
    """The needs target - r whose low b bits some left sum shares, in right-row order,
    with b = 2 + the bit length of the left row count, so that a bitmap of the left
    sums' low bits marks at most a quarter of its 4-8 bytes a left row. Both lists are
    read _JOIN_BLOCK rows at a time; only the surviving needs are made.

    The width was measured on mim's join of random 40-bit halves: at n = 34, 38 and 40
    it took 6.7, 24 and 52 ms with b = the bit length, 4.5, 15 and 32 with 2 more bits,
    and 2.7, 13 and 29 with 3 more, which double the bitmap to 8-16 bytes a left row."""
    low = (1 << (left_sums.size.bit_length() + 2)) - 1
    marked = np.zeros(low + 1, dtype=bool)
    for start in range(0, left_sums.size, _JOIN_BLOCK):
        marked[_low_bits(left_sums[start : start + _JOIN_BLOCK], low)] = True
    keep = np.empty(right_sums.size, dtype=bool)
    for start in range(0, right_sums.size, _JOIN_BLOCK):
        bits = _low_bits(right_sums[start : start + _JOIN_BLOCK], low)
        # (t & low) - (r & low) is t - r mod 2^b, or that minus 2^b, which indexes the same entry
        keep[start : start + _JOIN_BLOCK] = marked[np.subtract(target & low, bits, out=bits)]
    del marked
    need = right_sums[keep]
    return np.subtract(target, need, out=need)


def _sorted_join(left_sums: np.ndarray, right_sums: np.ndarray, target: int) -> tuple[int, int]:
    """Match right entries r against sorted `left_sums` on target - r.

    Returns (hits, first): how many right rows meet a left sum, and the first
    such row (-1 when none does). `left_sums` may repeat a value. The needs
    target - r are sorted as values and searched once in `left_sums`; only when
    some meet are the right rows scanned, _JOIN_BLOCK at a time, for the first
    whose need is a met value. Which left row it meets is the caller's to find.
    Only the needs that pass `_marked_needs` are sorted and searched: a need it
    drops shares its low bits with no left sum, so it meets none, and the result
    is the same. Nearly every need misses, so nearly every search it spares was
    wasted: mim's join of two 2^20-row halves (n = 40, random 40-bit weights) fell
    from 65 to 24 ms, and a join of 2^12 random rows a side from 117 to 61 us. On
    2^4 rows a side the bitmap adds 4 us, which moved no end-to-end metric of the
    bench beyond the spread of its runs. `target` must fit the arrays' dtype.
    """
    need = _sorted(_marked_needs(left_sums, right_sums, target))  # sorted needles stay in cache
    met = need[_found_in(left_sums, need)]
    del need
    # every met need is some right row's, so the scan returns once anything met
    for start in range(0, right_sums.size if met.size else 0, _JOIN_BLOCK):
        rows = np.flatnonzero(_found_in(met, target - right_sums[start : start + _JOIN_BLOCK]))
        if rows.size:
            return met.size, start + int(rows[0])
    return 0, -1


def _join_bytes(left_rows: int, right_rows: int, dtype, wide: int = 0) -> int:
    """The most `_sorted_join` holds beyond its two lists, with `wide` what the widest
    need takes beyond a 70-bit int. Its search phase holds the needs, their sorted copy
    and the search's positions and picks: 34 bytes a right row when every need meets,
    with int64 sums, and 105 plus the widths of two needs with Python ints, measured
    with tracemalloc. Its filter phase comes first and holds the bitmap (4-8 bytes a
    left row), a flag a right row and one block of low bits: 9 bytes a block row with
    int64 sums (the indices and what they pick), 45 with Python ints (the small ints
    of the `&` as well). The larger phase is charged, with _FIXED_BYTES more."""
    search = right_rows * (105 + 2 * wide if dtype is object else 34)
    block = min(max(left_rows, right_rows), _JOIN_BLOCK) * (45 if dtype is object else 9)
    return _FIXED_BYTES + max(search, (4 << left_rows.bit_length()) + right_rows + block)


def _block(instance: Instance, subset_mask: int | None) -> tuple[list[int], object]:
    """The item indices of the instance's block S (every item when None) and its tables' dtype."""
    smask = full_mask(instance.n) if subset_mask is None else subset_mask
    if smask < 0 or smask >> instance.n:
        raise ValueError("subset mask outside the instance's index space")
    idx = mask_indices(smask)
    return idx, _table_dtype([instance.weights[i] for i in idx], mask_bits=smask.bit_length())


def _square_sum(counts: np.ndarray, exact: bool) -> int:
    """The sum of squares of the bin sizes `counts`: in Python ints when `exact`, as an int64 dot otherwise."""
    return sum(c * c for c in counts.tolist()) if exact else int(np.dot(counts, counts))


def _sums_bound(weights: Sequence[int]) -> int:
    """A bound on the distinct subset sums of `weights`, read off the weights alone:
    min(w + 1, the product over distinct values of their multiplicity + 1) <= 2^|weights|."""
    return min(sum(weights) + 1, math.prod(m + 1 for m in Counter(weights).values()))


def _sweeps(weights: Sequence[int], indices: Sequence[int], dtype) -> bool:
    """Whether `_bin_stats` sweeps the pair sums of the block's two half tables, not its table.

    A table's work follows its rows, at most rows = `_sums_bound` of the block; the
    windows' follows the product of the halves' rows, at most pairs = the product of
    their bounds. The windows are picked where the table may pass _WINDOW_ROWS rows and
    either pairs <= _PAIR_FACTOR * rows (sum-rich blocks, where pairs = rows = 2^|S|) or
    the table's last merge, charged at `rows`, would pass the memory limit. A sum-poor
    block keeps its table: density-4 n = 60 has about 2^20 sums but 2^38 pairs.
    """
    block = [weights[i] for i in indices]
    if min(1 << len(block), sum(block) + 1) <= _WINDOW_ROWS:  # the bound's cheap half first
        return False
    rows = _sums_bound(block)
    if rows <= _WINDOW_ROWS:
        return False
    h = len(indices) // 2
    pairs = _sums_bound([weights[i] for i in indices[:h]]) * _sums_bound([weights[i] for i in indices[h:]])
    table = _FIXED_BYTES + 2 * rows * _table_row(weights, indices, dtype)
    return pairs <= _PAIR_FACTOR * rows or table > memory_limit_bytes()


def _bin_stats(instance: Instance, subset_mask: int | None = None,
               norm: bool = True) -> tuple[int, int, int | None]:
    """(beta, |w(2^S)|, sum over sums of count^2) of the instance's block S (every item
    when None); the last is None, and not computed, unless `norm`.

    A block is one table unless `_sweeps` picks windows. Then it is split into its first
    floor(|S|/2) items, A, and the rest, B, and `_pair_windows`, the sweep Schroeppel-Shamir
    runs, cuts the pair sums a + b of their tables into windows of ascending value, in
    O(|A| + |B| + cap) memory. A window holds at most cap = max(_WINDOW_ROWS, 8|A|, 8|B|)
    pairs, or all |A||B| where they are fewer. Every sum falls in one window, so each
    window's runs of equal pair sums, their count products summed, are whole bins. The
    windows are charged before the first is made.
    A sweep of more than 2^ENUM_LIMIT pairs, as many as the subsets brute_solve scans,
    is not run: the block's table is built instead, and refused where it does not fit.
    """
    idx, dtype = _block(instance, subset_mask)
    exact = len(idx) > 30  # the norm is at most 4^|S|, which int64 holds up to |S| = 30
    if _sweeps(instance.weights, idx, dtype):
        total = sum(instance.weights[i] for i in idx)
        # a pair row at a window's peak holds its two rows, its sum, its count product and one
        # temporary: 40 bytes with int64 sums, and with Python ints of at most 70 bits 112 with
        # counts under 2^30, charged 120, plus the widths of the widest sum and count. A row
        # of A or B holds its sum and count, and an a-row a window's bounds and their
        # temporaries, charged half to each side. Measured with tracemalloc in a fresh
        # process, a fold peaked at 0.68-0.79 of its largest charge with int64 sums of one
        # subset each (n = 18-24), at 0.96-0.99 on geometric pairs (n = 22-26), at 0.94 with
        # 2^16 a-rows and 17 b-rows, and at 0.59-0.82 with sums of 63 and 1000 bits (n = 18-20)
        if dtype is np.int64:
            half_row, pair_row = 56, 40
        else:
            wide = _wide_sum_bytes(total) + _wide_sum_bytes(1 << len(idx))
            half_row, pair_row = 136 + 2 * wide, 120 + wide
        h = len(idx) // 2
        a_sums, a_counts = _sum_table(instance.weights, idx[:h], dtype)[:2]
        b_sums, b_counts = _sum_table(instance.weights, idx[h:], dtype, a_sums.size * half_row)[:2]
        if a_sums.size * b_sums.size <= 1 << ENUM_LIMIT:
            cap = min(max(_WINDOW_ROWS, 8 * a_sums.size, 8 * b_sums.size), a_sums.size * b_sums.size)
            check_bytes(_FIXED_BYTES + (a_sums.size + b_sums.size) * half_row + cap * pair_row,
                        f"windows of {cap} pair sums over two tables of {a_sums.size} and {b_sums.size} rows")
            return _window_stats(a_sums, a_counts, b_sums, b_counts, total, cap, norm, exact)
        del a_sums, a_counts, b_sums, b_counts
    counts = _sum_table(instance.weights, idx, dtype).counts
    return int(counts.max()), counts.size, _square_sum(counts, exact) if norm else None


def _window_stats(a_sums, a_counts, b_sums, b_counts, total: int, cap: int, norm: bool, exact: bool):
    """`_bin_stats`' fold of the pair sums of two tables, A's (sums, counts) and B's, whose
    pair sums lie in [0, total], over `_pair_windows`' windows of at most `cap` pairs."""
    unit = a_counts.max() == 1 == b_counts.max()  # every sum of A and B has one subset
    beta = distinct = 0
    l2 = 0 if norm else None
    for (i, j), in _pair_windows(((a_sums, b_sums),), total, cap):
        rows = i.size
        sums = a_sums[i]
        sums += b_sums[j]
        if unit:  # a bin's size is its run's length, and a sort without its order is faster
            del i, j
            starts = _run_starts(_sorted(sums))
            del sums
            runs = np.diff(starts, append=rows)
            del starts
        else:
            counts = a_counts[i]
            counts *= b_counts[j]
            del i, j
            order = np.argsort(sums)
            sums, counts = sums[order], counts[order]
            del order
            runs = np.add.reduceat(counts, _run_starts(sums))
            del sums, counts
        beta, distinct = max(beta, int(runs.max())), distinct + runs.size
        if norm:
            l2 += _square_sum(runs, exact)
        del runs  # before the next window's pairs are made
    return beta, distinct, l2


def max_bin(instance: Instance, subset_mask: int | None = None) -> int:
    """beta(w) over the subset: the largest number of subsets sharing one sum."""
    return _bin_stats(instance, subset_mask, norm=False)[0]


def distinct_sums(instance: Instance, subset_mask: int | None = None) -> int:
    """|w(2^S)|, counted by `_bin_stats`: its work follows the answer, or, where the
    block is swept, the pairs of two half tables' sums, at most _PAIR_FACTOR times a
    bound on the answer unless the table would pass the memory limit."""
    return _bin_stats(instance, subset_mask, norm=False)[1]


def _dense_row_bytes(weights: Sequence[int]) -> int:
    """A dense subset sum's charge: it peaks at 8 bytes with int64 and at 48 with Python ints of
    at most 70 bits, plus the largest sum's width; 4 more cover brute_solve's compare of a block."""
    return 12 if _table_dtype(weights) is np.int64 else 52 + _wide_sum_bytes(sum(weights))


def all_subset_sums(instance: Instance) -> np.ndarray:
    """Materialized sums for every mask (index = mask). Verification helper; 2^n memory."""
    ws = instance.weights
    check_bytes((1 << len(ws)) * _dense_row_bytes(ws), f"all {1 << len(ws)} subset sums")
    return _dense_sums(ws, _table_dtype(ws))


def brute_solve(instance: Instance) -> SolverOutcome:
    """Reference solver: scan all 2^n subsets in ascending mask order, in
    blocks of dense sums, and return the smallest witness mask or none. A block
    has at most 2^_BLOCK_BITS rows and, with the scan's temporaries, fits the
    memory limit; only a limit below a one-item block is refused."""
    if instance.n > ENUM_LIMIT:
        raise CapacityError(f"a brute-force scan of {instance.n} items exceeds {ENUM_LIMIT}")
    ws, t = instance.weights, instance.target
    meter = StepMeter(keys=CLASSIC_COUNTERS)
    if t > sum(ws):
        return SolverOutcome(cost=meter.cost)
    dtype = _table_dtype(ws, t)
    row = _dense_row_bytes(ws)  # t <= sum(ws): the dtype of all_subset_sums
    check_bytes(row << min(len(ws), 1), "a one-item block of the brute-force scan")
    b = min(len(ws), _BLOCK_BITS, (memory_limit_bytes() // row).bit_length() - 1)
    low = _dense_sums(ws[:b], dtype)  # index = mask of the low b items
    for high in range(1 << (len(ws) - b)):
        hits = np.flatnonzero(low == t - mask_sum(ws[b:], high))
        if hits.size:
            meter.add(int(hits[0]) + 1, "sums_enumerated")
            return verified_outcome(instance, (high << b) | int(hits[0]), meter.cost)
        meter.add(low.size, "sums_enumerated")
    return SolverOutcome(cost=meter.cost)


def sumset_with_witness(weights: Sequence[int], indices: Sequence[int], held: int = 0):
    """Deduplicated sums over subsets of `indices` with the smallest witness mask per sum.

    Returns (sums, masks) sorted by sum; masks use the original coordinates.
    The dtype follows all of `weights` and their whole index range, so two
    calls on one weight list always return arrays of one dtype. Refused only
    when a table, with the `held` bytes the caller keeps meanwhile, would
    exceed the memory limit.
    """
    dtype = _table_dtype(weights, mask_bits=len(weights))
    table = _sum_table(weights, indices, dtype, held)
    return table.sums, table.masks
