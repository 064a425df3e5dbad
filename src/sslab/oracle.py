"""Exhaustive ground truth: subset-sum tables, bin statistics, reference solver.

Everything here is exact. One kernel, `_sum_table`, builds w(2^S) for a block
S: the sorted distinct subset sums, how many subsets reach each, and the
smallest mask reaching each. `_sorted_join` matches a second list of sums
against such a table, as in the Horowitz-Sahni two-list join. Values live in
int64 arrays while every sum and mask fits; otherwise the same code runs on
object arrays of Python ints. `_table_dtype` alone makes that choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    CapacityError,
    Instance,
    SolverOutcome,
    full_mask,
    mask_indices,
    memory_limit_bytes,
    verified_outcome,
)

ENUM_LIMIT = 26       # hard cap on exhaustively enumerated coordinates
_BLOCK_BITS = 20      # streaming block: 2^20 sums (8 MB of int64) at a time
_DENSE_BITS = 12      # items a sum table enumerates densely before its first sort
_INT64_SAFE = 1 << 62


@dataclass
class SumHistogram:
    """Multiset of subset sums over a coordinate subset: sum -> number of achieving subsets."""

    entries: dict
    subset: int

    def total(self) -> int:
        return sum(self.entries.values())

    def max_count(self) -> int:
        return max(self.entries.values())

    def l2_squared(self) -> int:
        return sum(c * c for c in self.entries.values())


def _subset_weights(instance: Instance, subset_mask: int | None) -> tuple[list[int], int]:
    if subset_mask is None:
        subset_mask = full_mask(instance.n)
    if subset_mask < 0 or subset_mask >> instance.n:
        raise ValueError("subset mask outside the instance's index space")
    idx = mask_indices(subset_mask)
    return [instance.weights[i] for i in idx], subset_mask


def _check_enum_limit(k: int) -> None:
    if k > ENUM_LIMIT:
        raise CapacityError(f"enumeration over {k} coordinates exceeds the limit of {ENUM_LIMIT}")


def _fits_int64(weights: Sequence[int], *extra: int) -> bool:
    return sum(weights) < _INT64_SAFE and all(0 <= x < _INT64_SAFE for x in extra)


def _table_dtype(weights: Sequence[int], *extra: int, mask_bits: int = 0):
    """np.int64 when every subset sum of `weights`, every `extra` value (a
    target) and every mask below bit `mask_bits` stays under 2^62; object
    (Python ints) otherwise. Sums, masks, joins and targets follow this one choice.
    """
    return np.int64 if mask_bits <= 62 and _fits_int64(weights, *extra) else object


def _dense_sums(weights: Sequence[int], dtype=np.int64) -> np.ndarray:
    """All 2^k subset sums, indexed by mask (bit i = weights[i])."""
    arr = np.zeros(1 << len(weights), dtype=dtype)
    for j, w in enumerate(weights):
        arr[1 << j : 2 << j] = arr[: 1 << j] + w
    return arr


def _iter_blocks(weights: Sequence[int]):
    """Yield (high_mask, base_sum, low_sums) covering all 2^k masks as high<<b | low."""
    k = len(weights)
    b = min(k, _BLOCK_BITS)
    low = _dense_sums(weights[:b])
    high_ws = weights[b:]
    for hm in range(1 << len(high_ws)):
        base = 0
        m, j = hm, 0
        while m:
            if m & 1:
                base += high_ws[j]
            m >>= 1
            j += 1
        yield hm, base, low


def _iter_gray(weights: Sequence[int]):
    """Pure-python streaming (mask, sum) over all subsets, Gray-code order."""
    mask, s = 0, 0
    yield 0, 0
    for k in range(1, 1 << len(weights)):
        bit = (k & -k).bit_length() - 1
        mask ^= 1 << bit
        if (mask >> bit) & 1:
            s += weights[bit]
        else:
            s -= weights[bit]
        yield mask, s


class SumTable(NamedTuple):
    """w(2^S) of a block S: sorted distinct sums, subsets per sum, smallest mask per sum."""

    sums: np.ndarray
    counts: np.ndarray
    masks: np.ndarray


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first entry of every run of equal values in a sorted array."""
    return np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))


def _check_table_bytes(rows: int, dtype) -> None:
    # the table: sums and masks (an object entry also holds its Python int) and
    # int64 counts; and the merge's peak on top of it: four more 8-byte arrays,
    # the sort order, the run starts, the rows they pick and the reordered masks
    width = 8 if dtype is np.int64 else 40
    if rows * (2 * width + 8 + 4 * 8) > memory_limit_bytes():
        raise CapacityError(f"a subset-sum table of {rows} rows exceeds the memory limit")


def _sum_table(weights: Sequence[int], indices: Sequence[int], dtype) -> SumTable:
    """w(2^S) for S = `indices`, masks in the original coordinates.

    The first _DENSE_BITS items are enumerated densely and sorted once; every
    further item i is merged in by one stable sort of [table, table + w_i].
    Each sort is followed by a run-length pass that folds equal sums into one
    row. Items go in ascending index order and the sort is stable, so the
    smaller mask leads each run and every sum keeps its smallest mask. The
    memory limit is checked before every doubling, against the merge's peak
    (56 bytes a row for int64, about 120 for Python ints). Arrays are rebound
    as soon as they are replaced, which keeps the peak memory down.
    """
    idx = sorted(indices)
    rest = iter(idx[_DENSE_BITS:])
    sums = _dense_sums([weights[i] for i in idx[:_DENSE_BITS]], dtype)
    counts = np.ones(sums.size, dtype=np.int64)
    masks = _dense_sums([1 << i for i in idx[:_DENSE_BITS]], dtype)
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
        _check_table_bytes(2 * sums.size, dtype)
        sums = np.concatenate([sums, sums + weights[i]])
        counts = np.concatenate([counts, counts])
        masks = np.concatenate([masks, masks | (1 << i)])


def _sorted_join(left_sums: np.ndarray, right_sums: np.ndarray, target: int):
    """Match right entries r against sorted distinct `left_sums` on target - r.

    Returns (how many right entries hit, the index of the first one, the
    index of the left sum it meets), with -1 for both indices when none hits.
    `target` must fit the arrays' dtype.
    """
    need = target - right_sums
    order = np.argsort(need)  # sorted needles keep the binary searches cache-friendly
    need = need[order]
    pos = np.searchsorted(left_sums, need)
    np.minimum(pos, left_sums.size - 1, out=pos)
    hits = order[left_sums[pos] == need]
    if hits.size == 0:
        return 0, -1, -1
    first = int(hits.min())
    return int(hits.size), first, int(np.searchsorted(left_sums, target - right_sums[first]))


def _block_table(instance: Instance, subset_mask: int | None = None) -> SumTable:
    """w(2^S) of the instance's block S (every item when None), within ENUM_LIMIT."""
    ws, smask = _subset_weights(instance, subset_mask)
    _check_enum_limit(len(ws))
    dtype = _table_dtype(ws, mask_bits=smask.bit_length())
    return _sum_table(instance.weights, mask_indices(smask), dtype)


def enumerate_histogram(instance: Instance, subset_mask: int | None = None) -> SumHistogram:
    """Exact histogram of w(2^S): every sum with its multiplicity; counts total 2^|S|."""
    table = _block_table(instance, subset_mask)
    smask = full_mask(instance.n) if subset_mask is None else subset_mask
    return SumHistogram(entries=dict(zip(table.sums.tolist(), table.counts.tolist())), subset=smask)


def max_bin(instance: Instance, subset_mask: int | None = None) -> int:
    """beta(w) over the subset: the largest number of subsets sharing one sum."""
    return int(_block_table(instance, subset_mask).counts.max())


def distinct_sums(instance: Instance, subset_mask: int | None = None) -> int:
    """|w(2^S)|; the table is deduplicated after every item, so work scales with the answer."""
    return int(_block_table(instance, subset_mask).sums.size)


def all_subset_sums(instance: Instance, subset_mask: int | None = None) -> np.ndarray:
    """Materialized sums for every mask (index = mask). Verification helper; 2^|S| memory."""
    ws, _ = _subset_weights(instance, subset_mask)
    _check_enum_limit(len(ws))
    if (1 << len(ws)) * 8 > memory_limit_bytes():
        raise CapacityError("materializing all subset sums exceeds the memory limit")
    return _dense_sums(ws, _table_dtype(ws))


def brute_solve(instance: Instance) -> SolverOutcome:
    """Reference solver: scan all 2^n subsets, return the smallest witness mask or none."""
    _check_enum_limit(instance.n)
    ws = list(instance.weights)
    t = instance.target
    cost = {"sums_enumerated": 0, "pairs_checked": 0, "dict_lookups": 0, "samples_drawn": 0}
    if t > sum(ws):
        return SolverOutcome(cost=cost)
    if _fits_int64(ws, t):
        b = min(len(ws), _BLOCK_BITS)
        for hm, base, low in _iter_blocks(ws):
            hits = np.flatnonzero(low == np.int64(t - base))
            if hits.size:
                mask = (hm << b) | int(hits[0])
                cost["sums_enumerated"] += int(hits[0]) + 1
                return verified_outcome(instance, mask, cost)
            cost["sums_enumerated"] += low.size
        return SolverOutcome(cost=cost)
    for mask, s in _iter_gray(ws):
        cost["sums_enumerated"] += 1
        if s == t:
            return verified_outcome(instance, mask, cost)
    return SolverOutcome(cost=cost)


def sumset_with_witness(weights: Sequence[int], indices: Sequence[int]):
    """Deduplicated sums over subsets of `indices` with the smallest witness mask per sum.

    Returns (sums, masks) sorted by sum; masks use the original coordinates.
    The dtype follows all of `weights` and their whole index range, so two
    calls on one weight list always return arrays of one dtype. Refused only
    when a table would exceed the memory limit.
    """
    dtype = _table_dtype(weights, mask_bits=len(weights))
    table = _sum_table(weights, indices, dtype)
    return table.sums, table.masks
