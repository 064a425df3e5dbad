"""Sum-structure verifiers: bin norms, uniquely-decodable code pairs, ternary kernels.

A pair (A, B) of binary-vector sets is uniquely decodable when all pairwise
sums over Z^n are distinct: |A + B| = |A| * |B|. Every instance yields such a
pair with |A| = |w(2^[n])| (one representative per distinct sum) and
|B| = beta(w) (the biggest bin), which ties the two statistics together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Instance, _wide_sum_bytes, check_bytes
from .oracle import (
    _FIXED_BYTES,
    _bin_stats,
    _dense_row_bytes,
    _dense_sums,
    _run_rows,
    _run_starts,
    _table_dtype,
    all_subset_sums,
)


@dataclass(frozen=True, eq=False)
class UdcpPair:
    """Two sets of n-bit masks interpreted as 0/1 vectors in Z^n, each a 1-D array of
    int64 up to n = 62 and of Python ints past that (one already so is kept as it is)."""

    a_masks: np.ndarray
    b_masks: np.ndarray
    n: int

    def __post_init__(self):
        for name in ("a_masks", "b_masks"):
            try:  # a Python int past int64 is past bit 62 as well
                masks = np.asarray(getattr(self, name), dtype=_table_dtype((), mask_bits=self.n))
                if masks.size and (masks.min() < 0 or masks.max() >> self.n):
                    raise OverflowError
            except OverflowError:
                raise ValueError("mask outside the declared dimension") from None
            ordered = np.sort(masks)  # a sorted copy and one compare: 9 bytes a mask with int64
            if np.any(ordered[1:] == ordered[:-1]):
                raise ValueError("mask sets must not contain duplicates")
            object.__setattr__(self, name, masks)


def _spread(masks: np.ndarray, n: int, dtype) -> np.ndarray:
    """0/1 vectors read as base-3 numbers, so that the sum of two stays carry-free."""
    masks = masks.astype(dtype, copy=False)
    out = np.zeros(masks.size, dtype=dtype)
    for j in range(n):
        out += ((masks >> j) & 1) * 3 ** j
    return out


def check_udcp(pair: UdcpPair) -> bool:
    """Whether |A + B| = |A| * |B| with componentwise integer sums in {0,1,2}^n, each
    read as a base-3 number."""
    na, nb = pair.a_masks.size, pair.b_masks.size
    if na == 0 or nb == 0:
        raise ValueError("both sets must be non-empty")
    dtype = _table_dtype((), 3 ** pair.n)  # int64 up to n = 39, Python ints past that
    # a pair sum peaks at 9 bytes with int64 (the sum, sorted in place, and its compare with the
    # next), a row of A or B at 24 while spread; with Python ints at 49 and 107, charged 52 and
    # 112 plus the width of each sum they hold (tracemalloc, fresh process, n = 24-1000), plus
    # numpy's add buffers, two operands of up to np.getbufsize() sums, and 8 KB of fixed costs
    wide = _wide_sum_bytes(3 ** pair.n)
    pair_bytes, row_bytes = (9, 24) if dtype is np.int64 else (52 + wide, 112 + 2 * wide)
    buffers = 16 * min(na * nb, np.getbufsize())
    check_bytes(_FIXED_BYTES + buffers + na * nb * pair_bytes + (na + nb) * row_bytes, f"|A|*|B| = {na * nb} pair sums")
    sums = np.add.outer(*(_spread(masks, pair.n, dtype) for masks in (pair.a_masks, pair.b_masks))).ravel()
    sums.sort()  # in place: the pair sums are never held twice
    return not np.any(sums[1:] == sums[:-1])


def udcp_from_instance(instance: Instance) -> UdcpPair:
    """Extract (A, B) from one sort of the 2^n dense sums, whose runs are the bins: A holds
    each run's smallest mask, in sum order, and B the masks of the first longest run (the
    smallest modal sum), ascending. |A| = |w(2^[n])|, |B| = beta."""
    n = instance.n
    if n < 1:
        raise ValueError("extraction needs n >= 1")
    # beside its dense row a subset holds its order, sorted sum (a pointer with Python ints) and run
    # compare, later B's masks and UdcpPair's copies: at most 18 bytes; then the order stays and a
    # bin holds its start, its length (and np.diff's copy) and A's mask, 24 (tracemalloc, n = 14-16)
    check_bytes((_dense_row_bytes(instance.weights) + 18) << n, f"the sort of {1 << n} dense sums")
    sums = all_subset_sums(instance)
    order = np.argsort(sums)  # index = mask
    sums = sums[order]
    starts = _run_starts(sums)
    del sums
    check_bytes(_FIXED_BYTES + (8 << n) + 24 * starts.size, f"the masks of {starts.size} bins")
    runs = np.diff(starts, append=order.size)
    first = int(np.argmax(runs))  # first maximum = smallest modal sum
    b_masks = np.sort(order[starts[first] : starts[first] + runs[first]])
    del runs
    a_masks = np.minimum.reduceat(order, starts)
    del order, starts
    return UdcpPair(a_masks, b_masks, n)


def bin_l2(instance: Instance, subset_mask: int | None = None) -> int:
    """Exact squared l2 norm of the bin histogram: sum over sums of count^2."""
    return _bin_stats(instance, subset_mask)[2]


def _ternary_half(scaled: Sequence[int], dtype) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct keys dot * (n + 1) + l1 over all {-1,0,1} vectors y of a half,
    where `scaled` holds its weights times n + 1, and how many vectors have each key."""
    keys = _dense_sums(scaled, dtype, (1, -1))
    keys += _dense_sums([1] * len(scaled), np.int64, (1, 1))  # each vector's l1, at its index
    keys.sort()
    starts = _run_starts(keys)
    return keys[starts], np.append(starts[1:], keys.size) - starts


def zero_ternary_counts_by_l1(instance: Instance) -> list[int]:
    """counts[k] = #{y in {-1,0,1}^n : y.w = 0, ||y||_1 = k}, for every k at once.

    Half-split meet: 3^(n/2) vectors a side, each keyed by dot * (n + 1) + l1.
    As 0 <= l1 <= n, a left and a right key add up to k in [0, n] exactly when
    their dots cancel and their l1s add up to k. So the right keys a left key l
    meets are one run of the sorted right keys, those in [-l, n - l].
    """
    n = instance.n
    h = n // 2
    scaled = [w * (n + 1) for w in instance.weights]
    dtype = _table_dtype(scaled)
    # a vector's peak, measured with tracemalloc at n = 13-20: at most 42 bytes with int64
    # keys; with Python ints (fresh process, n = 13-18, weights near 2^63, 2^200, 2^1000 and
    # 2^3000) at most 87 and one and a half widths: every vector's key, and a left vector's
    # end of its run, -l or n - l, made one at a time; the left half is at most half of them
    vector_bytes = 42 if dtype is np.int64 else 88 + 3 * _wide_sum_bytes(sum(scaled) + n) // 2
    halves = (3 ** h + 3 ** (n - h)) * vector_bytes
    check_bytes(halves, "the two ternary halves")
    l_keys, l_counts = _ternary_half(scaled[:h], dtype)
    r_keys, r_counts = _ternary_half(scaled[h:], dtype)
    start = np.searchsorted(r_keys, -l_keys)
    stop = np.searchsorted(r_keys, n - l_keys, "right")
    pairs = int(np.sum(stop - start))
    # a pair that meets peaks at 47 bytes, measured with tracemalloc at n = 20-22 with int64
    # and Python-int keys: its two rows, their keys (the sum is at most n), k and a product
    check_bytes(halves + pairs * 48, f"the two ternary halves and their {pairs} pairs")
    l_rows, r_rows = _run_rows(start, stop)
    del start, stop
    count_dtype = _table_dtype((), 3 ** n)  # no count exceeds 3^n
    out = np.zeros(n + 1, dtype=count_dtype)
    k = (l_keys[l_rows] + r_keys[r_rows]).astype(np.int64)
    np.add.at(out, k, l_counts[l_rows].astype(count_dtype) * r_counts[r_rows])
    return out.tolist()


def ternary_expansion(instance: Instance) -> int:
    """sum over k of counts[k] * 2^(n-k), counts = zero_ternary_counts_by_l1: the side of
    the norm identity that equals bin_l2 without reading the bins."""
    return sum(c << (instance.n - k) for k, c in enumerate(zero_ternary_counts_by_l1(instance)))


def l2_identity_terms(instance: Instance) -> tuple[int, int]:
    """(bin_l2, ternary_expansion): the two sides of the norm identity."""
    rhs = ternary_expansion(instance)
    return bin_l2(instance), rhs
