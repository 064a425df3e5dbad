"""Sum-structure verifiers: bin norms, uniquely-decodable code pairs, ternary kernels.

A pair (A, B) of binary-vector sets is uniquely decodable when all pairwise
sums over Z^n are distinct: |A + B| = |A| * |B|. Every instance yields such a
pair with |A| = |w(2^[n])| (one representative per distinct sum) and
|B| = beta(w) (the biggest bin), which ties the two statistics together.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .core import CapacityError, Instance, _wide_sum_bytes, check_bytes
from .oracle import _block_table, _run_starts, all_subset_sums

# a pair sum peaks at about 40 bytes in the last deduplication: five int64
# entries (the blocks' distinct sums, their concatenation, its sorted copy,
# the run starts and the sums they pick)
_UDCP_PAIR_BYTES = 40
# a {-1,0,1} vector of a ternary half, when every dot is distinct: its dot key, a
# Counter and the Counter's entry, measured with tracemalloc at 3^5-3^10 vectors of
# 64-bit weights: at most 331 bytes; wider dots add their extra size once
_TERNARY_VECTOR_BYTES = 336
_TERNARY_LIMIT = 20  # bounds the Python walk over 3^(n/2) vectors


@dataclass(frozen=True)
class UdcpPair:
    """Two sets of n-bit masks interpreted as 0/1 vectors in Z^n."""

    a_masks: tuple
    b_masks: tuple
    n: int

    def __post_init__(self):
        for m in self.a_masks + self.b_masks:
            if m < 0 or m >> self.n:
                raise ValueError("mask outside the declared dimension")
        if len(set(self.a_masks)) != len(self.a_masks) or len(set(self.b_masks)) != len(self.b_masks):
            raise ValueError("mask sets must not contain duplicates")


def _spread(masks: Sequence[int], n: int) -> np.ndarray:
    """0/1 vectors packed 2 bits per coordinate, so vector sums stay carry-free."""
    out = np.zeros(len(masks), dtype=np.int64)
    arr = np.asarray(masks, dtype=np.int64)
    for j in range(n):
        out |= ((arr >> j) & 1) << (2 * j)
    return out


def _distinct(values: np.ndarray) -> np.ndarray:
    values = np.sort(values)
    return values[_run_starts(values)]


def check_udcp(pair: UdcpPair) -> bool:
    """Whether |A + B| = |A| * |B| with componentwise integer sums in {0,1,2}^n."""
    na, nb = len(pair.a_masks), len(pair.b_masks)
    if na == 0 or nb == 0:
        raise ValueError("both sets must be non-empty")
    if 2 * pair.n > 62:
        raise CapacityError("dimension too large for packed coordinate sums")
    check_bytes(na * nb * _UDCP_PAIR_BYTES, f"|A|*|B| = {na * nb} pair sums")
    a = _spread(pair.a_masks, pair.n)
    b = _spread(pair.b_masks, pair.n)
    block = max(1, (1 << 22) // max(1, nb))
    parts = [_distinct((a[i : i + block, None] + b[None, :]).ravel()) for i in range(0, na, block)]
    return int(_distinct(np.concatenate(parts)).size) == na * nb



def udcp_from_instance(instance: Instance) -> UdcpPair:
    """Extract (A, B): lexicographically-smallest mask per distinct sum, and the
    modal bin's masks (smallest modal sum on ties). |A| = |w(2^[n])|, |B| = beta.
    """
    n = instance.n
    if n < 1:
        raise CapacityError("extraction needs n >= 1")
    table = _block_table(instance)
    # the mask tuple and the set that checks it, measured with tracemalloc at density 1,
    # n = 16-20: 117 bytes a row next to an int64 table; a Python-int one 152 and the widths
    # of two sums (the table's and the dense sums')
    row = 152 + 2 * _wide_sum_bytes(table.sums[-1]) if table.sums.dtype == object else 120
    check_bytes(table.sums.size * row, "the mask tuple")
    modal = table.sums[int(np.argmax(table.counts))]  # first maximum = smallest modal sum
    b_masks = np.flatnonzero(all_subset_sums(instance) == modal)  # index = mask
    return UdcpPair(
        a_masks=tuple(int(m) for m in table.masks), b_masks=tuple(int(m) for m in b_masks), n=n
    )


def bin_l2(instance: Instance, subset_mask: int | None = None) -> int:
    """Exact squared l2 norm of the bin histogram: sum over sums of count^2."""
    counts = _block_table(instance, subset_mask).counts
    if (instance.n if subset_mask is None else subset_mask.bit_count()) <= 31:
        return int(np.dot(counts, counts))  # at most 4^|S|, inside int64
    return sum(c * c for c in counts.tolist())  # exact in Python ints


def _ternary_half(weights: Sequence[int]) -> dict:
    """dot -> Counter(l1 -> count) over all {-1,0,1} assignments of `weights`."""
    table: dict = {}
    for vec in product((0, 1, -1), repeat=len(weights)):
        dot = 0
        l1 = 0
        for v, w in zip(vec, weights):
            if v:
                dot += v * w
                l1 += 1
        table.setdefault(dot, Counter())[l1] += 1
    return table


def zero_ternary_counts_by_l1(instance: Instance) -> list[int]:
    """counts[k] = #{y in {-1,0,1}^n : y.w = 0, ||y||_1 = k}, for every k at once.

    Half-split meet: 3^(n/2) enumeration per side instead of 3^n.
    """
    n = instance.n
    if n > _TERNARY_LIMIT:
        raise CapacityError(f"ternary kernel enumeration limited to n <= {_TERNARY_LIMIT}")
    h = n // 2
    vector_bytes = _TERNARY_VECTOR_BYTES + _wide_sum_bytes(instance.total())
    check_bytes((3 ** h + 3 ** (n - h)) * vector_bytes, "the two ternary halves")
    left = _ternary_half(instance.weights[:h])
    right = _ternary_half(instance.weights[h:])
    out = [0] * (n + 1)
    for dot_r, counter_r in right.items():
        counter_l = left.get(-dot_r)
        if counter_l is None:
            continue
        for l1_l, c_l in counter_l.items():
            for l1_r, c_r in counter_r.items():
                out[l1_l + l1_r] += c_l * c_r
    return out


def count_zero_ternary(instance: Instance, ell1: int) -> int:
    """#{y in {-1,0,1}^n : y.w = 0, ||y||_1 = ell1}; ell1 = 0 counts only y = 0."""
    if not 0 <= ell1 <= instance.n:
        raise ValueError("ell1 must lie in [0, n]")
    return zero_ternary_counts_by_l1(instance)[ell1]


def l2_identity_terms(instance: Instance) -> tuple[int, int]:
    """(bin_l2, sum over k of counts[k] * 2^(n-k)): the two sides of the norm identity."""
    counts = zero_ternary_counts_by_l1(instance)
    n = instance.n
    rhs = sum(c << (n - k) for k, c in enumerate(counts))
    return bin_l2(instance), rhs
