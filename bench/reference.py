"""Reference answers computed apart from sslab, with numpy and the standard library only.

Nothing here imports sslab: the benchmark judges sslab's outputs against these.
"""

from __future__ import annotations

import math

import numpy as np

_INT64_SAFE = 1 << 62


def mask_total(weights, mask: int) -> int:
    """Exact sum of the items whose bits are set in `mask`."""
    return sum(w for i, w in enumerate(weights) if (mask >> i) & 1)


def subset_sums(weights) -> np.ndarray:
    """int64 array of all 2^k subset sums, indexed by mask."""
    if sum(weights) >= _INT64_SAFE:
        raise ValueError("subset sums exceed int64")
    sums = np.zeros(1 << len(weights), dtype=np.int64)
    size = 1
    for w in weights:
        np.add(sums[:size], w, out=sums[size : 2 * size])
        size *= 2
    return sums


def histogram_stats(weights) -> tuple[int, int]:
    """(beta, distinct): largest bin and number of distinct subset sums, by sort plus run length."""
    sums = subset_sums(weights)
    sums.sort()
    starts = np.flatnonzero(sums[1:] != sums[:-1]) + 1
    runs = np.diff(np.concatenate(([0], starts, [sums.size])))
    return int(runs.max()), int(runs.size)


def family_stats(family: str, n: int) -> tuple[int, int]:
    """Closed-form (beta, distinct) of the generator families."""
    if family == "equal":
        return math.comb(n, n // 2), n + 1
    if family == "geometric":
        return 2 ** (n // 2), 3 ** (n // 2)
    if family == "superinc":
        return 1, 2**n
    raise ValueError(f"no closed form for {family!r}")


class TwoListJoin:
    """Sorted two-list join over one weight vector; decides any target exactly.

    The right half is joined in chunks, so the reference's own memory stays
    well below that of the solvers it checks.
    """

    _CHUNK = 1 << 16

    def __init__(self, weights):
        k = (len(weights) + 1) // 2
        self.left = np.sort(subset_sums(weights[:k]))
        self.right = subset_sums(weights[k:])
        self.total = sum(weights)

    def has_solution(self, target: int) -> bool:
        if not 0 <= target <= self.total:
            return False
        for lo in range(0, self.right.size, self._CHUNK):
            need = np.int64(target) - self.right[lo : lo + self._CHUNK]
            pos = np.minimum(np.searchsorted(self.left, need), self.left.size - 1)
            if np.any(self.left[pos] == need):
                return True
        return False


def reachable_sums(weights) -> int:
    """Bitset DP for small weights: bit s is set iff some subset sums to s."""
    reach = 1
    for w in weights:
        reach |= reach << w
    return reach
