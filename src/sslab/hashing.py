"""Modular bit-length reduction: map huge weights to O(poly) bit residues.

w'_i = w_i mod p for a random prime p in [B log2 t, 2B log2 t], and
t' = (t mod p) + r*p with r uniform in {0..n-1}. Solutions survive with
probability 1/n over r; structure (distinct-sum count, bin sizes) survives
with constant probability over p once B is large enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Instance, RandomSource, check_bytes
from .numeric import random_prime
from .oracle import _dense_row_bytes, _run_starts, _sorted, all_subset_sums


class ReductionNotApplicable(RuntimeError):
    """Signal: target below 2n, pseudo-polynomial DP is already cheap."""


@dataclass(frozen=True)
class ReductionRecord:
    """One applied reduction: the reduced instance plus everything needed to replay it."""

    reduced: Instance
    B: int
    rounds: int
    chain: tuple     # ((p, r), ...) for every round, first to last


def output_bound(n: int, B: int) -> float:
    """Every reduced value is strictly below 4*n*B*log2(B)."""
    return 4.0 * n * B * math.log2(B)


def reduce_bitlength(instance: Instance, B: int, rng: RandomSource) -> ReductionRecord:
    """Apply the reduction, re-applying up to 3 extra times while the target
    is still >= 2*n*B*log2(B); hard failure if the output bound is not met.
    """
    n = instance.n
    if n < 1:
        raise ValueError("reduction needs at least one item")
    if B < 2:
        raise ValueError("B must be >= 2")
    if instance.target < max(2, 2 * n):
        raise ReductionNotApplicable("target below 2n: use the DP solver directly")
    retrigger = 2.0 * n * B * math.log2(B)
    cur = instance
    chain = []
    for _ in range(4):
        r_lo = max(3, math.ceil(B * math.log2(cur.target)))
        p = random_prime(r_lo, rng)
        shift = rng.randrange(n)
        cur = Instance(tuple(w % p for w in cur.weights), (cur.target % p) + shift * p)
        chain.append((p, shift))
        if cur.target < retrigger or cur.target < 2:
            break
    bound = output_bound(n, B)
    if any(w >= bound for w in cur.weights) or cur.target >= bound:
        raise RuntimeError(
            "bit-length reduction failed to reach its output bound after 4 rounds"
        )
    return ReductionRecord(
        reduced=cur, B=B, rounds=len(chain), chain=tuple(chain),
    )


@dataclass(frozen=True)
class ReductionReport:
    solutions_preserved: bool          # P2: {X: w(X)=t} == {X: w'(X)=t'}
    sums_preserved: bool               # P3: |sums|/2 <= |sums'| <= n*|sums|
    bins_preserved: bool | None        # P4: beta/n <= beta' <= beta; None unless B >= 5*|sums|^2
    distinct_original: int
    distinct_reduced: int
    max_bin_original: int
    max_bin_reduced: int


def _hits_and_bins(instance: Instance):
    """Which subsets reach the target (index = mask), the distinct count and beta, from one sort."""
    # beside its dense row a subset holds its hit, sorted sum (and list pointers with Python ints),
    # run compare and start: at most 14 bytes, 17 with Python ints (tracemalloc, n = 14-16)
    check_bytes((_dense_row_bytes(instance.weights) + 20) << instance.n, f"the sort of {1 << instance.n} dense sums")
    sums = all_subset_sums(instance)
    hits = sums == instance.target
    starts = _run_starts(_sorted(sums))
    del sums
    return hits, starts.size, int(np.diff(starts, append=hits.size).max())


def check_reduction_properties(original: Instance, record: ReductionRecord) -> ReductionReport:
    """Exhaustively compare solution sets, distinct-sum counts and bin sizes."""
    n = original.n
    reduced = record.reduced
    o_hits, o_distinct, o_beta = _hits_and_bins(original)
    r_hits, r_distinct, r_beta = _hits_and_bins(reduced)
    p2 = bool(np.array_equal(o_hits, r_hits))
    p3 = o_distinct <= 2 * r_distinct and r_distinct <= n * o_distinct
    p4 = None
    if record.B >= 5 * o_distinct * o_distinct:
        p4 = o_beta <= n * r_beta and r_beta <= o_beta
    return ReductionReport(
        solutions_preserved=p2,
        sums_preserved=p3,
        bins_preserved=p4,
        distinct_original=o_distinct,
        distinct_reduced=r_distinct,
        max_bin_original=o_beta,
        max_bin_reduced=r_beta,
    )
