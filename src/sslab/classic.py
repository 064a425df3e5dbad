"""Baseline exact solvers and a uniform sampler over a modular residue class.

All solvers return SolverOutcome; a witness is always re-verified by exact
summation before it is reported.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Sequence

import numpy as np

from .core import (
    CLASSIC_COUNTERS,
    Instance,
    RandomSource,
    SolverOutcome,
    StepMeter,
    _wide_sum_bytes,
    check_bytes,
    mask_sum,
    verified_outcome,
)
from .numeric import random_prime
from .oracle import (
    _dense_sums,
    _join_bytes,
    _pair_windows,
    _sorted,
    _sorted_join,
    _sum_table,
    _table_dtype,
)


# ---------------------------------------------------------------------------
# pseudo-polynomial DP

def _dp_bytes(instance: Instance) -> int:
    """The peak that bellman_dp charges before it builds its first row."""
    t = instance.target
    # an int of bits 0..b takes b // 30 + 1 digits of 4 bytes after a 24-byte header. Snapshot
    # i reaches at most bit min(t, w_0 + ... + w_(i-1)), a weight above t adding nothing; while
    # the last item is added, the n snapshots before it are held with the window and three
    # full rows of temporaries: reach << w, of up to two rows, and its & window, of one
    tops = accumulate((w if w <= t else 0 for w in instance.weights[:-1]), initial=0)
    snapshots = sum(24 + 4 * (min(t, top) // 30 + 1) for top in tops)
    return snapshots + 4 * (24 + 4 * (t // 30 + 1))


def bellman_dp(instance: Instance) -> SolverOutcome:
    """Reachable-sum DP over [0, t] with per-item snapshots for witness walk-back.

    Exact; its n+1 snapshots are ints of up to t+1 bits, so the target must fit the memory cap.
    """
    n, t = instance.n, instance.target
    check_bytes(_dp_bytes(instance), f"the DP's {n + 1} snapshots of up to {t + 1} bits and their temporaries")
    window = (1 << (t + 1)) - 1
    reach = 1  # bit s set <=> sum s reachable
    snaps = [reach]
    for w in instance.weights:
        if w <= t:
            reach |= (reach << w) & window
        snaps.append(reach)
    meter = StepMeter(keys=CLASSIC_COUNTERS)
    meter.add(n * (t + 1), "sums_enumerated")
    if not (reach >> t) & 1:
        return SolverOutcome(cost=meter.cost)
    mask, s = 0, t
    for i in range(n, 0, -1):
        if (snaps[i - 1] >> s) & 1:
            continue  # reachable without item i-1
        mask |= 1 << (i - 1)
        s -= instance.weights[i - 1]
    return verified_outcome(instance, mask, meter.cost)


# ---------------------------------------------------------------------------
# meet in the middle

def _mim_bytes(instance: Instance) -> int:
    """The peak that meet_in_middle charges before it builds either half."""
    n, t = instance.n, instance.target
    k = (n + 1) // 2
    dtype = _table_dtype(instance.weights, t)
    # a row's peak in its own arrays: 16 bytes a left row (the dense left half and its sorted
    # copy) and 8 a right row (the dense right half); with Python ints of at most 70 bits, 57
    # and 49, plus the width of its sum; the join adds `_join_bytes`. Measured with
    # tracemalloc in a fresh process per case at n = 20-36 (int64) and 20-31 (63, 200 and
    # 1000 bits): at target + 1 of a planted instance a solve peaks at most at 0.96 of this
    # charge with int64 sums and 0.98, 0.90 and 0.72 with Python ints, and with all-equal
    # weights, where every right row meets, at 0.99, 0.99, 0.99 and 1.00
    wide = _wide_sum_bytes(max(instance.total(), t))
    left_row, right_row = (57 + wide, 49 + wide) if dtype is object else (16, 8)
    rows = (1 << k, 1 << (n - k))
    return rows[0] * left_row + rows[1] * right_row + _join_bytes(*rows, dtype, wide)


def meet_in_middle(instance: Instance) -> SolverOutcome:
    """Half-split join: 2*2^ceil(n/2) enumerated sums, smallest witness mask wins."""
    n, t = instance.n, instance.target
    k = (n + 1) // 2
    check_bytes(_mim_bytes(instance), f"the meet-in-the-middle join at n={n}")
    meter = StepMeter(keys=CLASSIC_COUNTERS)
    meter.add((1 << k) + (1 << (n - k)), "sums_enumerated")
    dtype = _table_dtype(instance.weights, t)
    left = _dense_sums(instance.weights[:k], dtype)  # index = left mask
    right = _dense_sums(instance.weights[k:], dtype)  # index = right mask
    hits, r_mask = _sorted_join(_sorted(left), right, t)
    meter.counters["dict_lookups"] = int(right.size)
    meter.counters["pairs_checked"] = hits
    if not hits:
        return SolverOutcome(cost=meter.cost)
    # the right mask holds the high bits, so the first right hit, with the smallest left
    # mask that meets it, gives the smallest witness
    l_mask = int(np.flatnonzero(left == t - right[r_mask])[0])
    return verified_outcome(instance, (r_mask << k) | l_mask, meter.cost)


# ---------------------------------------------------------------------------
# four-way split, windows of pair sums

def schroeppel_shamir(instance: Instance) -> SolverOutcome:
    """Same decision as meet_in_middle in O*(2^(n/2)) time and O*(2^(n/4)) memory, as
    Schroeppel and Shamir: `oracle._pair_windows` sweeps the pair sums a+b of quarters 1,
    2 in windows [lo, hi) of value from 0 up to t, and with them the (t-c)+(-d) of the
    reversed quarters 3, 4, so each window's a+b are joined to the c+d in (t-hi, t-lo] and
    every solution meets in exactly one window. A window holds at most `cap` rows a side.
    `sums_enumerated` = `steps` = quarter rows + pair rows built up to the hit;
    `peak_retained_sums` = quarter rows + the largest left and right windows held at once;
    `pairs_checked` = right rows hit. The witness need not be the smallest solution."""
    n, t = instance.n, instance.target
    sizes = [(n + 3 - k) // 4 for k in range(4)]  # quarter k holds items k, k+4, k+8, ...
    retain = math.floor(8 * 2 ** (n / 4))
    dtype = _table_dtype(instance.weights, t, mask_bits=n)
    # what a dense quarter row and a window row peak at, measured with tracemalloc at n >= 24;
    # with Python ints, plus the widths of the ints a row holds: one a quarter row (its sum;
    # quarters 3 and 4 also hold t minus theirs and their negation for the right side's
    # sweep), up to two a window row (a pair sum and, on the right, t minus it). A window row
    # covers its join's bitmap too: in a fresh process per case, at target + 1 of a planted
    # instance, a solve peaked at most at 0.80 of this charge with int64 sums and at 0.82,
    # 0.79 and 0.64 with 63, 200 and 1000-bit weights at n = 24-40, and at 0.72 with int64
    # sums at n = 44-52
    wide = _wide_sum_bytes(max(instance.total(), t))
    q_row, window_row = (144 + wide, 80 + 2 * wide) if dtype is object else (64, 40)
    charge = sum(1 << s for s in sizes) * q_row + max(retain // 2, 1 << sizes[0]) * 2 * window_row
    check_bytes(charge, f"the quarter tables and windows at n={n}")
    q1, q2, q3, q4 = (_sum_table(instance.weights, range(k, n, 4), dtype) for k in range(4))
    rows = q1.sums.size + q2.sums.size + q3.sums.size + q4.sums.size
    # a window gets half of what the quarters leave of 8 * 2^(n/4) rows, and at least a quarter
    cap = max((retain - rows) // 2, q1.sums.size, q2.sums.size, q3.sums.size, q4.sums.size)
    meter = StepMeter(keys=CLASSIC_COUNTERS)
    meter.add(rows, "sums_enumerated")
    peak = rows
    for (i, j), (k, m) in _pair_windows(((q1.sums, q2.sums), (t - q3.sums[::-1], -q4.sums[::-1])), t, cap):
        l_sums = q1.sums[i] + q2.sums[j]
        k, m = -1 - k[::-1], -1 - m[::-1]  # the rows of q3 and q4, c-row major as the left's
        r_sums = q3.sums[k] + q4.sums[m]
        meter.add(l_sums.size + r_sums.size, "sums_enumerated")
        peak = max(peak, rows + l_sums.size + r_sums.size)
        hits, r_row = _sorted_join(_sorted(l_sums), r_sums, t)
        if hits:
            meter.counters.update(peak_retained_sums=peak, pairs_checked=hits)
            l_row = np.flatnonzero(l_sums == t - r_sums[r_row])[0]
            mask = q1.masks[i[l_row]] | q2.masks[j[l_row]] | q3.masks[k[r_row]] | q4.masks[m[r_row]]
            return verified_outcome(instance, int(mask), meter.cost)
    meter.counters["peak_retained_sums"] = peak
    return SolverOutcome(cost=meter.cost)


# ---------------------------------------------------------------------------
# uniform sampling over a residue class

def residue_count_table(weights: Sequence[int], q: int) -> list[list[int]]:
    """rows[i][r] = exact count of subsets of the first i items with sum = r (mod q)."""
    n = len(weights)
    if q < 2:
        raise ValueError("modulus must be >= 2")
    # a row is a list: its header and, per cell, a slot and an int, measured with counts of
    # at most 70 bits; the counts reach 2^n
    check_bytes((n + 1) * (56 + q * (44 + _wide_sum_bytes(1 << n))), "the residue count table")
    row = [0] * q
    row[0] = 1
    rows = [row]
    for w in weights:
        shift = w % q
        prev = rows[-1]
        nxt = list(prev)
        for res in range(q):
            c = prev[res]
            if c:
                nxt[(res + shift) % q] += c
        rows.append(nxt)
    return rows


def sample_subset_in_class(
    rows: list[list[int]], weights: Sequence[int], q: int, residue: int, rng: RandomSource
) -> int:
    """Uniform subset mask among {X : w(X) = residue (mod q)}; exact-count backward walk."""
    n = len(weights)
    if rows[n][residue % q] == 0:
        raise ValueError("residue class is empty")
    res = residue % q
    mask = 0
    for i in range(n, 0, -1):
        c_total = rows[i][res]
        c_without = rows[i - 1][res]
        if rng.randrange(c_total) >= c_without:
            mask |= 1 << (i - 1)
            res = (res - weights[i - 1]) % q
    assert res == 0
    return mask


def modular_sampler(
    instance: Instance, sigma: float, rng: RandomSource, budget: int
) -> SolverOutcome:
    """Draw uniform subsets from the class w(X) = t (mod q), q a random prime
    with about (1-sigma)n/2 bits, until one exactly hits the target or the
    budget runs out. An empty class is an exact 'no'.
    """
    if not 0.0 <= sigma <= 1.0:
        raise ValueError("sigma must lie in [0, 1]")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    n, t = instance.n, instance.target
    bits = math.ceil((1.0 - sigma) * n / 2.0)
    q = random_prime(max(3, 1 << bits), rng)
    rows = residue_count_table(instance.weights, q)
    meter = StepMeter(keys=CLASSIC_COUNTERS)
    meter.add((n + 1) * q, "table_cells")
    if rows[n][t % q] == 0:
        return SolverOutcome(cost=meter.cost)  # no subset even matches mod q: exact no
    for _ in range(budget):
        meter.add(1, "samples_drawn")
        mask = sample_subset_in_class(rows, instance.weights, q, t % q, rng)
        if mask_sum(instance.weights, mask) == t:
            return verified_outcome(instance, mask, meter.cost)
    return SolverOutcome(cost=meter.cost, exhausted=True)
