"""Baseline exact solvers and a uniform sampler over a modular residue class.

All solvers return SolverOutcome; a witness is always re-verified by exact
summation before it is reported.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .core import (
    CLASSIC_COUNTERS,
    CapacityError,
    Instance,
    RandomSource,
    SolverOutcome,
    StepMeter,
    mask_sum,
    memory_limit_bytes,
    verified_outcome,
)
from .numeric import is_prime, random_prime
from .oracle import ENUM_LIMIT, SumTable, _dense_sums, _sorted_join, _sum_table, _table_dtype


# ---------------------------------------------------------------------------
# pseudo-polynomial DP

def bellman_dp(instance: Instance) -> SolverOutcome:
    """Reachable-sum DP over [0, t] with per-item snapshots for witness walk-back.

    Exact; table is (n+1) x (t+1) bits, so the target must fit the memory cap.
    """
    n, t = instance.n, instance.target
    if (n + 1) * (t + 1) // 8 > memory_limit_bytes():
        raise CapacityError("DP table (n+1) x (t+1) bits exceeds the memory limit")
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

def meet_in_middle(instance: Instance) -> SolverOutcome:
    """Half-split join: 2*2^ceil(n/2) enumerated sums, smallest witness mask wins."""
    n, t = instance.n, instance.target
    if n > 2 * ENUM_LIMIT:
        raise CapacityError(f"n={n} exceeds the half-enumeration limit of {2 * ENUM_LIMIT}")
    k = (n + 1) // 2
    meter = StepMeter(keys=CLASSIC_COUNTERS)
    meter.add((1 << k) + (1 << (n - k)), "sums_enumerated")
    dtype = _table_dtype(instance.weights, t, mask_bits=n)
    left = _sum_table(instance.weights, range(k), dtype)
    # the dense right half and the join's arrays peak at 41 bytes a right row
    # (about 120 with Python ints), next to the left table's 24 (88) bytes a row
    wide = dtype is object
    peak = (1 << (n - k)) * (120 if wide else 41) + left.sums.size * (88 if wide else 24)
    if peak > memory_limit_bytes():
        raise CapacityError(f"the meet-in-the-middle join at n={n} exceeds the memory limit")
    right = _dense_sums(instance.weights[k:], dtype)  # index = right mask
    hits, r_mask, l_row = _sorted_join(left.sums, right, t)
    meter.counters["dict_lookups"] = int(right.size)
    meter.counters["pairs_checked"] = hits
    if not hits:
        return SolverOutcome(cost=meter.cost)
    # the right mask holds the high bits, so the first right hit gives the smallest witness
    return verified_outcome(instance, (r_mask << k) | int(left.masks[l_row]), meter.cost)


# ---------------------------------------------------------------------------
# four-way split, modular chunks of pair sums

def _pair_side(a: SumTable, b: SumTable, a_key, b_key, modulus: int) -> tuple:
    """Pairs (a-row, b-row) keyed by (a_key + b_key) mod M: (a, b in key order, a's keys,
    bound), bound[x] = #b-keys < x with b's keys listed twice, then plus M, so ranges wrap."""
    b_key = (b_key % modulus).astype(np.int64)
    order = np.argsort(b_key, kind="stable")
    doubled = np.concatenate([b_key[order], b_key[order] + modulus])
    bound = np.searchsorted(doubled, np.arange(2 * modulus))
    return a, SumTable(*(col[order] for col in b)), (a_key % modulus).astype(np.int64), bound


def _pair_runs(side: tuple, modulus: int, lo: int, hi: int) -> np.ndarray:
    """Per a-row, the run [start, stop) of doubled b-rows whose pair key lies in [lo, hi)."""
    low = (lo - side[2]) % modulus
    return side[3][np.stack([low, low + (hi - lo)])]


def _pair_rows(side: tuple, runs: np.ndarray, r0: int, r1: int):
    """Rows r0..r1-1 of the pairs in `runs`, a-row major: (sums, masks)."""
    width = runs[1] - runs[0]
    begin = np.cumsum(width) - width
    counts = np.minimum(np.maximum(begin + width, r0), r1) - np.minimum(np.maximum(begin, r0), r1)
    i = np.repeat(np.arange(width.size), counts)
    j = (np.arange(r0, r1) + np.repeat(runs[0] - begin, counts)) % side[1].sums.size
    return side[0].sums[i] + side[1].sums[j], side[0].masks[i] | side[1].masks[j]


def schroeppel_shamir(instance: Instance) -> SolverOutcome:
    """Same decision as meet_in_middle in O*(2^(n/2)) time and O*(2^(n/4)) memory: the modular
    join of Howgrave-Graham and Joux. With M the first prime >= 2^ceil(n/4), each range of
    residues joins the pair sums a+b of quarters 1, 2 with (a+b) mod M in it to the c+d of
    quarters 3, 4 with (t-c-d) mod M in it, in pieces of at most `cap` rows a side, one of
    each held at a time. `sums_enumerated` = `steps` = quarter rows + pair rows built up to
    the hit; `peak_retained_sums` = quarter rows + the largest left and right pieces held at
    once; `pairs_checked` = right rows hit. The witness need not be the smallest solution."""
    n, t = instance.n, instance.target
    if n > 4 * ENUM_LIMIT:
        raise CapacityError(f"n={n} exceeds the quarter-enumeration limit of {4 * ENUM_LIMIT}")
    sizes = [(n + 3 - k) // 4 for k in range(4)]  # quarter k holds items k, k+4, k+8, ...
    retain = math.floor(8 * 2 ** (n / 4))
    dtype = _table_dtype(instance.weights, t, mask_bits=n)
    # what a dense quarter row and a piece row peak at, measured with tracemalloc at n >= 24
    q_row, piece_row = (144, 80) if dtype is object else (64, 40)
    charge = sum(1 << s for s in sizes) * q_row + max(retain // 2, 1 << sizes[0]) * 2 * piece_row
    if charge > memory_limit_bytes():
        raise CapacityError(f"the quarter tables and pieces at n={n} exceed the memory limit")
    q1, q2, q3, q4 = (_sum_table(instance.weights, range(k, n, 4), dtype) for k in range(4))
    rows = q1.sums.size + q2.sums.size + q3.sums.size + q4.sums.size
    # a piece gets half of what the quarters leave of 8 * 2^(n/4) rows, and at least a quarter
    cap = max((retain - rows) // 2, q1.sums.size, q2.sums.size, q3.sums.size, q4.sums.size)
    meter = StepMeter(keys=CLASSIC_COUNTERS)
    meter.add(rows, "sums_enumerated")
    modulus = next(p for p in itertools.count(max(2, 1 << -(-n // 4))) if is_prime(p))
    left = _pair_side(q1, q2, q1.sums, q2.sums, modulus)
    right = _pair_side(q3, q4, t - q3.sums, -q4.sums, modulus)
    width = max(1, cap * modulus // max(q1.sums.size * q2.sums.size, q3.sums.size * q4.sums.size))
    ranges = [(lo, min(lo + width, modulus)) for lo in range(0, modulus, width)]
    peak = rows
    while ranges:
        lo, hi = ranges.pop()
        l_runs, r_runs = _pair_runs(left, modulus, lo, hi), _pair_runs(right, modulus, lo, hi)
        n_l, n_r = int(np.sum(l_runs[1] - l_runs[0])), int(np.sum(r_runs[1] - r_runs[0]))
        if n_l and n_r and max(n_l, n_r) > cap and hi - lo > 1:
            ranges += [(lo, (lo + hi) // 2), ((lo + hi) // 2, hi)]
            continue
        for l0 in range(0, n_l if n_r else 0, cap):
            l_sums, l_masks = _pair_rows(left, l_runs, l0, min(l0 + cap, n_l))
            meter.add(l_sums.size, "sums_enumerated")
            order = np.argsort(l_sums)
            l_sums, l_masks = l_sums[order], l_masks[order]
            for r0 in range(0, n_r, cap):
                r_sums, r_masks = _pair_rows(right, r_runs, r0, min(r0 + cap, n_r))
                meter.add(r_sums.size, "sums_enumerated")
                peak = max(peak, rows + l_sums.size + r_sums.size)
                hits, r_row, l_row = _sorted_join(l_sums, r_sums, t)
                if hits:
                    meter.counters.update(peak_retained_sums=peak, pairs_checked=hits)
                    mask = int(l_masks[l_row]) | int(r_masks[r_row])
                    return verified_outcome(instance, mask, meter.cost)
    meter.counters["peak_retained_sums"] = peak
    return SolverOutcome(cost=meter.cost)


# ---------------------------------------------------------------------------
# uniform sampling over a residue class

def residue_count_table(weights: Sequence[int], q: int) -> list[list[int]]:
    """rows[i][r] = exact count of subsets of the first i items with sum = r (mod q)."""
    n = len(weights)
    if q < 2:
        raise ValueError("modulus must be >= 2")
    if q * (n + 1) * 32 > memory_limit_bytes():
        raise CapacityError("residue count table exceeds the memory limit")
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
