"""Baseline exact solvers and a uniform sampler over a modular residue class.

All solvers return SolverOutcome; a witness is always re-verified by exact
summation before it is reported.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

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
from .numeric import random_prime
from .oracle import ENUM_LIMIT, _dense_sums, _sorted_join, _sum_table, _table_dtype


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
# four-way split, priority-queue merged half-sum streams

class _HalfStream:
    """Merged stream of a+b over two quarter lists, nondecreasing (sign=+1) or nonincreasing."""

    def __init__(self, qa: list, qb: list, sign: int):
        self.sign = sign
        self.qa = qa
        self.qb = sorted(qb, key=lambda e: (sign * e[0], e[1]))
        self.heap = [(sign * (sa + self.qb[0][0]), ia, 0) for ia, (sa, _) in enumerate(qa)]
        heapq.heapify(self.heap)
        self.prev = None
        self.pops = 0

    def __len__(self):
        return len(self.heap)

    def pop_group(self):
        """All entries sharing the next sum value: (value, [masks]) or None when drained."""
        if not self.heap:
            return None
        key = self.heap[0][0]
        value = self.sign * key
        if self.prev is not None:
            assert self.sign * (value - self.prev) >= 0, "merged stream out of order"
        self.prev = value
        masks = []
        while self.heap and self.heap[0][0] == key:
            _, ia, ib = heapq.heappop(self.heap)
            self.pops += 1
            masks.append(self.qa[ia][1] | self.qb[ib][1])
            if ib + 1 < len(self.qb):
                heapq.heappush(self.heap, (self.sign * (self.qa[ia][0] + self.qb[ib + 1][0]), ia, ib + 1))
        return value, masks


def schroeppel_shamir(instance: Instance) -> SolverOutcome:
    """Same decision as meet_in_middle in O*(2^(n/2)) time but only O*(2^(n/4)) sums retained.

    Quarter sum lists feed two heap-merged streams: left half ascending, right
    half descending; the join walks them toward the target.
    """
    n, t = instance.n, instance.target
    if n > 4 * ENUM_LIMIT:
        raise CapacityError(f"n={n} exceeds the quarter-enumeration limit of {4 * ENUM_LIMIT}")
    q, r = divmod(n, 4)
    sizes = [q + (1 if i < r else 0) for i in range(4)]
    bounds = [0]
    for sz in sizes:
        bounds.append(bounds[-1] + sz)
    # quarter lists of (sum, mask) tuples and the two heaps: about 140 bytes a quarter row
    if sum(1 << sz for sz in sizes) * 140 > memory_limit_bytes():
        raise CapacityError(f"the quarter lists at n={n} exceed the memory limit")
    dtype = _table_dtype(instance.weights)
    quarters = [  # (sum, mask) for every subset of items lo..hi-1, in mask order
        [(s, m << lo) for m, s in enumerate(_dense_sums(instance.weights[lo:hi], dtype).tolist())]
        for lo, hi in zip(bounds, bounds[1:])
    ]
    retained_base = sum(len(qt) for qt in quarters)
    meter = StepMeter(keys=CLASSIC_COUNTERS)
    meter.add(retained_base, "sums_enumerated")
    left = _HalfStream(quarters[0], quarters[1], +1)
    right = _HalfStream(quarters[2], quarters[3], -1)
    peak = retained_base + len(left) + len(right)
    lg = left.pop_group()
    rg = right.pop_group()
    while lg is not None and rg is not None:
        peak = max(peak, retained_base + len(left) + len(right) + len(lg[1]) + len(rg[1]))
        total = lg[0] + rg[0]
        if total < t:
            lg = left.pop_group()
        elif total > t:
            rg = right.pop_group()
        else:
            break
    meter.add(left.pops + right.pops, "sums_enumerated")
    meter.counters["peak_retained_sums"] = peak
    if lg is None or rg is None:
        return SolverOutcome(cost=meter.cost)
    meter.counters["pairs_checked"] = 1
    mask = min(lg[1]) | min(rg[1])  # disjoint bit ranges: minimum combines per side
    return verified_outcome(instance, mask, meter.cost)


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
