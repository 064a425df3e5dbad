"""Representation-technique solvers driven by the structure of a chosen block M.

Sum-rich M (many distinct sums): split the solution's M-part between two
modularly filtered lists so each candidate is found many times, and filter
with a random prime whose size matches the surplus of representations.
Sum-poor M (few distinct sums): both join halves have small deduplicated
sum sets, so an exact sorted join is already cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .core import (
    BudgetExhausted,
    CapacityError,
    Instance,
    RandomSource,
    SolverOutcome,
    StepMeter,
    full_mask,
    mask_indices,
    mask_sum,
    memory_limit_bytes,
    verified_outcome,
)
from .numeric import h2, random_prime
from .oracle import _sorted_join, distinct_sums, sumset_with_witness

_ITER_WORK_CAP = 1 << 26  # per-iteration enumeration guard


@dataclass(frozen=True)
class ReprParams:
    """Derived parameters for one filtered-join iteration."""

    n: int
    m_mask: int
    mu: float
    gamma: float
    s: int
    s1: int
    s2: int
    sigma: float
    sigma1: float
    sigma2: float
    pi: float
    lam: float
    left_mask: int
    right_mask: int
    p: int
    t_l: int
    clamped_prime: bool
    clamped_left: bool


def _ceil_frac(x: float) -> int:
    return math.ceil(x - 1e-9)


def _split_fields(n: int, m_mask: int, gamma: float, s: int, s1: int) -> dict:
    """The fields of ReprParams that do not depend on (p, t_L), validated."""
    m = m_mask.bit_count()
    if m < 1 or 2 * m > n:
        raise ValueError("need 1 <= |M| <= n/2")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    if not math.ceil(m / 2) <= s <= m:
        raise ValueError("s must lie in [ceil(|M|/2), |M|]")
    s2 = s - s1
    if s1 < 0 or s1 > s2:
        raise ValueError("need 0 <= s1 <= s - s1")
    mu = m / n
    sigma, sigma1, sigma2 = s / m, s1 / m, s2 / m
    pi = gamma - 1.0 + sigma
    lam = (1.0 - mu) / 2.0 + (h2(sigma / 2.0) - h2(sigma1)) * mu
    rest = [i for i in range(n) if not (m_mask >> i) & 1]
    ell = _ceil_frac(lam * n)
    clamped_left = not 0 <= ell <= len(rest)
    ell = min(max(ell, 0), len(rest))
    return dict(
        n=n, m_mask=m_mask, mu=mu, gamma=gamma, s=s, s1=s1, s2=s2,
        sigma=sigma, sigma1=sigma1, sigma2=sigma2, pi=pi, lam=lam,
        left_mask=sum(1 << i for i in rest[:ell]), right_mask=sum(1 << i for i in rest[ell:]),
        clamped_left=clamped_left,
    )


def _draw_modulus(pi: float, m: int, rng: RandomSource) -> tuple[int, int, bool]:
    """(p, t_L, clamped_prime): a random prime p from [2^(pi m), 2^(pi m + 1)],
    raised to at least 3, and a uniform residue t_L mod p."""
    low = 2.0 ** (pi * m)
    p = random_prime(max(3, math.ceil(low)), rng)
    return p, rng.randrange(p), low < 3.0


def derive_params(
    n: int,
    m_mask: int,
    gamma: float,
    s: int,
    s1: int,
    rng: RandomSource | None = None,
    modulus: tuple[int, int] | None = None,
) -> ReprParams:
    """Compute (sigma, pi, lambda, L/R split, prime filter) for one (s, s1) pair.

    One (target, s) attempt draws the prime and residue once and shares them
    among its s1 iterations; pass them back via `modulus` for another s1.
    """
    fields = _split_fields(n, m_mask, gamma, s, s1)
    if modulus is not None:
        (p, t_l), clamped_prime = modulus, False
    elif rng is None:
        raise ValueError("either rng or modulus is required")
    else:
        p, t_l, clamped_prime = _draw_modulus(fields["pi"], m_mask.bit_count(), rng)
    return ReprParams(**fields, p=p, t_l=t_l, clamped_prime=clamped_prime)


def _enumerate_side(weights, indices) -> list[tuple[int, int]]:
    out = [(0, 0)]
    for i in indices:
        w = weights[i]
        bit = 1 << i
        out += [(m | bit, s + w) for m, s in out]
    return out


def _check_work_cap(side: tuple, n_combos: int, dict_size: int, p: int) -> None:
    est_out = ((1 << len(side)) * n_combos) // p  # expected survivors of the residue filter
    if (1 << dict_size) + (1 << (len(side) - dict_size)) * n_combos + est_out > _ITER_WORK_CAP:
        raise CapacityError("filtered-list enumeration exceeds the per-iteration work cap")


def _side_table(weights, side: tuple, m_indices, s_i: int, dict_size: int) -> tuple:
    """The (p, t_L)-independent part of a filtered list: the dictionary half's
    (mask, sum) entries, the scan half's size, C(|M|, s_i), and the (mask, sum)
    entries of (rest of side) x (s_i-subsets of M), scan outer."""
    scan = _enumerate_side(weights, side[dict_size:])
    combos = [(sum(1 << i for i in c), sum(weights[i] for i in c))
              for c in combinations(m_indices, s_i)]
    product = [(y_mask | c_mask, y_sum + c_sum) for y_mask, y_sum in scan for c_mask, c_sum in combos]
    return _enumerate_side(weights, side[:dict_size]), len(scan), len(combos), product


def _filter(table: tuple, p: int, residue: int, meter: StepMeter | None) -> list[tuple[int, int]]:
    """Each product entry of `table` joined with each dictionary entry that
    completes it to `residue` mod p, in product order, then dictionary order.
    The meter is charged as if the enumerations were made here."""
    dict_items, n_scan, n_combos, product = table
    if meter:
        meter.add(len(dict_items))
        meter.add(n_scan)
        meter.add(n_combos)
    buckets: dict[int, list[tuple[int, int]]] = {}
    for entry in dict_items:
        buckets.setdefault(entry[1] % p, []).append(entry)
    get = buckets.get
    out = []
    for y_mask, y_sum in product:
        hits = get((residue - y_sum) % p)
        if hits:
            for d_mask, d_sum in hits:
                out.append((y_mask | d_mask, y_sum + d_sum))
    if meter:
        meter.add(n_scan * n_combos + len(out))
    return out


def build_filtered_list(
    instance: Instance,
    side_mask: int,
    m_mask: int,
    s_i: int,
    p: int,
    residue: int,
    dict_size: int | None = None,
    meter: StepMeter | None = None,
) -> list[tuple[int, int]]:
    """All (mask, sum) with mask in 2^(side u M), sum = residue (mod p), |mask n M| = s_i.

    Split-enumeration: a dictionary over subsets of the first `dict_size` side
    items keyed by residue, joined against (rest of side) x (s_i-subsets of M).
    Exact regardless of the split; `dict_size` only balances the two halves.
    """
    if side_mask & m_mask:
        raise ValueError("side set and M must be disjoint")
    side = tuple(mask_indices(side_mask))
    m_indices = mask_indices(m_mask)
    if not 0 <= s_i <= len(m_indices):
        raise ValueError("s_i must lie in [0, |M|]")
    if p < 2:
        raise ValueError("filter modulus must be >= 2")
    n_combos = math.comb(len(m_indices), s_i)
    if dict_size is None:
        dict_size = round((len(side) + math.log2(max(1, n_combos))) / 2.0)
    dict_size = min(max(dict_size, 0), len(side))
    _check_work_cap(side, n_combos, dict_size, p)
    table = _side_table(instance.weights, side, m_indices, s_i, dict_size)
    return _filter(table, p, residue % p, meter)


class _AttemptTables:
    """What all attempts on one (instance, M, gamma) share, built on first use:
    each (s, s1) split, and the enumerations behind each filtered list. The
    enumerations are kept while they fit in about SSLAB_MEM_LIMIT_MB, and are
    rebuilt on every use beyond that."""

    def __init__(self, instance: Instance, m_mask: int, gamma: float):
        self.instance, self.m_mask, self.gamma = instance, m_mask, gamma
        self.m_indices = mask_indices(m_mask)
        self._splits: dict = {}
        self._tables: dict = {}
        self._room = memory_limit_bytes() // 128  # a kept (mask, sum) entry takes about 128 B

    def split(self, s: int, s1: int) -> tuple:
        """(pi, clamped_left, left list, right list) of the (s, s1) split, where
        a list is (side items, s_i, C(|M|, s_i), dictionary size)."""
        if (s, s1) not in self._splits:
            n = self.instance.n
            f = _split_fields(n, self.m_mask, self.gamma, s, s1)
            # dictionary halves sized by lambda_1 = (lambda_side + h(sigma/2) mu)/2
            ent = h2(f["sigma"] / 2.0) * f["mu"]
            lists = []
            for side_mask, s_i in ((f["left_mask"], s1), (f["right_mask"], f["s2"])):
                side = tuple(mask_indices(side_mask))
                dict_size = min(max(math.floor((len(side) / n + ent) / 2.0 * n), 0), len(side))
                lists.append((side, s_i, math.comb(len(self.m_indices), s_i), dict_size))
            self._splits[s, s1] = (f["pi"], f["clamped_left"], *lists)
        return self._splits[s, s1]

    def filtered(self, shape: tuple, p: int, residue: int,
                 meter: StepMeter | None) -> list[tuple[int, int]]:
        """build_filtered_list for a list of `split`, on the kept enumerations."""
        side, s_i, n_combos, dict_size = shape
        _check_work_cap(side, n_combos, dict_size, p)
        table = self._tables.get(shape)
        if table is None:
            table = _side_table(self.instance.weights, side, self.m_indices, s_i, dict_size)
            entries = len(table[0]) + len(table[3])
            if entries <= self._room:
                self._room -= entries
                self._tables[shape] = table
        return _filter(table, p, residue, meter)


def representation_attempt(
    instance: Instance,
    m_mask: int,
    gamma: float,
    s: int,
    target: int,
    rng: RandomSource,
    meter: StepMeter | None = None,
    records: list | None = None,
    tables: _AttemptTables | None = None,
):
    """One full filtered-join attempt at `target`: fresh (p, t_L), all s1 splits.

    Returns a mask with w(mask) = target, or None. Iterations whose enumeration
    would blow the work cap are skipped and recorded, not fatal. `tables`
    carries the (p, t_L)-independent enumerations from one attempt of a solve
    to the next; without it the attempt builds its own.
    """
    if tables is None:
        tables = _AttemptTables(instance, m_mask, gamma)
    ws = instance.weights
    p, t_l, clamped_prime = _draw_modulus(tables.split(s, 0)[0], len(tables.m_indices), rng)
    for s1 in range(0, s // 2 + 1):
        _, clamped_left, left, right = tables.split(s, s1)
        rec = {
            "target": target, "s": s, "s1": s1, "p": p, "t_l": t_l,
            "size_left": 0, "size_right": 0, "pairs_scanned": 0, "skipped": False,
            "clamped_prime": clamped_prime, "clamped_left": clamped_left,
        }
        try:
            left_list = tables.filtered(left, p, t_l % p, meter)
            right_list = tables.filtered(right, p, (target - t_l) % p, meter)
        except CapacityError:
            rec["skipped"] = True
            if records is not None:
                records.append(rec)
            continue
        rec["size_left"] = len(left_list)
        rec["size_right"] = len(right_list)
        by_sum: dict[int, list[int]] = {}
        for m, sm in left_list:
            by_sum.setdefault(sm, []).append(m)
        if meter:
            meter.add(len(left_list) + len(right_list))
        for t_mask, t_sum in right_list:
            for s_mask in by_sum.get(target - t_sum, ()):
                rec["pairs_scanned"] += 1
                if meter:
                    meter.add()
                if s_mask & t_mask == 0:
                    cand = s_mask | t_mask
                    if mask_sum(ws, cand) == target:
                        if records is not None:
                            records.append(rec)
                        return cand
        if records is not None:
            records.append(rec)
    return None


def _predicted_attempt_steps(n: int, m: int, gamma: float) -> float:
    """Expected-work prediction (beta-independent terms) for one (target, s) attempt."""
    mu = m / n
    total = 0.0
    for s in range(math.ceil(m / 2), m + 1):
        sigma = s / m
        pi_exp = (gamma - 1.0 + sigma) * m
        for s1 in range(0, s // 2 + 1):
            lam = (1.0 - mu) / 2.0 + (h2(sigma / 2.0) - h2(s1 / m)) * mu
            ell = min(max(_ceil_frac(lam * n), 0), n - m)
            w_l = (2.0 ** ell) * math.comb(m, s1)
            w_r = (2.0 ** (n - m - ell)) * math.comb(m, s - s1)
            total += math.sqrt(w_l) + w_l / (2.0 ** pi_exp)
            total += math.sqrt(w_r) + w_r / (2.0 ** pi_exp)
            total += 2.0 ** (mu * (1.5 - gamma) * n)
    return total


def solve_many_sums(
    instance: Instance,
    m_mask: int,
    gamma: float,
    rng: RandomSource,
    step_budget: int | None = None,
    passes: int | None = None,
) -> SolverOutcome:
    """Monte Carlo solver for instances whose block M is sum-rich:
    |w(2^M)| >= 2^(gamma |M|). Tries the target and its complement so the
    solution's M-part can be assumed to have s >= |M|/2; amplifies over
    `passes` (default n^2) independent (p, t_L) draws. The attempts share
    one `_AttemptTables`, which lives for this call only.
    Witnesses are exact; 'none' may be a false negative.
    """
    n = instance.n
    m_indices = mask_indices(m_mask)
    m = len(m_indices)
    if m < 1 or 2 * m > n:
        raise ValueError("need 1 <= |M| <= n/2")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    ds = distinct_sums(instance, m_mask)
    if math.log2(ds) < gamma * m - 1e-9:
        raise ValueError("M is not sum-rich enough: |w(2^M)| < 2^(gamma |M|)")
    if passes is None:
        passes = n * n
    if step_budget is None:
        step_budget = 64 * n * n * math.ceil(_predicted_attempt_steps(n, m, gamma))
    meter = StepMeter(step_budget)
    tables = _AttemptTables(instance, m_mask, gamma)
    total = instance.total()
    t = instance.target
    cost = {"sums_enumerated": 0, "pairs_scanned": 0, "attempts": 0, "steps": 0}
    iterations: list = []

    def tally() -> dict:
        cost["steps"] = meter.count
        cost["pairs_scanned"] = sum(r["pairs_scanned"] for r in iterations)
        cost["sums_enumerated"] = sum(r["size_left"] + r["size_right"] for r in iterations)
        return cost

    try:
        for _ in range(passes):
            for s in range(math.ceil(m / 2), m + 1):
                for target in (t, total - t):
                    if target < 0 or target > total:
                        continue
                    cost["attempts"] += 1
                    wit = representation_attempt(
                        instance, m_mask, gamma, s, target, rng,
                        meter=meter, records=iterations, tables=tables,
                    )
                    if wit is not None:
                        if target != t:
                            wit = full_mask(n) ^ wit
                        return verified_outcome(instance, wit, tally(), iterations=iterations)
    except BudgetExhausted:
        return SolverOutcome(cost=tally(), exhausted=True, iterations=iterations)
    return SolverOutcome(cost=tally(), iterations=iterations)


def solve_few_sums(instance: Instance, m_mask: int, gamma: float) -> SolverOutcome:
    """Deterministic exact join for instances whose block M is sum-poor:
    with |w(2^M)| <= 2^(gamma |M|), both halves of the join have small
    deduplicated sum sets, because |w(2^R)| <= |w(2^M)| * |w(2^(R\\M))|.
    The decision is exact for any M; only the runtime claim needs the promise.
    """
    n = instance.n
    m = bin(m_mask).count("1")
    if m_mask and 2 * m > n:
        raise ValueError("need |M| <= n/2")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    mu = m / n if n else 0.0
    rest = [i for i in range(n) if not (m_mask >> i) & 1]
    ell = min(max(_ceil_frac((1.0 - mu * (1.0 - gamma)) / 2.0 * n), 0), len(rest))
    return _split_join(instance, rest[:ell])


def _split_join(
    instance: Instance, left: list[int], meter: StepMeter | None = None, branch: str | None = None
) -> SolverOutcome:
    """Exact join of the deduplicated sums over `left` and over the other items.

    The first right sum (ascending) that meets a left sum wins, with the
    smallest mask on each side.
    """
    left_set = set(left)
    right = [i for i in range(instance.n) if i not in left_set]
    l_sums, l_masks = sumset_with_witness(instance.weights, left)
    r_sums, r_masks = sumset_with_witness(instance.weights, right)
    if meter:
        meter.add(len(l_sums) + len(r_sums))
    cost = {
        "sums_enumerated": len(l_sums) + len(r_sums),
        "dict_lookups": len(r_sums),
        "pairs_checked": 0,
    }
    t = instance.target
    if t <= instance.total():  # no pair sums higher, and t stays inside the tables' dtype
        hits, r_row, l_row = _sorted_join(l_sums, r_sums, t)
        if hits:
            cost["pairs_checked"] = 1
            mask = int(l_masks[l_row]) | int(r_masks[r_row])
            return verified_outcome(instance, mask, cost, branch=branch)
    return SolverOutcome(cost=cost, branch=branch)
