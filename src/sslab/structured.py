"""Representation-technique solvers driven by the structure of a chosen block M.

Sum-rich M (many distinct sums): split the solution's M-part between two
modularly filtered lists so each candidate is found many times, and filter
with a random prime whose size matches the surplus of representations.
Sum-poor M (few distinct sums): both join halves have small deduplicated
sum sets, so an exact sorted join is already cheap.
"""

from __future__ import annotations

import math
from itertools import combinations

from .core import (
    BudgetExhausted,
    CapacityError,
    Instance,
    RandomSource,
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
from .numeric import h2, random_prime
from .oracle import _dense_sums, _join_bytes, _sorted_join, _table_dtype, distinct_sums, sumset_with_witness

# Per-entry charges, measured on sums of at most 70 bits; each adds the widths of the sums
# an entry holds, counted with tracemalloc at n = 24-30 on 200 and 1000-bit weights.
# A filtered list's charge per entry it enumerates, holding up to two sums: the most an
# attempt peaked at (both lists, the join dict and the tables it built) per entry of its
# largest list, in a fresh process per attempt at n = 30-34 (|M| = 1 and 4, two seeds):
# 308 B (|M| = 1, n = 34), on a split whose sums meet and which lists its entries.
_LIST_ENTRY_BYTES = 336
# What a solve keeps, per entry, in a fresh process per case: a kept enumeration at most
# 125 B (n = 24, 48 and 70-bit weights), an entry of a half bucketed for one p at most
# 158 B (a dictionary half, one bucket an entry, n = 24-28; a product half 109 B, n = 24-30,
# |M| = 6-12, at the largest prime an attempt can draw); two more entries' worth covers
# each one's containers. A kept entry holds one sum, a bucket none: it holds the kept sums.
_KEPT_ENTRY_BYTES = 144
_BUCKET_ENTRY_BYTES = 160


def _ceil_frac(x: float) -> int:
    return math.ceil(x - 1e-9)


def _split_table(n: int, m_mask: int, gamma: float) -> dict:
    """Every split, validated: {s: (pi, p_min, clamped_prime, {s1: (clamped_left, left list,
    right list)})} for s in [ceil(|M|/2), |M|], s1 in [0, s // 2], pi = gamma - 1 + s/|M|;
    p_min is the floor of an attempt's prime, clamped_prime whether 2^(pi |M|) was raised
    to it, and a list is (side items, s_i, C(|M|, s_i), dictionary size)."""
    m = m_mask.bit_count()
    if m < 1 or 2 * m > n:
        raise ValueError("need 1 <= |M| <= n/2")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    mu = m / n
    rest = [i for i in range(n) if not (m_mask >> i) & 1]
    table = {}
    for s in range(math.ceil(m / 2), m + 1):
        sigma = s / m
        pi = gamma - 1.0 + sigma
        low = 2.0 ** (pi * m)
        h_half = h2(sigma / 2.0)
        ent = h_half * mu  # dictionary halves sized by lambda_1 = (lambda_side + ent)/2
        shapes = {}
        for s1 in range(0, s // 2 + 1):
            lam = (1.0 - mu) / 2.0 + (h_half - h2(s1 / m)) * mu
            ell = _ceil_frac(lam * n)
            clamped_left = not 0 <= ell <= len(rest)
            ell = min(max(ell, 0), len(rest))
            lists = []
            for side, s_i in ((tuple(rest[:ell]), s1), (tuple(rest[ell:]), s - s1)):
                dict_size = min(max(math.floor((len(side) / n + ent) / 2.0 * n), 0), len(side))
                lists.append((side, s_i, math.comb(m, s_i), dict_size))
            shapes[s1] = (clamped_left, *lists)
        table[s] = (pi, max(3, math.ceil(low)), low < 3.0, shapes)
    return table


def _list_bytes(side: tuple, n_combos: int, dict_size: int, p: int, wide: int) -> int:
    est_out = ((1 << len(side)) * n_combos) // p  # expected survivors of the residue filter
    entries = (1 << dict_size) + (1 << (len(side) - dict_size)) * n_combos + est_out
    return entries * (_LIST_ENTRY_BYTES + 2 * wide)


def _side_table(weights, side: tuple, m_indices, s_i: int, dict_size: int) -> tuple:
    """The (p, t_L)-independent part of a filtered list: the dictionary half's masks
    and sums, the scan half's size, C(|M|, s_i), and the masks and sums of (rest of
    side) x (s_i-subsets of M), scan outer. Masks and sums are parallel lists."""
    dtype = _table_dtype([weights[i] for i in side], mask_bits=len(weights))
    dict_half, (scan_masks, scan_sums) = (  # every subset of the half, in mask-index order
        (_dense_sums([1 << i for i in half], dtype).tolist(),
         _dense_sums([weights[i] for i in half], dtype).tolist())
        for half in (side[:dict_size], side[dict_size:]))
    combos = list(combinations(m_indices, s_i))
    c_masks = [sum(1 << i for i in c) for c in combos]
    c_sums = [sum(weights[i] for i in c) for c in combos]
    product = ([y | c for y in scan_masks for c in c_masks], [y + c for y in scan_sums for c in c_sums])
    return dict_half, len(scan_masks), len(combos), product


def _buckets(sums: list, p: int) -> dict[int, list[int]]:
    """A half's sums by their residue mod p, in that half's order."""
    buckets: dict[int, list[int]] = {}
    for sm in sums:
        buckets.setdefault(sm % p, []).append(sm)
    return buckets


def _filter(table: tuple, p: int, residue: int) -> list[tuple[int, int]]:
    """Each product entry of `table` joined with each dictionary entry that
    completes it to `residue` mod p, in product order, then dictionary order,
    through buckets of the dictionary half's (mask, sum) entries made here."""
    buckets: dict[int, list[tuple[int, int]]] = {}
    for entry in zip(*table[0]):
        buckets.setdefault(entry[1] % p, []).append(entry)
    get = buckets.get
    out = []
    for y_mask, y_sum in zip(*table[3]):
        hits = get((residue - y_sum) % p)
        if hits:
            for d_mask, d_sum in hits:
                out.append((y_mask | d_mask, y_sum + d_sum))
    return out


def _filter_sums(walked: list, buckets: dict, p: int, residue: int) -> list[int]:
    """The sums of `_filter`'s list, as a multiset, walked without a mask: each sum of
    one half of its table, `walked`, with each sum of the other half, bucketed by residue
    in `buckets`, that completes it to `residue` mod p."""
    get = buckets.get
    out = []
    for y_sum in walked:
        hits = get((residue - y_sum) % p)
        if hits:
            for d_sum in hits:
                out.append(y_sum + d_sum)
    return out


def _charge(meter: StepMeter, table: tuple, n_out: int) -> None:
    """Charge a filtered list of `n_out` entries as if its enumerations were made for it."""
    _, n_scan, n_combos, _ = table
    meter.add_each(len(table[0][0]), n_scan, n_combos, n_scan * n_combos + n_out)


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
    wide = _wide_sum_bytes(instance.total())
    check_bytes(_list_bytes(side, n_combos, dict_size, p, wide), "a filtered list")
    table = _side_table(instance.weights, side, m_indices, s_i, dict_size)
    out = _filter(table, p, residue % p)
    if meter is not None:
        _charge(meter, table, len(out))
    return out


class _AttemptTables:
    """What all attempts on one (instance, M, gamma) share: the `_split_table`,
    its `records` (per split, its fixed fields and its attempts' totals), the
    enumerations behind each filtered list and, per prime, the residue buckets
    of a list's dictionary half, built on first use, or of its larger half once
    that (list, p) is filtered again. What is kept takes at most
    what the largest list the limit admits, charged at its smallest p, leaves
    of SSLAB_MEM_LIMIT_MB, read once here; a list beyond that is rebuilt on
    every use and filtered as a kept one is."""

    def __init__(self, instance: Instance, m_mask: int, gamma: float):
        self.instance, self.m_mask, self.gamma = instance, m_mask, gamma
        self.m_indices = mask_indices(m_mask)
        self.splits = _split_table(instance.n, m_mask, gamma)
        totals = dict.fromkeys(("attempts", "skipped", "size_left", "size_right", "pairs_scanned"), 0)
        self.records = {(s, s1): dict(s=s, s1=s1, pi=pi, p_min=p_min, clamped_prime=clamped_prime,
                                      clamped_left=clamped_left, **totals)
                        for s, (pi, p_min, clamped_prime, shapes) in self.splits.items()
                        for s1, (clamped_left, *_) in shapes.items()}
        self._tables: dict = {}  # list shape -> (enumerations, {p: (sums walked, buckets)})
        self._wide = _wide_sum_bytes(instance.total())
        limit = memory_limit_bytes()
        charges = [_list_bytes(side, n_combos, dict_size, p_min, self._wide)
                   for _, p_min, _, shapes in self.splits.values()
                   for _, *lists in shapes.values()
                   for side, _, n_combos, dict_size in lists]
        self._room = limit - max((c for c in charges if c <= limit), default=0)

    def _keep(self, nbytes: int) -> bool:
        """Whether `nbytes` more fit in the room; if they do, they are taken from it."""
        if nbytes > self._room:
            return False
        self._room -= nbytes
        return True

    def filtered_sums(self, shape: tuple, p: int, residue: int, meter: StepMeter) -> tuple:
        """The sums of build_filtered_list for a list of `splits`, the same multiset charged
        as it charges, and the enumerations that `_filter` lists its entries from. A first
        filter at p walks the product half against buckets of the dictionary half; once
        those buckets are kept, a later filter at p whose product half is the larger swaps
        them for buckets of the product half and walks the dictionary half from then on.
        The room only decides whether the enumerations and their buckets for p are kept."""
        kept = self._tables.get(shape)
        table, by_p = kept or (None, {})
        walk = by_p.get(p)  # (the sums walked, buckets of the other half's sums)
        if walk is None:  # a (shape, p) with kept buckets has passed this check
            side, s_i, n_combos, dict_size = shape
            check_bytes(_list_bytes(side, n_combos, dict_size, p, self._wide), "a filtered list")
            if kept is None:
                table = _side_table(self.instance.weights, side, self.m_indices, s_i, dict_size)
                entry_bytes = _KEPT_ENTRY_BYTES + self._wide
                if self._keep((len(table[0][0]) + len(table[3][0]) + 2) * entry_bytes):
                    kept = self._tables[shape] = (table, by_p)
            walk = (table[3][1], _buckets(table[0][1], p))
            if kept and self._keep((len(table[0][1]) + 2) * _BUCKET_ENTRY_BYTES):
                by_p[p] = walk  # only beside a kept table, whose sums they hold
        elif walk[0] is table[3][1] and len(table[3][1]) > len(table[0][1]) and self._keep(
                (len(table[3][1]) + 2) * _BUCKET_ENTRY_BYTES):
            # a reused (list, p) buckets its larger half; the buckets it drops keep their room
            walk = by_p[p] = (table[0][1], _buckets(table[3][1], p))
        sums = _filter_sums(*walk, p, residue)
        _charge(meter, table, len(sums))
        return sums, table


def representation_attempt(
    instance: Instance,
    m_mask: int,
    gamma: float,
    s: int,
    target: int,
    rng: RandomSource,
    meter: StepMeter | None = None,
    tables: _AttemptTables | None = None,
):
    """One full filtered-join attempt at `target`: fresh (p, t_L), all s1 splits.

    Returns a mask with w(mask) = target, or None. Lists that would exceed the
    memory limit are skipped, not fatal. Each split the attempt reaches adds
    to its row of `tables.records`. `meter` counts the lists' entries as
    `sums_enumerated` and the candidate pairs as `pairs_scanned`. `tables`
    carries the (p, t_L)-independent enumerations from one attempt of a solve
    to the next. Without a meter or tables the attempt makes its own.
    """
    meter = StepMeter() if meter is None else meter
    if tables is None:
        tables = _AttemptTables(instance, m_mask, gamma)
    ws = instance.weights
    if s not in tables.splits:
        raise ValueError("s must lie in [ceil(|M|/2), |M|]")
    _, p_min, _, shapes = tables.splits[s]
    p = random_prime(p_min, rng)  # the filter: a prime from [p_min, 2 p_min] and a residue
    t_l = rng.randrange(p)
    t_r = (target - t_l) % p
    for s1, (_, left, right) in shapes.items():
        row = tables.records[s, s1]
        row["attempts"] += 1
        try:
            left_sums, left_table = tables.filtered_sums(left, p, t_l, meter)
            right_sums, right_table = tables.filtered_sums(right, p, t_r, meter)
        except CapacityError:
            row["skipped"] += 1
            continue
        row["size_left"] += len(left_sums)
        row["size_right"] += len(right_sums)
        meter.add(len(left_sums) + len(right_sums), "sums_enumerated")
        if set(left_sums).isdisjoint(map(target.__sub__, right_sums)):
            continue  # no pair meets the target, so no mask is walked
        del left_sums, right_sums  # the lists walked below hold their sums again
        by_sum: dict[int, list[int]] = {}
        for m, sm in _filter(left_table, p, t_l):
            by_sum.setdefault(sm, []).append(m)
        for t_mask, t_sum in _filter(right_table, p, t_r):
            for s_mask in by_sum.get(target - t_sum, ()):
                row["pairs_scanned"] += 1
                meter.add(1, "pairs_scanned")
                if s_mask & t_mask == 0:
                    cand = s_mask | t_mask
                    if mask_sum(ws, cand) == target:
                        return cand
    return None


def _predicted_attempt_steps(tables: _AttemptTables) -> float:
    """Expected-work prediction (beta-independent terms) for one (target, s) attempt,
    over the side sizes and C(|M|, s_i) of the attempts' own splits."""
    n, m, gamma = tables.instance.n, len(tables.m_indices), tables.gamma
    total = 0.0
    for pi, _, _, shapes in tables.splits.values():
        for _, *lists in shapes.values():
            for side, _, n_combos, _ in lists:
                work = (2.0 ** len(side)) * n_combos
                total += math.sqrt(work) + work / (2.0 ** (pi * m))
            total += 2.0 ** (m / n * (1.5 - gamma) * n)
    return total


def solve_many_sums(
    instance: Instance,
    m_mask: int,
    gamma: float,
    rng: RandomSource,
    step_budget: int | None = None,
) -> SolverOutcome:
    """Monte Carlo solver for instances whose block M is sum-rich:
    |w(2^M)| >= 2^(gamma |M|). Tries the target and its complement so the
    solution's M-part can be assumed to have s >= |M|/2; amplifies over n^2
    independent (p, t_L) draws. The attempts share one `_AttemptTables`,
    which lives for this call only.
    Witnesses are exact; 'none' may be a false negative. A solve whose every
    attempt the memory limit skipped searched nothing: it is `exhausted`.
    """
    tables = _AttemptTables(instance, m_mask, gamma)  # checks |M| and gamma
    if math.log2(distinct_sums(instance, m_mask)) < gamma * len(tables.m_indices) - 1e-9:
        raise ValueError("M is not sum-rich enough: |w(2^M)| < 2^(gamma |M|)")
    return _many_sums(tables, rng, StepMeter(step_budget))


def _many_sums(tables: _AttemptTables, rng: RandomSource, meter: StepMeter) -> SolverOutcome:
    """solve_many_sums on `tables` and on `meter`, which may already hold a
    caller's steps, for a block the caller has shown to be sum-rich. A meter
    without a limit gets the default budget on top of those steps."""
    instance = tables.instance
    n = instance.n
    if meter.limit is None:
        meter.limit = meter.count + 64 * n * n * math.ceil(_predicted_attempt_steps(tables))
    meter.counters.update(sums_enumerated=0, pairs_scanned=0, attempts=0)
    total = instance.total()
    t = instance.target
    iterations = list(tables.records.values())  # its rows, which the attempts add to
    try:
        for _ in range(n * n):
            for s in tables.splits:
                for target in (t, total - t):
                    if target < 0 or target > total:
                        continue
                    meter.counters["attempts"] += 1
                    wit = representation_attempt(instance, tables.m_mask, tables.gamma, s, target,
                                                 rng, meter=meter, tables=tables)
                    if wit is not None:
                        if target != t:
                            wit = full_mask(n) ^ wit
                        return verified_outcome(instance, wit, meter.cost, iterations=iterations)
    except BudgetExhausted:
        return SolverOutcome(cost=meter.cost, exhausted=True, iterations=iterations)
    # the memory limit skipped every attempt made: nothing was searched, so this is no "no"
    skipped_all = meter.counters["attempts"] > 0 and all(
        row["skipped"] == row["attempts"] for row in iterations)
    return SolverOutcome(cost=meter.cost, exhausted=skipped_all, iterations=iterations)


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
    # a table row holds its sum and mask, 16 bytes, and with Python ints of at most 70 bits
    # 88 plus the widths of its sum and mask; the right table is built beside the left one,
    # and the join adds `_join_bytes`. Measured with tracemalloc in a fresh process per case
    # on tables of 2 to 2^17 rows a side, one side up to 2^8 times the other, at target + 1
    # of a planted instance and where every right row meets: a split join peaks at most at
    # 0.985 of its largest charge with int64 sums and at 0.9994, 0.9990 and 0.9997 with 63,
    # 200 and 1000-bit weights
    dtype = _table_dtype(instance.weights, mask_bits=instance.n)
    row, wide = 16, 0
    if dtype is object:
        wide = _wide_sum_bytes(instance.total())
        row = 88 + wide + _wide_sum_bytes(full_mask(instance.n))
    l_sums, l_masks = sumset_with_witness(instance.weights, left)
    r_sums, r_masks = sumset_with_witness(instance.weights, right, held=l_sums.size * row)
    meter = StepMeter() if meter is None else meter
    meter.add(len(l_sums) + len(r_sums), "sums_enumerated")
    meter.counters.update(dict_lookups=len(r_sums), pairs_checked=0)
    t = instance.target
    if t <= instance.total():  # no pair sums higher, and t stays inside the tables' dtype
        join = (l_sums.size + r_sums.size) * row + _join_bytes(l_sums.size, r_sums.size, dtype, wide)
        check_bytes(join, f"the join of {l_sums.size} and {r_sums.size} sums")
        hits, r_row = _sorted_join(l_sums, r_sums, t)
        if hits:
            meter.counters["pairs_checked"] = 1
            mask = int(l_masks[l_sums.searchsorted(t - r_sums[r_row])]) | int(r_masks[r_row])
            return verified_outcome(instance, mask, meter.cost, branch=branch)
    return SolverOutcome(cost=meter.cost, branch=branch)
