import math
import tracemalloc
from itertools import combinations

import pytest

from sslab import (
    BudgetExhausted,
    CapacityError,
    Instance,
    RandomSource,
    StepMeter,
    brute_solve,
    build_filtered_list,
    distinct_sums,
    full_mask,
    gen_all_equal,
    gen_planted,
    gen_random_density,
    mask_from_indices,
    mask_indices,
    mask_sum,
    representation_attempt,
    solve_few_sums,
    solve_many_sums,
)
from sslab.numeric import is_prime, random_prime
from sslab.structured import (
    _BUCKET_ENTRY_BYTES,
    _KEPT_ENTRY_BYTES,
    _AttemptTables,
    _filter,
    _predicted_attempt_steps,
    _side_table,
    _split_table,
)

from _corpus import rich_no_instance, rich_planted


def test_split_table_frozen_case():
    m_mask = mask_from_indices(range(8))
    pi, p_min, clamped_prime, shapes = _split_table(16, m_mask, 1.0)[4]
    assert pi == pytest.approx(0.5)  # gamma - 1 + s/|M|
    assert (p_min, clamped_prime) == (16, False)  # 2^(pi |M|)
    clamped_left, left, _ = shapes[2]
    assert len(left[0]) == 4 and not clamped_left  # ceil(lambda n), lambda = 0.25
    # an attempt filters with a prime from [p_min, 2 p_min]
    par_rng = RandomSource(51)
    p = random_prime(p_min, par_rng)
    assert 16 <= p <= 32 and is_prime(p)
    assert 0 <= par_rng.randrange(p) < p


def test_split_table_partitions_items():
    m_mask = mask_from_indices(range(5))
    _, left, right = _split_table(12, m_mask, 0.8)[4][3][1]
    left_mask, right_mask = mask_from_indices(left[0]), mask_from_indices(right[0])
    assert left_mask & right_mask == 0
    assert left_mask & m_mask == 0 and right_mask & m_mask == 0
    assert left_mask | right_mask | m_mask == full_mask(12)


def test_split_validation():
    m_big = mask_from_indices(range(9))
    with pytest.raises(ValueError):
        _split_table(16, m_big, 1.0)  # |M| > n/2
    m_mask = mask_from_indices(range(8))
    with pytest.raises(ValueError):
        _split_table(16, m_mask, 1.5)
    inst = gen_random_density(16, 1.0, RandomSource(0))
    for s in (3, 9):  # s outside [ceil(|M|/2), |M|]
        with pytest.raises(ValueError):
            representation_attempt(inst, m_mask, 1.0, s, inst.target, RandomSource(0))


def _brute_filtered(instance, side_mask, m_mask, s_i, p, residue):
    universe = side_mask | m_mask
    out = set()
    sub = universe
    while True:
        if bin(sub & m_mask).count("1") == s_i:
            s = mask_sum(instance.weights, sub)
            if s % p == residue % p:
                out.add((sub, s))
        if sub == 0:
            break
        sub = (sub - 1) & universe
    return out


def test_build_filtered_list_exact():
    rng = RandomSource(53)
    inst = gen_random_density(9, 1.0, rng)
    m_mask = mask_from_indices([0, 1, 2])
    side = mask_from_indices([3, 4, 5, 6])
    for p, residue, s_i in ((5, 2, 1), (7, 0, 0), (3, 1, 3), (11, 6, 2)):
        expect = _brute_filtered(inst, side, m_mask, s_i, p, residue)
        for dict_size in (None, 0, 2, 4):
            got = build_filtered_list(inst, side, m_mask, s_i, p, residue,
                                      dict_size=dict_size)
            assert set(got) == expect


def _reference_filtered(instance, side_mask, m_mask, s_i, p, residue, dict_size):
    """The filtered list as a plain triple loop: the scan half outermost, the
    s_i-subsets of M next, the dictionary half's residue bucket innermost."""
    ws = instance.weights
    side = mask_indices(side_mask)
    m_idx = mask_indices(m_mask)
    if dict_size is None:
        dict_size = round((len(side) + math.log2(max(1, math.comb(len(m_idx), s_i)))) / 2.0)
    dict_size = min(max(dict_size, 0), len(side))

    def subsets(indices):
        out = [(0, 0)]
        for i in indices:
            out += [(m | 1 << i, s + ws[i]) for m, s in out]
        return out

    buckets = {}
    for m, s in subsets(side[:dict_size]):
        buckets.setdefault(s % p, []).append((m, s))
    combos = [(sum(1 << i for i in c), sum(ws[i] for i in c)) for c in combinations(m_idx, s_i)]
    out = []
    for y_mask, y_sum in subsets(side[dict_size:]):
        for c_mask, c_sum in combos:
            for d_mask, d_sum in buckets.get((residue - y_sum - c_sum) % p, ()):
                out.append((y_mask | c_mask | d_mask, y_sum + c_sum + d_sum))
    return out


def test_build_filtered_list_order():
    # the first-hit witness of an attempt depends on this exact order
    inst = gen_random_density(10, 1.0, RandomSource(70))
    m_mask = mask_from_indices([0, 1, 2, 3])
    side = mask_from_indices([4, 5, 6, 7, 8])
    for p, residue in ((3, 1), (5, 7), (13, 4)):
        for s_i in (0, 2, 4):
            for dict_size in (None, 0, 2, 5):
                want = _reference_filtered(inst, side, m_mask, s_i, p, residue, dict_size)
                meter = StepMeter()
                got = build_filtered_list(inst, side, m_mask, s_i, p, residue,
                                          dict_size=dict_size, meter=meter)
                assert got == want
                k = dict_size if dict_size is not None else round(
                    (5 + math.log2(math.comb(4, s_i))) / 2.0)
                combos = math.comb(4, s_i)
                assert meter.count == (1 << k) + (1 << (5 - k)) * (1 + combos) + combos + len(want)


def test_build_filtered_list_validation():
    inst = gen_random_density(10, 1.0, RandomSource(54))
    m_mask = mask_from_indices([0, 1])
    with pytest.raises(ValueError):
        build_filtered_list(inst, mask_from_indices([1, 2]), m_mask, 1, 5, 0)
    with pytest.raises(ValueError):
        build_filtered_list(inst, mask_from_indices([2, 3]), m_mask, 3, 5, 0)
    with pytest.raises(ValueError):
        build_filtered_list(inst, mask_from_indices([2, 3]), m_mask, 1, 1, 0)


def test_build_filtered_list_capacity_guard():
    wide = Instance(weights=(1,) * 32, target=5)
    side = mask_from_indices(range(30))
    m_mask = mask_from_indices([30, 31])
    with pytest.raises(CapacityError):
        build_filtered_list(wide, side, m_mask, 1, 2, 0)


def test_filtered_list_is_charged_its_bytes(monkeypatch):
    # a one-item M, s_i = 0 and p = 3 keep about a third of 2^18 entries, charged
    # with the dictionary and scan halves at 336 B an entry: about 30 MB
    inst = gen_random_density(19, 1.0, RandomSource(61))
    side, m_mask = mask_from_indices(range(18)), 1 << 18
    for limit in (8, 64):
        monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", str(limit))
        tracemalloc.start()
        try:
            out = build_filtered_list(inst, side, m_mask, 0, 3, 0)
        except CapacityError:
            out = None
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak <= limit << 20
        assert (out is None) == (limit == 8)
    assert len(out) == 87384


def test_representation_attempt_finds_planted_split():
    inst, mask = rich_planted(12, 6, 12, seed=55)
    m_mask = mask_from_indices(range(6))
    s_true = bin(mask & m_mask).count("1")
    target, want = inst.target, mask
    if s_true < 3:  # put the heavy side of the split inside M
        target, want = inst.total() - inst.target, full_mask(12) ^ mask
        s_true = 6 - s_true
    found = 0
    for seed in range(40):
        tables = _AttemptTables(inst, m_mask, 1.0)
        got = representation_attempt(
            inst, m_mask, 1.0, s_true, target, RandomSource(seed), tables=tables)
        rows = [r for r in tables.records.values() if r["attempts"]]
        assert rows and all(
            r["s"] == s_true and r["attempts"] == 1
            and set(r) >= {"s1", "p_min", "size_left", "size_right", "pairs_scanned", "skipped"}
            for r in rows)
        if got is not None:
            assert mask_sum(inst.weights, got) == target
            found += 1
    assert found >= 8  # each draw succeeds with constant probability


def test_representation_attempt_standalone_matches_solve(monkeypatch):
    # attempts that share one solve's tables give the row totals, steps and RNG
    # stream of attempts that each build their own
    inst = rich_no_instance(12, 6, 12, seed=71)
    m_mask = mask_from_indices(range(6))
    solve_rng = RandomSource(72)
    out = solve_many_sums(inst, m_mask, 1.0, solve_rng)
    assert not out.found and not out.exhausted
    init = _AttemptTables.__init__

    def no_room(self, *args):
        init(self, *args)
        self._room = 0  # no room: every table is rebuilt per use

    monkeypatch.setattr(_AttemptTables, "__init__", no_room)
    unkept = solve_many_sums(inst, m_mask, 1.0, RandomSource(72))
    assert (unkept.iterations, unkept.cost) == (out.iterations, out.cost)
    rng, meter = RandomSource(72), StepMeter()
    rows = list(_AttemptTables(inst, m_mask, 1.0).records.values())
    totals = ("attempts", "skipped", "size_left", "size_right", "pairs_scanned")
    for _ in range(12 * 12):  # n^2 passes
        for s in range(3, 7):
            for target in (inst.target, inst.total() - inst.target):
                own = _AttemptTables(inst, m_mask, 1.0)
                assert representation_attempt(inst, m_mask, 1.0, s, target, rng,
                                              meter=meter, tables=own) is None
                for row, add in zip(rows, own.records.values(), strict=True):
                    row.update({key: row[key] + add[key] for key in totals})
    assert rows == out.iterations
    assert meter.count == out.cost["steps"]
    assert rng.randrange(1 << 30) == solve_rng.randrange(1 << 30)


def _kept_table_bytes(inst, tables, shape):
    side, s_i, _, dict_size = shape
    table = _side_table(inst.weights, side, tables.m_indices, s_i, dict_size)
    return (len(table[0][0]) + len(table[3][0]) + 2) * _KEPT_ENTRY_BYTES


def test_attempt_tables_filter_as_build_filtered_list():
    # a list filtered on kept enumerations and kept buckets, on some of them, or on
    # none, has that standalone list's sums and charges the meter the same steps, and
    # the table it returns lists the standalone list itself
    inst, _ = rich_planted(14, 6, 14, seed=75)
    m_mask = mask_from_indices(range(6))
    shapes = _AttemptTables(inst, m_mask, 1.0).splits[5][3][1][1:]
    calls = ((5, 0), (7, 3), (5, 4), (11, 10), (7, 3), (5, 2))  # (p, residue)
    for room in ("all", "tables", "none"):
        for shape in shapes:
            side, s_i, _, dict_size = shape
            tables = _AttemptTables(inst, m_mask, 1.0)
            table_bytes = _kept_table_bytes(inst, tables, shape)
            tables._room = {"all": 1 << 30, "tables": table_bytes, "none": 0}[room]
            for p, residue in calls:
                got_meter, want_meter = StepMeter(), StepMeter()
                sums, table = tables.filtered_sums(shape, p, residue, got_meter)
                want = build_filtered_list(inst, mask_from_indices(side), m_mask, s_i, p,
                                           residue, dict_size, want_meter)
                # a (list, p) filtered again may bucket its other half: the same multiset
                assert sorted(sums) == sorted(sm for _, sm in want)
                assert got_meter.count == want_meter.count
                assert _filter(table, p, residue) == want
            kept = tables._tables.get(shape)
            assert (kept is None) == (room == "none")
            assert sorted(kept[1] if kept else ()) == ([5, 7, 11] if room == "all" else [])


def _reference_attempt(inst, m_mask, s, target, rng, meter, records):
    """representation_attempt at gamma = 1 as a plain join: each list from
    build_filtered_list, the left one put into a dict of lists by sum, then
    every pair that meets the target walked."""
    _, p_min, _, shapes = _split_table(inst.n, m_mask, 1.0)[s]
    p = random_prime(p_min, rng)
    t_l = rng.randrange(p)
    for s1, (_, left, right) in shapes.items():
        row = records[s, s1]
        row["attempts"] += 1
        try:
            left_list, right_list = (
                build_filtered_list(inst, mask_from_indices(side), m_mask, s_i, p, residue, dict_size, meter)
                for (side, s_i, _, dict_size), residue in ((left, t_l), (right, (target - t_l) % p)))
        except CapacityError:
            row["skipped"] += 1
            continue
        row["size_left"] += len(left_list)
        row["size_right"] += len(right_list)
        by_sum = {}
        for mask, sm in left_list:
            by_sum.setdefault(sm, []).append(mask)
        meter.add(len(left_list) + len(right_list), "sums_enumerated")
        for t_mask, t_sum in right_list:
            for s_mask in by_sum.get(target - t_sum, ()):
                row["pairs_scanned"] += 1
                meter.add(1, "pairs_scanned")
                if s_mask & t_mask == 0 and mask_sum(inst.weights, s_mask | t_mask) == target:
                    return s_mask | t_mask
    return None


def _attempt_log(inst, m_mask, limit, seed, room=None, reference=False):
    """(witness, cost, rows) after each attempt of a run of attempts on one meter,
    and ("exhausted", cost, rows) where its budget ran out."""
    tables = _AttemptTables(inst, m_mask, 1.0)
    if room is not None:
        tables._room = room
    records = {key: dict(row) for key, row in tables.records.items()}
    rows = records if reference else tables.records
    rng, meter, log = RandomSource(seed), StepMeter(limit), []
    try:
        for target in (inst.target, inst.total() - inst.target, inst.total() + 1):
            for s in tables.splits:
                if reference:
                    wit = _reference_attempt(inst, m_mask, s, target, rng, meter, records)
                else:
                    wit = representation_attempt(inst, m_mask, 1.0, s, target, rng, meter, tables)
                log.append((wit, meter.cost, [dict(r) for r in rows.values()]))
    except BudgetExhausted:
        log.append(("exhausted", meter.cost, [dict(r) for r in rows.values()]))
    return log


@pytest.mark.parametrize("room", [None, 0, 30_000])  # all kept, nothing kept, some kept
def test_sums_first_join_matches_a_plain_join(room):
    # small weights give many equal sums, so lists meet on sums with overlapping masks:
    # those attempts walk the masks, scan pairs and may still find no witness
    m_mask = mask_from_indices(range(6))
    slow = 0
    for seed in range(8):
        for bits in (3, 5):
            inst, _ = gen_planted(12, bits, RandomSource(seed))
            for limit in (None, 300, 3000, 30_000):
                want = _attempt_log(inst, m_mask, limit, seed, room, reference=True)
                assert _attempt_log(inst, m_mask, limit, seed, room) == want
                scanned = [cost.get("pairs_scanned", 0) for _, cost, _ in want]
                slow += sum(wit is None and now > before
                            for (wit, _, _), before, now in zip(want, [0] + scanned, scanned))
    assert slow >= 40  # 47 such attempts at each room


def test_kept_buckets_take_room():
    inst, _ = rich_planted(14, 6, 14, seed=75)
    for half in (1, 2):  # a list whose product half is the smaller, then one where it is the larger
        tables = _AttemptTables(inst, mask_from_indices(range(6)), 1.0)
        shape = tables.splits[5][3][1][half]
        tables._room = room = 1 << 30
        rooms = []
        for p in (5, 7, 5, 11, 7, 5):
            tables.filtered_sums(shape, p, 1, StepMeter())
            rooms.append(tables._room)
        table = tables._tables[shape][0]
        larger = len(table[3][1]) > len(table[0][1])
        assert larger == (half == 2)
        dict_buckets, product_buckets = ((len(h[1]) + 2) * _BUCKET_ENTRY_BYTES for h in (table[0], table[3]))
        # the first call keeps the table and the buckets for 5; a new p takes more room
        first = room - _kept_table_bytes(inst, tables, shape)
        assert rooms[0] == first - dict_buckets and rooms[1] == rooms[0] - dict_buckets
        assert rooms[3] == rooms[2] - dict_buckets
        # a second call at one p buckets the product half if it is the larger; a third takes nothing
        swap = product_buckets if larger else 0
        assert rooms[2] == rooms[1] - swap and rooms[4] == rooms[3] - swap and rooms[5] == rooms[4]


def test_meeting_split_peaks_inside_its_charge(charges):
    # the split of this attempt whose sums meet walks its (mask, sum) lists: it must hold
    # them without its sums lists, since both copies together pass its largest charge
    inst = gen_planted(34, 34, RandomSource(34))[0]
    tracemalloc.start()
    try:
        representation_attempt(inst, mask_from_indices([0]), 0.5, 1, inst.target, RandomSource(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(charges)


def test_solve_keeps_tables_inside_the_limit(monkeypatch):
    # what a solve keeps takes only the room its largest list leaves of the limit,
    # so the kept tables and buckets and an attempt's lists fit in it together; on
    # 1000-bit weights each entry is charged its wider sums too
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "1")
    # n = 26 at 2M steps: the rows a solve returns are charged nowhere, so they must not
    # grow with its attempts
    for n, bits, budget in ((24, 48, 500_000), (24, 1000, 500_000), (26, 52, 2_000_000)):
        inst, _ = gen_planted(n, bits, RandomSource(n))
        inst = Instance(weights=inst.weights, target=inst.target + 1)
        tracemalloc.start()
        try:
            out = solve_many_sums(inst, mask_from_indices(range(6)), 1.0, RandomSource(1),
                                  step_budget=budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.exhausted and not out.found
        assert peak <= 1 << 20


def test_skipped_lists_are_recorded_empty(monkeypatch):
    # under a small limit some lists of a solve are refused: their splits' rows
    # count them, a split whose every attempt was refused lists and scans nothing,
    # and the solve goes on to the next split
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "1")
    inst, _ = gen_planted(26, 52, RandomSource(26))
    inst = Instance(weights=inst.weights, target=inst.target + 1)
    out = solve_many_sums(inst, mask_from_indices(range(2)), 1.0, RandomSource(1),
                          step_budget=200_000)
    rows = out.iterations
    assert 0 < sum(r["skipped"] for r in rows) < sum(r["attempts"] for r in rows)
    refused = [r for r in rows if r["skipped"] == r["attempts"] > 0]
    assert refused
    assert all((r["size_left"], r["size_right"], r["pairs_scanned"]) == (0, 0, 0) for r in refused)
    listed = sum(r["size_left"] + r["size_right"] for r in rows)
    assert out.cost["sums_enumerated"] == listed > 0


@pytest.mark.parametrize("budget", [10_000, 200_000])
def test_solve_reports_one_row_per_split(budget):
    # what a solve returns is one row per split of its table, in table order, at any
    # budget, and the rows' totals are the solve's counters
    inst = rich_no_instance(14, 6, 14, seed=76)
    m_mask = mask_from_indices(range(6))
    out = solve_many_sums(inst, m_mask, 1.0, RandomSource(77), step_budget=budget)
    assert not out.found
    splits = [(s, s1) for s, (*_, shapes) in _split_table(14, m_mask, 1.0).items() for s1 in shapes]
    rows = out.iterations
    assert [(r["s"], r["s1"]) for r in rows] == splits
    assert sum(r["size_left"] + r["size_right"] for r in rows) == out.cost["sums_enumerated"]
    assert sum(r["pairs_scanned"] for r in rows) == out.cost["pairs_scanned"]
    assert sum(r["attempts"] for r in rows if r["s1"] == 0) == out.cost["attempts"] > len(splits)


def test_solve_many_sums_reports_sums_enumerated():
    inst, _ = rich_planted(12, 6, 12, seed=56)
    out = solve_many_sums(inst, mask_from_indices(range(6)), 1.0, RandomSource(57))
    assert out.found
    listed = sum(r["size_left"] + r["size_right"] for r in out.iterations)
    assert out.cost["sums_enumerated"] == listed > 0


def test_records_carry_clamps():
    inst, _ = rich_planted(12, 6, 12, seed=73)
    m_mask = mask_from_indices(range(6))
    for gamma, s, clamped in ((0.5, 3, True), (1.0, 3, False), (1.0, 6, False)):
        # pi = gamma - 1 + s/|M|, so gamma = 0.5 with s = |M|/2 asks for 2^0 < 3
        assert (2.0 ** ((gamma - 1.0 + s / 6) * 6) < 3.0) == clamped
        tables, rng = _AttemptTables(inst, m_mask, gamma), RandomSource(74)
        representation_attempt(inst, m_mask, gamma, s, inst.target, rng, tables=tables)
        rows = [r for r in tables.records.values() if r["attempts"]]
        assert rows and all(r["s"] == s and r["clamped_prime"] is clamped for r in rows)
        # the attempt draws (p, t_L) from its split's p_min, and nothing else
        _, p_min, clamped_prime, shapes = _split_table(12, m_mask, gamma)[s]
        par_rng = RandomSource(74)
        p = random_prime(p_min, par_rng)
        par_rng.randrange(p)  # t_L
        assert rng.randrange(1 << 30) == par_rng.randrange(1 << 30)
        assert clamped_prime is clamped
        for r in rows:
            assert r["p_min"] == p_min <= p <= 2 * p_min
            assert r["clamped_left"] is shapes[r["s1"]][0]
        if s == 6:  # s1 = 0 wants ell = ceil(0.75 n) = 9 of the 6 items outside M
            assert rows[0]["clamped_left"]


def test_solve_many_sums_requires_rich_block():
    eq = gen_all_equal(12)
    with pytest.raises(ValueError):
        solve_many_sums(eq, mask_from_indices(range(6)), 1.0, RandomSource(0))
    # |M| and gamma are checked before the block is measured
    inst, _ = rich_planted(12, 6, 12, seed=56)
    for m_mask, gamma in ((0, 1.0), (mask_from_indices(range(7)), 0.5),
                          (mask_from_indices(range(6)), 1.5)):
        with pytest.raises(ValueError):
            solve_many_sums(inst, m_mask, gamma, RandomSource(0))


def test_solve_many_sums_finds_planted():
    inst, _ = rich_planted(12, 6, 12, seed=56)
    out = solve_many_sums(inst, mask_from_indices(range(6)), 1.0, RandomSource(57))
    assert out.found
    assert mask_sum(inst.weights, out.witness) == inst.target
    assert out.iterations
    assert out.cost["attempts"] >= 1


def test_solve_many_sums_complement_route():
    # solution touching M in a single item is only representable after
    # flipping to the complementary target; the solver must still return a
    # witness for the original one
    rng = RandomSource(58)
    while True:
        inst0 = gen_random_density(12, 1.0, rng.split(str(rng.randrange(1 << 30))))
        m_mask = mask_from_indices(range(6))
        if distinct_sums(inst0, m_mask) != 64:
            continue
        sol = mask_from_indices([0, 6, 7, 8])
        inst = Instance(weights=inst0.weights, target=mask_sum(inst0.weights, sol))
        if inst.target >= 2:
            break
    out = solve_many_sums(inst, m_mask, 1.0, RandomSource(59))
    assert out.found
    assert mask_sum(inst.weights, out.witness) == inst.target


def test_solve_many_sums_no_instance_is_honest():
    inst = rich_no_instance(12, 6, 12, seed=60)
    out = solve_many_sums(inst, mask_from_indices(range(6)), 1.0, RandomSource(61))
    assert not out.found
    assert out.witness is None


def test_solve_many_sums_budget_exhaustion():
    inst = rich_no_instance(12, 6, 12, seed=62)
    out = solve_many_sums(inst, mask_from_indices(range(6)), 1.0, RandomSource(63),
                          step_budget=50)
    assert out.exhausted and not out.found
    assert out.cost["steps"] <= 50 + 64  # one batched add may overshoot
    # the meter stops at the first charge past the budget; under 32 that is
    # the first list's dictionary half (2^5 subsets), charged on its own
    for budget, steps in ((10, 32), (50, 65), (500, 501)):
        out = solve_many_sums(inst, mask_from_indices(range(6)), 1.0, RandomSource(63),
                              step_budget=budget)
        assert out.exhausted and out.cost["steps"] == steps


def test_default_step_budget_prediction():
    # pins the per-attempt prediction behind solve_many_sums' default step budget
    for (n, m, gamma), steps in (((16, 8, 1.0), 1586), ((17, 8, 0.5), 15643),
                                 ((24, 4, 0.997), 13288)):
        tables = _AttemptTables(gen_all_equal(n), mask_from_indices(range(m)), gamma)
        assert math.ceil(_predicted_attempt_steps(tables)) == steps


def test_solve_few_sums_frozen_example():
    inst = Instance(weights=(1, 1, 1, 1, 7, 13, 29, 61), target=42)
    m_mask = mask_from_indices(range(4))
    gamma = math.log2(distinct_sums(inst, m_mask)) / 4
    out = solve_few_sums(inst, m_mask, gamma)
    assert out.found
    assert out.witness == mask_from_indices([5, 6])  # 13 + 29 is the only way


def test_solve_few_sums_matches_brute():
    rng = RandomSource(64)
    for k in range(40):
        n = rng.randint(2, 14)
        if k % 3 == 0:
            inst = gen_all_equal(n)
        else:
            inst = gen_random_density(n, rng.choice((1.0, 2.0, 4.0)), rng.split(str(k)))
        m = n // 2
        m_mask = mask_from_indices(range(m))
        gamma = min(1.0, math.log2(max(distinct_sums(inst, m_mask), 1)) / max(m, 1))
        got = solve_few_sums(inst, m_mask, gamma)
        expect = brute_solve(inst)
        assert got.found == expect.found
        if got.found:
            assert mask_sum(inst.weights, got.witness) == inst.target


def test_solve_few_sums_empty_block():
    inst = gen_random_density(10, 2.0, RandomSource(65))
    got = solve_few_sums(inst, 0, 0.0)
    assert got.found == brute_solve(inst).found


def test_solve_few_sums_validation():
    inst = gen_random_density(8, 1.0, RandomSource(66))
    with pytest.raises(ValueError):
        solve_few_sums(inst, mask_from_indices(range(5)), 0.5)
    with pytest.raises(ValueError):
        solve_few_sums(inst, mask_from_indices(range(4)), 1.5)


@pytest.mark.parametrize("n, bits", [(28, 28), (32, 32), (28, 200)])
def test_split_join_peaks_inside_its_charge(n, bits, charges):
    # the right table is built while the left one is held, and the join holds both
    # tables and its own arrays: what it holds is charged, on a yes and a no target
    inst = gen_planted(n, bits, RandomSource(n))[0]
    m_mask = mask_from_indices(range(n // 2))
    for target in (inst.target, inst.target + 1):
        charges.clear()
        tracemalloc.start()
        try:
            solve_few_sums(Instance(inst.weights, target), m_mask, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(charges)


def _every_right_row_meets(n, bits):
    # two copies of c * (1, 2, 4, ...): every right sum meets a left sum at the target
    c = (1 << bits) + 1
    return Instance(tuple(c << i for i in range(n // 2)) * 2, c * ((1 << n // 2) - 1))


@pytest.mark.parametrize("case, limit_mb", [
    pytest.param(lambda: gen_planted(32, 32, RandomSource(32))[0], 4, id="int64-planted"),
    pytest.param(lambda: _every_right_row_meets(28, 1000), 10, id="1000-bit-every-row-meets"),
])
def test_split_join_refuses_before_it_passes_the_limit(monkeypatch, case, limit_mb):
    # under a limit below its peak, the split join is refused before it holds more than the
    # limit: at int64 n = 32 while building the right table beside the left one, and at
    # 1000 bits, where every need meets, before the join itself
    inst = case()
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", str(limit_mb))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            solve_few_sums(inst, mask_from_indices(range(inst.n // 2)), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb << 20


def test_distinct_sums_product_bound():
    # the engine behind the few-sums join: |w(2^(A u B))| <= |w(2^A)| |w(2^B)|
    rng = RandomSource(67)
    for k in range(30):
        n = rng.randint(2, 12)
        inst = gen_random_density(n, rng.choice((1.0, 2.0)), rng.split(str(k)))
        cut = rng.randint(1, n - 1) if n > 1 else 0
        a = mask_from_indices(range(cut))
        b = mask_from_indices(range(cut, n))
        assert distinct_sums(inst) <= distinct_sums(inst, a) * distinct_sums(inst, b)
