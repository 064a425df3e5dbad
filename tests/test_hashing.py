import pytest

from sslab import (
    CapacityError,
    Instance,
    RandomSource,
    ReductionNotApplicable,
    all_subset_sums,
    check_reduction_properties,
    distinct_sums,
    gen_planted,
    gen_random_density,
    mask_sum,
    max_bin,
    output_bound,
    reduce_bitlength,
)
from sslab import oracle


def test_not_applicable_cases():
    small_t = Instance(weights=(9, 9, 9, 9, 9, 9, 9, 9), target=3)
    with pytest.raises(ReductionNotApplicable):
        reduce_bitlength(small_t, 64, RandomSource(0))  # target below 2n
    ok = Instance(weights=(9, 9, 9, 9), target=20)
    with pytest.raises(ValueError):
        reduce_bitlength(ok, 1, RandomSource(0))  # bin budget below 2
    with pytest.raises(ValueError):
        reduce_bitlength(Instance(weights=(), target=20), 64, RandomSource(0))  # no item


def test_reduced_values_meet_output_bound():
    rng = RandomSource(41)
    for k in range(100):
        n = rng.randint(4, 16)
        inst = gen_random_density(n, rng.choice((0.5, 1.0)), rng.split(str(k)))
        if inst.target < 2 * n:
            continue
        B = 1 << rng.randint(3, 14)
        record = reduce_bitlength(inst, B, rng.split(f"r{k}"))
        bound = output_bound(n, B)
        assert record.reduced.target < bound
        assert all(w < bound for w in record.reduced.weights)
        assert 1 <= record.rounds <= 4
        assert len(record.chain) == record.rounds
        assert record.reduced.n == n


def test_replay_reproduces_reduction():
    rng = RandomSource(42)
    inst = gen_random_density(12, 0.5, rng)
    record = reduce_bitlength(inst, 4096, rng.split("x"))
    # each round maps w to w mod p and t to (t mod p) + r*p
    cur = inst
    for p, r in record.chain:
        cur = Instance(tuple(w % p for w in cur.weights), cur.target % p + r * p)
    assert cur == record.reduced


def test_exact_preservation_when_modulus_dominates():
    # total < p and shift 0 leave the instance unchanged, so every
    # property must hold; scan seeds for such a draw
    inst = Instance(weights=(3, 5, 9, 14), target=14)
    B = 2048
    hit = False
    for seed in range(60):
        record = reduce_bitlength(inst, B, RandomSource(seed))
        p, shift = record.chain[-1]
        if record.rounds == 1 and shift == 0 and p > inst.total():
            hit = True
            assert record.reduced == inst
            report = check_reduction_properties(inst, record)
            assert report.solutions_preserved
            assert report.sums_preserved
            assert report.bins_preserved  # B >= 5 * distinct^2 here, so evaluated
            break
    assert hit


def test_solution_preservation_frequency():
    # a single round keeps the planted solution iff the drawn shift matches
    # the carry, i.e. with probability exactly 1/n
    preserved = 0
    single_round = 0
    for seed in range(150):
        inst, mask = gen_planted(12, 24, RandomSource(900 + seed))
        record = reduce_bitlength(inst, 4096, RandomSource(seed))
        if record.rounds != 1:
            continue
        single_round += 1
        if mask_sum(record.reduced.weights, mask) == record.reduced.target:
            preserved += 1
    assert single_round >= 80
    assert 2 <= preserved <= single_round // 2


def test_report_counts_match_oracle():
    rng = RandomSource(43)
    inst = gen_random_density(12, 1.0, rng)
    record = reduce_bitlength(inst, 1024, rng.split("y"))
    report = check_reduction_properties(inst, record)
    assert report.distinct_original == distinct_sums(inst)
    assert report.distinct_reduced == distinct_sums(record.reduced)
    assert report.max_bin_original == max_bin(inst)
    assert report.max_bin_reduced == max_bin(record.reduced)
    n = inst.n
    assert report.sums_preserved == (
        report.distinct_original <= 2 * report.distinct_reduced
        and report.distinct_reduced <= n * report.distinct_original
    )


def test_multi_round_chain_applies_in_order():
    # long weights force more than one round at a tight bin budget
    rng = RandomSource(44)
    inst = gen_random_density(12, 0.5, rng)
    record = reduce_bitlength(inst, 8, rng.split("z"))
    work = inst
    for p, shift in record.chain:
        work = Instance(
            weights=tuple(w % p for w in work.weights),
            target=(work.target % p) + shift * p,
        )
    assert work == record.reduced


def test_report_reads_its_bins_from_one_sort(monkeypatch):
    # the counts come from a sort of the dense sums the solution check already builds:
    # no sum table is made for them
    inst = gen_random_density(12, 1.0, RandomSource(45))
    record = reduce_bitlength(inst, 1024, RandomSource(46))
    builds = []
    monkeypatch.setattr(oracle, "_sum_table", lambda *args: builds.append(args))
    check_reduction_properties(inst, record)
    assert builds == []


def test_report_charges_its_sort(monkeypatch, charges):
    # 2^16 dense sums are charged 786,432 bytes and their sort 2,097,152, before them: under
    # 1 MB the sums alone fit, and the check is refused before it sorts them
    rng = RandomSource(47)
    inst = gen_random_density(16, 1.0, rng)
    record = reduce_bitlength(inst, 1 << 12, rng.split("r"))
    want = check_reduction_properties(inst, record)
    assert charges == [2_097_152, 786_432] * 2  # the original's, then the reduced instance's
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "1")
    assert all_subset_sums(inst).size == 1 << 16
    with pytest.raises(CapacityError, match="sort of 65536 dense sums"):
        check_reduction_properties(inst, record)
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "3")
    assert check_reduction_properties(inst, record) == want
