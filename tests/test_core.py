import math

import numpy as np
import pytest

from sslab import (
    BudgetExhausted,
    Instance,
    RandomSource,
    SolverOutcome,
    StepMeter,
    density,
    full_mask,
    gen_all_equal,
    gen_geometric_pairs,
    gen_planted,
    gen_random_density,
    gen_super_increasing,
    instance_to_text,
    mask_from_indices,
    mask_indices,
    mask_sum,
    read_instance,
    write_instance,
)
from sslab.core import memory_limit_bytes, verified_outcome


def test_mask_helpers_roundtrip():
    rng = RandomSource(1)
    for _ in range(200):
        n = rng.randint(1, 30)
        mask = rng.getrandbits(n)
        idx = mask_indices(mask)
        assert mask_from_indices(idx) == mask
        assert all(0 <= i < n for i in idx)
    assert full_mask(5) == 0b11111
    assert full_mask(0) == 0
    assert mask_from_indices([]) == 0
    assert mask_indices(0) == []


def test_mask_sum_matches_manual():
    weights = (3, 1, 4, 1, 5)
    assert mask_sum(weights, 0) == 0
    assert mask_sum(weights, 0b10101) == 3 + 4 + 5
    assert mask_sum(weights, full_mask(5)) == sum(weights)


def test_instance_validation():
    inst = Instance(weights=(1, 2, 3), target=4)
    assert inst.n == 3
    assert inst.total() == 6
    assert mask_sum(inst.weights, 0b011) == 3
    Instance(weights=(0, 0), target=0)  # zero weights are legal (hashed residues)
    with pytest.raises(ValueError):
        Instance(weights=(1, -2), target=3)
    with pytest.raises(ValueError):
        Instance(weights=(1, 2), target=-1)
    # only integers: 3.7, "5" and 2.9 are refused, not truncated or parsed
    for weights, target in (((3.7, 5), 2), ((3, "5"), 2), ((3, 5), 2.9), ((3.7, "5"), 2.9)):
        with pytest.raises(ValueError):
            Instance(weights, target)
    assert Instance((np.int64(3), True), np.int32(4)) == Instance((3, 1), 4)


def test_density_definition():
    inst = Instance(weights=(1,) * 16, target=256)
    assert density(inst) == 16 / math.log2(256)
    with pytest.raises(ValueError):
        density(Instance(weights=(1, 1), target=1))


def test_random_source_determinism():
    a = RandomSource(42)
    b = RandomSource(42)
    assert [a.randrange(1000) for _ in range(50)] == [b.randrange(1000) for _ in range(50)]
    # split streams are stable and distinct from the parent
    sa = RandomSource(42).split("x")
    sb = RandomSource(42).split("x")
    sc = RandomSource(42).split("y")
    va, vb, vc = sa.getrandbits(64), sb.getrandbits(64), sc.getrandbits(64)
    assert va == vb
    assert va != vc
    assert RandomSource(42).getrandbits(0) == 0


def test_gen_random_density_bounds():
    rng = RandomSource(3)
    for d in (0.5, 1.0, 2.0, 4.0):
        inst = gen_random_density(16, d, rng.split(f"d{d}"))
        upper = 2 ** (16 / d)
        assert inst.n == 16
        assert all(1 <= w <= upper for w in inst.weights)
        assert 1 <= inst.target <= upper


def test_gen_geometric_pairs():
    inst = gen_geometric_pairs(12)
    assert sorted(inst.weights) == sorted([3**i for i in range(6)] * 2)
    assert inst.target == sum(3**i for i in range(6))
    with pytest.raises(ValueError):
        gen_geometric_pairs(7)


def test_gen_planted_has_solution():
    for seed in range(20):
        inst, mask = gen_planted(12, 12, RandomSource(seed))
        assert mask != 0
        assert mask_sum(inst.weights, mask) == inst.target


def test_gen_all_equal_and_super_increasing():
    eq = gen_all_equal(10)
    assert eq.weights == (1,) * 10
    assert eq.target == 5
    eq2 = gen_all_equal(6, target=2, value=3)
    assert eq2.weights == (3,) * 6 and eq2.target == 2
    si = gen_super_increasing(8)
    assert si.weights == tuple(2**i for i in range(8))
    assert si.target == sum(2**i for i in range(0, 8, 2))
    # super-increasing: every prefix sum is below the next weight
    for i in range(1, 8):
        assert sum(si.weights[:i]) < si.weights[i]


def test_instance_file_roundtrip(tmp_path):
    rng = RandomSource(9)
    for k in range(20):
        inst = gen_random_density(rng.randint(1, 14), 1.0, rng.split(str(k)))
        path = tmp_path / f"i{k}.txt"
        write_instance(inst, path)
        assert read_instance(path) == inst
    text = instance_to_text(Instance(weights=(5, 7), target=9))
    assert "5 7" in text and "9" in text


def test_read_instance_rejects_malformed(tmp_path):
    bad = [
        "2\n1 2 3\n4\n",        # wrong weight count
        "2\n1 2\n",             # missing target line
        "-1\n\n0\n",            # negative n
        "2\n1 -2\n3\n",         # negative weight
        "x\n1 2\n3\n",          # non-integer n
        "2\n1_000 2\n1002\n",   # digit separator
        "2\n\u0661\u0662 2\n14\n",  # non-ASCII digits
    ]
    for k, content in enumerate(bad):
        path = tmp_path / f"bad{k}.txt"
        path.write_text(content)
        with pytest.raises(ValueError):
            read_instance(path)


def test_read_instance_allows_comments(tmp_path):
    texts = [
        "# weights below\n3\n1 2 3\n# target\n4\n",
        "3\n\n1 2 3\n4\n",        # blank line in the middle
        "\n3\n1 2 3\n4\n",        # leading blank line
        "3\n1 2 3\n  \n4\n\n",    # whitespace-only and trailing blank lines
    ]
    for k, content in enumerate(texts):
        path = tmp_path / f"c{k}.txt"
        path.write_text(content)
        assert read_instance(path) == Instance(weights=(1, 2, 3), target=4)
    # n = 0: the blank weights line that write_instance emits may be absent
    for k, content in enumerate(["0\n0\n", "0\n\n0\n", "# empty\n0\n7\n"]):
        path = tmp_path / f"z{k}.txt"
        path.write_text(content)
        assert read_instance(path) == Instance(weights=(), target=0 if k < 2 else 7)
    empty = Instance(weights=(), target=0)
    path = tmp_path / "empty.txt"
    write_instance(empty, path)
    assert read_instance(path) == empty


def test_step_meter_budget():
    meter = StepMeter(10)
    meter.add(10)
    with pytest.raises(BudgetExhausted):
        meter.add()
    free = StepMeter(None)
    free.add(10**9)
    assert free.count == 10**9


def test_step_meter_add_each_raises_where_adds_do():
    # add_each(*ks) ends at the count that add(k) for each k reaches, raising with it
    rng = RandomSource(23)
    for _ in range(2000):
        limit = None if rng.randrange(5) == 0 else rng.randrange(60)
        charges = [tuple(rng.randrange(12) for _ in range(rng.randrange(5))) for _ in range(6)]
        ends = []
        for each in (True, False):
            meter = StepMeter(limit)
            raised = None
            try:
                for i, ks in enumerate(charges):
                    if each:
                        meter.add_each(*ks)
                    else:
                        for k in ks:
                            meter.add(k)
            except BudgetExhausted:
                raised = i
            ends.append((raised, meter.count))
        assert ends[0] == ends[1]


def test_solver_outcome_and_verification():
    out = SolverOutcome()
    assert not out.found and out.witness is None
    inst = Instance(weights=(2, 3, 5), target=8)
    good = verified_outcome(inst, 0b110, {"pairs_checked": 1})
    assert good.found and good.witness == 0b110
    with pytest.raises(RuntimeError):
        verified_outcome(inst, 0b011, {})


def test_memory_limit_reads_the_integer_format(monkeypatch):
    # the instance file's integers: an optional sign and ASCII digits, here none below 0
    for text, megabytes in (("0", 0), ("+3", 3), (" 512 ", 512)):
        monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", text)
        assert memory_limit_bytes() == megabytes << 20
    for text in ("1_0", "\u0663", "abc", "", "-1", "2.5"):
        monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", text)
        with pytest.raises(ValueError, match="SSLAB_MEM_LIMIT_MB"):
            memory_limit_bytes()
