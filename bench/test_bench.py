"""The benchmark's own tests. From the repository root: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, judge  # noqa: E402


def _all_sums(weights):
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170, check=False)


def test_reference_imports_no_sslab():
    code = "import sys; import reference; print(sorted(m for m in sys.modules if m.startswith('sslab')))"
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_reference_histogram_join_and_bitset_agree_with_brute_force():
    rng = random.Random(3)
    for _ in range(20):
        weights = tuple(rng.randint(1, 40) for _ in range(rng.randint(1, 9)))
        sums = Counter(_all_sums(weights))
        assert reference.histogram_stats(weights) == (max(sums.values()), len(sums))
        join = reference.TwoListJoin(weights)
        reach = reference.reachable_sums(weights)
        for t in range(sum(weights) + 3):
            assert join.has_solution(t) == (t in sums) == bool((reach >> t) & 1)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_family_closed_forms(n):
    families = {
        "equal": (1,) * n,
        "geometric": tuple(3 ** (i // 2) for i in range(n)),
        "superinc": tuple(1 << i for i in range(n)),
    }
    for family, weights in families.items():
        assert reference.family_stats(family, n) == reference.histogram_stats(weights)


def test_judge_reports_wrong_answers():
    yes = Op("yes", ["solve", "--alg", "mim"], weights=(3, 5, 7), target=8, planted=0b011)
    answer = {"found": True, "witness_mask_hex": "3", "exhausted": False}
    assert judge(yes, 0, json.dumps(answer)) == (False, None, 1)
    flipped = dict(answer, witness_mask_hex="7")  # one witness bit flipped
    assert judge(yes, 0, json.dumps(flipped))[1].startswith("witness sums to 15")
    no_answer = {"found": False, "witness_mask_hex": None, "exhausted": False}
    assert "yes-instance" in judge(yes, 0, json.dumps(no_answer))[1]
    monte_carlo = Op("yes", ["solve", "--alg", "repr"], weights=(3, 5, 7), target=8, exact=False)
    assert judge(monte_carlo, 0, json.dumps(no_answer)) == (True, None, 0)
    assert judge(yes, 1, "") == (True, None, 0)

    classify = Op("classify", ["classify"], weights=(1, 1, 2), target=2, expect=(2, 5))
    assert judge(classify, 0, json.dumps({"beta": 2, "distinct": 5})) == (False, None, 0)
    assert "reference" in judge(classify, 0, json.dumps({"beta": 3, "distinct": 5}))[1]

    verify = Op("verify", ["verify"])
    clean = json.dumps({"check": "udcp", "instances": 5, "violations": 0})
    assert judge(verify, 0, clean) == (False, None, 0)
    assert judge(verify, 3, clean)[1] is not None
    dirty = json.dumps({"check": "udcp", "instances": 5, "violations": 1})
    assert judge(verify, 0, dirty)[1] is not None


def test_yardstick_scales_by_the_samples_around_an_operation():
    yardstick = run.Yardstick()
    yardstick.starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    yardstick.samples = [0.01, 0.02, 0.04, 0.08, 0.16, 0.32]
    # two samples before 2.5 (0.02, 0.04) and two after (0.08, 0.16)
    assert yardstick.scale(2.5) == pytest.approx(run.Yardstick.REFERENCE_S / 0.06)
    assert yardstick.scale(-1.0) == pytest.approx(run.Yardstick.REFERENCE_S / 0.015)
    assert yardstick.scale(9.0) == pytest.approx(run.Yardstick.REFERENCE_S / 0.24)


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_run_checks_every_workload(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shares = set()
    for seed in (1, 2):
        proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "0", "--quick")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] is True, proc.stderr
        assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]
        shares.add((result["attempted"], result["failed"]))
    assert len(shares) == 1  # the failed operations do not depend on the seed


def test_quick_traced_run_reports_every_layer():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench("--workload", "exact-join", "--seed", "1", "--seconds", "0", "--trace", "1", "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["classic.meet_in_middle.sums"]["value"] > 0
    trace = json.loads((HERE / ".work" / "exact-join-1" / "trace.json").read_text())
    assert trace["spans"] and all(len(span) == 4 for span in trace["spans"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench("--workload", "repr", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
