import csv
import json
import math
from itertools import combinations

import pytest

from sslab import (
    Instance,
    RandomSource,
    bin_l2,
    brute_solve,
    full_mask,
    gen_planted,
    gen_random_density,
    gen_super_increasing,
    mask_from_indices,
    mask_sum,
    max_bin,
    read_instance,
    write_instance,
)
from sslab import oracle
from sslab.cli import main
from sslab.combinatorics import bin_l2_rows


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
    return code, lines, captured.err


def test_gen_writes_instance(tmp_path, capsys):
    out = tmp_path / "inst.txt"
    for kind in ("density", "geometric", "planted", "equal", "superinc"):
        code, lines, err = _run(capsys, "gen", "--kind", kind, "--n", "10",
                                "--d", "1", "--seed", "7", "--out", str(out))
        assert code == 0
        assert lines[0]["n"] == 10 and lines[0]["kind"] == kind
        assert ("planted_mask_hex" in lines[0]) == (kind == "planted")
        inst = read_instance(out)
        assert inst.n == 10 and inst.target == lines[0]["target"]
        assert "wrote" in err


def test_gen_planted_reports_witness(tmp_path, capsys):
    out = tmp_path / "p.txt"
    code, lines, _ = _run(capsys, "gen", "--kind", "planted", "--n", "10",
                          "--bits", "12", "--seed", "3", "--out", str(out))
    assert code == 0
    inst = read_instance(out)
    mask = int(lines[0]["planted_mask_hex"], 16)
    assert mask_sum(inst.weights, mask) == inst.target


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    _run(capsys, "gen", "--kind", "density", "--n", "12", "--seed", "5", "--out", str(a))
    _run(capsys, "gen", "--kind", "density", "--n", "12", "--seed", "5", "--out", str(b))
    assert a.read_text() == b.read_text()


def test_analyze_frozen_values(tmp_path, capsys):
    path = tmp_path / "i.txt"
    write_instance(Instance(weights=(1, 1, 3, 3), target=4), path)
    code, lines, _ = _run(capsys, "analyze", str(path))
    assert code == 0
    assert lines[0] == {
        "n": 4, "density": 4 / 2.0, "beta": 4, "distinct_sums": 9,
        "l2_norm_squared": 36,
    }


def test_udcp_check_and_analyze_count_their_table_builds(tmp_path, capsys, monkeypatch):
    # udcp: the bin fold its sizes are checked against, as the extraction sorts the dense
    # sums and builds no table; analyze: the bin fold alone, for beta, the distinct sums and
    # the norm. The fold is one table at n = 10, and two half tables at n = 18, past
    # _WINDOW_ROWS sums
    builds = []
    real = oracle._sum_table

    def spy(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, "_sum_table", spy)
    path = tmp_path / "i.txt"
    for n, fold in ((10, 1), (18, 2)):
        write_instance(gen_random_density(n, 1.0, RandomSource(3)), path)
        builds.clear()
        assert _run(capsys, "verify", str(path), "--checks", "udcp")[0] == 0
        assert len(builds) == fold
        builds.clear()
        assert _run(capsys, "analyze", str(path), str(path))[0] == 0
        assert len(builds) == 2 * fold


def test_classify_reports_regimes(tmp_path, capsys):
    path = tmp_path / "i.txt"
    write_instance(Instance(weights=(1,) * 12, target=6), path)
    code, lines, _ = _run(capsys, "classify", str(path))
    assert code == 0
    rep = lines[0]
    assert rep["beta"] == 924 and rep["large_bin"] is True
    assert set(rep) >= {"n", "density", "beta", "distinct", "small_bin",
                        "large_bin", "many_sums", "sums_vs_bin_holds"}


def test_solve_algorithms_agree_with_brute(tmp_path, capsys):
    path = tmp_path / "i.txt"
    _run(capsys, "gen", "--kind", "density", "--n", "12", "--d", "2",
         "--seed", "11", "--out", str(path))
    inst = read_instance(path)
    expect = brute_solve(inst).found
    for alg, *extra in (("dp",), ("mim",), ("ss",), ("fewsums",), ("largebin",), ("smallbin",),
                        ("auto",), ("auto", "--epsilon", "0.1")):
        code, lines, _ = _run(capsys, "solve", str(path), "--alg", alg, "--seed", "2", *extra)
        assert code == 0
        rec = lines[0]
        assert rec["found"] == expect
        assert rec["alg"] == alg
        assert "step_counters" in rec and "branch_taken" in rec
        if rec["found"]:
            mask = int(rec["witness_mask_hex"], 16)
            assert mask_sum(inst.weights, mask) == inst.target


def test_solve_repr_emits_iterations(tmp_path, capsys):
    path = tmp_path / "i.txt"
    _run(capsys, "gen", "--kind", "planted", "--n", "12", "--bits", "12",
         "--seed", "19", "--out", str(path))
    code, lines, _ = _run(capsys, "solve", str(path), "--alg", "repr", "--seed", "4")
    assert code == 0
    rec = lines[0]
    if rec["found"]:
        assert rec["iterations"]
        assert set(rec["iterations"][0]) == {
            "s", "s1", "pi", "p_min", "clamped_prime", "clamped_left",
            "attempts", "skipped", "size_left", "size_right", "pairs_scanned"}


@pytest.mark.parametrize("alg", ["smallbin", "auto"])
def test_solve_small_bin_emits_iterations(tmp_path, capsys, alg):
    # smallbin's representation step prints its per-split rows too; auto, one exact
    # join, has none to print
    path = tmp_path / "i.txt"
    _run(capsys, "gen", "--kind", "planted", "--n", "12", "--bits", "60",
         "--seed", "3", "--out", str(path))
    code, lines, _ = _run(capsys, "solve", str(path), "--alg", alg, "--seed", "1")
    assert code == 0
    rec = lines[0]
    if alg == "auto":
        assert rec["branch_taken"] == "mim" and rec["found"] and "iterations" not in rec
        return
    assert rec["branch_taken"].endswith("representation") and rec["iterations"]
    assert all(r["attempts"] >= r["skipped"] >= 0 for r in rec["iterations"])


@pytest.mark.parametrize("spec", ["1_0", "\u0663", "0,,1", "0,1,", ""])
def test_solve_refuses_malformed_m(tmp_path, capsys, spec):
    # an index is an optional sign and ASCII digits, as in the instance format
    path = tmp_path / "i.txt"
    write_instance(gen_random_density(12, 1.0, RandomSource(3)), path)
    code, lines, err = _run(capsys, "solve", str(path), "--alg", "fewsums", "--M", spec)
    assert code == 1
    assert lines == [] and "--M" in err
    code, lines, _ = _run(capsys, "solve", str(path), "--alg", "fewsums", "--M", " 3, 10")
    assert code == 0 and lines[0]["alg"] == "fewsums"


def test_solve_sampler(tmp_path, capsys):
    path = tmp_path / "i.txt"
    write_instance(Instance(weights=(3, 5, 9, 14, 21, 33, 50, 61), target=45), path)
    code, lines, _ = _run(capsys, "solve", str(path), "--alg", "sampler",
                          "--seed", "1", "--budget", "5000")
    assert code == 0
    assert lines[0]["found"] is True


def test_hash_roundtrip(tmp_path, capsys):
    src, dst = tmp_path / "i.txt", tmp_path / "r.txt"
    _run(capsys, "gen", "--kind", "density", "--n", "12", "--d", "0.5",
         "--seed", "13", "--out", str(src))
    code, lines, _ = _run(capsys, "hash", str(src), "--B", "1024",
                          "--seed", "2", "--out", str(dst))
    assert code == 0
    rec = lines[0]
    assert rec["rounds"] == len(rec["chain"])
    assert rec["p"] == rec["chain"][-1][0] and rec["r"] == rec["chain"][-1][1]
    reduced = read_instance(dst)
    assert reduced.n == 12
    assert max(reduced.weights) < 4 * 12 * 1024 * 10  # output bound at B=2^10


def test_verify_corpus_passes(capsys):
    code, lines, err = _run(capsys, "verify", "--checks", "l2identity,udcp",
                            "--n-max", "8", "--seed", "1")
    assert code == 0
    by_check = {rec["check"]: rec for rec in lines}
    assert by_check["l2identity"]["violations"] == 0
    assert by_check["udcp"]["violations"] == 0
    assert by_check["l2identity"]["instances"] > 0
    assert "passed" in err


def test_verify_single_file(tmp_path, capsys):
    path = tmp_path / "i.txt"
    write_instance(Instance(weights=(1, 1, 3, 3), target=4), path)
    code, lines, _ = _run(capsys, "verify", str(path))
    assert code == 0
    assert all(rec["violations"] == 0 for rec in lines)


def test_verify_cauchyschwarz_checks_each_split_once(tmp_path, capsys, monkeypatch):
    # n = 10 has 252 balanced splits, which pair up with their complements: one
    # batched call takes the 126 that hold item 0, a second their 126 complements,
    # and no split's norm is computed on its own
    batches, singles = [], []

    def batched(instance, items):
        batches.append([tuple(row) for row in items])
        return bin_l2_rows(instance, items)

    monkeypatch.setattr("sslab.cli.bin_l2_rows", batched)
    monkeypatch.setattr("sslab.cli.bin_l2", lambda *args: singles.append(args))
    path = tmp_path / "i.txt"
    write_instance(gen_random_density(10, 1.0, RandomSource(5)), path)
    code, lines, _ = _run(capsys, "verify", str(path), "--checks", "cauchyschwarz")
    assert code == 0
    assert lines == [{"check": "cauchyschwarz", "instances": 1, "violations": 0}]
    assert singles == [] and len(batches) == 2
    splits, others = batches
    assert len(set(splits)) == 126 and all(len(s) == 5 and s[0] == 0 for s in splits)
    assert [set(o) for o in others] == [set(range(10)) - set(s) for s in splits]


@pytest.mark.parametrize("n", [9, 10, 12])
def test_verify_cauchyschwarz_reports_the_first_violating_split(tmp_path, capsys, monkeypatch, n):
    # a beta forced just past the smallest product: the detail names the first split, in
    # the order of combinations, whose two norms multiply to less than beta^2, as the
    # split-by-split loop of bin_l2 calls finds it (one split past n = 10); at density 2
    # the smallest product is not the first split's
    inst = gen_random_density(n, 2.0, RandomSource(1))
    splits = [s for s in combinations(range(n), n // 2) if n % 2 or s[0] == 0] if n <= 10 else [tuple(range(6))]
    masks = [mask_from_indices(s) for s in splits]
    products = [bin_l2(inst, m) * bin_l2(inst, full_mask(n) ^ m) for m in masks]
    beta = math.isqrt(min(products)) + 1
    first = next(i for i, p in enumerate(products) if beta * beta > p)
    assert first > 0 or n > 10  # not merely the first split
    stats = oracle._bin_stats  # the check reads beta from the stats the checks share
    monkeypatch.setattr("sslab.cli._bin_stats", lambda instance, norm: (beta, *stats(instance, norm=norm)[1:]))
    path = tmp_path / "i.txt"
    write_instance(inst, path)
    code, lines, _ = _run(capsys, "verify", str(path), "--checks", "cauchyschwarz")
    assert code == 3
    assert lines == [{"check": "cauchyschwarz", "instances": 1, "violations": 1},
                     {"check": "cauchyschwarz", "instance": str(path),
                      "detail": f"beta^2 {beta * beta} > {products[first]} on split {list(splits[first])}"}]


def test_verify_computes_each_instances_bin_stats_once(tmp_path, capsys, monkeypatch):
    # the four checks read one whole-instance _bin_stats per instance, with the norm
    # because l2identity reads it, wherever in the library they would have built it
    whole = []
    stats = oracle._bin_stats

    def spy(instance, subset_mask=None, norm=True):
        if subset_mask is None:
            whole.append((instance.weights, norm))
        return stats(instance, subset_mask, norm)

    for module in ("cli", "oracle", "combinatorics", "dispatch"):
        monkeypatch.setattr(f"sslab.{module}._bin_stats", spy)
    code, lines, _ = _run(capsys, "verify", "--n-max", "8", "--seed", "1")
    assert code == 0 and [rec["instances"] for rec in lines] == [53] * 4
    assert len(whole) == 53 and all(norm for _, norm in whole)
    whole.clear()
    code, lines, _ = _run(capsys, "verify", "--n-max", "8", "--seed", "1", "--checks", "udcp,sumsvsbin")
    assert code == 0 and len(whole) == 53 and not any(norm for _, norm in whole)
    # a refusal is not kept as a result: each check that reads the stats asks for them
    # again and is refused again, so every line counts no instance
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "1")
    path = tmp_path / "i.txt"
    write_instance(gen_super_increasing(20), path)
    for checks, asked in ((("udcp", "sumsvsbin"), 1), (("sumsvsbin", "cauchyschwarz"), 2)):
        whole.clear()
        code, lines, err = _run(capsys, "verify", str(path), "--checks", ",".join(checks))
        assert code == 0
        assert lines == [{"check": c, "instances": 0, "violations": 0} for c in checks]
        assert f"{', '.join(checks)} ran on none" in err
        assert len(whole) == asked  # udcp's extraction is refused before it reads them


def test_verify_skips_cauchyschwarz_past_the_batched_charge(tmp_path, capsys, monkeypatch, charges):
    # the dense sums of n = 10's 126 splits are charged before they are made: a limit a
    # byte under that charge, and over max_bin's table, skips the instance through the
    # CapacityError path; at the charge itself the check runs
    inst = gen_random_density(10, 1.0, RandomSource(5))
    max_bin(inst)
    table = max(charges)
    charges.clear()
    bin_l2_rows(inst, [s for s in combinations(range(10), 5) if s[0] == 0])
    (rows,) = charges
    assert table < rows
    path = tmp_path / "i.txt"
    write_instance(inst, path)
    for limit, ran in ((rows - 1, 0), (rows, 1)):
        monkeypatch.setattr("sslab.core.memory_limit_bytes", lambda: limit)
        code, lines, err = _run(capsys, "verify", str(path), "--checks", "cauchyschwarz")
        assert code == 0
        assert lines == [{"check": "cauchyschwarz", "instances": ran, "violations": 0}]
        assert ("ran on none" in err) == (not ran)


def test_verify_skips_what_classify_refuses(tmp_path, capsys, monkeypatch):
    # 2^20 distinct sums exceed 1 MB: skipped like the other checks' sizes
    path = tmp_path / "i.txt"
    write_instance(gen_super_increasing(20), path)
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "1")
    code, lines, _ = _run(capsys, "verify", str(path), "--checks", "sumsvsbin")
    assert code == 0
    assert lines == [{"check": "sumsvsbin", "instances": 0, "violations": 0}]


def test_verify_skips_what_the_ternary_count_refuses(tmp_path, capsys, monkeypatch):
    # under 1 MB the ternary halves of 14 weights of 1000 bits (2 x 3^7 vectors at
    # 356 B) are refused, so l2identity skips that instance, counts only what ran
    # and exits 0; 14 weights of 14 bits (42 B a vector) run
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "1")
    for bits, ran in ((1000, 0), (14, 1)):
        path = tmp_path / f"planted{bits}.ss"
        write_instance(gen_planted(14, bits, RandomSource(1))[0], path)
        code, lines, _ = _run(capsys, "verify", str(path), "--checks", "l2identity")
        assert code == 0
        assert lines == [{"check": "l2identity", "instances": ran, "violations": 0}]
    # the int64 halves of every n <= 14 fit under 1 MB, so the corpus runs whole
    code, lines, _ = _run(capsys, "verify", "--checks", "l2identity", "--n-max", "14")
    monkeypatch.delenv("SSLAB_MEM_LIMIT_MB")
    assert code == 0 and lines == _run(capsys, "verify", "--checks", "l2identity", "--n-max", "14")[1]


@pytest.mark.parametrize("command", ["gen", "hash"])
def test_every_command_refuses_a_malformed_memory_limit(tmp_path, capsys, monkeypatch, command):
    # gen and hash charge no bytes, yet they refuse the limit as solve does, before they write
    inst, out = tmp_path / "i.txt", tmp_path / "out.ss"
    write_instance(gen_random_density(8, 1.0, RandomSource(3)), inst)
    argv = {"gen": ["gen", "--kind", "density", "--n", "8", "--out", str(out)],
            "hash": ["hash", str(inst), "--B", "4096", "--out", str(out)]}[command]
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "abc")
    code, lines, err = _run(capsys, *argv)
    assert (code, lines) == (1, []) and "SSLAB_MEM_LIMIT_MB" in err
    assert not out.exists()


def test_verify_runs_every_check_past_14_items(capsys):
    checks = ("udcp", "l2identity", "cauchyschwarz")
    code, lines, err = _run(capsys, "verify", "--n-max", "16", "--checks", ",".join(checks))
    assert code == 0
    assert lines == [{"check": c, "instances": 113, "violations": 0} for c in checks]
    assert "all checks passed on 113 instance(s)" in err


def test_verify_names_what_the_memory_limit_skipped(capsys, monkeypatch):
    # under 1 MB the tables of the larger instances are refused: each check that ran
    # says how many of the corpus it skipped, and the run still exits 0
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "1")
    code, lines, err = _run(capsys, "verify", "--n-max", "17", "--checks", "l2identity,udcp")
    assert code == 0
    assert lines == [{"check": "l2identity", "instances": 104, "violations": 0},
                     {"check": "udcp", "instances": 91, "violations": 0}]
    assert "passed" not in err
    assert "l2identity skipped 16 of 120 instance(s)" in err and "udcp skipped 29 of 120 instance(s)" in err


def test_verify_never_says_passed_over_no_instance(tmp_path, capsys, monkeypatch):
    # a check that skipped every instance passed nothing: the closing note names
    # it instead, stdout keeps one line per check, and the exit code stays 0
    monkeypatch.setenv("SSLAB_MEM_LIMIT_MB", "1")
    wide = tmp_path / "wide.ss"
    write_instance(gen_planted(14, 1000, RandomSource(1))[0], wide)
    code, lines, err = _run(capsys, "verify", str(wide), "--checks", "l2identity")
    assert code == 0
    assert lines == [{"check": "l2identity", "instances": 0, "violations": 0}]
    assert "passed" not in err and "l2identity" in err
    # an n = 0 file runs l2identity alone: the three idle checks are named
    empty = tmp_path / "empty.ss"
    write_instance(Instance(weights=(), target=0), empty)
    code, lines, err = _run(capsys, "verify", str(empty))
    assert code == 0 and len(lines) == 4
    assert "passed" not in err and "udcp, cauchyschwarz, sumsvsbin" in err


def test_verify_unknown_check_is_domain_error(capsys):
    code, _, err = _run(capsys, "verify", "--checks", "bogus")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("checks", ["", ",", " , "])
def test_verify_refuses_empty_check_list(capsys, checks):
    # no check named: it would run nothing and report all checks passed
    code, lines, err = _run(capsys, "verify", "--n-max", "4", "--checks", checks)
    assert code == 1
    assert lines == [] and "--checks" in err


@pytest.mark.parametrize("n_max", ["1", "-5"])
def test_verify_refuses_empty_corpus(capsys, n_max):
    # the generated corpus starts at n = 2, so it would check nothing and pass
    code, lines, err = _run(capsys, "verify", "--n-max", n_max)
    assert code == 1
    assert lines == [] and "--n-max" in err


def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code, lines, _ = _run(capsys, "bench", "--alg", "mim", "--n-from", "8",
                          "--n-to", "11", "--csv", str(out))
    assert code == 0
    assert lines[0]["rows"] == 4
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["n"] for r in rows] == ["8", "9", "10", "11"]
    assert all(int(r["sums_enumerated"]) > 0 for r in rows)


def test_tables_call_through_the_module(tmp_path, capsys, monkeypatch):
    # a wrapper set on sslab.cli after import, as the bench's tracer sets one,
    # sees every call of gen, solve and bench
    import sslab.cli

    calls = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("meet_in_middle", "gen_geometric_pairs"):
        monkeypatch.setattr(f"sslab.cli.{name}", spy(getattr(sslab.cli, name)))
    path = tmp_path / "g.ss"
    assert _run(capsys, "gen", "--kind", "geometric", "--n", "8", "--out", str(path))[0] == 0
    assert _run(capsys, "solve", "--alg", "mim", str(path))[0] == 0
    code, lines, _ = _run(capsys, "bench", "--alg", "mim", "--kind", "geometric",
                          "--n-from", "4", "--n-to", "4", "--csv", str(tmp_path / "b.csv"))
    assert code == 0 and lines[0]["rows"] == 1
    assert calls == ["gen_geometric_pairs", "meet_in_middle", "gen_geometric_pairs", "meet_in_middle"]


@pytest.mark.parametrize("d", ["inf", "1e-300"])
def test_gen_refuses_an_unbounded_density(tmp_path, capsys, d):
    # 2^(n/d) has no floor to draw weights below: a domain error, not a traceback
    out = tmp_path / "i.txt"
    code, lines, err = _run(capsys, "gen", "--kind", "density", "--n", "8", "--d", d,
                            "--out", str(out))
    assert code == 1
    assert lines == [] and "error:" in err and not out.exists()


@pytest.mark.parametrize("alg", ["sampler", "repr", "smallbin", "auto", "mim"])
def test_negative_budget_is_a_usage_error(tmp_path, capsys, alg):
    path = tmp_path / "i.txt"
    write_instance(gen_random_density(12, 1.0, RandomSource(3)), path)
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(path), "--alg", alg, "--budget", "-1"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err
    code, _, _ = _run(capsys, "solve", str(path), "--alg", alg, "--budget", "0")
    assert code == 0


_INTEGER_FLAGS = {  # a command that takes the flag, which comes last
    "--n": ["gen", "--kind", "equal", "--out", "{out}", "--n"],
    "--bits": ["gen", "--kind", "planted", "--n", "4", "--out", "{out}", "--bits"],
    "--value": ["gen", "--kind", "equal", "--n", "4", "--out", "{out}", "--value"],
    "--seed": ["solve", "{inst}", "--alg", "mim", "--seed"],
    "--budget": ["solve", "{inst}", "--alg", "repr", "--budget"],
    "--B": ["hash", "{inst}", "--B"],
    "--n-max": ["verify", "--n-max"],
    "--n-from": ["bench", "--alg", "mim", "--n-to", "4", "--csv", "{out}", "--n-from"],
    "--n-to": ["bench", "--alg", "mim", "--n-from", "4", "--csv", "{out}", "--n-to"],
}


@pytest.mark.parametrize("flag", sorted(_INTEGER_FLAGS))
@pytest.mark.parametrize("value", ["1_0", "\u0663"])
def test_integer_flags_take_the_instance_format(tmp_path, capsys, flag, value):
    # the instance file's integers: int() alone would take 1_0 and a non-ASCII 3
    inst, out = tmp_path / "i.txt", tmp_path / "out"
    write_instance(gen_random_density(8, 1.0, RandomSource(3)), inst)
    argv = [a.format(inst=inst, out=out) for a in _INTEGER_FLAGS[flag]]
    with pytest.raises(SystemExit) as exc:
        main(argv + [value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err and not out.exists()
    code, _, _ = _run(capsys, *argv, "4")
    assert code == 0


def test_verify_skips_an_empty_instance(tmp_path, capsys):
    # n = 0 is outside sumsvsbin's range, as it is outside udcp's and cauchyschwarz's
    path = tmp_path / "empty.ss"
    write_instance(Instance(weights=(), target=0), path)
    code, lines, _ = _run(capsys, "verify", str(path))
    assert code == 0
    assert {rec["check"]: rec["instances"] for rec in lines} == {
        "udcp": 0, "l2identity": 1, "cauchyschwarz": 0, "sumsvsbin": 0}


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "missing.txt"])  # --alg is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_missing_file_is_reported(capsys):
    code, _, err = _run(capsys, "solve", "/nonexistent/inst.txt", "--alg", "dp")
    assert code == 1
    assert "error:" in err


def test_solve_output_is_deterministic(tmp_path, capsys):
    path = tmp_path / "i.txt"
    _run(capsys, "gen", "--kind", "density", "--n", "12", "--d", "1",
         "--seed", "23", "--out", str(path))
    main(["solve", str(path), "--alg", "auto", "--seed", "9"])
    first = capsys.readouterr().out
    main(["solve", str(path), "--alg", "auto", "--seed", "9"])
    assert capsys.readouterr().out == first


def test_bench_makes_every_instance_before_any_solve(tmp_path, capsys, monkeypatch):
    # n = 3 has no geometric instance: the sweep fails before it solves n = 2
    import sslab.cli

    solved = []
    dp = sslab.cli.bellman_dp
    monkeypatch.setattr("sslab.cli.bellman_dp", lambda inst: solved.append(inst.n) or dp(inst))
    out = tmp_path / "b.csv"
    code, lines, err = _run(capsys, "bench", "--alg", "dp", "--kind", "geometric", "--n-from", "2",
                            "--n-to", "5", "--csv", str(out))
    assert (code, lines, solved) == (1, [], [])
    assert "n must be even" in err and not out.exists()


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    # the parser is built on the first call and reused; a command replaced on the
    # module after that still runs, since main looks each one up by name
    import sslab.cli

    built = []
    build = sslab.cli.build_parser
    monkeypatch.setattr("sslab.cli._parser", None)
    monkeypatch.setattr("sslab.cli.build_parser", lambda: built.append(1) or build())
    path = tmp_path / "g.ss"
    assert _run(capsys, "gen", "--kind", "geometric", "--n", "8", "--out", str(path))[0] == 0
    monkeypatch.setattr("sslab.cli._cmd_solve", lambda args: 7)
    assert _run(capsys, "solve", "--alg", "mim", str(path))[0] == 7
    assert built == [1]
