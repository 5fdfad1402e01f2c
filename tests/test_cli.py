import csv
import math
import sys
import time

import pytest

from dpllc.cli import MAX_COUNT_UNIVERSE, _count_text, main
from dpllc.store import FALSE, TRUE, Circuit, NodeStore, parse_nnf, serialize

from util import RUNNING_DIMACS


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "run.cnf").write_text(RUNNING_DIMACS)
    (tmp_path / "ord.txt").write_text("1 2 3\n")
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def test_compile_then_check_and_count(workdir, capsys):
    out = workdir / "run.nnf"
    assert run("compile", "--lang", "obdd", "--order", workdir / "ord.txt",
               workdir / "run.cnf", "-o", out) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("nodes=6 edges=8 time=")
    circuit = parse_nnf(out.read_text())
    assert circuit.universe == 3

    assert run("check", "--language", "obdd", "--order", workdir / "ord.txt", out) == 0
    assert "verdict=true language=obdd" in capsys.readouterr().out

    assert run("query", "--count", out) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_compile_obdd_requires_order(workdir):
    with pytest.raises(SystemExit) as e:
        run("compile", "--lang", "obdd", workdir / "run.cnf", "-o", workdir / "x.nnf")
    assert e.value.code == 2


def test_compile_parse_error_exits_1(workdir, capsys):
    bad = workdir / "bad.cnf"
    bad.write_text("p cnf 1 1\n2 0\n")
    assert run("compile", "--lang", "fbdd", bad, "-o", workdir / "x.nnf") == 1
    assert "error" in capsys.readouterr().err


# Exact stderr of failing commands; {d} stands for the work directory.
ERROR_CASES = {
    "missing-cnf": (
        ["compile", "--lang", "fbdd", "{d}/missing.cnf", "-o", "{d}/x.nnf"],
        "error: cannot read {d}/missing.cnf: [Errno 2] No such file or directory: "
        "'{d}/missing.cnf'",
    ),
    "missing-order": (
        ["compile", "--lang", "obdd", "--order", "{d}/missing.ord", "{d}/run.cnf", "-o", "{d}/x.nnf"],
        "error: cannot read {d}/missing.ord: [Errno 2] No such file or directory: "
        "'{d}/missing.ord'",
    ),
    "missing-nnf": (
        ["query", "--count", "{d}/missing.nnf"],
        "error: cannot read {d}/missing.nnf: [Errno 2] No such file or directory: "
        "'{d}/missing.nnf'",
    ),
    "bad-cnf": (
        ["compile", "--lang", "fbdd", "{d}/bad.cnf", "-o", "{d}/x.nnf"],
        "error: {d}/bad.cnf: line 2: variable 2 exceeds declared universe 1",
    ),
    "binary-cnf": (
        ["compile", "--lang", "fbdd", "{d}/binary.cnf", "-o", "{d}/x.nnf"],
        "error: {d}/binary.cnf: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte",
    ),
    "bad-order": (
        ["compile", "--lang", "obdd", "--order", "{d}/bad.ord", "{d}/run.cnf", "-o", "{d}/x.nnf"],
        "error: {d}/bad.ord: invalid literal for int() with base 10: 'x'",
    ),
    "repeated-order": (
        ["check", "--language", "obdd", "--order", "{d}/dup.ord", "{d}/a.nnf"],
        "error: {d}/dup.ord: order is not a permutation of 1..3",
    ),
    "short-order": (
        ["compile", "--lang", "obdd", "--order", "{d}/short.ord", "{d}/run.cnf", "-o", "{d}/x.nnf"],
        "error: order covers 2 of 3 variables",
    ),
    "bad-nnf-query": (
        ["query", "--count", "{d}/bad.nnf"],
        "error: {d}/bad.nnf: line 2: non-numeric field in 'L x'",
    ),
    "bad-nnf-check": (
        ["check", "--language", "fbdd", "{d}/bad.nnf"],
        "error: {d}/bad.nnf: line 2: non-numeric field in 'L x'",
    ),
    "bad-nnf-eq": (
        ["eq", "{d}/a.nnf", "{d}/bad.nnf"],
        "error: {d}/bad.nnf: line 2: non-numeric field in 'L x'",
    ),
    "universe-mismatch": (
        ["eq", "{d}/a.nnf", "{d}/b.nnf"],
        "error: universe mismatch: 2 vs 3",
    ),
    "non-integer-literal": (
        ["query", "--entails", "1 x", "{d}/a.nnf"],
        "error: literals must be signed integers, got '1 x'",
    ),
    "zero-literal": (
        ["query", "--implicant", "0", "{d}/a.nnf"],
        "error: 0 is not a literal",
    ),
    "count-universe-too-large": (
        ["query", "--count", "{d}/huge.nnf"],
        "error: --count serves a universe of at most 10000000 variables, not 2000000000",
    ),
    "obdd-order-universe-too-large": (
        ["check", "--language", "obdd", "{d}/huge.nnf"],
        "error: --language obdd without --order serves at most 10000000 variables, not 2000000000",
    ),
    "count-universe-raised-too-far": (
        ["query", "--count", "--universe", "10000001", "{d}/a.nnf"],
        "error: --count serves a universe of at most 10000000 variables, not 10000001",
    ),
    "universe-below-circuit": (
        ["query", "--count", "--universe", "2", "{d}/b.nnf"],
        "error: --universe below the circuit's own universe",
    ),
    "entails-wider-than-universe": (
        ["query", "--entails", "1 2 3", "{d}/a.nnf"],
        "error: term variable 3 is outside 1..2 or fixed",
    ),
    "implicant-wider-than-universe": (
        ["query", "--implicant", "1 2 3", "{d}/a.nnf"],
        "error: term variable 3 is outside 1..2 or fixed",
    ),
    "count-universe-below-mentioned": (
        ["query", "--count", "{d}/low.nnf"],
        "error: {d}/low.nnf: line 3: variable 2 exceeds declared universe 1",
    ),
    "valid-universe-below-mentioned": (
        ["query", "--valid", "{d}/low.nnf"],
        "error: {d}/low.nnf: line 3: variable 2 exceeds declared universe 1",
    ),
    "implicant-universe-below-mentioned": (
        ["query", "--implicant", "1", "{d}/low.nnf"],
        "error: {d}/low.nnf: line 3: variable 2 exceeds declared universe 1",
    ),
    "node-on-fixed-variable": (
        ["query", "--count", "{d}/on-fixed.nnf"],
        "error: {d}/on-fixed.nnf: line 4: variable 2 is fixed",
    ),
    "malformed-fixed-line": (
        ["query", "--count", "{d}/bad-fixed.nnf"],
        "error: {d}/bad-fixed.nnf: line 2: malformed fixed line 'c fixed 3'",
    ),
    "condition-on-fixed-variable": (
        ["query", "--condition", "-2", "{d}/cond.nnf"],
        "error: term variable 2 is outside 1..3 or fixed",
    ),
    "contradictory-condition": (
        ["query", "--condition", "1 -1", "{d}/a.nnf"],
        "error: term assigns variable 1 both ways",
    ),
    "bench-not-a-directory": (
        ["bench", "{d}/run.cnf"],
        "error: {d}/run.cnf is not a directory",
    ),
    "unwritable-compile-output": (
        ["compile", "--lang", "fbdd", "{d}/run.cnf", "-o", "{d}/missing/x.nnf"],
        "error: cannot write {d}/missing/x.nnf: [Errno 2] No such file or directory: "
        "'{d}/missing/x.nnf'",
    ),
    "unwritable-condition-output": (
        ["query", "--condition", "1", "-o", "{d}/missing/x.nnf", "{d}/a.nnf"],
        "error: cannot write {d}/missing/x.nnf: [Errno 2] No such file or directory: "
        "'{d}/missing/x.nnf'",
    ),
    "unwritable-bench-output": (
        ["bench", "{d}/no-cnf", "-o", "{d}/missing/x.csv"],
        "error: cannot write {d}/missing/x.csv: [Errno 2] No such file or directory: "
        "'{d}/missing/x.csv'",
    ),
    "missing-bench-order": (
        ["bench", "{d}/no-cnf", "--order", "{d}/missing.ord"],
        "error: cannot read {d}/missing.ord: [Errno 2] No such file or directory: "
        "'{d}/missing.ord'",
    ),
    "bad-bench-order": (
        ["bench", "{d}/no-cnf", "--order", "{d}/bad.ord"],
        "error: {d}/bad.ord: invalid literal for int() with base 10: 'x'",
    ),
    "bench-time-limit-nan": (
        ["bench", "{d}/no-cnf", "--time-limit", "nan"],
        "error: --time-limit must be positive and finite, got nan",
    ),
    "bench-time-limit-inf": (
        ["bench", "{d}/no-cnf", "--time-limit", "inf"],
        "error: --time-limit must be positive and finite, got inf",
    ),
    "bench-time-limit-zero": (
        ["bench", "{d}/no-cnf", "--time-limit", "0"],
        "error: --time-limit must be positive and finite, got 0.0",
    ),
    "bench-time-limit-negative": (
        ["bench", "{d}/no-cnf", "--time-limit", "-1"],
        "error: --time-limit must be positive and finite, got -1.0",
    ),
    "bench-memory-zero": (
        ["bench", "{d}/no-cnf", "--memory-mb", "0"],
        "error: --memory-mb must be positive, got 0",
    ),
    "bench-memory-negative": (
        ["bench", "{d}/no-cnf", "--memory-mb", "-5"],
        "error: --memory-mb must be positive, got -5",
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_messages_are_pinned(workdir, capsys, case):
    (workdir / "bad.cnf").write_text("p cnf 1 1\n2 0\n")
    (workdir / "binary.cnf").write_bytes(b"\xff\xfe\n")
    (workdir / "bad.ord").write_text("1 x\n")
    (workdir / "dup.ord").write_text("1 1 2\n")
    (workdir / "short.ord").write_text("1 2\n")
    (workdir / "bad.nnf").write_text("nnf 1 0 2\nL x\n")
    (workdir / "a.nnf").write_text("nnf 1 0 2\nA 0\n")
    (workdir / "b.nnf").write_text("nnf 1 0 3\nA 0\n")
    (workdir / "huge.nnf").write_text("nnf 3 2 2000000000\nL 1\nL 2\nA 2 0 1\n")
    # Declares a universe of 1 but mentions variables 1 and 2.
    (workdir / "low.nnf").write_text("nnf 3 2 1\nL 1\nL 2\nA 2 0 1\n")
    # Fixes variable 2, then mentions it.
    (workdir / "on-fixed.nnf").write_text("nnf 3 2 2\nc fixed 2\nL 1\nL 2\nA 2 0 1\n")
    # Fixes variable 3 of a 2-variable bound.
    (workdir / "bad-fixed.nnf").write_text("nnf 1 0 2\nc fixed 3\nA 0\n")
    # Variable 2 of 1..3 already conditioned away.
    (workdir / "cond.nnf").write_text("nnf 1 0 3\nc fixed 2\nL 1\n")
    (workdir / "no-cnf").mkdir()
    argv, expected = ERROR_CASES[case]
    d = str(workdir)
    assert run(*(arg.format(d=d) for arg in argv)) == 1
    captured = capsys.readouterr()
    assert captured.err == expected.format(d=d) + "\n"
    assert captured.out == ""


def test_query_flags(workdir, capsys):
    out = workdir / "d.nnf"
    run("compile", "--lang", "ddnnf", workdir / "run.cnf", "-o", out)
    capsys.readouterr()

    assert run("query", "--sat", out) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert run("query", "--valid", out) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert run("query", "--entails", "1 2", out) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert run("query", "--entails", "1", out) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert run("query", "--implicant", "1 2", out) == 0
    assert capsys.readouterr().out.strip() == "true"

    assert run("query", "--enumerate", out) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    covered = sum(2 ** (3 - len(line.split())) for line in lines)
    assert covered == 4
    assert run("query", "--enumerate", "--limit", "1", out) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1


def test_query_enumerates_a_deep_chain_at_the_default_recursion_limit(workdir, capsys):
    n = 3000
    limit = sys.getrecursionlimit()
    assert limit < n
    s = NodeStore()
    node = TRUE
    for v in range(n, 0, -1):
        node = s.get_node(v, FALSE, node)
    chain = workdir / "chain.nnf"
    chain.write_text(serialize(Circuit(s, node, n)))
    assert run("query", "--enumerate", chain) == 0
    assert capsys.readouterr().out == " ".join(map(str, range(1, n + 1))) + "\n"
    assert sys.getrecursionlimit() == limit


def test_query_condition_writes_circuit(workdir, capsys):
    out = workdir / "d.nnf"
    run("compile", "--lang", "ddnnf", workdir / "run.cnf", "-o", out)
    cond = workdir / "cond.nnf"
    assert run("query", "--condition", "1", "-o", cond, out) == 0
    capsys.readouterr()
    assert run("query", "--count", cond) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_query_rejects_non_dnnf_circuit(workdir, capsys):
    # Conjunction of x1 with a decision on x1; written by hand since the
    # compilers never produce one.
    bad = workdir / "bad.nnf"
    bad.write_text(
        "nnf 8 10 2\nL 1\nO 0 0\nA 0\nL -1\nA 2 2 3\nA 2 0 1\nO 1 2 4 5\nA 2 0 6\n"
    )
    assert run("query", "--count", bad) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["query", "--enumerate", "--limit", "-1"], "error: --limit must not be negative, got -1"),
        (["eq", "{a}", "--rounds", "0"], "error: --rounds must be at least 1, got 0"),
        (["eq", "{a}", "--rounds", "-1"], "error: --rounds must be at least 1, got -1"),
    ],
    ids=["limit-negative", "rounds-zero", "rounds-negative"],
)
def test_degenerate_counts_are_usage_errors(workdir, capsys, argv, message):
    a = workdir / "a.nnf"
    a.write_text("nnf 1 0 0\nA 0\n")
    with pytest.raises(SystemExit) as e:
        run(*(arg.format(a=a) for arg in argv), a)
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""


def test_eq_command(workdir, capsys):
    a, b = workdir / "a.nnf", workdir / "b.nnf"
    run("compile", "--lang", "fbdd", workdir / "run.cnf", "-o", a)
    run("compile", "--lang", "ddnnf", workdir / "run.cnf", "-o", b)
    capsys.readouterr()
    assert run("eq", a, a) == 0
    assert "equivalent-probably" in capsys.readouterr().out
    assert run("eq", a, b, "--seed", "7") == 0
    assert "equivalent-probably" in capsys.readouterr().out


def test_eq_prints_the_refuting_round(workdir, capsys):
    (workdir / "x.nnf").write_text("nnf 1 0 1\nL 1\n")
    (workdir / "not-x.nnf").write_text("nnf 1 0 1\nL -1\n")
    assert run("eq", workdir / "x.nnf", workdir / "not-x.nnf") == 0
    assert capsys.readouterr().out == "not-equivalent round=1\n"


def test_check_ddnnf_reports_a_verdict_and_a_witness(workdir, capsys):
    good, bad = workdir / "d.nnf", workdir / "shared.nnf"
    run("compile", "--lang", "ddnnf", workdir / "run.cnf", "-o", good)
    # A conjunction of x1 and -x1.
    bad.write_text("nnf 3 2 1\nL 1\nL -1\nA 2 0 1\n")
    capsys.readouterr()
    assert run("check", "--language", "ddnnf", good) == 0
    assert capsys.readouterr().out == "verdict=true language=decision-dnnf witness=-\n"
    assert run("check", "--language", "ddnnf", bad) == 0
    out = capsys.readouterr().out
    assert out == "verdict=false language=decision-dnnf witness=conjuncts of node 4 share variable 1\n"


def _str_unlimited(n: int) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_count_text_matches_str_at_every_size():
    for bits in (0, 1, 4095, 4096, 4097, 8191, 8192, 8193, 14301, 50001):
        for n in (1 << bits, (1 << bits) - 1, 3 << bits):
            assert _count_text(n) == _str_unlimited(n)


def test_counts_above_the_str_digit_limit_print(workdir, tmp_path, capsys):
    # One clause over 15,000 variables: 3 * 2^14998 models, 4,515 digits,
    # past the 4,300 digits str(int) converts by default.
    n = 15_000
    expected = _str_unlimited(3 << (n - 2))
    assert len(expected) > sys.get_int_max_str_digits()
    bench = tmp_path / "bench"
    bench.mkdir()
    cnf = bench / "wide.cnf"
    cnf.write_text("p cnf %d 1\n1 2 0\n" % n)
    out = workdir / "wide.nnf"
    assert run("compile", "--lang", "ddnnf", cnf, "-o", out) == 0
    capsys.readouterr()
    assert run("query", "--count", out) == 0
    assert capsys.readouterr().out.strip() == expected
    report = tmp_path / "report.csv"
    assert run("bench", bench, "-o", report) == 0
    (row,) = csv.DictReader(report.open())
    assert row["status"] == "ok"
    assert row["models"] == expected


def test_count_prints_a_universe_at_the_cap(workdir, capsys):
    # The true circuit over MAX_COUNT_UNIVERSE variables: 2^(10^7) models.
    a = workdir / "a.nnf"
    a.write_text("nnf 1 0 2\nA 0\n")
    assert run("query", "--count", "--universe", MAX_COUNT_UNIVERSE, a) == 0
    out = capsys.readouterr().out.strip()
    assert len(out) == math.floor(MAX_COUNT_UNIVERSE * math.log10(2)) + 1
    assert out.startswith("9049")


def test_eq_on_a_huge_declared_universe_draws_only_what_occurs(workdir, capsys):
    # The header declares 2*10^9 variables, two of which occur; a point
    # over the whole universe would take minutes and gigabytes.
    a = workdir / "a.nnf"
    run("compile", "--lang", "fbdd", workdir / "run.cnf", "-o", a)
    lines = a.read_text().splitlines()
    nodes, edges, _ = lines[0].split()[1:]
    huge = workdir / "huge.nnf"
    huge.write_text("\n".join(["nnf %s %s 2000000000" % (nodes, edges)] + lines[1:]) + "\n")
    capsys.readouterr()
    start = time.perf_counter()
    assert run("eq", huge, huge) == 0
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().out.startswith("equivalent-probably rounds=5 ")


def test_eq_universe_mismatch(workdir, capsys):
    a = workdir / "a.nnf"
    b = workdir / "b.nnf"
    a.write_text("nnf 1 0 2\nA 0\n")
    b.write_text("nnf 1 0 3\nA 0\n")
    assert run("eq", a, b) == 1
    assert "universe mismatch" in capsys.readouterr().err


def test_check_reports_witness(workdir, capsys):
    bad = workdir / "fb.nnf"
    # decision on 1 above decision on 1: test-once violation
    bad.write_text(
        "nnf 7 8 2\nO 0 0\nA 0\nL -1\nL 1\nA 2 1 2\nA 2 0 3\nO 1 2 4 5\n"
    )
    assert run("check", "--language", "fbdd", bad) == 0
    out = capsys.readouterr().out
    assert "verdict=true" in out  # that file is actually fine: x1 once
    deeper = workdir / "fb2.nnf"
    # decision on 1 whose low child again decides 1 (high differs, so the
    # outer node does not collapse)
    deeper.write_text(
        "nnf 10 12 2\n"
        "O 0 0\nA 0\nL -1\nL 1\n"
        "A 2 1 2\nA 2 0 3\nO 1 2 4 5\n"
        "A 2 2 6\nA 2 1 3\nO 1 2 7 8\n"
    )
    assert run("check", "--language", "fbdd", deeper) == 0
    out = capsys.readouterr().out
    assert "verdict=false" in out and "variable 1" in out


def test_check_flags_order_violation(workdir, capsys):
    # An identity-ordered circuit checked against the reversed order.
    out = workdir / "run.nnf"
    run("compile", "--lang", "obdd", "--order", workdir / "ord.txt",
        workdir / "run.cnf", "-o", out)
    (workdir / "rev.txt").write_text("3 2 1\n")
    capsys.readouterr()
    assert run("check", "--language", "obdd", "--order", workdir / "rev.txt", out) == 0
    got = capsys.readouterr().out
    assert "verdict=false" in got and "violates the order" in got


def test_bench_csv(workdir, tmp_path, capsys):
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "one.cnf").write_text(RUNNING_DIMACS)
    (bench / "two.cnf").write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    out = tmp_path / "report.csv"
    assert run("bench", bench, "-o", out) == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["instance"] for r in rows] == ["one", "two"]
    assert rows[0]["models"] == "4" and rows[0]["status"] == "ok"
    assert rows[1]["models"] == "2"
    for lang in ("obdd", "fbdd", "ddnnf"):
        assert rows[0]["%s_size" % lang].isdigit()
        float(rows[0]["%s_time" % lang])


def test_bench_time_counts_the_order_it_computes(workdir, monkeypatch):
    # The time limit counts the RCM order bench computes, so the reported
    # obdd time must too.
    import multiprocessing

    from dpllc import cli

    real = cli.bandwidth_order

    def slow_order(cnf):
        time.sleep(0.2)
        return real(cnf)

    monkeypatch.setattr(cli, "bandwidth_order", slow_order)
    parent, child = multiprocessing.Pipe(duplex=False)
    cli._bench_worker(str(workdir / "run.cnf"), "obdd", None, None, child)
    status, models, _, elapsed = parent.recv()
    parent.close()
    assert (status, models) == ("ok", "4")
    assert elapsed >= 0.2


def test_bench_timeout_renders_dashes(workdir, tmp_path):
    import random

    bench = tmp_path / "bench"
    bench.mkdir()
    rng = random.Random(1)
    n, m = 60, 255
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append(" ".join(str(v if rng.random() < 0.5 else -v) for v in vs) + " 0")
    (bench / "hard.cnf").write_text("p cnf %d %d\n%s\n" % (n, m, "\n".join(clauses)))
    out = tmp_path / "report.csv"
    assert run("bench", bench, "--time-limit", "0.05", "-o", out) == 0
    rows = list(csv.DictReader(out.open()))
    assert rows[0]["status"] != "ok"
    assert "timeout" in rows[0]["status"]
    assert rows[0]["obdd_size"] == "-" or rows[0]["fbdd_size"] == "-"


@pytest.mark.parametrize(
    "value, message",
    [
        ("soon", "error: DPLLC_TIME_LIMIT must be a number of seconds, got 'soon'"),
        ("nan", "error: DPLLC_TIME_LIMIT must be positive and finite, got nan"),
        ("-1", "error: DPLLC_TIME_LIMIT must be positive and finite, got -1.0"),
    ],
    ids=["not-a-number", "nan", "negative"],
)
def test_bench_refuses_a_time_limit_from_the_environment(workdir, capsys, monkeypatch, value, message):
    (workdir / "no-cnf").mkdir()
    monkeypatch.setenv("DPLLC_TIME_LIMIT", value)
    assert run("bench", workdir / "no-cnf") == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message + "\n")


@pytest.mark.parametrize("lang", ["fbdd", "ddnnf"])
def test_a_huge_universe_with_small_variables_compiles(workdir, capsys, lang):
    # The kernels see the occurring variables renamed to 1..k, so neither
    # N nor a variable past the int32 bound reaches them.
    for var in (1, 3000000000):
        (workdir / "wide.cnf").write_text("p cnf 3000000000 1\n%d 0\n" % var)
        out = workdir / "wide.nnf"
        assert run("compile", "--lang", lang, workdir / "wide.cnf", "-o", out) == 0
        assert capsys.readouterr().out.startswith("nodes=")
        circuit = parse_nnf(out.read_text())
        assert circuit.num_vars == 3000000000
        assert "L %d" % var in out.read_text().splitlines()
