import csv
import sys

import pytest

from dpllc.cli import main
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
    "universe-below-circuit": (
        ["query", "--count", "--universe", "2", "{d}/b.nnf"],
        "error: --universe below the circuit's own universe",
    ),
    "contradictory-condition": (
        ["query", "--condition", "1 -1", "{d}/a.nnf"],
        "error: term assigns variable 1 both ways",
    ),
    "bench-not-a-directory": (
        ["bench", "{d}/run.cnf"],
        "error: {d}/run.cnf is not a directory",
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
