"""scripts/bench_record.py: reading perfbench's output lines and the
per-metric summary, on canned run lines (no benchmark is launched)."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

PROVENANCE = {
    "workload": "query-mix",
    "seed": 101,
    "kernel_backend": "py",
    "python": "3.11.7",
    "commit": "abc123",
    "src_sha256": "f00d",
    "rounds": 9,
}


def _stdout(seed, post_compile_s, correct=True, failed=0, layers=None):
    result = {
        "correct": correct,
        "attempted": 42,
        "failed": failed,
        "metrics": {
            "post_compile_s": {"value": post_compile_s, "unit": "s"},
            "circuit_nodes": {"value": 24663, "unit": "count"},
            **{name: {"value": value, "unit": "s"} for name, value in (layers or {}).items()},
        },
    }
    return "\n".join(
        ["building...", json.dumps({"provenance": dict(PROVENANCE, seed=seed)}), json.dumps(result)]
    ) + "\n"


def _run(seed, value, exit_code=0, **kw):
    return bench_record.parse_run("query-mix", seed, 0, exit_code, _stdout(seed, value, **kw), "")


def test_a_run_keeps_its_outcome_provenance_and_metrics():
    run = _run(101, 0.38)
    assert run["correct"] and run["exit_code"] == 0
    assert (run["attempted"], run["failed"]) == (42, 0)
    assert run["provenance"] == {
        "kernel_backend": "py",
        "python": "3.11.7",
        "commit": "abc123",
        "src_sha256": "f00d",
    }
    assert run["metrics"]["post_compile_s"] == {"value": 0.38, "unit": "s"}


@pytest.mark.parametrize(
    "exit_code, stdout, stderr",
    [
        (2, "", "perfbench: run from the root of a dpllc checkout"),
        (None, "", "timed out after 400 s"),
        (1, _stdout(101, 0.4, correct=False, failed=1), "wrong count"),
    ],
    ids=["refused", "timeout", "wrong-output"],
)
def test_a_failed_run_is_recorded(exit_code, stdout, stderr):
    run = bench_record.parse_run("query-mix", 101, 0, exit_code, stdout, stderr)
    assert not run["correct"]
    assert run["exit_code"] == exit_code
    assert run["stderr"] == stderr
    groups = bench_record.aggregate([run])
    assert groups["query-mix/trace0"]["runs"] == [run]
    assert groups["query-mix/trace0"]["failed_runs"] == 1


def test_summary_is_median_and_quartiles_over_every_run():
    runs = [_run(101 + i, v) for i, v in enumerate([0.40, 0.36, 0.39, 0.37])]
    runs.append(_run(105, 0.38, exit_code=1, correct=False, failed=1))
    runs.append(bench_record.parse_run("query-mix", 106, 0, 2, "", "refused"))
    runs.append(bench_record.parse_run("query-mix", 101, 1, 0, _stdout(101, 9.0), ""))
    groups = bench_record.aggregate(runs)
    assert sorted(groups) == ["query-mix/trace0", "query-mix/trace1"]
    plain = groups["query-mix/trace0"]
    assert len(plain["runs"]) == 6 and plain["failed_runs"] == 2
    post = plain["metrics"]["post_compile_s"]
    assert post["unit"] == "s"
    assert post["values"] == {"101": 0.40, "102": 0.36, "103": 0.39, "104": 0.37, "105": 0.38}
    assert post["median"] == pytest.approx(0.38)
    assert (post["q1"], post["q3"]) == (pytest.approx(0.37), pytest.approx(0.39))
    traced = groups["query-mix/trace1"]["metrics"]["post_compile_s"]
    assert traced["median"] == traced["q1"] == traced["q3"] == 9.0


def test_a_parent_run_pairs_every_run_and_counts_wins(monkeypatch):
    # A fake runner: this checkout is 0.1 s faster than the parent on every
    # seed but 104, where the two tie.
    monkeypatch.setattr(bench_record, "SEEDS", {0: (101, 102, 103, 104), 1: (101,)})
    monkeypatch.setattr(bench_record, "WORKLOADS", ("query-mix",))
    calls = []

    def fake_run(root, workload, seed, trace):
        calls.append((root, seed, trace))
        value = 0.5 if root == "PARENT" or seed == 104 else 0.4
        return bench_record.parse_run(workload, seed, trace, 0, _stdout(seed, value), "")

    rec, runs = bench_record.record("pr", "PARENT", run=fake_run)
    this = bench_record.ROOT
    # Odd seeds run this checkout first, even seeds the parent.
    assert calls == [
        (this, 101, 0), ("PARENT", 101, 0),
        ("PARENT", 102, 0), (this, 102, 0),
        (this, 103, 0), ("PARENT", 103, 0),
        ("PARENT", 104, 0), (this, 104, 0),
        (this, 101, 1), ("PARENT", 101, 1),
    ]
    assert len(runs) == 10
    assert sorted(rec["parent_groups"]) == sorted(rec["groups"]) == ["query-mix/trace0", "query-mix/trace1"]
    before = rec["parent_groups"]["query-mix/trace0"]["metrics"]["post_compile_s"]
    assert before["median"] == 0.5 and "wins" not in before
    after = rec["groups"]["query-mix/trace0"]["metrics"]["post_compile_s"]
    assert (after["wins"], after["pairs"]) == (3, 4)
    assert after["median"] == pytest.approx(0.4)
    # Equal node counts are no win either.
    nodes = rec["groups"]["query-mix/trace0"]["metrics"]["circuit_nodes"]
    assert (nodes["wins"], nodes["pairs"]) == (0, 4)


def test_without_a_parent_the_record_has_no_pairs():
    def fake_run(root, workload, seed, trace):
        return bench_record.parse_run(workload, seed, trace, 0, _stdout(seed, 0.4), "")

    rec, runs = bench_record.record("solo", run=fake_run)
    assert "parent_groups" not in rec
    assert len(runs) == sum(len(s) for s in bench_record.SEEDS.values()) * len(bench_record.WORKLOADS)
    assert all("wins" not in m for g in rec["groups"].values() for m in g["metrics"].values())


def test_a_traced_group_records_each_layer_per_seed(monkeypatch):
    # A fake runner whose traced runs print layer seconds; seed 103 times
    # no compile.
    monkeypatch.setattr(bench_record, "SEEDS", {0: (101,), 1: (101, 102, 103)})
    monkeypatch.setattr(bench_record, "WORKLOADS", ("ddnnf-pipeline",))
    layers = {
        101: {"compiler.compile.s": 0.2, "store.parse_nnf.s": 0.05, "checks.compile_guided.s": 0.1},
        102: {"compiler.compile.s": 0.4, "store.parse_nnf.s": 0.1, "checks.compile_guided.s": 0.2},
        103: {"store.parse_nnf.s": 0.1},
    }

    def fake_run(root, workload, seed, trace):
        out = _stdout(seed, 0.4, layers=layers[seed] if trace else None)
        return bench_record.parse_run(workload, seed, trace, 0, out, "")

    rec, _ = bench_record.record("solo", run=fake_run)
    assert "store.parse_nnf.s" not in rec["groups"]["ddnnf-pipeline/trace0"]["metrics"]
    traced = rec["groups"]["ddnnf-pipeline/trace1"]["metrics"]
    raw = traced["store.parse_nnf.s"]
    assert raw["values"] == {"101": 0.05, "102": 0.1, "103": 0.1}
    assert (raw["unit"], raw["median"]) == ("s", 0.1)
    assert traced["compiler.compile.s"]["values"] == {"101": 0.2, "102": 0.4}


def test_a_run_writes_no_bytecode_into_the_checkout(monkeypatch):
    seen = {}

    def fake_subprocess_run(cmd, **kwargs):
        seen.update(kwargs, cmd=cmd)
        return subprocess.CompletedProcess(cmd, 0, _stdout(101, 0.4), "")

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "")
    monkeypatch.setattr(bench_record.subprocess, "run", fake_subprocess_run)
    run = bench_record.run_once("CHECKOUT", "query-mix", 101, 0)
    assert run["correct"] and run["metrics"]["post_compile_s"]["value"] == 0.4
    assert seen["cwd"] == "CHECKOUT"
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert seen["cmd"][1:] == [
        "perfbench/run.py", "--workload", "query-mix", "--seed", "101", "--trace", "0"
    ]



def _groups(metrics, trace=0):
    """Groups of query-mix runs on seeds 101.. that print `metrics`, a
    map from each metric to its value per run."""
    runs = []
    for i, seed in enumerate(range(101, 101 + len(next(iter(metrics.values()))))):
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {m: {"value": v[i], "unit": "ms"} for m, v in metrics.items()}}
        runs.append(bench_record.parse_run("query-mix", seed, trace, 0, json.dumps(result), ""))
    return bench_record.aggregate(runs)


def _flags(parent, change, metric="query_p50_ms", trace=0):
    groups = _groups({metric: change}, trace)
    bench_record.add_wins(groups, _groups({metric: parent}, trace))
    entry = groups["query-mix/trace%d" % trace]["metrics"][metric]
    return entry["wins"], entry.get("gain"), entry.get("regressed")


PARENT = [3.00, 3.02, 3.04, 3.06, 3.08, 3.10, 3.12, 3.14, 3.16, 3.18]  # q3 - q1 = 0.09


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_parents_quartiles():
    assert _flags(PARENT, [1.9] * 10) == (10, True, False)
    assert _flags(PARENT, [1.9] * 9 + [3.5]) == (9, True, False)
    # Eight wins are too few, whatever the gap.
    assert _flags(PARENT, [1.9] * 8 + [3.5, 3.5]) == (8, False, False)
    # Ten wins by less than the parent's own spread: medians 3.09 -> 3.01.
    assert _flags(PARENT, [p - 0.08 for p in PARENT]) == (10, False, False)
    # The gain is in the direction the metric calls better.
    assert _flags(PARENT, [2 * p for p in PARENT], "queries_per_s") == (10, True, False)


def test_a_regression_is_a_median_worse_than_the_bound():
    # query_p50_ms has the bound 0.25: a median 3.09 -> 3.86 is within it.
    assert _flags(PARENT, [1.249 * p for p in PARENT]) == (0, False, False)
    assert _flags(PARENT, [1.26 * p for p in PARENT]) == (0, False, True)
    # Higher is better for queries_per_s.
    assert _flags(PARENT, [0.8 * p for p in PARENT], "queries_per_s") == (0, False, False)
    assert _flags(PARENT, [0.7 * p for p in PARENT], "queries_per_s") == (0, False, True)
    # peak_rss_mb has the bound 0.15.
    assert _flags(PARENT, [1.2 * p for p in PARENT], "peak_rss_mb") == (0, False, True)


def test_a_traced_group_gets_no_flags():
    assert _flags(PARENT, [1.9] * 10, trace=1) == (10, None, None)


def test_the_verdict_lines_state_medians_quartiles_wins_and_flags():
    parent = {"query_p50_ms": PARENT, "query_p90_ms": PARENT, "post_compile_s": PARENT}
    change = {"query_p50_ms": [1.9] * 10, "query_p90_ms": PARENT, "post_compile_s": [4.0] * 10}
    rec = {"groups": _groups(change), "parent_groups": _groups(parent)}
    bench_record.add_wins(rec["groups"], rec["parent_groups"])
    assert bench_record.verdict_lines(rec) == [
        "query-mix post_compile_s: parent 3.09 [3.045-3.135] -> 4 ms, wins 0/10 regressed",
        "query-mix query_p50_ms: parent 3.09 [3.045-3.135] -> 1.9 ms, wins 10/10 gain",
        "query-mix query_p90_ms: parent 3.09 [3.045-3.135] -> 3.09 ms, wins 0/10",
    ]
