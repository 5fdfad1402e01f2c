"""The benchmark's own tests: reference counter, correctness gate, smoke
runs at toy size and the determinism of the reported circuit sizes.

    python3 -m pytest perfbench/tests -q

Run from the repository root; the smoke runs build the package into
.bench_build/ like the benchmark does.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from itertools import product

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import refcount  # noqa: E402
import run  # noqa: E402


def truth_table_count(clauses, num_vars: int) -> int:
    """Models by evaluating every assignment; for small num_vars only."""
    if num_vars > 20:
        raise ValueError("truth table over %d variables is too large" % num_vars)
    clauses = [tuple(cl) for cl in clauses]
    models = 0
    for bits in product((False, True), repeat=num_vars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses):
            models += 1
    return models


def random_cnf(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    clauses = []
    for _ in range(rng.randint(0, 3 * n)):
        width = rng.randint(1, min(3, n))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), width)))
    return clauses


@pytest.mark.parametrize("seed", range(40))
def test_counter_matches_truth_table(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 16)
    clauses = random_cnf(rng, n)
    assert refcount.count_models(clauses, n) == truth_table_count(clauses, n)


def test_counter_on_edge_cases():
    assert refcount.count_models([], 5) == 32
    assert refcount.count_models([()], 3) == 0
    assert refcount.count_models([(1, -1)], 2) == 4  # tautology
    assert refcount.count_models([(1,), (-1,)], 2) == 0
    assert refcount.count_models([(2, 2, 3)], 3) == truth_table_count([(2, 3)], 3)
    clauses, n = gen.flat_colouring(random.Random(0), 4, 4)
    assert refcount.count_models(clauses, n) == truth_table_count(clauses, n)


def test_find_model():
    rng = random.Random(5)
    clauses = gen.random_3cnf(rng, 14, 3.0)
    model = refcount.find_model(clauses, 14)
    assert model is not None and refcount.satisfies(model, clauses)
    assert refcount.find_model([(1,), (-1, 2), (-2,)], 2) is None


def test_relabelled_copies_keep_the_count():
    clauses = gen.random_3cnf(random.Random(3), 12, 3.5)
    want = truth_table_count(clauses, 12)
    for seed in range(3):
        copy = gen.relabel(random.Random(seed), clauses, 12)
        assert copy != clauses
        assert refcount.count_models(copy, 12) == want


def test_stored_reference_matches_recomputation():
    with open(check.STORED) as fh:
        stored = json.load(fh)
    assert set(stored) == set(run.WORKLOADS)
    for workload in run.WORKLOADS:
        assert check.expected(workload, check.DEFAULT_SEED) == stored[workload]


def test_gate_rejects_wrong_outputs():
    want = check.expected("ddnnf-pipeline", 4, "toy")
    good = [
        {
            "name": inst.name,
            "count": want["counts"][inst.name],
            "parsed_count": want["counts"][inst.name],
            "verdict": True,
            "equivalent": True,
            "isomorphic": True,
            "nodes": 3,
            "edges": 2,
        }
        for inst in gen.corpus("ddnnf-pipeline", 4, "toy")
    ]
    assert check.verify("ddnnf-pipeline", 4, "toy", want, good) == []
    for key, bad in (("count", -1), ("parsed_count", -1), ("equivalent", False), ("isomorphic", False), ("verdict", False)):
        assert check.verify("ddnnf-pipeline", 4, "toy", want, [dict(good[0], **{key: bad})] + good[1:])


def test_gate_rejects_a_falsifying_term():
    (inst,) = gen.corpus("query-mix", 2, "toy")
    total = refcount.count_models(inst.clauses, inst.num_vars)
    model = refcount.find_model(inst.clauses, inst.num_vars)
    assert check._check_terms([model], inst, total) in ([], ["all 1 terms cover 1 models, not %d" % total])
    wrong = [-l for l in model]
    assert any("falsifies" in e for e in check._check_terms([wrong], inst, total))


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_smoke_at_toy_size(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", trace, "--size", "toy")
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = run.END_TO_END_UNITS if trace == "0" else layers.PER_LAYER_NAMES
    assert set(result["metrics"]) == set(names)
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
    provenance = json.loads(proc.stdout.strip().splitlines()[-2])["provenance"]
    assert provenance["kernel_backend"] in ("py", "cy")
    assert provenance["seed"] == 7


def test_circuit_sizes_repeat_exactly():
    sizes = []
    for _ in range(2):
        metrics = result_of(bench("--workload", "ddnnf-pipeline", "--seed", "9", "--seconds", "0.2", "--size", "toy"))["metrics"]
        sizes.append((metrics["circuit_nodes"]["value"], metrics["circuit_edges"]["value"]))
    assert sizes[0] == sizes[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "obdd-order", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
