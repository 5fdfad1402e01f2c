"""Acceptance suite: one test per criterion, one pass/fail line each.

Criterion 2 needs benchmark CNF files (SATLIB random 3-CNF, graph coloring,
and ISCAS encodings); point DPLLC_BENCH_DIR at a directory holding them or
drop them under benchmarks/.  Missing instances are skipped, not failed;
see benchmarks/README.md for where to obtain the files.
"""

import itertools
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from dpllc.checks import (
    check_decision_dnnf,
    check_fbdd,
    check_obdd,
    circuit_to_cnf,
    compile_guided,
    isomorphic,
)
from dpllc.cnf import Cnf, parse_dimacs
from dpllc.compiler import (
    CompileConfig,
    VarOrder,
    bandwidth_order,
    compile_decomposed,
    compile_free,
    compile_ordered,
)
from dpllc.queries import (
    EQ_PRIME,
    entails_clause,
    enumerate_models,
    is_consistent,
    is_implicant,
    is_valid,
    model_count,
    prob_equiv,
)
from dpllc.store import parse_nnf, serialize, stats

from util import brute_force_count, model_set, random_cnf, running_cnf

SETTINGS = [
    (caching, up) for caching in (True, False) for up in (True, False)
]


def _report(criterion, detail=""):
    print("criterion %s: PASS %s" % (criterion, detail))


def _compile_all(cnf, caching, up):
    """One circuit per mode under the given cache/propagation setting."""
    free = compile_free(cnf, CompileConfig("free", caching, up))
    order = VarOrder.identity(cnf.num_vars)
    ordered = compile_ordered(
        cnf, order, CompileConfig("ordered", caching, up, order=order)
    )
    dec = compile_decomposed(cnf, CompileConfig("decomposed", caching, up))
    return [("free", free), ("ordered", ordered), ("decomposed", dec)]


# --- corpus shared by criteria 3, 4, 6, 7, 8, 9 ------------------------------

N_ORACLE = 500
N_CANON = 100
N_EQ = 100


@pytest.fixture(scope="module")
def oracle_corpus():
    rng = random.Random(2024)
    corpus = []
    for _ in range(N_ORACLE):
        cnf = random_cnf(rng, max_vars=12, max_clauses=40, max_len=4)
        expected = brute_force_count(cnf)
        circuits = [
            (mode, caching, up, circuit)
            for caching, up in SETTINGS
            for mode, circuit in _compile_all(cnf, caching, up)
        ]
        corpus.append((cnf, expected, circuits))
    return corpus


def test_criterion_1_running_formula():
    cnf = running_cnf()
    start = time.perf_counter()
    circuits = [c for _, c in _compile_all(cnf, True, True)]
    for circuit in circuits:
        assert model_count(circuit) == 4
        terms = list(enumerate_models(circuit))
        assert sum(1 << (3 - len(t)) for t in terms) == 4
        masks = set()
        for t in terms:
            free = [v for v in (1, 2, 3) if v not in {abs(l) for l in t}]
            for bits in range(1 << len(free)):
                full = {l for l in t} | {
                    v if (bits >> i) & 1 else -v for i, v in enumerate(free)
                }
                m = frozenset(full)
                assert m not in masks
                masks.add(m)
        assert len(masks) == 4

    # every clause over vars {1,2,3} up to length 3, plus the empty clause
    clauses = [[]]
    for k in (1, 2, 3):
        for vs in itertools.combinations((1, 2, 3), k):
            for signs in itertools.product((1, -1), repeat=k):
                clauses.append([v * s for v, s in zip(vs, signs)])
    # every partial assignment (3^3 of them, empty included)
    terms = [
        [l for l in (a, b, c) if l != 0]
        for a in (0, 1, -1)
        for b in (0, 2, -2)
        for c in (0, 3, -3)
    ]
    base = [list(ls) for _, ls in cnf.clauses]
    for clause in clauses:
        expect = brute_force_count(Cnf.from_clauses(base + [[-l] for l in clause], 3)) == 0
        for circuit in circuits:
            assert entails_clause(circuit, clause) == expect
    for term in terms:
        fixed = brute_force_count(Cnf.from_clauses(base + [[l] for l in term], 3))
        expect = fixed == 1 << (3 - len(term))
        for circuit in circuits:
            assert is_implicant(term, circuit) == expect
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "running formula, %d entailment and %d implicant probes, %.2fs"
            % (len(clauses) * 3, len(terms) * 3, elapsed))


# --- criterion 2: published model counts --------------------------------------

TABLE_COUNTS = {
    "uf75-01": 2258,
    "uf75-02": 4622,
    "uf75-03": 3,
    "uf100-01": 314,
    "uf100-02": 196,
    "uf100-03": 7064,
    "flat75-1": 24960,
    "flat75-2": 774144,
    "flat75-3": 25920,
    "s1488": 16384,
    "s1494": 16384,
}

STRETCH_COUNTS = {
    "uf200-03": 804085558,
    "s838.1": 73786976294838206464,
}


def _bench_dir():
    env = os.environ.get("DPLLC_BENCH_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "benchmarks"


def _find_instance(name):
    base = _bench_dir()
    for candidate in (base / ("%s.cnf" % name), *base.glob("**/%s.cnf" % name)):
        if candidate.is_file():
            return candidate
    return None


@pytest.mark.parametrize("name", sorted(TABLE_COUNTS))
def test_criterion_2_published_counts(name):
    path = _find_instance(name)
    if path is None:
        pytest.skip("benchmark file %s.cnf not available" % name)
    cnf = parse_dimacs(path.read_text())
    expected = TABLE_COUNTS[name]
    start = time.perf_counter()
    counts = {}
    sizes = {}
    dec = compile_decomposed(cnf)
    counts["decomposed"], sizes["decomposed"] = model_count(dec), stats(dec)[1]
    free = compile_free(cnf)
    counts["free"], sizes["free"] = model_count(free), stats(free)[1]
    order = bandwidth_order(cnf)
    ordered = compile_ordered(cnf, order)
    counts["ordered"], sizes["ordered"] = model_count(ordered), stats(ordered)[1]
    elapsed = time.perf_counter() - start
    assert counts == {k: expected for k in counts}
    assert elapsed < 60.0
    _report("2[%s]" % name, "models=%d sizes=%s %.1fs" % (expected, sizes, elapsed))


@pytest.mark.parametrize("name", sorted(STRETCH_COUNTS))
def test_criterion_2_stretch(name):
    if not os.environ.get("DPLLC_STRETCH"):
        pytest.skip("stretch target; set DPLLC_STRETCH=1 to run")
    path = _find_instance(name)
    if path is None:
        pytest.skip("benchmark file %s.cnf not available" % name)
    cnf = parse_dimacs(path.read_text())
    start = time.perf_counter()
    circuit = compile_decomposed(cnf)
    elapsed = time.perf_counter() - start
    assert model_count(circuit) == STRETCH_COUNTS[name]
    assert elapsed < 900.0
    _report("2-stretch[%s]" % name, "%.1fs" % elapsed)


# --- criteria 3 and 4 ----------------------------------------------------------


def test_criterion_3_oracle_equivalence(oracle_corpus):
    rng = random.Random(99)
    checked = 0
    for cnf, expected, circuits in oracle_corpus:
        n = cnf.num_vars
        base = [list(ls) for _, ls in cnf.clauses]
        probes = []
        for _ in range(2):
            k = rng.randint(1, min(3, n))
            vs = rng.sample(range(1, n + 1), k)
            clause = [v if rng.random() < 0.5 else -v for v in vs]
            ce = brute_force_count(Cnf.from_clauses(base + [[-l] for l in clause], n)) == 0
            fixed = brute_force_count(Cnf.from_clauses(base + [[l] for l in clause], n))
            im = fixed == 1 << (n - len(clause))
            probes.append((clause, ce, im))
        for _, _, _, circuit in circuits:
            assert model_count(circuit) == expected
            assert is_consistent(circuit) == (expected > 0)
            assert is_valid(circuit) == (expected == 1 << n)
            for clause, ce, im in probes:
                assert entails_clause(circuit, clause) == ce
                assert is_implicant(clause, circuit) == im
            checked += 1
    _report(3, "%d formulas, %d compilations against the truth-table oracle"
            % (len(oracle_corpus), checked))


def test_criterion_4_language_membership(oracle_corpus):
    identity_orders = {}
    failures = 0
    for cnf, _, circuits in oracle_corpus:
        order = identity_orders.setdefault(
            cnf.num_vars, VarOrder.identity(cnf.num_vars)
        )
        for mode, _, _, circuit in circuits:
            if mode == "free":
                failures += not check_fbdd(circuit).verdict
            elif mode == "ordered":
                failures += not check_obdd(circuit, order).verdict
            else:
                failures += not check_decision_dnnf(circuit).verdict
    assert failures == 0
    _report(4, "every compilation inside its mode's language")


# --- criterion 5: canonicity -----------------------------------------------------


@pytest.fixture(scope="module")
def canonical_corpus():
    rng = random.Random(4096)
    corpus = []
    for _ in range(N_CANON):
        cnf = random_cnf(rng, max_vars=10, max_clauses=24, max_len=4)
        orders = [
            VarOrder(tuple(rng.sample(range(1, cnf.num_vars + 1), cnf.num_vars)))
            for _ in range(3)
        ]
        corpus.append((cnf, orders))
    return corpus


def test_criterion_5_obdd_canonicity(canonical_corpus):
    compiled = 0
    for cnf, orders in canonical_corpus:
        for order in orders:
            reference = None
            for caching, up in SETTINGS:
                cfg = CompileConfig("ordered", caching, up, order=order)
                circuit = compile_ordered(cnf, order, cfg)
                compiled += 1
                if reference is None:
                    reference = circuit
                else:
                    assert stats(circuit) == stats(reference)
                    assert isomorphic(circuit, reference)
            repeat = compile_ordered(cnf, order)
            compiled += 1
            assert stats(repeat) == stats(reference)
            assert isomorphic(repeat, reference)
    _report(5, "%d ordered compilations canonical per (formula, order)" % compiled)


# --- criterion 6: round-trip ------------------------------------------------------


def _unique_circuits(oracle_corpus, canonical_corpus):
    for _, _, circuits in oracle_corpus:
        seen = set()
        for _, _, _, circuit in circuits:
            key = serialize(circuit)
            if key not in seen:
                seen.add(key)
                yield circuit
    for cnf, orders in canonical_corpus:
        for order in orders:
            yield compile_ordered(cnf, order)


def test_criterion_6_guided_roundtrip(oracle_corpus, canonical_corpus):
    total = 0
    for circuit in _unique_circuits(oracle_corpus, canonical_corpus):
        again = compile_guided(circuit_to_cnf(circuit))
        assert isomorphic(again, circuit)
        total += 1
    _report(6, "%d circuits reproduced from their clause scripts" % total)


# --- criterion 7: probabilistic equivalence ---------------------------------------


def test_criterion_7_probabilistic_eq(oracle_corpus):
    rng = random.Random(777)
    bound = Fraction(12, EQ_PRIME) ** 5
    pairs = 0
    for cnf, _, circuits in oracle_corpus[:N_EQ]:
        by_mode = {}
        for mode, caching, up, circuit in circuits:
            if caching and up:
                by_mode[mode] = circuit
        a, b = rng.sample(sorted(by_mode), 2)
        verdict = prob_equiv(by_mode[a], by_mode[b], seed=rng.randrange(1 << 31))
        assert verdict.equivalent, "same formula compiled both ways must agree"
        assert verdict.error_bound <= bound
        pairs += 1

    flipped = 0
    for _ in range(N_EQ):
        n = rng.randint(4, 8)
        cnf = random_cnf(rng, max_vars=n, max_clauses=3 * n, max_len=3)
        n = cnf.num_vars
        models = model_set(cnf)
        flip = rng.randrange(1 << n)
        altered = models ^ {flip}
        forbidden = [
            [-(v) if (m >> (v - 1)) & 1 else v for v in range(1, n + 1)]
            for m in range(1 << n)
            if m not in altered
        ]
        a = compile_decomposed(cnf)
        b = compile_decomposed(Cnf.from_clauses(forbidden, n))
        assert model_count(a) - model_count(b) in (1, -1)
        verdict = prob_equiv(a, b, seed=rng.randrange(1 << 31), rounds=5)
        assert verdict.outcome == "not-equivalent"
        assert verdict.rounds <= 5
        flipped += 1
    _report(7, "%d equivalent pairs accepted, %d one-model flips refuted"
            % (pairs, flipped))


# --- criterion 8: reducedness audit ------------------------------------------------


def test_criterion_8_reducedness_audit(oracle_corpus):
    stores = 0
    for _, _, circuits in oracle_corpus:
        for _, _, _, circuit in circuits:
            circuit.store.audit()
            stores += 1
    _report(8, "%d stores audited: unique, reduced, flat conjunctions" % stores)


# --- criterion 9: serialization round-trip ------------------------------------------


def test_criterion_9_serialization_roundtrip(oracle_corpus):
    total = 0
    for _, _, circuits in oracle_corpus:
        seen = set()
        for _, _, _, circuit in circuits:
            text = serialize(circuit)
            if text in seen:
                continue
            seen.add(text)
            again = parse_nnf(text)
            assert isomorphic(again, circuit)
            assert stats(again) == stats(circuit)
            total += 1
    _report(9, "%d serialized circuits parsed back isomorphic" % total)
