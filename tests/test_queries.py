import random
from fractions import Fraction

import pytest

from dpllc.checks import isomorphic
from dpllc.cnf import Cnf
from dpllc.compiler import CompileConfig, VarOrder, compile_decomposed, compile_free, compile_ordered
from dpllc.queries import (
    EQ_PRIME,
    LanguageError,
    _poly_eval,
    annotate,
    condition_circuit,
    entails_clause,
    enumerate_models,
    is_consistent,
    is_implicant,
    is_valid,
    model_count,
    prob_equiv,
)
from dpllc.store import FALSE, TRUE, Circuit, NodeStore

from util import (
    assignments,
    brute_force_count,
    condition_all,
    eval_circuit,
    eval_cnf,
    model_set,
    random_cnf,
    running_cnf,
)


def _modes(cnf):
    return [
        compile_free(cnf),
        compile_ordered(cnf, VarOrder.identity(cnf.num_vars)),
        compile_decomposed(cnf),
    ]


# --- counting / consistency / validity --------------------------------------


def test_count_running_formula_all_modes():
    for circuit in _modes(running_cnf()):
        assert model_count(circuit) == 4


def test_count_handles_free_variables():
    # One clause over 2 of 10 variables: 3 models times 2^8 slack.
    cnf = Cnf.from_clauses([[1, 2]], 10)
    for circuit in _modes(cnf):
        assert model_count(circuit) == 3 * 256


def test_count_literal_node():
    s = NodeStore()
    assert model_count(Circuit(s, s.literal(2), 3)) == 4


def test_count_rejects_shared_variables():
    s = NodeStore()
    a = s.get_node(1, FALSE, TRUE)
    b = s.get_node(1, TRUE, FALSE)
    bad = Circuit(s, s.get_and_node([a, b]), 1)
    with pytest.raises(LanguageError):
        model_count(bad)


def test_count_rejects_repeated_branch_variable():
    s = NodeStore()
    inner = s.get_node(1, FALSE, TRUE)
    bad = Circuit(s, s.get_node(1, inner, TRUE), 1)
    with pytest.raises(LanguageError):
        model_count(bad)


def test_consistency():
    s = NodeStore()
    assert not is_consistent(Circuit(s, FALSE, 1))
    assert is_consistent(Circuit(s, TRUE, 1))
    assert is_consistent(_modes(running_cnf())[0])
    contradiction = Cnf.from_clauses([[1], [-1]], 1)
    for circuit in _modes(contradiction):
        assert not is_consistent(circuit)
        assert brute_force_count(contradiction) == 0


def test_validity():
    s = NodeStore()
    assert is_valid(Circuit(s, TRUE, 6))
    assert not is_valid(_modes(running_cnf())[1])
    tautology = Cnf.from_clauses([], 5)
    for circuit in _modes(tautology):
        assert is_valid(circuit)


# --- clausal entailment and implicant ----------------------------------------


def test_entailment_examples():
    circuit = compile_decomposed(running_cnf())
    assert entails_clause(circuit, [1, 2])  # an input clause
    assert not entails_clause(circuit, [1])  # model 010 violates it
    assert entails_clause(circuit, [2, -3])  # holds in all four models
    assert entails_clause(circuit, [1, -1])  # tautology, no conditioning


def test_implicant_examples():
    circuit = compile_free(running_cnf())
    assert is_implicant([1, 2], circuit)  # third solution of the formula
    assert not is_implicant([-1], circuit)
    assert is_implicant([], circuit) == is_valid(circuit)
    assert is_implicant([1, -1], circuit)  # inconsistent term


def _entails_oracle(cnf, clause):
    # formula entails clause iff formula AND (negated clause) has no models
    lits = [l for _, ls in cnf.clauses for l in ls]
    augmented = list(list(ls) for _, ls in cnf.clauses) + [[-l] for l in clause]
    return brute_force_count(Cnf.from_clauses(augmented, cnf.num_vars)) == 0


def _implicant_oracle(cnf, term):
    # term implies formula iff every extension of the term is a model
    augmented = list(list(ls) for _, ls in cnf.clauses) + [[l] for l in term]
    expected = 1 << (cnf.num_vars - len(term))
    return brute_force_count(Cnf.from_clauses(augmented, cnf.num_vars)) == expected


def test_entailment_and_implicant_match_truth_tables():
    rng = random.Random(67)
    for _ in range(30):
        cnf = random_cnf(rng, max_vars=7, max_clauses=10)
        circuits = _modes(cnf)
        n = cnf.num_vars
        for _ in range(4):
            clause = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
            ]
            expected = _entails_oracle(cnf, clause)
            for c in circuits:
                assert entails_clause(c, clause) == expected
            term = clause[: rng.randint(1, len(clause))]
            expected = _implicant_oracle(cnf, term)
            for c in circuits:
                assert is_implicant(term, c) == expected


# --- enumeration --------------------------------------------------------------


def test_enumerate_running_obdd_terms():
    circuit = compile_ordered(running_cnf(), VarOrder.identity(3))
    terms = set(enumerate_models(circuit))
    assert terms == {
        frozenset({-1, 2, -3}),
        frozenset({1, -2, -3}),
        frozenset({1, 2}),
    }


def test_enumerate_sinks():
    s = NodeStore()
    assert list(enumerate_models(Circuit(s, FALSE, 2))) == []
    assert list(enumerate_models(Circuit(s, TRUE, 2))) == [frozenset()]


def _expand(term, n):
    free = [v for v in range(1, n + 1) if v not in {abs(l) for l in term}]
    for m in range(1 << len(free)):
        full = set(term)
        for i, v in enumerate(free):
            full.add(v if (m >> i) & 1 else -v)
        yield frozenset(full)


def test_enumerate_is_disjoint_exact_cover():
    rng = random.Random(71)
    for _ in range(25):
        cnf = random_cnf(rng, max_vars=7, max_clauses=10)
        expected_models = model_set(cnf)
        for circuit in _modes(cnf):
            terms = list(enumerate_models(circuit))
            assert sum(1 << (cnf.num_vars - len(t)) for t in terms) == model_count(circuit)
            seen = set()
            for t in terms:
                for full in _expand(t, cnf.num_vars):
                    assert full not in seen  # pairwise disjoint
                    seen.add(full)
            as_masks = {
                sum(1 << (abs(l) - 1) for l in full if l > 0) for full in seen
            }
            assert as_masks == expected_models


# --- conditioning ---------------------------------------------------------------


def test_condition_circuit_running():
    circuit = compile_ordered(running_cnf(), VarOrder.identity(3))
    conditioned = condition_circuit(circuit, [1])
    assert conditioned.universe == 2
    assert model_count(conditioned) == 3


def test_condition_absent_variable_is_isomorphic():
    cnf = Cnf.from_clauses([[1, 2]], 3)
    circuit = compile_free(cnf)
    conditioned = condition_circuit(circuit, [3])
    assert conditioned.universe == 2
    assert isomorphic(circuit, conditioned)


def test_condition_to_contradiction():
    circuit = compile_free(running_cnf())
    conditioned = condition_circuit(circuit, [-1, -2])
    assert conditioned.root == FALSE


def test_condition_matches_brute_force():
    rng = random.Random(73)
    for _ in range(25):
        cnf = random_cnf(rng, max_vars=7, max_clauses=10)
        n = cnf.num_vars
        k = rng.randint(1, n)
        term = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), k)]
        expected = brute_force_count(condition_all(cnf, term)) >> len(term)
        for circuit in _modes(cnf):
            conditioned = condition_circuit(circuit, term)
            assert model_count(conditioned) == expected


def test_condition_rejects_contradictory_term():
    circuit = compile_free(running_cnf())
    with pytest.raises(ValueError):
        condition_circuit(circuit, [1, -1])


def test_condition_preserves_order():
    from dpllc.checks import check_obdd

    rng = random.Random(79)
    for _ in range(10):
        cnf = random_cnf(rng, max_vars=7, max_clauses=10)
        order = VarOrder(tuple(rng.sample(range(1, cnf.num_vars + 1), cnf.num_vars)))
        circuit = compile_ordered(cnf, order)
        v = rng.randint(1, cnf.num_vars)
        conditioned = condition_circuit(circuit, [v])
        assert check_obdd(conditioned, order).verdict


# --- probabilistic equivalence ----------------------------------------------


def test_eq_self():
    circuit = compile_free(running_cnf())
    verdict = prob_equiv(circuit, circuit)
    assert verdict.equivalent
    assert verdict.error_bound == Fraction(3, EQ_PRIME) ** 5


def test_eq_sinks_differ():
    s = NodeStore()
    verdict = prob_equiv(Circuit(s, FALSE, 2), Circuit(s, TRUE, 2))
    assert verdict.outcome == "not-equivalent"
    assert verdict.rounds == 1


def test_eq_across_modes():
    rng = random.Random(83)
    for _ in range(15):
        cnf = random_cnf(rng, max_vars=8, max_clauses=12)
        a, b, c = _modes(cnf)
        assert prob_equiv(a, b, seed=rng.randrange(1 << 30)).equivalent
        assert prob_equiv(b, c, seed=rng.randrange(1 << 30)).equivalent


def test_eq_universe_mismatch():
    s = NodeStore()
    with pytest.raises(ValueError):
        prob_equiv(Circuit(s, TRUE, 2), Circuit(s, TRUE, 3))


def test_eq_zero_one_points_match_boolean_evaluation():
    rng = random.Random(89)
    for _ in range(10):
        cnf = random_cnf(rng, max_vars=5, max_clauses=8)
        circuit = compile_decomposed(cnf)
        order, _ = annotate(circuit)
        for a in assignments(cnf.num_vars):
            point = [0] + [int(a[v]) for v in range(1, cnf.num_vars + 1)]
            assert _poly_eval(circuit, order, point, EQ_PRIME) == int(eval_circuit(circuit, a))
            assert eval_circuit(circuit, a) == eval_cnf(cnf, a)


def test_eq_is_deterministic_under_seed():
    cnf = running_cnf()
    a, b = compile_free(cnf), compile_decomposed(cnf)
    r1 = prob_equiv(a, b, seed=123)
    r2 = prob_equiv(a, b, seed=123)
    assert r1 == r2
