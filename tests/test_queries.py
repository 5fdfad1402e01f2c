import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from dpllc import queries
from dpllc.checks import isomorphic
from dpllc.cnf import Cnf
from dpllc.compiler import CompileConfig, VarOrder, compile_decomposed, compile_free, compile_ordered
from dpllc.queries import (
    EQ_PRIME,
    LANE_PRIMES,
    LANES,
    LanguageError,
    _is_prime,
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


@pytest.mark.parametrize("fixed, var", [(0, 3), (0b1, 1)])
def test_count_and_validity_refuse_a_variable_outside_the_universe(fixed, var):
    # Built by hand: the reader and condition_circuit never make a circuit
    # that mentions a variable above its bound or a fixed one.
    s = NodeStore()
    circuit = Circuit(s, s.literal(var), 2, fixed)
    for query in (model_count, is_valid):
        with pytest.raises(ValueError) as err:
            query(circuit)
        assert str(err.value) == "variable %d below the root is not free" % var


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


def _conditioned_obdd():
    cnf = Cnf.from_clauses([[1, 2], [3, 4], [4, 5], [-1, 5]], 5)
    return condition_circuit(compile_ordered(cnf, VarOrder.identity(5)), [1, 2])


def test_a_conditioned_circuit_round_trips_with_its_fixed_set():
    from dpllc.checks import circuit_to_cnf, compile_guided
    from dpllc.store import parse_nnf, serialize

    conditioned = _conditioned_obdd()
    assert (conditioned.num_vars, conditioned.fixed, conditioned.universe) == (5, 0b11, 3)
    text = serialize(conditioned)
    assert text.splitlines()[:2] == ["nnf 17 18 5", "c fixed 1 2"]
    again = parse_nnf(text)
    assert (again.num_vars, again.fixed, again.universe) == (5, 0b11, 3)
    assert model_count(again) == model_count(conditioned) == 3
    assert serialize(again) == text
    guided = circuit_to_cnf(conditioned)
    assert guided.num_vars == 5
    base = guided.base
    assert isinstance(base, Cnf) and base.num_vars == 5
    replay = compile_guided(guided)
    assert isomorphic(replay, conditioned)
    assert (replay.num_vars, replay.fixed) == (5, 0)


@pytest.mark.parametrize(
    "fix, term, bad",
    [([], [7], 7), ([], [2, 7], 7), ([-1], [1], 1), ([-1], [-3, 1], 1), ([-1], [7, -1], 1)],
)
def test_term_queries_refuse_a_variable_that_is_not_free(fix, term, bad):
    # A d-DNNF over 1..3, with variable 1 conditioned away when fix says so.
    d = condition_circuit(compile_decomposed(Cnf.from_clauses([[1, 2], [-2, 3]], 3)), fix)
    message = "term variable %d is outside 1..3 or fixed" % bad
    for query in (
        lambda: condition_circuit(d, term),
        lambda: entails_clause(d, term),
        lambda: is_implicant(term, d),
    ):
        with pytest.raises(ValueError) as err:
            query()
        assert str(err.value) == message


def test_conditioning_twice_is_conditioning_on_both():
    rng = random.Random(83)
    for _ in range(20):
        cnf = random_cnf(rng, max_vars=7, max_clauses=10)
        if cnf.num_vars < 3:
            continue
        a, b = rng.sample(range(1, cnf.num_vars + 1), 2)
        a, b = rng.choice((a, -a)), rng.choice((b, -b))
        for circuit in _modes(cnf):
            twice = condition_circuit(condition_circuit(circuit, [a]), [b])
            once = condition_circuit(circuit, [a, b])
            assert isomorphic(twice, once)
            assert (twice.num_vars, twice.fixed) == (once.num_vars, once.fixed)
            assert twice.universe == once.universe == cnf.num_vars - 2
            assert model_count(twice) == model_count(once)
    circuit = compile_ordered(running_cnf(), VarOrder.identity(3))
    twice = condition_circuit(condition_circuit(circuit, [1]), [3])
    once = condition_circuit(circuit, [1, 3])
    assert isomorphic(twice, once) and twice.universe == once.universe == 1
    assert model_count(twice) == model_count(once)


# --- probabilistic equivalence ----------------------------------------------


# One round alone, one round plus a partial lane group, and rounds that
# fill two lane groups and start a third.
EQ_ROUND_COUNTS = (1, 5, 2 * LANES + 3)


def test_eq_self():
    circuit = compile_free(running_cnf())
    verdict = prob_equiv(circuit, circuit)
    assert verdict.equivalent
    assert verdict.error_bound == Fraction(3, EQ_PRIME) ** 5
    for rounds in EQ_ROUND_COUNTS:
        verdict = prob_equiv(circuit, circuit, rounds=rounds)
        assert verdict.equivalent and verdict.rounds == rounds and verdict.prime == EQ_PRIME
        assert verdict.error_bound == Fraction(3, EQ_PRIME) ** rounds


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
        for rounds in EQ_ROUND_COUNTS:
            assert prob_equiv(a, b, seed=rng.randrange(1 << 30), rounds=rounds).equivalent
            assert prob_equiv(b, c, seed=rng.randrange(1 << 30), rounds=rounds).equivalent


def test_eq_universe_mismatch():
    s = NodeStore()
    with pytest.raises(ValueError):
        prob_equiv(Circuit(s, TRUE, 2), Circuit(s, TRUE, 3))


@pytest.mark.parametrize("rounds", [0, -1])
@pytest.mark.parametrize("universe", [0, 2])
def test_eq_needs_at_least_one_round(rounds, universe):
    # Zero rounds would report a vacuous bound of 1; negative rounds a bound
    # above 1, or a ZeroDivisionError on a universe of 0.
    circuit = Circuit(NodeStore(), TRUE, universe)
    with pytest.raises(ValueError, match="rounds must be at least 1, got %d" % rounds):
        prob_equiv(circuit, circuit, rounds=rounds)


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


def test_is_prime_matches_a_sieve():
    limit = 200_000
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit, i)))
    assert [n for n in range(limit) if _is_prime(n)] == [n for n in range(limit) if sieve[n]]
    # A Carmichael number, the least strong pseudoprime to bases 2, 3, 5
    # and 7, and the least to every prime base up to 23.
    for composite in (561, 3_215_031_751, 3_825_123_056_546_413_051, (1 << 61) + 1):
        assert not _is_prime(composite)
    assert _is_prime((1 << 61) - 1)


def test_lane_primes_ascend_from_eq_prime():
    assert len(LANE_PRIMES) == LANES
    assert LANE_PRIMES[0] == EQ_PRIME
    assert all(p < q for p, q in zip(LANE_PRIMES, LANE_PRIMES[1:]))
    assert all(_is_prime(p) for p in LANE_PRIMES)


def test_poly_eval_modulo_the_lane_product_agrees_with_each_lane():
    rng = random.Random(97)
    m = math.prod(LANE_PRIMES)
    for _ in range(10):
        cnf = random_cnf(rng, max_vars=8, max_clauses=12)
        for circuit in _modes(cnf):
            order, _ = annotate(circuit)
            point = [rng.randrange(m) for _ in range(cnf.num_vars + 1)]
            wide = _poly_eval(circuit, order, point, m)
            for p in LANE_PRIMES:
                assert wide % p == _poly_eval(circuit, order, [x % p for x in point], p)


def test_eq_refutes_in_round_one_with_one_narrow_sweep_each(monkeypatch):
    moduli = []
    inner = queries._poly_eval

    def counting(circuit, order, point, p):
        moduli.append(p)
        return inner(circuit, order, point, p)

    monkeypatch.setattr(queries, "_poly_eval", counting)
    a = compile_free(Cnf.from_clauses([[1, 2]], 2))
    b = compile_free(Cnf.from_clauses([[1], [2]], 2))
    verdict = prob_equiv(a, b, rounds=2 * LANES + 3)
    assert not verdict.equivalent and verdict.rounds == 1
    assert moduli == [EQ_PRIME, EQ_PRIME]


def test_eq_reports_the_first_lane_that_differs(monkeypatch):
    # Sweeps 1-2 are round 1, sweeps 3-4 the first lane group and sweeps
    # 5-6 the second.  There b's value agrees with a's modulo every lane
    # prime but the third, so round 1 + LANES + 3 refutes.
    moduli = []
    s = NodeStore()
    a, b = Circuit(s, s.literal(1), 1), Circuit(s, s.literal(-1), 1)

    def fake(circuit, order, point, p):
        moduli.append(p)
        return p // LANE_PRIMES[2] if circuit is b and len(moduli) > 4 else 0

    monkeypatch.setattr(queries, "_poly_eval", fake)
    verdict = prob_equiv(a, b, rounds=2 * LANES + 3)
    assert not verdict.equivalent and verdict.rounds == 1 + LANES + 3
    assert moduli == [EQ_PRIME] * 2 + [math.prod(LANE_PRIMES)] * 4


def test_eq_point_holds_only_the_occurring_variables():
    # Two one-literal circuits on variable 10^7 draw one value per round;
    # a point with a slot for every index up to the highest variable
    # would take 80 MB per round.
    x = 10**7
    s, t = NodeStore(), NodeStore()
    a, b = Circuit(s, s.literal(x), x), Circuit(t, t.literal(x), x)
    tracemalloc.start()
    try:
        verdict = prob_equiv(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.equivalent
    assert peak < 20_000_000, "peak %d bytes" % peak


def test_eq_is_deterministic_under_seed():
    cnf = running_cnf()
    a, b = compile_free(cnf), compile_decomposed(cnf)
    r1 = prob_equiv(a, b, seed=123)
    r2 = prob_equiv(a, b, seed=123)
    assert r1 == r2
