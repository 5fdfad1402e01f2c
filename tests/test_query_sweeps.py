"""The query layer against its condition-then-query and recursive oracles,
the per-circuit annotation cache, and deep circuits at the default
recursion limit."""

import random
import re
import sys
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpllc import store
from dpllc.checks import isomorphic
from dpllc.compiler import compile_decomposed, compile_free
from dpllc.queries import (
    LanguageError,
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
from dpllc.store import FALSE, TRUE, Circuit, NodeStore, parse_nnf, reachable, serialize

from util import (
    compiled_family,
    oracle_condition_circuit,
    oracle_decide_under,
    oracle_entails_clause,
    oracle_enumerate_models,
    oracle_is_implicant,
    random_3cnf,
    running_cnf,
)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:
        return (type(exc), str(exc))


def _wide(rng, width):
    """A hand-built conjunction of `width` small decision-DNNF parts over
    pairwise disjoint variables."""
    s = NodeStore()
    kids = []
    for i in range(width):
        a, b = 2 * i + 1, 2 * i + 2
        shape = rng.randrange(4)
        if shape == 0:
            kids.append(s.literal(a if rng.random() < 0.5 else -a))
        elif shape == 1:
            kids.append(s.get_node(a, FALSE, s.literal(b)))
        elif shape == 2:
            kids.append(s.get_node(a, s.literal(-b), TRUE))
        else:
            kids.append(s.get_node(b, s.get_node(a, TRUE, FALSE), s.literal(a)))
    return Circuit(s, s.get_and_node(kids), 2 * width + rng.randrange(3))


def _lits(rng, bound, size):
    """Random literals over 1..bound, with repeats, complementary pairs and
    0 all possible."""
    return [
        rng.choice((1, -1)) * rng.randint(0 if rng.random() < 0.05 else 1, bound)
        for _ in range(size)
    ]


def _assert_term_queries_match(rng, circuit, rounds=6):
    bound = max(circuit.num_vars, 1) + 2
    assert _outcome(entails_clause, circuit, []) == _outcome(oracle_entails_clause, circuit, [])
    assert _outcome(is_implicant, [], circuit) == _outcome(oracle_is_implicant, [], circuit)
    for _ in range(rounds):
        lits = _lits(rng, bound, rng.randint(1, 5))
        assert _outcome(entails_clause, circuit, lits) == _outcome(
            oracle_entails_clause, circuit, lits
        ), lits
        assert _outcome(is_implicant, lits, circuit) == _outcome(
            oracle_is_implicant, lits, circuit
        ), lits


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1 << 32))
def test_term_queries_match_condition_then_query(seed):
    rng = random.Random(seed)
    for circuit in compiled_family(rng):
        _assert_term_queries_match(rng, circuit)


def _assert_decisions_match_the_sweep(rng, circuit):
    # Every query against the full sweep, under terms of every length from
    # none to all the free variables.
    order, _ = annotate(circuit)
    assert is_consistent(circuit) == oracle_decide_under(circuit, order, {}, False)
    assert is_valid(circuit) == oracle_decide_under(circuit, order, {}, True)
    free = [v for v in range(1, circuit.num_vars + 1) if not circuit.fixed >> (v - 1) & 1]
    for k in range(len(free) + 1):
        term = [v if rng.random() < 0.5 else -v for v in rng.sample(free, k)]
        assigned = {abs(l): l > 0 for l in term}
        assert is_implicant(term, circuit) == oracle_decide_under(circuit, order, assigned, True), term
        clause = [-l for l in term]
        assert entails_clause(circuit, clause) == (
            not oracle_decide_under(circuit, order, assigned, False)
        ), clause


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1 << 32))
def test_decision_queries_match_the_full_sweep(seed):
    rng = random.Random(seed)
    for circuit in compiled_family(rng):
        _assert_decisions_match_the_sweep(rng, circuit)
        _assert_decisions_match_the_sweep(rng, parse_nnf(serialize(circuit)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1 << 32), st.integers(2, 60))
def test_decision_queries_on_wide_conjunctions_match_the_full_sweep(seed, width):
    rng = random.Random(seed)
    _assert_decisions_match_the_sweep(rng, _wide(rng, width))


def test_zero_is_not_a_literal():
    circuit = compile_decomposed(running_cnf())
    for query in (
        lambda: entails_clause(circuit, [0]),
        lambda: entails_clause(circuit, [1, -1, 0]),
        lambda: is_implicant([0], circuit),
        lambda: is_implicant([2, 0, -2], circuit),
        lambda: condition_circuit(circuit, [0]),
    ):
        with pytest.raises(ValueError, match="^0 is not a literal$"):
            query()


class _CountingNodes(list):
    """A store's node list that counts reads by node id."""

    def __init__(self, nodes):
        super().__init__(nodes)
        self.reads = Counter()

    def __getitem__(self, nid):
        self.reads[nid] += 1
        return super().__getitem__(nid)


def _counting(circuit):
    annotate(circuit)
    nodes = circuit.store.nodes = _CountingNodes(circuit.store.nodes)
    return nodes.reads


def test_consistency_and_validity_read_no_node():
    for circuit in compiled_family(random.Random(5)):
        reads = _counting(circuit)
        is_consistent(circuit)
        is_valid(circuit)
        assert not reads


def test_a_term_that_fixes_the_root_reads_one_branch():
    for seed in range(6):
        cnf = random_3cnf(random.Random(seed), 12, 2.0)
        for circuit in (compile_free(cnf), compile_decomposed(cnf)):
            root = circuit.store.nodes[circuit.root]
            if root[0] != "D":
                continue
            _, var, low, high = root
            only_low = set(reachable(circuit.store, low)) - set(reachable(circuit.store, high))
            reads = _counting(circuit)
            rng = random.Random(seed)
            for _ in range(10):
                picked = [v for v in rng.sample(range(1, 13), 3) if v != var]
                rest = [v if rng.random() < 0.5 else -v for v in picked]
                is_implicant([var, *rest], circuit)
                entails_clause(circuit, [-var, *rest])
            assert reads and not only_low & set(reads)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1 << 32), st.integers(2, 300))
def test_a_search_reads_each_node_of_a_wide_conjunction_at_most_once(seed, width):
    rng = random.Random(seed)
    circuit = _wide(rng, width)
    _, masks = annotate(circuit)
    reads = _counting(circuit)
    for _ in range(5):
        picked = rng.sample(range(1, 2 * width + 1), rng.randint(1, 2 * width))
        term = [v if rng.random() < 0.5 else -v for v in picked]
        term_mask = sum(1 << (v - 1) for v in picked)
        for query in (
            lambda: is_implicant(term, circuit),
            lambda: entails_clause(circuit, [-l for l in term]),
        ):
            reads.clear()
            query()
            assert max(reads.values(), default=0) <= 1
            # Only nodes whose variables meet the term are read.
            assert all(masks[nid] & term_mask for nid in reads)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1 << 32))
def test_enumeration_matches_the_recursive_definition(seed):
    rng = random.Random(seed)
    for circuit in compiled_family(rng):
        assert list(enumerate_models(circuit)) == list(oracle_enumerate_models(circuit))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1 << 32), st.integers(2, 300))
def test_wide_conjunctions_match_the_oracles(seed, width):
    rng = random.Random(seed)
    circuit = _wide(rng, width)
    first = list(islice(enumerate_models(circuit), 60))
    assert first == list(islice(oracle_enumerate_models(circuit), 60))
    if width <= 6:
        terms = list(oracle_enumerate_models(circuit))
        assert list(enumerate_models(circuit)) == terms
        assert model_count(circuit) == sum(1 << (circuit.universe - len(t)) for t in terms)
    _assert_term_queries_match(rng, circuit, rounds=3)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1 << 32))
def test_condition_rebuilds_only_what_the_full_rebuild_reaches(seed):
    rng = random.Random(seed)
    for circuit in compiled_family(rng):
        lits = _lits(rng, max(circuit.num_vars, 1) + 2, rng.randint(1, 5))
        try:
            want = oracle_condition_circuit(circuit, lits)
        except ValueError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                condition_circuit(circuit, lits)
            continue
        got = condition_circuit(circuit, lits)
        assert isomorphic(got, want), lits
        assert got.universe == want.universe
        assert _outcome(model_count, got) == _outcome(model_count, want)
        assert len(got.store) <= len(want.store)
        if all(circuit.store.nodes[nid][0] != "A" for nid in circuit.order):
            # Decisions and literals only: nothing built is left unreachable.
            assert set(got.order) | {FALSE, TRUE} == set(range(len(got.store))), lits


def test_term_query_edge_cases_match():
    circuit = compile_decomposed(running_cnf())  # universe 3, mentions 1..3
    s = NodeStore()
    unsat = Circuit(s, FALSE, 2)
    valid = Circuit(s, TRUE, 2)
    # x3 ? (x1 and x2) : x1 -- conditioning on x2 drops x3 from the copy
    dropping = Circuit(
        s, s.get_node(3, s.literal(1), s.get_and_node([s.literal(1), s.literal(2)])), 3
    )
    clauses = [[1, -1], [0], [0, 2], [], [2, 2, 2], [-1, -2, -3], [1, 2, 3, 4], [5]]
    terms = [[1, -1], [0], [], [1, 1], [1, 2, 3, 4], [4], [2, 4], [2, -1, 4], [2, 1, 4], [5, 6]]
    for c in (circuit, unsat, valid, dropping):
        for clause in clauses:
            assert _outcome(entails_clause, c, clause) == _outcome(
                oracle_entails_clause, c, clause
            )
        for term in terms:
            assert _outcome(is_implicant, term, c) == _outcome(oracle_is_implicant, term, c)
    # The cases above do reach the term check, which names the least
    # variable outside 1..num_vars or fixed.
    assert _outcome(is_implicant, [1, 2, 3, 4], circuit) == (
        ValueError,
        "term variable 4 is outside 1..3 or fixed",
    )
    assert _outcome(is_implicant, [4], circuit) == (
        ValueError,
        "term variable 4 is outside 1..3 or fixed",
    )
    assert _outcome(is_implicant, [2, 1, 4], dropping) == _outcome(is_implicant, [4], circuit)
    assert _outcome(is_implicant, [2, 1], dropping) == ("ok", True)


def test_term_queries_reject_a_circuit_outside_the_class():
    s = NodeStore()
    a = s.get_node(1, FALSE, TRUE)
    bad = Circuit(s, s.get_and_node([a, s.get_node(1, TRUE, FALSE)]), 2)
    with pytest.raises(LanguageError) as expected:
        annotate(bad)
    for query in (
        lambda: entails_clause(bad, [2]),
        lambda: is_implicant([2], bad),
        lambda: list(enumerate_models(bad)),
    ):
        with pytest.raises(LanguageError) as got:
            query()
        assert str(got.value) == str(expected.value)


# --- the annotation cache ---------------------------------------------------


def _counting_reachable(monkeypatch):
    seen = []

    def counting(store, root):
        seen.append(root)
        return reachable(store, root)

    monkeypatch.setattr(store, "reachable", counting)
    return seen


def test_repeated_queries_reuse_the_annotation(monkeypatch):
    seen = _counting_reachable(monkeypatch)
    circuit = compile_decomposed(random_3cnf(random.Random(3), 10, 2.0))
    assert circuit.root > TRUE
    first = annotate(circuit)
    assert annotate(circuit)[1] is first[1]
    answers = [model_count(circuit), is_consistent(circuit), is_valid(circuit)]
    assert [model_count(circuit), is_consistent(circuit), is_valid(circuit)] == answers
    assert list(enumerate_models(circuit)) == list(enumerate_models(circuit))
    assert seen == [circuit.root]


def test_circuits_on_one_store_get_their_own_order():
    s = NodeStore()
    low = s.get_node(2, FALSE, TRUE)
    root = s.get_node(1, low, s.literal(3))
    a, b = Circuit(s, root, 3), Circuit(s, low, 3)
    assert annotate(a)[0] == reachable(s, root)
    assert annotate(b)[0] == reachable(s, low)
    assert model_count(a) == 4 and model_count(b) == 4


def test_a_wider_universe_counts_correctly():
    circuit = compile_free(running_cnf())
    assert model_count(circuit) == 4
    wider = Circuit(circuit.store, circuit.root, circuit.universe + 3)
    assert model_count(wider) == 4 << 3
    assert not is_valid(wider) and is_implicant([1, 2], wider)
    assert model_count(circuit) == 4


def test_a_failed_annotation_is_not_cached():
    s = NodeStore()
    inner = s.get_node(1, FALSE, TRUE)
    bad = Circuit(s, s.get_node(1, inner, TRUE), 1)
    texts = []
    for _ in range(3):
        with pytest.raises(LanguageError) as err:
            model_count(bad)
        texts.append(str(err.value))
    assert texts == ["branch variable 1 reappears below decision node 3"] * 3
    # Conditioning does not annotate, so it still accepts the circuit.
    assert condition_circuit(bad, [1]).root == TRUE


def test_second_prob_equiv_walks_nothing(monkeypatch):
    seen = _counting_reachable(monkeypatch)
    cnf = random_3cnf(random.Random(11), 9, 2.0)
    a, b = compile_free(cnf), compile_decomposed(cnf)
    first = prob_equiv(a, b, seed=4)
    assert len(seen) == 2
    assert prob_equiv(a, b, seed=4) == first
    assert len(seen) == 2


def test_condition_reuses_the_cached_order(monkeypatch):
    seen = _counting_reachable(monkeypatch)
    circuit = compile_decomposed(running_cnf())
    before = condition_circuit(circuit, [2])
    assert seen == [circuit.root]
    annotate(circuit)
    after = condition_circuit(circuit, [2])
    assert seen == [circuit.root]
    assert after.store.nodes == before.store.nodes and after.root == before.root


# --- deep circuits -------------------------------------------------------------


def test_condition_builds_nothing_under_a_discarded_branch():
    # A 40,000-deep chain whose root has a false low branch: conditioning
    # on -1 keeps the false sink and builds none of the chain below.
    n = 40000
    assert sys.getrecursionlimit() < n
    s = NodeStore()
    node = TRUE
    for v in range(n, 0, -1):
        node = s.get_node(v, FALSE, node)
    s.freeze()
    conditioned = condition_circuit(Circuit(s, node, n), [-1])
    assert conditioned.root == FALSE and conditioned.universe == n - 1
    assert len(conditioned.store) == 2


def test_every_public_query_handles_a_deep_chain():
    # 3,000 nested decisions with a false low branch: one model.  The
    # recursion limit stays at its default.
    n = 3000
    assert sys.getrecursionlimit() < n
    s = NodeStore()
    node = TRUE
    for v in range(n, 0, -1):
        node = s.get_node(v, FALSE, node)
    s.freeze()
    chain = Circuit(s, node, n)
    model = list(range(1, n + 1))
    assert model_count(chain) == 1
    assert is_consistent(chain)
    assert not is_valid(chain)
    assert entails_clause(chain, [n]) and not entails_clause(chain, [-n])
    assert is_implicant(model, chain) and not is_implicant(model[1:], chain)
    conditioned = condition_circuit(chain, [1])
    assert conditioned.universe == n - 1 and model_count(conditioned) == 1
    assert list(enumerate_models(chain)) == [frozenset(model)]
    assert prob_equiv(chain, chain).equivalent
    assert not prob_equiv(chain, Circuit(s, s.nodes[node][3], n)).equivalent
