import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dpllc.store as store
from dpllc.checks import (
    SCRIPT_BUDGET,
    GuidedCnf,
    GuidedScriptError,
    GuidedScriptTooLarge,
    _script_size,
    check_decision_dnnf,
    check_fbdd,
    check_obdd,
    circuit_to_cnf,
    compile_guided,
    isomorphic,
)
from dpllc.cnf import Cnf
from dpllc.compiler import (
    CompileConfig,
    VarOrder,
    compile_decomposed,
    compile_free,
    compile_ordered,
)
from dpllc.queries import LanguageError, condition_circuit, model_count
from dpllc.store import FALSE, TRUE, Circuit, NodeStore, reachable, stats

from util import (
    brute_force_count,
    compiled_family,
    oracle_circuit_to_cnf,
    oracle_compile_guided,
    oracle_isomorphic,
    random_3cnf,
    random_cnf,
    running_cnf,
)


# --- membership predicates ---------------------------------------------------


def test_fbdd_accepts_compiled_and_sinks():
    assert check_fbdd(compile_free(running_cnf())).verdict
    assert check_fbdd(Circuit(NodeStore(), TRUE, 0)).verdict


def test_fbdd_rejects_repeated_variable():
    s = NodeStore()
    inner = s.get_node(1, FALSE, TRUE)
    report = check_fbdd(Circuit(s, s.get_node(1, inner, TRUE), 1))
    assert not report.verdict
    assert "variable 1" in report.witness


def test_fbdd_witness_takes_the_first_path_found():
    # The repeated decision sits below a node shared by two paths.
    s = NodeStore()
    a = s.get_node(3, FALSE, TRUE)
    b = s.get_node(2, a, s.get_node(3, TRUE, FALSE))
    c = s.get_node(4, b, s.get_node(2, s.get_node(1, FALSE, TRUE), a))
    root = s.get_node(1, c, s.get_node(5, c, TRUE))
    report = check_fbdd(Circuit(s, root, 5))
    assert report.witness == "variable 1 repeats on path x1@9->x4@7->x2@6->x1@5"


def test_fbdd_witness_below_the_root():
    # The repeat is two levels down, so the witness needs the path search.
    s = NodeStore()
    inner = s.get_node(1, FALSE, TRUE)
    bad = s.get_node(1, inner, TRUE)
    mid = s.get_node(2, bad, TRUE)
    root = s.get_node(3, mid, s.get_node(4, TRUE, mid))
    report = check_fbdd(Circuit(s, root, 4))
    assert report.witness == "variable 1 repeats on path x3@6->x4@5->x2@4->x1@3->x1@2"


def test_fbdd_witness_past_a_shared_node():
    # The path search meets `shared` twice, and the TRUE sink more often,
    # before it reaches the repeat, so the witness must keep the parent
    # each node was first expanded under.
    s = NodeStore()
    shared = s.get_node(2, FALSE, TRUE)
    bad = s.get_node(6, TRUE, s.get_node(6, FALSE, TRUE))
    root = s.get_node(1, s.get_node(4, bad, shared), s.get_node(3, shared, TRUE))
    report = check_fbdd(Circuit(s, root, 6))
    assert report.witness == "variable 6 repeats on path x1@7->x4@5->x6@4->x6@3"
    path = [int(step.split("@")[1]) for step in report.witness.split()[-1].split("->")]
    assert path[0] == root
    for parent, child in zip(path, path[1:]):
        assert child in s.nodes[parent][2:]
    assert [s.nodes[nid][1] for nid in path[-2:]] == [6, 6]


def test_fbdd_rejects_non_decision_nodes():
    s = NodeStore()
    report = check_fbdd(Circuit(s, s.literal(1), 1))
    assert not report.verdict and "non-decision" in report.witness


def test_obdd_accepts_ordered_output():
    order = VarOrder((2, 3, 1))
    circuit = compile_ordered(running_cnf(), order)
    assert check_obdd(circuit, order).verdict


def test_obdd_rejects_conflicting_paths():
    # x1 above x2 on one path, x2 above x1 on the other.
    s = NodeStore()
    a = s.get_node(2, FALSE, s.get_node(1, FALSE, TRUE))
    b = s.get_node(1, FALSE, s.get_node(2, FALSE, TRUE))
    circuit = Circuit(s, s.get_node(3, a, b), 3)
    assert check_fbdd(circuit).verdict
    report = check_obdd(circuit)
    assert not report.verdict
    assert "conflicting" in report.witness
    explicit = check_obdd(circuit, VarOrder((3, 1, 2)))
    assert not explicit.verdict


def test_obdd_single_variable_any_order():
    s = NodeStore()
    circuit = Circuit(s, s.get_node(2, FALSE, TRUE), 3)
    for perm in ((1, 2, 3), (3, 2, 1), (2, 1, 3)):
        assert check_obdd(circuit, VarOrder(perm)).verdict


def test_obdd_reports_the_fbdd_failure():
    s = NodeStore()
    inner = s.get_node(1, FALSE, TRUE)
    circuit = Circuit(s, s.get_node(2, s.get_node(1, inner, TRUE), TRUE), 2)
    fbdd = check_fbdd(circuit)
    for order in (None, VarOrder((1, 2))):
        report = check_obdd(circuit, order)
        assert (report.verdict, report.language) == (False, "obdd")
        assert report.witness == fbdd.witness == "variable 1 repeats on path x2@4->x1@3->x1@2"


def test_obdd_flags_a_variable_missing_from_the_order():
    s = NodeStore()
    circuit = Circuit(s, s.get_node(1, FALSE, s.get_node(3, FALSE, TRUE)), 3)
    report = check_obdd(circuit, VarOrder((2, 1)))
    assert not report.verdict
    assert report.witness == "variable 3 missing from the order"


def test_obdd_conflict_witness_names_every_variable_left_unordered():
    # 1 above 2 under x5's low branch, 2 above 1 under its high one; x4
    # lies below both, so no order can place it either.  x3 and x5 order.
    s = NodeStore()
    x4 = s.get_node(4, FALSE, TRUE)
    a = s.get_node(2, FALSE, s.get_node(1, FALSE, x4))
    b = s.get_node(1, FALSE, s.get_node(2, x4, TRUE))
    circuit = Circuit(s, s.get_node(3, s.get_node(5, a, b), x4), 6)
    assert check_fbdd(circuit).verdict
    report = check_obdd(circuit)
    assert (report.verdict, report.order) == (False, None)
    assert report.witness == "variables [1, 2, 4] appear in conflicting orders"


def _diamond():
    """x3 over x4 and x2; x4 over x2 and x1; x2 over x1."""
    s = NodeStore()
    x1 = s.get_node(1, FALSE, TRUE)
    x2 = s.get_node(2, x1, TRUE)
    return Circuit(s, s.get_node(3, s.get_node(4, x2, x1), x2), 4)


@pytest.mark.parametrize(
    "order, witness",
    [
        ((3, 4, 2, 1), None),
        ((1, 2, 3, 4), "decision on 2 above 1 violates the order"),
        ((4, 3, 2, 1), "decision on 3 above 4 violates the order"),
        # (3, 2) and (4, 2) both violate; the least edge is named.
        ((2, 3, 4, 1), "decision on 3 above 2 violates the order"),
        # 4 is met before 3, bottom-up.
        ((2, 1), "variable 4 missing from the order"),
        ((1,), "variable 2 missing from the order"),
    ],
)
def test_obdd_witness_under_an_explicit_order(order, witness):
    report = check_obdd(_diamond(), VarOrder(order))
    assert (report.verdict, report.witness) == (witness is None, witness)
    assert report.order == (order if witness is None else None)


def test_obdd_recovered_order_takes_the_least_free_variable_first():
    # Two chains, 5 above 2 and 4 above 1, under 6; the order is completed
    # over 1..8 by 3, 7 and 8.
    s = NodeStore()
    left = s.get_node(5, FALSE, s.get_node(2, FALSE, TRUE))
    right = s.get_node(4, s.get_node(1, TRUE, FALSE), FALSE)
    report = check_obdd(Circuit(s, s.get_node(6, left, right), 8))
    assert (report.verdict, report.witness) == (True, None)
    assert report.order == (6, 4, 1, 5, 2, 3, 7, 8)
    assert check_obdd(_diamond()).order == (3, 4, 2, 1)


def test_obdd_walks_the_circuit_once(monkeypatch):
    circuit = compile_ordered(running_cnf(), VarOrder((2, 3, 1)))
    calls = []

    def counting(store, root):
        calls.append(root)
        return reachable(store, root)

    monkeypatch.setattr(store, "reachable", counting)
    assert check_obdd(circuit).verdict
    assert calls == [circuit.root]


def test_obdd_check_is_bounded_by_the_variables_decided():
    # Three decision nodes under an order of a million variables: only the
    # decided variables are ranked.  A rank table over the whole order
    # peaked at 44.7 MB here.
    n = 10**6
    order = VarOrder.identity(n)
    circuit = compile_ordered(Cnf.from_clauses([[1, -n], [n - 1, n]], n), order)
    tracemalloc.start()
    try:
        report = check_obdd(circuit, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.verdict, report.witness) == (True, None)
    assert peak < 2_000_000, "check_obdd peaked at %d bytes" % peak


def test_obdd_recovers_an_order():
    circuit = compile_ordered(running_cnf(), VarOrder((3, 1, 2)))
    report = check_obdd(circuit)
    assert report.verdict
    rank = {v: i for i, v in enumerate(report.order)}
    assert rank[3] < rank[1] < rank[2]
    assert check_obdd(circuit, VarOrder(report.order)).verdict


def test_obdd_recovered_order_of_a_conditioned_circuit_reads_back():
    # Conditioning fixes 1, 2 and 3 and keeps the bound 5, so the order
    # of the surviving decisions (4 and 5) is completed over 1..5.
    cnf = Cnf.from_clauses([[1, 2], [3, 4], [4, 5], [-1, 5]], 5)
    circuit = condition_circuit(compile_ordered(cnf, VarOrder.identity(5)), [1, 2, -3])
    report = check_obdd(circuit)
    assert report.verdict
    assert report.order == (4, 5, 1, 2, 3)
    assert check_obdd(circuit, VarOrder(report.order)).verdict


def test_decision_dnnf_accepts_compiled():
    assert check_decision_dnnf(compile_decomposed(running_cnf())).verdict


def test_decision_dnnf_rejects_shared_variables():
    s = NodeStore()
    a = s.get_node(1, FALSE, s.get_node(2, FALSE, TRUE))
    b = s.get_node(1, TRUE, FALSE)
    report = check_decision_dnnf(Circuit(s, s.get_and_node([a, b]), 2))
    assert not report.verdict
    assert "share variable 1" in report.witness


def test_every_fbdd_is_decision_dnnf():
    rng = random.Random(97)
    for _ in range(20):
        cnf = random_cnf(rng, max_vars=8, max_clauses=12)
        circuit = compile_free(cnf)
        assert check_fbdd(circuit).verdict
        assert check_decision_dnnf(circuit).verdict


def test_containment_chain():
    rng = random.Random(101)
    for _ in range(15):
        cnf = random_cnf(rng, max_vars=7, max_clauses=10)
        order = VarOrder.identity(cnf.num_vars)
        circuit = compile_ordered(cnf, order)
        assert check_obdd(circuit, order).verdict
        assert check_fbdd(circuit).verdict
        assert check_decision_dnnf(circuit).verdict


# --- inverse construction ------------------------------------------------------


def test_clauses_of_sinks():
    s = NodeStore()
    assert circuit_to_cnf(Circuit(s, TRUE, 2)).clauses == ()
    assert circuit_to_cnf(Circuit(s, FALSE, 2)).clauses == ((),)


def test_clauses_of_single_decision():
    s = NodeStore()
    guided = circuit_to_cnf(Circuit(s, s.get_node(1, FALSE, TRUE), 1))
    assert guided.clauses == (((1, ()),),)
    assert guided.base.clauses == ((0, (1,)),)


def test_clauses_reject_non_dnnf():
    s = NodeStore()
    a = s.get_node(1, FALSE, TRUE)
    b = s.get_node(1, TRUE, FALSE)
    with pytest.raises(LanguageError):
        circuit_to_cnf(Circuit(s, s.get_and_node([a, b]), 1))


def test_guided_roundtrip_sinks():
    s = NodeStore()
    for root in (TRUE, FALSE):
        circuit = Circuit(s, root, 2)
        again = compile_guided(circuit_to_cnf(circuit))
        assert again.root == root


def _four_configurations(cnf, order):
    return (
        compile_free(cnf),
        compile_ordered(cnf, order),
        compile_decomposed(cnf),
        compile_decomposed(cnf, CompileConfig("decomposed", unit_propagation=False)),
    )


def _outcome(fn, guided):
    try:
        circuit = fn(guided)
    except GuidedScriptError as err:
        return ("error", str(err))
    return (circuit.root, circuit.store.nodes)


def test_guided_roundtrip_all_modes():
    # The clauses, the replay's nodes and the verdict are also exactly those
    # of the reference definitions in util.
    rng = random.Random(103)
    for _ in range(25):
        cnf = random_cnf(rng, max_vars=8, max_clauses=12)
        order = VarOrder(tuple(rng.sample(range(1, cnf.num_vars + 1), cnf.num_vars)))
        for circuit in _four_configurations(cnf, order):
            guided = circuit_to_cnf(circuit)
            assert guided == oracle_circuit_to_cnf(circuit)
            assert _outcome(compile_guided, guided) == _outcome(oracle_compile_guided, guided)
            again = compile_guided(guided)
            assert isomorphic(again, circuit)
            assert oracle_isomorphic(again, circuit)
    # Medium scripts, whose steps run over dozens of clauses and whose
    # residuals split by color below decisions.
    for ratio in (1.5, 2.0, 2.5):
        cnf = random_3cnf(rng, 30, ratio)
        for circuit in (compile_decomposed(cnf), compile_free(cnf)):
            guided = circuit_to_cnf(circuit)
            assert len(guided.clauses) > 50
            assert _outcome(compile_guided, guided) == _outcome(oracle_compile_guided, guided)


def test_derived_clauses_preserve_semantics():
    rng = random.Random(107)
    for _ in range(20):
        cnf = random_cnf(rng, max_vars=7, max_clauses=10)
        circuit = compile_decomposed(cnf)
        base = circuit_to_cnf(circuit).base
        assert brute_force_count(base) == model_count(circuit)


def test_guided_script_errors():
    with pytest.raises(GuidedScriptError):
        # first literals disagree on the variable with no colors to split on
        from dpllc.checks import GuidedCnf

        compile_guided(GuidedCnf((((1, ()),), ((2, ()),)), 2))
    with pytest.raises(GuidedScriptError):
        from dpllc.checks import GuidedCnf

        compile_guided(GuidedCnf((((1, (5,)),), ((2, ()),)), 2))


# --- isomorphism ----------------------------------------------------------------


def test_isomorphic_basics():
    circuit = compile_free(running_cnf())
    assert isomorphic(circuit, circuit)
    s = NodeStore()
    assert not isomorphic(Circuit(s, FALSE, 1), Circuit(s, TRUE, 1))


def test_isomorphic_across_stores():
    cnf = running_cnf()
    order = VarOrder.identity(3)
    assert isomorphic(compile_ordered(cnf, order), compile_ordered(cnf, order))


def test_isomorphic_literal_is_compact_decision():
    s1 = NodeStore()
    lit = Circuit(s1, s1.literal(2), 2)
    s2 = NodeStore()
    expanded = Circuit(s2, s2.get_node(2, FALSE, TRUE), 2)
    assert isomorphic(lit, expanded)
    s3 = NodeStore()
    neg = Circuit(s3, s3.literal(-2), 2)
    assert not isomorphic(lit, neg)
    s4 = NodeStore()
    neg_expanded = Circuit(s4, s4.get_node(2, TRUE, FALSE), 2)
    assert isomorphic(neg, neg_expanded)


def test_isomorphic_matches_and_children_across_creation_orders():
    s1 = NodeStore()
    x = s1.get_node(1, FALSE, TRUE)
    y = s1.get_node(2, FALSE, TRUE)
    c1 = Circuit(s1, s1.get_and_node([x, y]), 2)
    s2 = NodeStore()
    y2 = s2.get_node(2, FALSE, TRUE)  # reversed creation order flips ids
    x2 = s2.get_node(1, FALSE, TRUE)
    c2 = Circuit(s2, s2.get_and_node([x2, y2]), 2)
    assert isomorphic(c1, c2)


def test_isomorphic_distinguishes_structure():
    s1 = NodeStore()
    c1 = Circuit(s1, s1.get_node(1, FALSE, TRUE), 1)
    s2 = NodeStore()
    c2 = Circuit(s2, s2.get_node(1, TRUE, FALSE), 1)
    assert not isomorphic(c1, c2)


def test_isomorphic_circuits_share_counts():
    rng = random.Random(109)
    for _ in range(10):
        cnf = random_cnf(rng, max_vars=7, max_clauses=10)
        a = compile_free(cnf)
        b = compile_guided(circuit_to_cnf(a))
        assert isomorphic(a, b)
        assert stats(a) == stats(b)
        assert model_count(a) == model_count(b)


# --- agreement with the reference definitions -----------------------------------


def _rebuild(circuit, target=None, how=None):
    """Copy of the circuit in a fresh store, with node `target` changed."""
    src, out = circuit.store, NodeStore()
    remap = {FALSE: FALSE, TRUE: TRUE}
    for nid in reachable(src, circuit.root):
        node = src.nodes[nid]
        kind = node[0]
        if kind == "L":
            lit = node[1]
            if nid == target and how == "expand":
                remap[nid] = out.get_node(abs(lit), *((FALSE, TRUE) if lit > 0 else (TRUE, FALSE)))
            elif nid == target and how == "expand-positive":
                remap[nid] = out.get_node(abs(lit), FALSE, TRUE)
            else:
                remap[nid] = out.literal(lit)
        elif kind == "D":
            _, var, low, high = node
            low, high = remap[low], remap[high]
            if nid == target and how == "swap":
                low, high = high, low
            elif nid == target and how == "revar":
                var = circuit.universe + 1
            remap[nid] = out.get_node(var, low, high)
        elif kind == "A":
            kids = [remap[c] for c in node[1]]
            if nid == target and how == "drop":
                kids = kids[1:]
            remap[nid] = out.get_and_node(kids)
    return Circuit(out, remap[circuit.root], circuit.universe + 1)


def _mutations(node):
    if node[0] == "D":
        return ("swap", "revar")
    if node[0] == "A":
        return ("drop",)
    if node[0] == "L":
        # a negative literal also against the positive expansion
        return ("expand", "expand-positive") if node[1] < 0 else ("expand",)
    return ()


def test_isomorphic_matches_the_reference_on_mutated_pairs():
    rng = random.Random(113)
    verdicts = set()
    for _ in range(30):
        cnf = random_cnf(rng, max_vars=8, max_clauses=12)
        order = VarOrder(tuple(rng.sample(range(1, cnf.num_vars + 1), cnf.num_vars)))
        for circuit in _four_configurations(cnf, order):
            copy = _rebuild(circuit)
            assert isomorphic(circuit, copy) and oracle_isomorphic(circuit, copy)
            for nid in reachable(circuit.store, circuit.root):
                for how in _mutations(circuit.store.nodes[nid]):
                    mutant = _rebuild(circuit, nid, how)
                    verdict = isomorphic(circuit, mutant)
                    assert verdict == oracle_isomorphic(circuit, mutant), (nid, how)
                    assert isomorphic(mutant, circuit) == verdict
                    verdicts.add((how, verdict))
    # Every mutation changes the structure except a literal drawn as its own
    # two-sink decision.
    assert verdicts == {
        ("swap", False),
        ("revar", False),
        ("drop", False),
        ("expand", True),
        ("expand-positive", False),
    }


MALFORMED_SCRIPTS = [
    # first literals disagree on the variable, with no colors to split on
    (((1, ()),), ((2, ()),)),
    # colors on only some first literals
    (((1, (5,)),), ((2, ()),)),
    (((1, (1,)),), ((-1, ()),)),
    (((1, ()),), ((-1, (1,)),)),
    # the second part of a split disagrees, after the first part is built
    (((1, (1,)),), ((2, (2,)), (3, ())), ((-2, (2,)),), ((4, (2,)),)),
    # mixed colors below a decision
    (((1, ()), (2, (1,))), ((1, ()), (3, ()))),
    # both faults in one step: the mixed-color fault is the one reported
    (((1, ()),), ((2, ()),), ((3, (1,)),)),
]


@pytest.mark.parametrize("clauses", MALFORMED_SCRIPTS)
def test_guided_script_errors_match_the_reference(clauses):
    guided = GuidedCnf(clauses, 4)
    with pytest.raises(GuidedScriptError):
        compile_guided(guided)
    assert _outcome(compile_guided, guided) == _outcome(oracle_compile_guided, guided)


OUT_OF_UNIVERSE_SCRIPTS = [
    # a variable above the universe
    ((((5, ()),),), 5),
    ((((1, ()), (-3, (1,))),), -3),
    # the zero literal
    ((((1, ()),), ((1, ()), (0, ()))), 0),
]


@pytest.mark.parametrize("clauses, lit", OUT_OF_UNIVERSE_SCRIPTS)
def test_guided_script_literals_lie_in_the_universe(clauses, lit):
    with pytest.raises(GuidedScriptError, match=r"^literal %d outside universe 1\.\.2$" % lit):
        compile_guided(GuidedCnf(clauses, 2))


def test_empty_clause_takes_precedence_over_a_malformed_step():
    guided = GuidedCnf(((), ((1, ()),), ((2, (3,)),)), 2)
    assert compile_guided(guided).root == FALSE


_script_literal = st.tuples(
    st.sampled_from([1, -1, 2, -2, 3, -3]),
    st.lists(st.integers(1, 3), max_size=2).map(tuple),
)


# Nested colors: both store the inner conjunction ('A', (2, 3)) as node 4,
# before the root ('A', (2, 3, 5)).
NESTED_COLORS = (((1, (1, 2)),), ((2, (1, 3)),), ((3, (2,)),))
# Both report the low child's disagreeing variables before they look at
# the high child, whose colors are mixed.
LOW_CHILD_ERROR_FIRST = (((1, ()), (2, ())), ((1, ()), (3, ())), ((-1, ()), (2, (1,))), ((-1, ()), (3, ())))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.lists(_script_literal, max_size=3).map(tuple), max_size=5).map(tuple))
@example(NESTED_COLORS)
@example(LOW_CHILD_ERROR_FIRST)
def test_compile_guided_matches_the_reference_on_any_script(clauses):
    guided = GuidedCnf(clauses, 3)
    assert _outcome(compile_guided, guided) == _outcome(oracle_compile_guided, guided)


@st.composite
def _scripts_with_shared_prefixes(draw):
    """Scripts over variables 1..3 whose clauses also repeat and cut short
    other clauses of the script, down to the empty clause."""
    clauses = draw(st.lists(st.lists(_script_literal, max_size=4).map(tuple), max_size=6))
    for i, length, at in draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4), st.integers(0, 6)), max_size=4)):
        if clauses:
            clauses.insert(at % (len(clauses) + 1), clauses[i % len(clauses)][:length])
    return tuple(clauses)


@settings(max_examples=300, deadline=None)
@given(_scripts_with_shared_prefixes(), _scripts_with_shared_prefixes())
def test_guided_cnf_keeps_any_clause_sequence(clauses, other):
    guided = GuidedCnf(clauses, 3)
    assert guided.clauses == clauses
    again = GuidedCnf(list(clauses), 3)
    assert guided == again and hash(guided) == hash(again)
    assert (guided == GuidedCnf(other, 3)) == (clauses == other)
    assert guided != GuidedCnf(clauses, 4)
    assert _outcome(compile_guided, guided) == _outcome(oracle_compile_guided, guided)


def test_circuit_to_cnf_emits_the_interned_trie_of_its_predicted_size():
    rng = random.Random(127)
    for _ in range(30):
        for circuit in compiled_family(rng):
            guided = circuit_to_cnf(circuit)
            clauses = guided.clauses
            trie_nodes = len(guided._trie[0]) - 1
            literals = sum(map(len, clauses))
            assert _script_size(circuit.store.nodes, circuit.order) == (trie_nodes, len(clauses), literals)
            # Conditioned circuits too: the script is over 1..num_vars.
            again = GuidedCnf(clauses, circuit.num_vars)
            assert guided == again and hash(guided) == hash(again)


# --- deep and wide circuits ------------------------------------------------------


def test_guided_roundtrip_of_a_deep_chain():
    # 3,000 nested decisions, mostly with a true sink beside the chain, some
    # with a false one, and every 500 levels a conjunction with a fresh
    # literal; the recursion limit stays at its default.
    n = 3000
    s = NodeStore()
    node = TRUE
    for v in range(n, 0, -1):
        node = s.get_node(v, FALSE, node) if v % 97 == 0 else s.get_node(v, node, TRUE)
        if v % 500 == 0:
            node = s.get_and_node([node, s.literal(-(n + v // 500))])
    circuit = Circuit(s, node, n + 6)
    guided = circuit_to_cnf(circuit)
    assert max(len(cl) for cl in guided.clauses) == n
    again = compile_guided(guided)
    assert isomorphic(again, circuit)
    assert model_count(again) == model_count(circuit)


def _wide(n, expanded=False, flip=None, drop=None):
    s = NodeStore()
    kids = []
    for v in range(1, n + 1):
        if v == drop:
            continue
        lit = -v if v == flip else v
        kids.append(s.get_node(v, FALSE, TRUE) if expanded else s.literal(lit))
    return Circuit(s, s.get_and_node(kids), n)


def test_isomorphic_wide_conjunction():
    literals = _wide(2000)
    assert isomorphic(literals, _wide(2000, expanded=True))
    assert not isomorphic(_wide(2000, flip=1234), _wide(2000, expanded=True))
    assert not isomorphic(_wide(2000, drop=777), _wide(2000, expanded=True))
    assert not isomorphic(literals, _wide(2000, flip=2000))


REPLAY_BUDGET_S = 5.0


def test_guided_roundtrip_of_a_wide_conjunction():
    # One color split into 20,000 one-literal parts, at the default
    # recursion limit.
    circuit = _wide(20_000)
    guided = circuit_to_cnf(circuit)
    assert len(guided.clauses) == 20_000
    start = time.perf_counter()
    again = compile_guided(guided)
    elapsed = time.perf_counter() - start
    assert elapsed < REPLAY_BUDGET_S, "replay took %.2f s" % elapsed
    assert isomorphic(again, circuit)


def test_compile_guided_of_one_long_clause_is_its_decision_chain():
    # One clause of 100,000 literals replays as the chain of decisions
    # with the true sink on each literal's other branch, built from the
    # last literal up, exactly as NodeStore builds it directly.
    n = 100_000
    assert sys.getrecursionlimit() < n
    lits = [v if v % 3 else -v for v in range(1, n + 1)]
    start = time.perf_counter()
    replay = compile_guided(GuidedCnf((tuple((lit, ()) for lit in lits),), n))
    elapsed = time.perf_counter() - start
    assert elapsed < REPLAY_BUDGET_S, "replay took %.2f s" % elapsed
    s = NodeStore()
    node = FALSE
    for lit in reversed(lits):
        node = s.get_node(lit, node, TRUE) if lit > 0 else s.get_node(-lit, TRUE, node)
    assert replay.root == node
    assert replay.store.nodes == s.nodes


def test_guided_roundtrip_of_a_chain_a_hundred_thousand_deep():
    # The false sink beside each of 100,000 nested decisions: the script has
    # 100,000 clauses of 5 * 10^9 literals in all, but 199,999 trie nodes.
    # The root decides the last variable, which keeps the variable masks
    # that annotate holds per node (bits 1..v below variable v) near 650 MB.
    n = 100_000
    assert sys.getrecursionlimit() < n
    s = NodeStore()
    node = TRUE
    for v in range(1, n + 1):
        node = s.get_node(v, FALSE, node) if v % 2 else s.get_node(v, node, FALSE)
    circuit = Circuit(s, node, n)
    start = time.perf_counter()
    guided = circuit_to_cnf(circuit)
    again = compile_guided(guided)
    elapsed = time.perf_counter() - start
    assert elapsed < REPLAY_BUDGET_S, "round trip took %.2f s" % elapsed
    with pytest.raises(GuidedScriptTooLarge, match="hold %d literals in %d clauses" % (n * (n + 1) // 2, n)):
        guided.clauses
    with pytest.raises(GuidedScriptTooLarge):
        guided.base
    assert isomorphic(again, circuit)
    count = model_count(circuit)
    # Free the source's masks before the replay's are built.
    del s, circuit, guided
    assert model_count(again) == count == 1


def test_guided_script_of_parity_is_refused_before_it_is_built():
    # The parity OBDD over 30 variables has 61 nodes, and a script of 2^29
    # clauses of 30 literals on about 1.6 * 10^9 trie nodes.
    n = 30
    s = NodeStore()
    even, odd = TRUE, FALSE
    for v in range(n, 0, -1):
        even, odd = s.get_node(v, even, odd), s.get_node(v, odd, even)
    circuit = Circuit(s, even, n)
    assert len(circuit.order) == 61
    start = time.perf_counter()
    with pytest.raises(GuidedScriptTooLarge) as err:
        circuit_to_cnf(circuit)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, "refusal took %.2f s" % elapsed
    assert str(err.value) == (
        "the guided script has %d trie nodes, %d clauses and %d literals, over the budget of %d"
        % (3 * 2**29 - 2, 2**29, n * 2**29, SCRIPT_BUDGET)
    )
