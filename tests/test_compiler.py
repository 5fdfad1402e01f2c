import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dpllc.compiler as compiler
from dpllc import _kernel
from dpllc.checks import check_decision_dnnf, check_fbdd, check_obdd, isomorphic
from dpllc.cnf import Cnf
from dpllc.compiler import (
    Cache,
    CompileConfig,
    VarOrder,
    bandwidth_order,
    compile_cnf,
    compile_decomposed,
    compile_free,
    compile_ordered,
    compute_key,
)
from dpllc.queries import model_count
from dpllc.store import FALSE, TRUE, serialize, stats

from util import (
    brute_force_count,
    condition,
    model_set,
    oracle_bandwidth_order,
    random_3cnf,
    random_cnf,
    renamed,
    running_cnf,
    select_variable,
    shannon_obdd_stats,
)

ALL_SETTINGS = [
    CompileConfig(caching=c, unit_propagation=u, heuristic=h)
    for c in (True, False)
    for u in (True, False)
    for h in ("max-occurrence", "min-index")
]


# --- cache keys -------------------------------------------------------------


def test_key_ignores_clause_listing_order():
    a = Cnf(3, ((0, (1, 2)), (1, (3,))))
    b = Cnf(3, ((1, (3,)), (0, (1, 2))))
    assert compute_key(a) == compute_key(b)
    c = Cnf(3, ((0, (2, 1)), (1, (3,))))
    assert compute_key(a) == compute_key(c)


def test_key_separates_branches():
    cnf = running_cnf()
    assert compute_key(condition(cnf, 1)) != compute_key(condition(cnf, -1))


def test_key_fingerprints_survivors_only():
    base = Cnf(3, ((0, (1, 2)),))
    extra = Cnf(3, ((0, (1, 2)), (1, (1, 3))))
    assert compute_key(condition(extra, 3)) == compute_key(base)


def test_cache_counters():
    cache = Cache()
    assert cache.probe(b"k") is None
    cache.insert(b"k", 5)
    assert cache.probe(b"k") == 5
    assert len(cache) == 1


# --- variable selection -----------------------------------------------------


def test_select_variable():
    assert select_variable(running_cnf(), "min-index") == 1
    assert select_variable(Cnf.from_clauses([[2, 3], [3]], 3), "max-occurrence") == 3
    for h in ("max-occurrence", "min-index"):
        assert select_variable(Cnf.from_clauses([[1]], 1), h) == 1
    with pytest.raises(ValueError):
        select_variable(Cnf.from_clauses([], 2), "min-index")


def test_max_occurrence_breaks_ties_low():
    assert select_variable(Cnf.from_clauses([[1, 4], [4, 1]], 4)) == 1


# --- orders and config ------------------------------------------------------


def test_var_order_validation():
    with pytest.raises(ValueError):
        VarOrder((1, 1, 2))
    with pytest.raises(ValueError):
        VarOrder((2, 3))
    assert VarOrder.from_text("c comment\n3 1\n2\n").order == (3, 1, 2)


def test_config_validation():
    with pytest.raises(ValueError):
        CompileConfig(mode="weird").validate()
    with pytest.raises(ValueError):
        CompileConfig(mode="ordered").validate()  # missing order
    with pytest.raises(ValueError):
        CompileConfig(mode="free", order=VarOrder((1,))).validate()
    with pytest.raises(ValueError):
        CompileConfig(heuristic="vsids").validate()


def test_compile_entry_points_check_their_mode_and_order():
    cnf = running_cnf()
    order, other = VarOrder.identity(3), VarOrder((3, 2, 1))
    with pytest.raises(ValueError, match="^compile_free needs mode='free'$"):
        compile_free(cnf, CompileConfig(mode="decomposed"))
    with pytest.raises(ValueError, match="^cfg.order disagrees with the order argument$"):
        compile_ordered(cnf, order, CompileConfig(mode="ordered", order=other))
    with pytest.raises(ValueError, match="^an order is required exactly when mode='ordered'$"):
        compile_ordered(cnf, order, CompileConfig(mode="free"))
    # An ordered config without an order takes the argument's.
    assert isomorphic(compile_ordered(cnf, order, CompileConfig(mode="ordered")), compile_ordered(cnf, order))


def test_bandwidth_order_is_permutation():
    rng = random.Random(47)
    for _ in range(20):
        cnf = random_cnf(rng, max_vars=10)
        order = bandwidth_order(cnf)
        assert sorted(order.order) == list(range(1, cnf.num_vars + 1))


@st.composite
def rcm_formulas(draw):
    """Formulas whose clauses each lie in a window of `width` consecutive
    variables, so a narrow window gives many small components; plus unit
    clauses, and declared variables no clause holds."""
    n = draw(st.integers(1, 40))
    width = draw(st.integers(1, n))
    clauses = []
    for _ in range(draw(st.integers(0, 30))):
        lo = draw(st.integers(1, n - width + 1))
        vs = draw(st.lists(st.integers(lo, lo + width - 1), min_size=1, max_size=min(width, 3), unique=True))
        clauses.append([v if draw(st.booleans()) else -v for v in vs])
    for v in draw(st.lists(st.integers(1, n), max_size=6)):
        clauses.insert(draw(st.integers(0, len(clauses))), [v if draw(st.booleans()) else -v])
    return Cnf.from_clauses(clauses, n + draw(st.integers(0, 3)))


@settings(max_examples=300, deadline=None)
@given(cnf=rcm_formulas())
@example(cnf=Cnf.from_clauses([[3], [-1], [2]], 5))
@example(cnf=Cnf.from_clauses([[1, 2], [3, 4], [2, -3], [5]], 6))
@example(cnf=Cnf.from_clauses([], 3))
def test_bandwidth_order_matches_oracle(cnf):
    assert bandwidth_order(cnf) == oracle_bandwidth_order(cnf)


def _disjoint_pairs(k: int) -> Cnf:
    return Cnf.from_clauses([[2 * i + 1, -(2 * i + 2)] for i in range(k)], 2 * k)


def test_bandwidth_order_is_near_linear_in_components():
    # Scanning every vertex left for each component's start took 3.6 s on
    # 4,000 such clauses, and that grows with the square of their number.
    cnf = _disjoint_pairs(20_000)
    start = time.perf_counter()
    order = bandwidth_order(cnf)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, "took %.2f s" % elapsed
    assert sorted(order.order) == list(range(1, cnf.num_vars + 1))


# --- free mode ---------------------------------------------------------------


def test_free_sinks():
    assert compile_free(Cnf.from_clauses([], 0)).root == TRUE
    assert compile_free(Cnf(2, ((0, ()),))).root == FALSE


def test_free_running_formula():
    for cfg in ALL_SETTINGS:
        circuit = compile_free(running_cnf(), cfg)
        assert model_count(circuit) == 4
        assert check_fbdd(circuit).verdict


def test_free_never_emits_literal_nodes():
    rng = random.Random(53)
    for _ in range(20):
        cnf = random_cnf(rng, max_vars=8, max_clauses=12)
        circuit = compile_free(cnf)
        kinds = {circuit.store.node(n)[0] for n in range(len(circuit.store))}
        assert "L" not in kinds and "A" not in kinds


# --- ordered mode -------------------------------------------------------------


def _figure_obdd():
    # Reduced ordered diagram of the running formula under 1 < 2 < 3,
    # built by hand from its four models.
    from dpllc.store import Circuit, NodeStore

    s = NodeStore()
    not3 = s.get_node(3, TRUE, FALSE)
    f0 = s.get_node(2, FALSE, not3)
    f1 = s.get_node(2, not3, TRUE)
    return Circuit(s, s.get_node(1, f0, f1), 3)


def test_ordered_running_matches_hand_built():
    circuit = compile_ordered(running_cnf(), VarOrder.identity(3))
    assert stats(circuit) == (6, 8)
    assert isomorphic(circuit, _figure_obdd())
    assert check_obdd(circuit, VarOrder.identity(3)).verdict


def test_ordered_tautology_is_true_sink():
    for order in (VarOrder.identity(4), VarOrder((4, 2, 1, 3))):
        assert compile_ordered(Cnf.from_clauses([], 4), order).root == TRUE


def _ordered_settings(cnf, order):
    return [
        compile_ordered(cnf, order, CompileConfig(mode="ordered", order=order, caching=c, unit_propagation=u))
        for c in (True, False)
        for u in (True, False)
    ]


def test_ordered_is_canonical_across_settings(kernel, monkeypatch):
    monkeypatch.setattr(compiler, "KERNEL", kernel)
    rng = random.Random(59)
    for _ in range(15):
        cnf = random_cnf(rng, max_vars=8, max_clauses=14)
        order = VarOrder(tuple(rng.sample(range(1, cnf.num_vars + 1), cnf.num_vars)))
        circuits = _ordered_settings(cnf, order)
        for other in circuits[1:]:
            assert serialize(other) == serialize(circuits[0])
            assert len(other.store) == len(circuits[0].store)
            assert stats(other) == stats(circuits[0])
            assert isomorphic(other, circuits[0])


def test_ordered_places_an_implied_last_variable_below_every_path(kernel, monkeypatch):
    # Propagating the root implies x4, last in the order, while x1, x2 and
    # x3 still branch: x4 waits, and its forced decision ends every path
    # to the true sink.
    monkeypatch.setattr(compiler, "KERNEL", kernel)
    cnf = Cnf.from_clauses([[4], [1, 2], [-1, 3]], 4)
    order = VarOrder.identity(4)
    circuits = _ordered_settings(cnf, order)
    for circuit in circuits:
        assert serialize(circuit) == serialize(circuits[0])
        assert len(circuit.store) == len(circuits[0].store)
        assert check_obdd(circuit, order).verdict
        assert model_count(circuit) == brute_force_count(cnf) == 4
        nodes = [circuit.store.node(n) for n in range(len(circuit.store))]
        assert [n for n in nodes if n[0] == "D" and TRUE in n[2:]] == [("D", 4, FALSE, TRUE)]
        assert sorted(n[1] for n in nodes if n[0] == "D") == [1, 2, 3, 4]


def test_ordered_under_any_order_is_the_renamed_shannon_obdd(kernel, monkeypatch):
    # Ordered mode branches by index on the formula renamed by the order,
    # so under every order its trace has the size of the reduced OBDD of
    # the renamed formula under 1 < 2 < ... < n.
    monkeypatch.setattr(compiler, "KERNEL", kernel)
    rng = random.Random(67)
    for _ in range(30):
        cnf = random_cnf(rng, max_vars=8, max_clauses=14)
        order = VarOrder(tuple(rng.sample(range(1, cnf.num_vars + 1), cnf.num_vars)))
        expected = shannon_obdd_stats(model_set(renamed(cnf, order)), cnf.num_vars)
        for circuit in _ordered_settings(cnf, order):
            assert stats(circuit) == expected
            assert check_obdd(circuit, order).verdict


def test_ordered_requires_covering_order():
    with pytest.raises(ValueError):
        compile_ordered(running_cnf(), VarOrder.identity(2))


# --- decomposed mode -----------------------------------------------------------


def test_decomposed_two_components():
    cnf = Cnf.from_clauses([[1, 2], [3, 4]], 4)
    circuit = compile_decomposed(cnf)
    assert circuit.store.node(circuit.root)[0] == "A"
    assert model_count(circuit) == 9
    assert brute_force_count(cnf) == 9


def test_decomposed_running_formula():
    for cfg in ALL_SETTINGS:
        cfg = CompileConfig("decomposed", cfg.caching, cfg.unit_propagation, cfg.heuristic)
        circuit = compile_decomposed(running_cnf(), cfg)
        assert model_count(circuit) == 4
        assert check_decision_dnnf(circuit).verdict


def test_decomposed_single_unit_clause():
    cnf = Cnf.from_clauses([[1]], 1)
    with_up = compile_decomposed(cnf)
    assert with_up.store.node(with_up.root) == ("L", 1)
    without = compile_decomposed(cnf, CompileConfig("decomposed", unit_propagation=False))
    assert without.store.node(without.root) == ("D", 1, FALSE, TRUE)
    assert model_count(with_up) == model_count(without) == 1


def test_decomposed_implied_literals_conjoined():
    # Unit propagation fixes 1 and the rest decomposes away from it.
    cnf = Cnf.from_clauses([[1], [-1, 2, 3], [4, 5]], 5)
    circuit = compile_decomposed(cnf)
    root = circuit.store.node(circuit.root)
    assert root[0] == "A"
    kinds = sorted(circuit.store.node(c)[0] for c in root[1])
    assert "L" in kinds
    assert model_count(circuit) == brute_force_count(cnf)


# --- cross-cutting ----------------------------------------------------------


def test_cache_soundness_and_oracle_equivalence():
    rng = random.Random(61)
    for _ in range(25):
        cnf = random_cnf(rng, max_vars=9, max_clauses=16)
        expected = brute_force_count(cnf)
        order = VarOrder(tuple(rng.sample(range(1, cnf.num_vars + 1), cnf.num_vars)))
        for cfg in ALL_SETTINGS:
            free = compile_free(cnf, cfg)
            assert model_count(free) == expected
            dec = CompileConfig("decomposed", cfg.caching, cfg.unit_propagation, cfg.heuristic)
            assert model_count(compile_decomposed(cnf, dec)) == expected
            ocfg = CompileConfig("ordered", cfg.caching, cfg.unit_propagation, cfg.heuristic, order)
            assert model_count(compile_ordered(cnf, order, ocfg)) == expected


def test_compile_cnf_dispatch():
    cnf = running_cnf()
    assert model_count(compile_cnf(cnf, CompileConfig("free"))) == 4
    cfg = CompileConfig("ordered", order=VarOrder.identity(3))
    assert model_count(compile_cnf(cnf, cfg)) == 4
    assert model_count(compile_cnf(cnf, CompileConfig("decomposed"))) == 4


def test_circuit_evaluation_agrees_with_clauses():
    from util import assignments, eval_circuit, eval_cnf

    rng = random.Random(113)
    for _ in range(15):
        cnf = random_cnf(rng, max_vars=6, max_clauses=10)
        circuits = [
            compile_free(cnf),
            compile_ordered(cnf, VarOrder.identity(cnf.num_vars)),
            compile_decomposed(cnf),
        ]
        for a in assignments(cnf.num_vars):
            want = eval_cnf(cnf, a)
            for circuit in circuits:
                assert eval_circuit(circuit, a) == want


DEEP_BUDGET_S = 5.0


def test_deep_instances_do_not_overflow_the_stack(kernel, monkeypatch):
    # One forced decision (free, ordered) or one conjunct (decomposed) per
    # variable: the free and ordered traces are as deep as the variable
    # count, far past the default recursion limit.  Each compile must also
    # finish within a fixed wall-clock budget, which a search that
    # conditions the whole residual per forced literal does not.
    monkeypatch.setattr(compiler, "KERNEL", kernel)
    n = 10_000
    assert sys.getrecursionlimit() < n
    cnf = Cnf.from_clauses([[v] for v in range(1, n + 1)], n)
    configs = [
        CompileConfig("free"),
        CompileConfig("ordered", order=VarOrder.identity(n)),
        CompileConfig("decomposed"),
        CompileConfig("decomposed", unit_propagation=False),
    ]
    for cfg in configs:
        start = time.perf_counter()
        circuit = compile_cnf(cnf, cfg)
        elapsed = time.perf_counter() - start
        assert elapsed < DEEP_BUDGET_S, "%s took %.2f s" % (cfg, elapsed)
        assert model_count(circuit) == 1


def test_wide_ordered_compile_under_rcm(monkeypatch):
    # 4,000 variable-disjoint clauses in one residual: a pick that looks
    # at every variable left, or an order that scans every vertex left per
    # component, made this take about 29 s.
    monkeypatch.setattr(compiler, "KERNEL", _kernel.load("py"))
    k = 4_000
    cnf = _disjoint_pairs(k)
    start = time.perf_counter()
    circuit = compile_ordered(cnf, bandwidth_order(cnf))
    elapsed = time.perf_counter() - start
    assert elapsed < DEEP_BUDGET_S, "took %.2f s" % elapsed
    assert stats(circuit) == (2 * k + 2, 4 * k)
    assert model_count(circuit) == 3**k


# What the cache may still hold at the end of the wide compile below:
# 0.68 MB of keys and table on the Python kernel and 0.92 MB on the
# compiled one; keys made of the settled input's two masks would take
# about 9 MB.
WIDE_CACHE_BYTES = 1_500_000
# The traced peak of that compile: 4.1 MB on the Python kernel and
# 3.6 MB on the compiled one.  Tables as wide as the whole formula, a
# mask of up to n bits per clause and of up to m bits per literal, took
# 10.5 MB here and grow with m * n.
WIDE_PEAK_BYTES = 6_000_000


def test_wide_sparse_formula_compiles_per_component(kernel, monkeypatch):
    # A random 3-CNF of 3,000 clauses over 20,000 variables falls apart
    # into small components.  Decomposed search must cost what those hold,
    # not what the formula holds: on the Python kernel the root gives each
    # component a table of its own, and its cache keys list its few
    # clauses and variables.
    monkeypatch.setattr(compiler, "KERNEL", kernel)
    cnf = random_3cnf(random.Random(0), 20_000, 0.15)
    start = time.perf_counter()
    circuit = compile_decomposed(cnf)
    elapsed = time.perf_counter() - start
    assert elapsed < DEEP_BUDGET_S, "took %.2f s" % elapsed
    assert len(circuit.store) == 13_222
    kept = []

    class KeptCache(Cache):
        def __init__(self):
            super().__init__()
            kept.append(self)

    monkeypatch.setattr(compiler, "Cache", KeptCache)
    tracemalloc.start()
    try:
        compile_decomposed(cnf)
        with_cache, peak = tracemalloc.get_traced_memory()
        kept.clear()
        held = with_cache - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < WIDE_CACHE_BYTES, "the cache held %d bytes" % held
    assert peak < WIDE_PEAK_BYTES, "the traced peak was %d bytes" % peak


def test_uncached_search_holds_no_residual_per_level():
    # Without a cache nothing needs a decision's residual after its
    # children are made, so a deep ordered compile must not keep one per
    # level of the chain (about n^2/2 * 16 bytes, 1.3 MB at n = 400).
    # Propagation is off, so the chain takes one decision per level; with
    # it the root implies the whole chain and nothing branches.
    n = 400
    cnf = Cnf.from_clauses([[1]] + [[-v, v + 1] for v in range(1, n)], n)
    cfg = CompileConfig("ordered", caching=False, unit_propagation=False, order=VarOrder.identity(n))
    tracemalloc.start()
    try:
        circuit = compile_cnf(cnf, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model_count(circuit) == 1
    assert peak < 500_000, "peak %d bytes" % peak


def test_cached_ordered_chain_holds_no_residual_per_level():
    # Propagating the root implies the whole implication chain, so a
    # cached ordered compile keeps no conditioned residual per level
    # either (about n^2/2 * 16 bytes, 8 MB at n = 1,000).
    n = 1000
    cnf = Cnf.from_clauses([[1]] + [[-v, v + 1] for v in range(1, n)], n)
    cfg = CompileConfig("ordered", order=VarOrder.identity(n))
    tracemalloc.start()
    try:
        circuit = compile_cnf(cnf, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model_count(circuit) == 1
    assert peak < 2_000_000, "peak %d bytes" % peak


def test_stores_come_back_frozen():
    circuit = compile_free(running_cnf())
    with pytest.raises(Exception):
        circuit.store.get_node(999, FALSE, TRUE)
