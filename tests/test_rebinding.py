"""The layers reach each other through module-level names, so a tracer can
rebind them from outside without touching the package: the compiler looks
up KERNEL, Cache and NodeStore in its own globals on every compile, store
looks up `reachable` and `NodeStore` in its own, and every walk of a
circuit goes through `store.reachable`.  A refactor that captures one of
these names early breaks such tracing silently; these tests catch it."""

import importlib.util
import random
import types
from collections import Counter
from pathlib import Path

import pytest

import dpllc.compiler as compiler
from dpllc import checks, queries, store
from dpllc.cnf import Cnf
from dpllc.compiler import bandwidth_order, compile_decomposed, compile_free, compile_ordered
from dpllc.queries import model_count

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

from util import random_3cnf

ORIGINAL = (compiler.KERNEL, compiler.Cache, compiler.NodeStore)

# The single-step operations over the byte layout, which the search no
# longer calls.
BYTE_OPS = (
    "condition",
    "propagate",
    "propagate_conflict",
    "split_components",
    "select_var",
    "first_unit_var",
    "min_rank_var",
    "has_empty",
)
KERNEL_OPS = ("root", "branch", "key", *BYTE_OPS)

COMPILERS = {
    "free": compile_free,
    "ordered": lambda cnf: compile_ordered(cnf, bandwidth_order(cnf)),
    "decomposed": compile_decomposed,
}

# Kernel operations each discipline cannot do without.  Every mode
# settles the input with one root call, keys every residual it probes the
# cache with, and takes every decision with one branch call, which picks
# its own variable.
MODE_OPS = {
    "free": {"root", "key", "branch"},
    "ordered": {"root", "key", "branch"},
    "decomposed": {"root", "key", "branch"},
}


@pytest.fixture
def rebound():
    """Rebind compiler.KERNEL, Cache and NodeStore to counting stand-ins."""
    calls = Counter()
    kernel = compiler.KERNEL

    def counted(name, fn):
        def op(*args):
            calls[name] += 1
            return fn(*args)

        return op

    ns = types.SimpleNamespace(
        **{k: getattr(kernel, k) for k in dir(kernel) if not k.startswith("__")}
    )
    for name in KERNEL_OPS:
        setattr(ns, name, counted(name, getattr(kernel, name)))

    base_cache, base_store = compiler.Cache, compiler.NodeStore

    class CountingCache(base_cache):
        def probe(self, key):
            calls["cache.probe"] += 1
            return base_cache.probe(self, key)

        def insert(self, key, node):
            calls["cache.insert"] += 1
            base_cache.insert(self, key, node)

    class CountingStore(base_store):
        def get_node(self, var, low, high):
            calls["store.get_node"] += 1
            return base_store.get_node(self, var, low, high)

    saved = (compiler.KERNEL, compiler.Cache, compiler.NodeStore)
    compiler.KERNEL, compiler.Cache, compiler.NodeStore = ns, CountingCache, CountingStore
    try:
        yield calls, CountingStore
    finally:
        compiler.KERNEL, compiler.Cache, compiler.NodeStore = saved


@pytest.mark.parametrize("mode", sorted(COMPILERS))
def test_compile_goes_through_rebound_names(rebound, mode):
    calls, counting_store = rebound
    circuit = COMPILERS[mode](random_3cnf(random.Random(5), 16, 2.5))
    assert isinstance(circuit.store, counting_store)
    assert MODE_OPS[mode] == {op for op in KERNEL_OPS if calls[op]}
    assert calls["cache.probe"] and calls["cache.insert"] and calls["store.get_node"]


def test_free_compile_propagates_a_unit_chain_once(rebound):
    # x1 and x_i -> x_i+1: settling the input derives every literal in
    # one call, and the forced decisions need no branching.
    calls, _ = rebound
    n = 200
    cnf = Cnf.from_clauses([[1]] + [[-v, v + 1] for v in range(1, n)], n)
    circuit = compile_free(cnf)
    assert calls["root"] == 1
    assert calls["branch"] == 0
    assert not any(calls[op] for op in BYTE_OPS)
    assert calls["store.get_node"] == n
    assert model_count(circuit) == 1


def test_ordered_compile_places_a_unit_chain_from_one_propagation(rebound):
    # Propagating the root implies the whole chain and leaves nothing to
    # branch on; the implied literals wait in rank order and become one
    # chain of forced decisions, under one cache probe whose key is the
    # waiting literals alone.
    calls, _ = rebound
    n = 1000
    cnf = Cnf.from_clauses([[1]] + [[-v, v + 1] for v in range(1, n)], n)
    circuit = compile_ordered(cnf, compiler.VarOrder.identity(n))
    assert calls["root"] == 1
    assert not any(calls[op] for op in BYTE_OPS)
    assert calls["branch"] == calls["key"] == 0
    assert calls["cache.probe"] == 1
    assert calls["store.get_node"] == n
    assert model_count(circuit) == 1


@pytest.mark.parametrize("mode", ["free", "decomposed"])
def test_settled_residuals_go_straight_to_the_cache(rebound, mode):
    # Only the input and the children of a decision are settled (by root
    # and branch); a fixpoint or component that comes out of that step is
    # keyed and probed as it is, and expanded by one branch call on a
    # miss, with no settling step of its own.
    calls, _ = rebound
    COMPILERS[mode](random_3cnf(random.Random(7), 40, 3.0))
    assert calls["root"] == 1
    assert calls["key"] == calls["cache.probe"] > 100
    assert calls["branch"] == calls["cache.insert"]
    assert not any(calls[op] for op in BYTE_OPS)


def test_decomposed_compile_branches_once_per_decision(rebound):
    # Every decision node comes from one expanded residual, whose one
    # branch call picks its variable and settles both children; only the
    # input is settled by root.
    calls, _ = rebound
    compile_decomposed(random_3cnf(random.Random(7), 40, 3.0))
    assert calls["branch"] > 100
    assert calls["branch"] == calls["store.get_node"]
    assert calls["root"] == 1
    assert not any(calls[op] for op in BYTE_OPS)


def test_ordered_compile_branches_once_per_decision(rebound):
    # Ordered search expands a residual like the other modes: one branch
    # call per decision, which picks the variable, and only the input is
    # settled by root.  Without propagation no literal waits, so every
    # get_node call is a decision.
    calls, _ = rebound
    cnf = random_3cnf(random.Random(7), 40, 3.0)
    compile_ordered(cnf, bandwidth_order(cnf))
    assert calls["branch"] > 100
    assert calls["root"] == 1
    assert not any(calls[op] for op in BYTE_OPS)
    calls.clear()
    cnf = random_3cnf(random.Random(7), 20, 3.0)
    order = bandwidth_order(cnf)
    compile_ordered(cnf, order, compiler.CompileConfig(mode="ordered", order=order, unit_propagation=False))
    assert calls["branch"] > 100
    assert calls["branch"] == calls["store.get_node"]
    assert not any(calls[op] for op in BYTE_OPS)


def test_parse_nnf_builds_through_the_rebound_node_store(monkeypatch):
    calls = Counter()
    base = store.NodeStore

    class CountingStore(base):
        def literal(self, lit):
            calls["literal"] += 1
            return base.literal(self, lit)

        def get_node(self, var, low, high):
            calls["get_node"] += 1
            return base.get_node(self, var, low, high)

        def get_and_node(self, children):
            calls["get_and_node"] += 1
            return base.get_and_node(self, children)

    circuit = compile_decomposed(random_3cnf(random.Random(5), 16, 2.5))
    monkeypatch.setattr(store, "NodeStore", CountingStore)
    parsed = store.parse_nnf(store.serialize(circuit))
    assert isinstance(parsed.store, CountingStore)
    assert calls["literal"] and calls["get_node"] and calls["get_and_node"]


def test_rebinding_is_undone():
    assert (compiler.KERNEL, compiler.Cache, compiler.NodeStore) == ORIGINAL


@pytest.mark.parametrize("module", [store, queries, checks], ids=lambda m: m.__name__)
def test_post_compile_layers_name_reachable_and_node_store(module):
    assert module.reachable is store.reachable
    assert module.NodeStore is store.NodeStore


@pytest.mark.parametrize(
    "run",
    [
        store.serialize,
        queries.model_count,
        checks.check_fbdd,
        checks.circuit_to_cnf,
        lambda circuit: checks.isomorphic(circuit, circuit),
    ],
    ids=["store", "queries", "checks", "checks-circuit_to_cnf", "checks-isomorphic"],
)
def test_post_compile_layers_look_up_reachable_at_call_time(monkeypatch, run):
    seen = []
    reachable = store.reachable

    def counting_reachable(st, root):
        seen.append(root)
        return reachable(st, root)

    monkeypatch.setattr(store, "reachable", counting_reachable)
    circuit = compile_free(random_3cnf(random.Random(6), 10, 2.0))
    run(circuit)
    assert circuit.root in seen


def test_prob_equiv_walks_each_circuit_once(monkeypatch):
    seen = []
    reachable = store.reachable

    def counting_reachable(st, root):
        seen.append(root)
        return reachable(st, root)

    monkeypatch.setattr(store, "reachable", counting_reachable)
    a = compile_free(random_3cnf(random.Random(6), 10, 2.0))
    b = compile_decomposed(random_3cnf(random.Random(6), 10, 2.0))
    assert queries.prob_equiv(a, b).equivalent
    assert sorted(seen) == sorted([a.root, b.root])


def _ddnnf_pipeline(cnf):
    """The benchmark's ddnnf-pipeline calls on one instance."""
    circuit = compile_decomposed(cnf)
    count = model_count(circuit)
    parsed = store.parse_nnf(store.serialize(circuit))
    assert model_count(parsed) == count
    assert checks.check_decision_dnnf(circuit).verdict
    assert queries.prob_equiv(circuit, parsed).equivalent
    replay = checks.compile_guided(checks.circuit_to_cnf(circuit))
    assert checks.isomorphic(circuit, replay)


def test_ddnnf_pipeline_walks_each_circuit_once_and_audits_once(monkeypatch):
    # Three circuits (compiled, parsed, replayed), one walk each; only
    # check_decision_dnnf audits the store.
    calls = Counter()
    reachable, audit = store.reachable, store.NodeStore.audit

    def counting_reachable(st, root):
        calls["reachable"] += 1
        return reachable(st, root)

    def counting_audit(st):
        calls["audit"] += 1
        audit(st)

    monkeypatch.setattr(store, "reachable", counting_reachable)
    monkeypatch.setattr(store.NodeStore, "audit", counting_audit)
    _ddnnf_pipeline(random_3cnf(random.Random(5), 16, 2.5))
    assert calls == {"reachable": 3, "audit": 1}

    calls.clear()
    cnf = random_3cnf(random.Random(5), 16, 2.5)
    order = bandwidth_order(cnf)
    circuit = compile_ordered(cnf, order)
    model_count(circuit)
    assert checks.check_obdd(circuit, order).verdict
    assert calls == {"reachable": 1, "audit": 1}


def test_benchmark_tracer_times_every_walk():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    names = ("KERNEL", "Cache", "NodeStore", "reachable")
    modules = (compiler, store, queries, checks)

    def bindings():
        return {(m.__name__, n): getattr(m, n) for m in modules for n in names if hasattr(m, n)}

    before = bindings()
    tracer = layers.Tracer()
    tracer.install()
    try:
        _ddnnf_pipeline(random_3cnf(random.Random(5), 16, 2.5))
    finally:
        tracer.uninstall()
    assert tracer.calls["store.reachable"] == 3
    assert all(tracer.calls["store." + op] for op in layers.STORE_OPS)
    assert bindings() == before
