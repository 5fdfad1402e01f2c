"""The layers reach each other through module-level names, so a tracer can
rebind them from outside without touching the package: the compiler looks
up KERNEL, Cache and NodeStore in its own globals on every compile, and
store, queries and checks look up `reachable` and `NodeStore` in theirs.
A refactor that captures one of these names early breaks such tracing
silently; these tests catch it."""

import random
import types
from collections import Counter

import pytest

import dpllc.compiler as compiler
from dpllc import checks, queries, store
from dpllc.cnf import Cnf
from dpllc.compiler import bandwidth_order, compile_decomposed, compile_free, compile_ordered
from dpllc.queries import model_count

from util import random_3cnf

ORIGINAL = (compiler.KERNEL, compiler.Cache, compiler.NodeStore)

KERNEL_OPS = (
    "condition",
    "propagate",
    "propagate_conflict",
    "split_components",
    "select_var",
    "first_unit_var",
    "min_rank_var",
    "has_empty",
)

COMPILERS = {
    "free": compile_free,
    "ordered": lambda cnf: compile_ordered(cnf, bandwidth_order(cnf)),
    "decomposed": compile_decomposed,
}

# Kernel operations each discipline cannot do without.
MODE_OPS = {
    "free": {"has_empty", "condition", "propagate", "select_var"},
    "ordered": {"has_empty", "condition", "propagate_conflict", "min_rank_var"},
    "decomposed": {"has_empty", "condition", "propagate", "split_components", "select_var"},
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
    assert MODE_OPS[mode] <= {op for op in KERNEL_OPS if calls[op]}
    assert calls["cache.probe"] and calls["cache.insert"] and calls["store.get_node"]


def test_free_compile_propagates_a_unit_chain_once(rebound):
    # x1 and x_i -> x_i+1: propagation derives every literal in one call,
    # and the forced decisions need no conditioning.
    calls, _ = rebound
    n = 200
    cnf = Cnf.from_clauses([[1]] + [[-v, v + 1] for v in range(1, n)], n)
    circuit = compile_free(cnf)
    assert calls["propagate"] == 1
    assert calls["condition"] == 0
    assert calls["store.get_node"] == n
    assert model_count(circuit) == 1


@pytest.mark.parametrize("mode", ["free", "decomposed"])
def test_settled_residuals_go_straight_to_the_cache(rebound, mode):
    # Only the input and the conditioned residuals are propagated and
    # split; a fixpoint or component pushed after that step is not.
    calls, _ = rebound
    COMPILERS[mode](random_3cnf(random.Random(7), 40, 3.0))
    assert calls["propagate"] <= calls["condition"] + 1
    assert calls["split_components"] <= calls["propagate"]


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
    "module, run",
    [
        (store, store.serialize),
        (queries, queries.model_count),
        (checks, checks.check_fbdd),
        (checks, checks.circuit_to_cnf),
        (checks, lambda circuit: checks.isomorphic(circuit, circuit)),
    ],
    ids=["store", "queries", "checks", "checks-circuit_to_cnf", "checks-isomorphic"],
)
def test_post_compile_layers_look_up_reachable_at_call_time(monkeypatch, module, run):
    seen = []
    reachable = store.reachable

    def counting_reachable(st, root):
        seen.append(root)
        return reachable(st, root)

    monkeypatch.setattr(module, "reachable", counting_reachable)
    circuit = compile_free(random_3cnf(random.Random(6), 10, 2.0))
    run(circuit)
    assert circuit.root in seen


def test_prob_equiv_walks_each_circuit_once(monkeypatch):
    seen = []
    reachable = store.reachable

    def counting_reachable(st, root):
        seen.append(root)
        return reachable(st, root)

    monkeypatch.setattr(queries, "reachable", counting_reachable)
    a = compile_free(random_3cnf(random.Random(6), 10, 2.0))
    b = compile_decomposed(random_3cnf(random.Random(6), 10, 2.0))
    assert queries.prob_equiv(a, b).equivalent
    assert sorted(seen) == sorted([a.root, b.root])
