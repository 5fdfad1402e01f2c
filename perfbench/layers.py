"""Per-layer tracing from outside the program.

`Tracer.install` rebinds, for the duration of a traced run, the names
through which dpllc's layers reach each other:

  compiler.KERNEL                 -> a namespace of timed kernel ops
  compiler/store/queries/checks .NodeStore -> a NodeStore subclass whose
                                     constructors are timed
  compiler.Cache                  -> a Cache subclass counting probes,
                                     hits, entries and key bytes
  store/queries/checks .reachable -> a timed reachable()

Calls the benchmark makes itself go through `Tracer.span`.  Nothing
under src/ changes; `uninstall` restores every original binding.
"""

from __future__ import annotations

import types
from collections import defaultdict
from time import perf_counter

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
STORE_OPS = ("get_node", "get_and_node", "literal")
QUERY_FNS = (
    "model_count",
    "is_consistent",
    "entails_clause",
    "is_implicant",
    "condition_circuit",
    "enumerate_models",
    "prob_equiv",
)
CHECK_FNS = ("check_decision_dnnf", "check_obdd", "circuit_to_cnf", "compile_guided", "isomorphic")

COMPILE_SPAN = "compiler.compile"


class Tracer:
    """Call counts and busy time per layer operation."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.secs: dict[str, float] = defaultdict(float)
        self.bytes: dict[str, int] = defaultdict(int)
        self.in_compile = False
        self.recording = True  # off while the benchmark measures sizes itself
        self.compile_inner_s = 0.0  # kernel, store and cache time inside compiles
        self._saved: list[tuple[object, str, object]] = []

    # -- benchmark-level spans ------------------------------------------

    def span(self, name: str, fn, *args):
        outer = self.in_compile
        if name == COMPILE_SPAN:
            self.in_compile = True
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._record(name, perf_counter() - t0)
            self.in_compile = outer

    def _record(self, name: str, dt: float) -> None:
        if not self.recording:
            return
        self.calls[name] += 1
        self.secs[name] += dt

    def _inner(self, name: str, dt: float) -> None:
        if not self.recording:
            return
        self.calls[name] += 1
        self.secs[name] += dt
        if self.in_compile:
            self.compile_inner_s += dt

    # -- rebinding --------------------------------------------------------

    def _rebind(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        from dpllc import checks, compiler, queries, store

        tracer = self
        kernel = compiler.KERNEL

        def timed_op(name, fn):
            key = "kernel." + name

            def op(res, *args):
                t0 = perf_counter()
                try:
                    return fn(res, *args)
                finally:
                    tracer._inner(key, perf_counter() - t0)
                    tracer.bytes[key] += len(res)

            return op

        ns = types.SimpleNamespace(
            **{k: getattr(kernel, k) for k in dir(kernel) if not k.startswith("__")}
        )
        for name in KERNEL_OPS:
            setattr(ns, name, timed_op(name, getattr(kernel, name)))
        self._rebind(compiler, "KERNEL", ns)

        base_store = store.NodeStore

        class TimedStore(base_store):
            def _timed(self, key, fn, *args):
                size = len(self.nodes)
                t0 = perf_counter()
                try:
                    return fn(self, *args)
                finally:
                    tracer._inner(key, perf_counter() - t0)
                    tracer.calls["store.new_nodes"] += len(self.nodes) - size

            def literal(self, lit):
                return self._timed("store.literal", base_store.literal, lit)

            def get_node(self, var, low, high):
                return self._timed("store.get_node", base_store.get_node, var, low, high)

            def get_and_node(self, children):
                return self._timed("store.get_and_node", base_store.get_and_node, children)

        for module in (compiler, store, queries, checks):
            self._rebind(module, "NodeStore", TimedStore)

        base_cache = compiler.Cache

        class TimedCache(base_cache):
            def probe(self, key):
                t0 = perf_counter()
                try:
                    got = base_cache.probe(self, key)
                finally:
                    tracer._inner("compiler.cache.probe", perf_counter() - t0)
                if got is not None:
                    tracer.calls["compiler.cache.hit"] += 1
                return got

            def insert(self, key, node):
                if key not in self.table:
                    tracer.calls["compiler.cache.entries"] += 1
                    tracer.bytes["compiler.cache.key_bytes"] += len(key)
                t0 = perf_counter()
                try:
                    base_cache.insert(self, key, node)
                finally:
                    tracer._inner("compiler.cache.insert", perf_counter() - t0)

        self._rebind(compiler, "Cache", TimedCache)

        reach = store.reachable

        def timed_reachable(st, root):
            t0 = perf_counter()
            try:
                return reach(st, root)
            finally:
                tracer._record("store.reachable", perf_counter() - t0)

        for module in (store, queries, checks):
            self._rebind(module, "reachable", timed_reachable)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Per-layer totals since construction, under the metric names."""
        out: dict[str, float] = {}
        for name in KERNEL_OPS:
            key = "kernel." + name
            out[key + ".calls"] = self.calls[key]
            out[key + ".s"] = self.secs[key]
            out[key + ".bytes_in"] = self.bytes[key]
        probes = self.calls["compiler.cache.probe"]
        out["compiler.cache.probes"] = probes
        out["compiler.cache.hits"] = self.calls["compiler.cache.hit"]
        out["compiler.cache.entries"] = self.calls["compiler.cache.entries"]
        out["compiler.cache.key_bytes"] = self.bytes["compiler.cache.key_bytes"]
        out["compiler.compile.s"] = self.secs[COMPILE_SPAN]
        out["compiler.driver_self.s"] = self.secs[COMPILE_SPAN] - self.compile_inner_s
        out["compiler.order.s"] = self.secs["compiler.order"]
        store_calls = 0
        for name in STORE_OPS:
            key = "store." + name
            out[key + ".calls"] = self.calls[key]
            out[key + ".s"] = self.secs[key]
            store_calls += self.calls[key]
        out["store.nodes"] = self.calls["store.new_nodes"]
        out["store._calls"] = store_calls
        for name in ("reachable", "serialize", "parse_nnf"):
            out["store.%s.s" % name] = self.secs["store." + name]
        out["store.serialize.bytes"] = self.bytes["store.serialize"]
        for name in QUERY_FNS:
            out["queries.%s.calls" % name] = self.calls["queries." + name]
            out["queries.%s.s" % name] = self.secs["queries." + name]
        for name in CHECK_FNS:
            out["checks.%s.s" % name] = self.secs["checks." + name]
        out["cnf.parse_dimacs.s"] = self.secs["cnf.parse_dimacs"]
        return out


def per_pass(setup: dict[str, float], loop: dict[str, float], passes: int) -> dict[str, float]:
    """Setup totals plus loop totals averaged over `passes`, with the
    derived ratios filled in."""
    out = {k: setup.get(k, 0) + loop.get(k, 0) / passes for k in set(setup) | set(loop)}
    probes = out["compiler.cache.probes"]
    out["compiler.cache.hit_ratio"] = out["compiler.cache.hits"] / probes if probes else 0.0
    calls = out.pop("store._calls")
    out["store.new_node_ratio"] = out["store.nodes"] / calls if calls else 0.0
    return out


def diff(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {k: after[k] - before.get(k, 0) for k in after}


PER_LAYER_NAMES = (
    [("kernel.%s.%s" % (op, f)) for op in KERNEL_OPS for f in ("calls", "s", "bytes_in")]
    + ["compiler.cache." + f for f in ("probes", "hits", "hit_ratio", "entries", "key_bytes")]
    + ["compiler.compile.s", "compiler.driver_self.s", "compiler.order.s"]
    + [("store.%s.%s" % (op, f)) for op in STORE_OPS for f in ("calls", "s")]
    + ["store.nodes", "store.new_node_ratio"]
    + ["store.reachable.s", "store.serialize.s", "store.parse_nnf.s", "store.serialize.bytes"]
    + [("queries.%s.%s" % (fn, f)) for fn in QUERY_FNS for f in ("calls", "s")]
    + ["checks.%s.s" % fn for fn in CHECK_FNS]
    + ["cnf.parse_dimacs.s", "trace.overhead_ratio"]
)


def unit_of(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_in"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"
