"""Exhaustive DPLL compilers whose recorded traces are NNF circuits.

One search loop, `_search`, records the trace of an exhaustive DPLL
search; the three target languages differ only in the discipline it runs
under:

  free        branch on any variable (heuristic choice); the trace is a
              reduced FBDD.
  ordered     branch on the first variable of a fixed order that still
              occurs; the trace is the canonical reduced OBDD for that
              order.
  decomposed  also split variable-disjoint components and conjoin their
              sub-traces; the trace is a reduced decision-DNNF.

So a discipline is a branch picker plus whether components are split;
`compile_cnf` derives both from a CompileConfig.  Formula caching
memoizes the compilation of residual formulas keyed by their
surviving-clause fingerprint.  The search runs on an explicit work stack,
so formulas with very many variables cannot overflow the call stack.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from functools import cached_property

from . import _kernel
from .cnf import Cnf
from .store import FALSE, TRUE, Circuit, NodeStore

# Rebindable for benchmarking/testing the two kernel backends.
KERNEL = _kernel.impl

MODES = ("free", "ordered", "decomposed")
HEURISTICS = ("max-occurrence", "min-index")


def compute_key(delta: Cnf) -> bytes:
    """Canonical fingerprint of a residual formula, in the kernel's
    residual byte layout: per clause its index, its length and its
    literals sorted by variable.

    Equal keys exactly when the surviving-clause sets are identical; the
    full key is stored and compared, never a lossy hash.
    """
    arr = array("i")
    for idx, lits in delta.clauses:
        arr.append(idx)
        arr.append(len(lits))
        arr.extend(sorted(lits, key=abs))
    return arr.tobytes()


@dataclass(frozen=True)
class VarOrder:
    """Total branching order: a permutation of 1..n."""

    order: tuple[int, ...]

    def __post_init__(self):
        n = len(self.order)
        if sorted(self.order) != list(range(1, n + 1)):
            raise ValueError("order is not a permutation of 1..%d" % n)

    @property
    def n(self) -> int:
        return len(self.order)

    @cached_property
    def rank_bytes(self) -> bytes:
        # rank_bytes[var] = position of var in the order; slot 0 unused.
        rank = array("i", bytes(4 * (self.n + 1)))
        for pos, var in enumerate(self.order):
            rank[var] = pos
        return rank.tobytes()

    @classmethod
    def identity(cls, n: int) -> "VarOrder":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_text(cls, text: str) -> "VarOrder":
        vals: list[int] = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("c"):
                continue
            vals.extend(int(tok) for tok in line.split())
        return cls(tuple(vals))


def bandwidth_order(delta: Cnf) -> VarOrder:
    """Reverse Cuthill-McKee order over the variable interaction graph.

    Per connected component: find a pseudo-peripheral start by repeated
    farthest-vertex BFS, traverse breadth-first with neighbors in ascending
    degree, then reverse.  Keeps interacting variables close together,
    which is what ordered compilation wants from a static order; variables
    outside every clause follow in index order.  Deterministic.
    """
    adj: dict[int, set[int]] = {}
    for _, lits in delta.clauses:
        vs = [abs(l) for l in lits]
        for v in vs:
            adj.setdefault(v, set()).update(w for w in vs if w != v)

    def bfs(start: int) -> list[int]:
        seen = {start}
        frontier = [start]
        out = [start]
        while frontier:
            nxt: list[int] = []
            for v in frontier:
                for w in sorted(adj[v], key=lambda u: (len(adj[u]), u)):
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            out.extend(nxt)
            frontier = nxt
        return out

    order: list[int] = []
    placed: set[int] = set()
    remaining = set(adj)
    while remaining:
        start = min(remaining, key=lambda v: (len(adj[v]), v))
        for _ in range(2):  # double sweep toward a pseudo-peripheral vertex
            start = bfs(start)[-1]
        component = bfs(start)
        component.reverse()
        order.extend(component)
        placed.update(component)
        remaining -= placed
    order.extend(v for v in range(1, delta.num_vars + 1) if v not in placed)
    return VarOrder(tuple(order))


@dataclass(frozen=True)
class CompileConfig:
    """Knobs the search disciplines leave open.

    What unit_propagation does depends on the mode:

      free        propagate to fixpoint before branching; each implied
                  literal becomes a forced decision whose violating branch
                  is the false sink, which keeps the trace an FBDD.
      ordered     a lookahead that never replaces the residual, since
                  branching out of order on an implied variable would
                  break the ordering property.  A residual that misses
                  the cache is propagated once: a conflict makes it the
                  false sink, and otherwise its implied literals decide
                  each later branch on one of their variables, down the
                  branch that keeps them, whose other child is the false
                  sink without conditioning or a lookahead of its own.
                  Neither cut changes the canonical trace; an
                  unsatisfiable subtree reduces to the false sink either
                  way.
      decomposed  propagate to fixpoint before splitting; implied
                  literals become literal leaves conjoined with the
                  residual's sub-trace.
    """

    mode: str = "free"
    caching: bool = True
    unit_propagation: bool = True
    heuristic: str = "max-occurrence"
    order: VarOrder | None = None

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError("unknown mode %r" % self.mode)
        if self.heuristic not in HEURISTICS:
            raise ValueError("unknown heuristic %r" % self.heuristic)
        if (self.order is not None) != (self.mode == "ordered"):
            raise ValueError("an order is required exactly when mode='ordered'")


class Cache:
    """Formula cache: full residual fingerprints mapped to node ids."""

    def __init__(self):
        self.table: dict[bytes, int] = {}

    def probe(self, key: bytes) -> int | None:
        return self.table.get(key)

    def insert(self, key: bytes, node: int) -> None:
        self.table[key] = node

    def __len__(self) -> int:
        return len(self.table)


_EVAL, _KID, _DEC, _AND = 0, 1, 2, 3


def _settle(K, res: bytes, decompose: bool, propagate: bool):
    """The root's (parts, implied, conflict), in the form K.branch gives
    each child: an empty clause or a propagation conflict, else the
    implied literals and the rest's components (or the rest alone)."""
    if K.has_empty(res):
        return [], (), True
    implied: tuple[int, ...] = ()
    if propagate:
        res, implied, conflict = K.propagate(res)
        if conflict:
            return [], (), True
    return (K.split_components(res) if decompose else [res]) if res else [], implied, False


def _search(
    res0: bytes,
    store: NodeStore,
    cache: Cache | None,
    pick,
    decompose: bool,
    propagate: bool,
    lookahead: bool,
) -> int:
    """Exhaustive search from res0; returns the root id of its trace.

    With `propagate`, a residual is first unit-propagated to fixpoint.
    With decompose, it is then split into components, and the implied
    literals (as literal leaves) and component traces are conjoined;
    without, the implied literals become a chain of forced decisions above
    the rest's trace.  A residual that is one component, implies nothing
    and is no cache hit gets a decision node on pick(residual).

    The root is settled by `_settle`, and without `lookahead` both
    children of every decision come settled from one K.branch call, as
    `_KID` frames holding (parts, implied, conflict); so below the root,
    free and decomposed search condition, propagate and split only
    inside that call.

    `lookahead` (ordered mode) keeps the residuals as conditioned, since
    they are its cache keys: each child is conditioned by K.condition and
    checked by K.has_empty.  A residual that missed the cache is
    unit-propagated without being replaced: a conflict makes it the false
    sink, and otherwise the set of implied literals, its closure, rides
    along.  When the closure holds the branch literal x (or -x), the other
    child is unsatisfiable, so it is the false sink without being
    conditioned or probed, and the surviving child inherits the closure:
    unit resolution is monotone and x was already derived, so the child's
    closure is the same set less x, and it needs no lookahead of its own.
    x no longer occurs in the child, so the set is passed on unchanged.

    An `_EVAL` frame's third field is the residual's closure when it is
    known and None otherwise.  A known closure means no empty clause and
    no conflict.  A component pushed from a `_KID` frame carries `()`: it
    is settled, so it goes straight to the cache probe.  A `_DEC` frame
    holds the residual to cache (None without a cache), and its fourth
    field is true when only the child on its literal was pushed, the
    other being the false sink.
    """
    K = KERNEL
    work: list[tuple] = [(_KID, _settle(K, res0, decompose, propagate))]
    vals: list[int] = []
    while work:
        frame = work.pop()
        tag = frame[0]
        if tag == _KID:
            parts, implied, conflict = frame[1]
            if conflict:
                vals.append(FALSE)
                continue
            if implied or len(parts) != 1:
                if implied or parts:
                    work.append((_AND, implied, len(parts)))
                    for comp in reversed(parts):
                        work.append((_EVAL, comp, ()))
                else:
                    vals.append(TRUE)
                continue
            # Only a propagated residual has a known (empty) closure; the
            # unpropagated root of ordered mode still needs its lookahead.
            res, closure = parts[0], (() if propagate else None)
        elif tag == _EVAL:
            res, closure = frame[1], frame[2]
            if closure is None and K.has_empty(res):
                vals.append(FALSE)
                continue
            if not res:
                vals.append(TRUE)
                continue
        elif tag == _DEC:
            lit, key, forced = frame[1], frame[2], frame[3]
            node = vals.pop()
            if not forced:
                low, high = vals.pop(), node
            elif lit > 0:
                low, high = FALSE, node
            else:
                low, high = node, FALSE
            node = store.get_node(abs(lit), low, high)
            if cache is not None:
                cache.insert(key, node)
            vals.append(node)
            continue
        else:
            implied, k = frame[1], frame[2]
            cut = len(vals) - k
            parts = vals[cut:]
            del vals[cut:]
            if FALSE in parts:
                vals.append(FALSE)
            elif decompose:
                vals.append(store.get_and_node([store.literal(lit) for lit in implied] + parts))
            else:
                # Free mode: a chain of forced decisions, the first derived on top.
                node = parts[0] if parts else TRUE
                for lit in reversed(implied):
                    low, high = (FALSE, node) if lit > 0 else (node, FALSE)
                    node = store.get_node(abs(lit), low, high)
                vals.append(node)
            continue
        key = None
        if cache is not None:
            hit = cache.probe(res)
            if hit is not None:
                vals.append(hit)
                continue
            key = res
        if lookahead and closure is None:
            _, implied, conflict = K.propagate(res)
            if conflict:
                # Unit resolution found a contradiction; the residual is
                # unsatisfiable, whose canonical trace is the false sink.
                if cache is not None:
                    cache.insert(res, FALSE)
                vals.append(FALSE)
                continue
            closure = set(implied)
        x = pick(res)
        if not lookahead:
            low, high = K.branch(res, x, decompose, propagate)
            work.append((_DEC, x, key, False))
            work.append((_KID, high))
            work.append((_KID, low))
        elif closure and (x in closure or -x in closure):
            lit = x if x in closure else -x
            work.append((_DEC, lit, key, True))
            work.append((_EVAL, K.condition(res, lit), closure))
        else:
            work.append((_DEC, x, key, False))
            work.append((_EVAL, K.condition(res, x), None))
            work.append((_EVAL, K.condition(res, -x), None))
    return vals[0]


def _checked(cfg: CompileConfig, mode: str, entry: str) -> CompileConfig:
    cfg.validate()
    if cfg.mode != mode:
        raise ValueError("%s needs mode=%r" % (entry, mode))
    return cfg


def compile_free(delta: Cnf, cfg: CompileConfig | None = None) -> Circuit:
    """Exhaustive search with free variable choice; trace is a reduced FBDD."""
    return compile_cnf(delta, _checked(cfg or CompileConfig(mode="free"), "free", "compile_free"))


def compile_ordered(delta: Cnf, order: VarOrder, cfg: CompileConfig | None = None) -> Circuit:
    """Exhaustive search branching in a fixed order; trace is the canonical
    reduced OBDD of the formula under that order."""
    cfg = cfg or CompileConfig(mode="ordered", order=order)
    if cfg.order is None:
        cfg = replace(cfg, order=order)
    elif cfg.order != order:
        raise ValueError("cfg.order disagrees with the order argument")
    return compile_cnf(delta, _checked(cfg, "ordered", "compile_ordered"))


def compile_decomposed(delta: Cnf, cfg: CompileConfig | None = None) -> Circuit:
    """Exhaustive search with component decomposition; trace is a reduced
    decision-DNNF."""
    return compile_cnf(
        delta, _checked(cfg or CompileConfig(mode="decomposed"), "decomposed", "compile_decomposed")
    )


def compile_cnf(delta: Cnf, cfg: CompileConfig) -> Circuit:
    """Compile under the discipline cfg.mode names (see CompileConfig)."""
    cfg.validate()
    K = KERNEL
    code = K.HEUR_MAX_OCCURRENCE if cfg.heuristic == "max-occurrence" else K.HEUR_MIN_INDEX
    if cfg.mode == "ordered":
        if cfg.order.n < delta.num_vars:
            raise ValueError("order covers %d of %d variables" % (cfg.order.n, delta.num_vars))
        ranks = cfg.order.rank_bytes
        pick = lambda res: K.min_rank_var(res, ranks)
    else:
        pick = lambda res: K.select_var(res, code)
    store = NodeStore()
    cache = Cache() if cfg.caching else None
    root = _search(
        compute_key(delta),
        store,
        cache,
        pick,
        decompose=cfg.mode == "decomposed",
        propagate=cfg.unit_propagation and cfg.mode != "ordered",
        lookahead=cfg.unit_propagation and cfg.mode == "ordered",
    )
    store.freeze()
    return Circuit(store, root, delta.num_vars)
