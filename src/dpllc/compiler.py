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

So a discipline is a branch picker, whether components are split and
where implied literals go; `compile_cnf` derives all three from a
CompileConfig.  The ordered discipline needs no picker of its own: its
input goes in with each variable renamed to its rank in the order, and
there the first variable of the order that occurs is the least one, the
min-index pick; variables are mapped back only where a node is built.
The kernel (KERNEL) holds the residual formulas: the input goes in once,
in the byte layout of `compute_key`, and every residual after that is
the kernel's own, which it keys for the cache.  Formula caching memoizes
the compilation of residual formulas under those keys, which are equal
exactly when the residuals are (in ordered mode with the implied
literals still waiting for their turn appended, in renamed space).
The search runs on an explicit work stack, so formulas with very many
variables cannot overflow the call stack.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cached_property

from . import _kernel
from ._kernel_py import encode
from .cnf import Cnf
from .store import FALSE, TRUE, Circuit, NodeStore

# Rebindable for benchmarking/testing the two kernel backends.
KERNEL = _kernel.impl

MODES = ("free", "ordered", "decomposed")
HEURISTICS = ("max-occurrence", "min-index")


def compute_key(delta: Cnf) -> bytes:
    """Canonical fingerprint of a formula in the kernels' byte layout:
    per clause its index, its length and its literals sorted by variable.

    It is the input format of K.root.  Equal fingerprints exactly when
    the clause sets are identical.  The compiled kernel keeps its
    residuals in this layout, and each one is its own cache key there;
    the Python kernel keys a residual by its clause and variable sets
    instead (see _kernel_py.key).
    """
    return encode((idx, sorted(lits, key=abs)) for idx, lits in delta.clauses)


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

    Each neighbor list is sorted once, and the components start in one
    pass over the vertices by ascending (degree, variable): the first
    vertex of that pass no component holds yet is the least one left.  So
    the order costs about what the graph holds, however many components
    it has.
    """
    adj: dict[int, set[int]] = {}
    for _, lits in delta.clauses:
        vs = [abs(l) for l in lits]
        for v in vs:
            ws = adj.get(v)
            if ws is None:
                adj[v] = set(vs)
            else:
                ws.update(vs)
    for v, ws in adj.items():
        ws.discard(v)

    def by_degree(v: int) -> tuple[int, int]:
        return len(adj[v]), v

    nbrs = {v: sorted(ws, key=by_degree) for v, ws in adj.items()}

    def bfs(start: int) -> list[int]:
        seen = {start}
        frontier = [start]
        out = [start]
        while frontier:
            nxt: list[int] = []
            for v in frontier:
                for w in nbrs[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            out.extend(nxt)
            frontier = nxt
        return out

    order: list[int] = []
    placed: set[int] = set()
    for start in sorted(adj, key=by_degree):
        if start in placed:
            continue
        for _ in range(2):  # double sweep toward a pseudo-peripheral vertex
            start = bfs(start)[-1]
        component = bfs(start)
        component.reverse()
        order.extend(component)
        placed.update(component)
    order.extend(v for v in range(1, delta.num_vars + 1) if v not in placed)
    return VarOrder(tuple(order))


@dataclass(frozen=True)
class CompileConfig:
    """Knobs the search disciplines leave open.

    What unit_propagation does depends on the mode:

      free        propagate to fixpoint before branching; each implied
                  literal becomes a forced decision whose violating branch
                  is the false sink, which keeps the trace an FBDD.
      ordered     propagate to fixpoint before branching, but branching
                  out of order on an implied variable would break the
                  ordering property, so the implied literals wait until
                  the order reaches them and then become forced decisions
                  whose violating branch is the false sink.  The search
                  runs on the formula renamed by the order, where the
                  waiting literals are kept sorted by variable.  A conflict
                  makes the residual the false sink at once.  Neither
                  changes the canonical trace; an unsatisfiable subtree
                  reduces to the false sink either way.
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
    """Formula cache: exact residual keys (K.key, plus ordered mode's
    waiting literals) mapped to node ids; a key is stored and compared
    whole, never as a lossy hash."""

    def __init__(self):
        self.table: dict[bytes, int] = {}

    def probe(self, key: bytes) -> int | None:
        return self.table.get(key)

    def insert(self, key: bytes, node: int) -> None:
        self.table[key] = node

    def __len__(self) -> int:
        return len(self.table)


_KID, _DEC, _AND = 0, 1, 2


def _chain(store: NodeStore, lits, node: int) -> int:
    """Forced decisions on `lits` above `node`, the first on top; each
    one's violating branch is the false sink."""
    for lit in reversed(lits):
        node = store.get_node(lit, FALSE, node) if lit > 0 else store.get_node(-lit, node, FALSE)
    return node


def _renamed(table, lits) -> list[int]:
    """`lits` with each variable x renamed to table[x]."""
    return [table[lit] if lit > 0 else -table[-lit] for lit in lits]


def _search(
    res0: bytes,
    store: NodeStore,
    cache: Cache | None,
    heuristic: int,
    names: tuple[int, ...] | None,
    decompose: bool,
    propagate: bool,
) -> int:
    """Exhaustive search from res0; returns the root id of its trace.

    The input res0 (in the byte layout) is settled by one K.root call,
    and every decision below it is one K.branch call on a residual of the
    kernel's, which picks the decision variable by `heuristic` and
    returns it with both children settled, as `_KID` frames
    holding (parts, implied, conflict) and the literals still waiting:
    with `propagate` each residual is unit-propagated to fixpoint, and
    with `decompose` the rest is split into components; both kernels
    take the same calls.  Only the placement of the implied literals
    differs between the modes:

      decomposed  literal leaves conjoined with the component traces;
      free        a chain of forced decisions above the rest's trace;
      ordered     they wait, sorted by `abs`, until the order reaches
                  them: the waiting literals before the variable
                  branch returns become forced decisions above it, and
                  the others go down to both children.

    In ordered mode (`names` given) res0 is the input with each variable
    renamed to its 1-based rank in the order, and `heuristic` is
    min-index, so the least variable that occurs is the order's first:
    the search runs wholly in renamed space, waiting literals included,
    and `names` maps a renamed variable back (variable x is names[x])
    only where a node is built.

    A propagated rest shares no variable with its implied literals, so
    the rest and the waiting literals together are the conditioned
    residual's function; its cache key is K.key of the rest (empty when
    nothing is left) and the waiting ones as a trailer record (-1, k,
    lit_1, ..., lit_k), which neither kernel's key can imitate: a byte
    residual starts with a clause index, which is never negative, and a
    Python kernel key with a tag byte, 0 for masks of the one length the
    settled input fixes, 1 for sorted ids as many as its counts say; so
    each key is as long as its own content says.  A `_DEC` frame holds
    the key to cache the node under (None without a cache) and the forced
    prefix to chain above the node.
    """
    K = KERNEL
    work: list[tuple] = [(_KID, K.root(res0, decompose, propagate), ())]
    vals: list[int] = []
    while work:
        frame = work.pop()
        tag = frame[0]
        if tag == _KID:
            (parts, implied, conflict), waiting = frame[1], frame[2]
            if conflict:
                vals.append(FALSE)
                continue
            if names is not None:
                if implied:
                    waiting = tuple(sorted(waiting + implied, key=abs))
                res = parts[0] if parts else None
                if not (res or waiting):
                    vals.append(TRUE)
                    continue
            elif implied or len(parts) != 1:
                if implied or parts:
                    work.append((_AND, implied, len(parts)))
                    for comp in reversed(parts):
                        work.append((_KID, ([comp], (), False), ()))
                else:
                    vals.append(TRUE)
                continue
            else:
                res = parts[0]
        elif tag == _DEC:
            x, key, forced = frame[1], frame[2], frame[3]
            high = vals.pop()
            node = store.get_node(x, vals.pop(), high)
            if forced:
                node = _chain(store, forced, node)
            if key is not None:
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
                vals.append(_chain(store, implied, parts[0] if parts else TRUE))
            continue
        key = None
        if cache is not None:
            key = K.key(res) if res else b""
            if waiting:
                key += array("i", (-1, len(waiting), *waiting)).tobytes()
            hit = cache.probe(key)
            if hit is not None:
                vals.append(hit)
                continue
        if not res:
            # Only ordered mode leaves waiting literals without a residual.
            node = _chain(store, _renamed(names, waiting), TRUE)
            if key is not None:
                cache.insert(key, node)
            vals.append(node)
            continue
        x, low, high = K.branch(res, heuristic, None, decompose, propagate)
        forced = ()
        if names is not None:
            if waiting:
                cut = bisect_left(waiting, x, key=abs)
                forced, waiting = _renamed(names, waiting[:cut]), waiting[cut:]
            x = names[x]
        work.append((_DEC, x, key, forced))
        work.append((_KID, high, waiting))
        work.append((_KID, low, waiting))
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
    names = None
    if cfg.mode == "ordered":
        order = cfg.order.order
        if len(order) < delta.num_vars:
            raise ValueError("order covers %d of %d variables" % (len(order), delta.num_vars))
        # Each variable renamed to its rank, 1-based: min-index branching
        # then follows the order.
        names = (0, *order)
        rank = [0] * len(names)
        for r, var in enumerate(order, 1):
            rank[var] = r
        res0 = encode((idx, sorted(_renamed(rank, lits), key=abs)) for idx, lits in delta.clauses)
        code = K.HEUR_MIN_INDEX
    else:
        res0 = compute_key(delta)
    store = NodeStore()
    cache = Cache() if cfg.caching else None
    root = _search(
        res0,
        store,
        cache,
        code,
        names,
        decompose=cfg.mode == "decomposed",
        propagate=cfg.unit_propagation,
    )
    store.freeze()
    return Circuit(store, root, delta.num_vars)
