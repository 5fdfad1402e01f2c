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
CompileConfig.  Every mode runs on a renamed input: `compile_cnf`
numbers the clauses 0..m-1 by position and renames the variables, and
they are mapped back only where a node is built.  Every mode renames
the occurring variables to 1..k: the free and decomposed modes in
increasing order, which keeps every pick, record and component in its
order, and the ordered mode by rank in the order.  So the ordered
discipline needs no picker of its own: the first variable of the order
that occurs is the least one, the min-index pick.  The kernel
(KERNEL) holds the residual formulas: the renamed input goes in once, in
`_kernel_py`'s byte layout, and every residual after that is the
kernel's own, which it keys for the cache.  Formula caching memoizes the
compilation of residual formulas under those keys, which are equal
exactly when the residuals are (in ordered mode followed by the implied
literals still waiting for their turn, and their count).
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
    def rank(self) -> tuple[int, ...]:
        """rank[var] is var's 1-based position in the order; rank[0] is unused."""
        rank = [0] * (self.n + 1)
        for pos, var in enumerate(self.order, 1):
            rank[var] = pos
        return tuple(rank)

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

    `heuristic` picks the branch variable in the free and decomposed modes
    only; the ordered mode branches by its order.  What unit_propagation
    does depends on the mode:

      free        propagate to fixpoint before branching; each implied
                  literal becomes a forced decision whose violating branch
                  is the false sink, which keeps the trace an FBDD.
      ordered     propagate to fixpoint before branching, but branching
                  out of order on an implied variable would break the
                  ordering property, so the implied literals wait until
                  the order reaches them and then become forced decisions
                  whose violating branch is the false sink.  The search
                  runs on the formula renamed by rank, where the
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


def _chain(store: NodeStore, names, lits, node: int) -> int:
    """Forced decisions on `lits` above `node`, the first on top, each
    literal named names[lit]; each one's violating branch is the false
    sink."""
    for lit in reversed(lits):
        lit = names[lit]
        node = store.get_node(lit, FALSE, node) if lit > 0 else store.get_node(-lit, node, FALSE)
    return node


def _search(
    res0: bytes,
    store: NodeStore,
    cache: Cache | None,
    heuristic: int,
    names: list[int],
    ordered: bool,
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

    res0 is the renamed input (see compile_cnf), and the search runs
    wholly in its numbering, implied and waiting literals included;
    `names` maps a literal back (literal lit is names[lit], of either
    sign) only where a node is built.  In ordered mode the variables are
    numbered by rank among those that occur, and `heuristic` is
    min-index, so the least variable that occurs is the order's first.

    A propagated rest shares no variable with its implied literals, so
    the rest and the waiting literals together are the conditioned
    residual's function.  Its cache key is K.key of the rest (empty when
    nothing is left), and in ordered mode then the int32 trailer
    (lit_1, ..., lit_k, k) of the k waiting literals, also for k = 0.
    Read from the end, the count delimits the trailer, so two keys are
    equal exactly when their kernel keys and waiting literals are.  A
    `_DEC` frame holds the key to cache the node under (None without a
    cache) and the forced prefix to chain above the node.
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
            if ordered:
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
                node = _chain(store, names, forced, node)
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
                vals.append(store.get_and_node([store.literal(names[lit]) for lit in implied] + parts))
            else:
                vals.append(_chain(store, names, implied, parts[0] if parts else TRUE))
            continue
        key = None
        if cache is not None:
            key = K.key(res) if res else b""
            if ordered:
                key += array("i", (*waiting, len(waiting))).tobytes()
            hit = cache.probe(key)
            if hit is not None:
                vals.append(hit)
                continue
        if not res:
            # Only ordered mode leaves waiting literals without a residual.
            node = _chain(store, names, waiting, TRUE)
            if key is not None:
                cache.insert(key, node)
            vals.append(node)
            continue
        x, low, high = K.branch(res, heuristic, decompose, propagate)
        forced = ()
        if waiting:
            cut = bisect_left(waiting, x, key=abs)
            forced, waiting = waiting[:cut], waiting[cut:]
        work.append((_DEC, names[x], key, forced))
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
    ordered = cfg.mode == "ordered"
    # The occurring variables are renamed to 1..k in increasing order, or
    # by rank in ordered mode, where min-index branching then follows the
    # order.
    occurring = delta.variables()
    if ordered:
        order = cfg.order
        if order.n < delta.num_vars:
            raise ValueError("order covers %d of %d variables" % (order.n, delta.num_vars))
        xs = [v for v in order.order if v in occurring]
        code = K.HEUR_MIN_INDEX
    else:
        xs = sorted(occurring)
    rename = dict(zip(xs, range(1, len(xs) + 1)))
    # names[lit] is the input's literal for lit; a negative one indexes
    # from the end.
    names = [0, *xs, *[-x for x in reversed(xs)]]
    # Clause c is the c-th of delta.clauses, which are sorted by index.
    res0 = encode(
        (c, sorted([rename[lit] if lit > 0 else -rename[-lit] for lit in lits], key=abs))
        for c, (_, lits) in enumerate(delta.clauses)
    )
    store = NodeStore()
    cache = Cache() if cfg.caching else None
    root = _search(
        res0,
        store,
        cache,
        code,
        names,
        ordered,
        decompose=cfg.mode == "decomposed",
        propagate=cfg.unit_propagation,
    )
    store.freeze()
    return Circuit(store, root, delta.num_vars)
