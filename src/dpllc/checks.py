"""Language-membership checks and round-trip verification.

The checkers decide whether a circuit lies in FBDD (decision form,
test-once), OBDD (FBDD plus a consistent branching order), or
decision-DNNF (decision form disjunctions, variable-disjoint
conjunctions), and return a witness on failure.

The inverse constructions close the loop: circuit_to_cnf derives, from any
decision-DNNF circuit, a CNF whose literals carry a color script, and
compile_guided replays the decomposed compiler with its nondeterministic
choices resolved by that script, reproducing the original circuit up to
isomorphism.

Costs: the checks read a circuit's kept order and masks instead of walking
it again.  circuit_to_cnf and compile_guided take time linear in the
circuit plus the clause text, and isomorphic linear in both circuits (up
to sorting conjunction children).  Every function here walks with explicit
stacks, so none depends on the recursion limit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .cnf import Cnf
from .compiler import VarOrder
from .queries import LanguageError, annotate
# `reachable` stays importable here because the benchmark's tracer rebinds it.
from .store import FALSE, TRUE, Circuit, NodeStore, reachable


class GuidedScriptError(ValueError):
    """The color script is inconsistent with a guided run."""


@dataclass(frozen=True)
class MembershipReport:
    verdict: bool
    language: str
    witness: str | None = None
    order: tuple[int, ...] | None = None

    def summary(self) -> str:
        return "verdict=%s language=%s witness=%s" % (
            str(self.verdict).lower(),
            self.language,
            self.witness if self.witness is not None else "-",
        )


def _path_to(store: NodeStore, root: int, target: int) -> list[int]:
    """Some root-to-target node path, as a list of ids.

    Depth-first from the root; each node records the parent it was first
    expanded under, and the path is read back from those links, so memory
    stays linear in the circuit however deep the target lies.
    """
    stack: list[tuple[int, int | None]] = [(root, None)]
    parent: dict[int, int | None] = {}
    while stack:
        nid, via = stack.pop()
        if nid == target:
            path = [nid]
            while via is not None:
                path.append(via)
                via = parent[via]
            path.reverse()
            return path
        if nid in parent:
            continue
        parent[nid] = via
        node = store.nodes[nid]
        kind = node[0]
        kids = (node[2], node[3]) if kind == "D" else node[1] if kind == "A" else ()
        for c in kids:
            stack.append((c, nid))
    raise AssertionError("target not reachable")


def _descend_to_var(store: NodeStore, masks: list[int], nid: int, var: int) -> list[int]:
    """Path from nid down to a node that decides or mentions var."""
    bit = 1 << (var - 1)
    path = [nid]
    while True:
        node = store.nodes[nid]
        kind = node[0]
        if kind == "L" and abs(node[1]) == var:
            return path
        if kind == "D" and node[1] == var:
            return path
        kids = (node[2], node[3]) if kind == "D" else node[1]
        nid = next(c for c in kids if masks[c] & bit)
        path.append(nid)


def _render_path(store: NodeStore, path: list[int]) -> str:
    parts = []
    for nid in path:
        node = store.nodes[nid]
        if node[0] == "D":
            parts.append("x%d@%d" % (node[1], nid))
        elif node[0] == "L":
            parts.append("lit%d@%d" % (node[1], nid))
        else:
            parts.append("%s@%d" % (node[0], nid))
    return "->".join(parts)


def _fbdd_witness(circuit: Circuit) -> str | None:
    """check_fbdd's witness, or None inside FBDD."""
    store = circuit.store
    store.audit()
    for nid in circuit.order:
        kind = store.nodes[nid][0]
        if kind not in ("F", "T", "D"):
            return "non-decision node %s@%d" % (kind, nid)
    masks, bad = circuit.masks
    if bad is not None:
        nid, var = bad
        _, _, low, high = store.nodes[nid]
        child = low if masks[low] & (1 << (var - 1)) else high
        path = _path_to(store, circuit.root, nid)
        path += _descend_to_var(store, masks, child, var)
        return "variable %d repeats on path %s" % (var, _render_path(store, path))
    return None


def check_fbdd(circuit: Circuit) -> MembershipReport:
    """Decision-form circuit in which no path tests a variable twice."""
    witness = _fbdd_witness(circuit)
    return MembershipReport(witness is None, "fbdd", witness=witness)


def check_obdd(circuit: Circuit, order: VarOrder | None = None) -> MembershipReport:
    """FBDD whose decisions follow one total order on every path.

    With an explicit order, every decision edge must descend in its ranks;
    without one, a consistent total order is recovered from the observed
    edges (smallest-index-first among the unconstrained) and reported.
    """
    witness = _fbdd_witness(circuit)
    if witness is not None:
        return MembershipReport(False, "obdd", witness=witness)
    nodes = circuit.store.nodes
    # Decision variables in first-seen topological order, and the
    # parent-above-child variable pairs of decision edges.
    vars_seen: dict[int, None] = {}
    edges: set[tuple[int, int]] = set()
    for nid in circuit.order:
        node = nodes[nid]
        if node[0] != "D":
            continue
        vars_seen[node[1]] = None
        for child in (node[2], node[3]):
            cnode = nodes[child]
            if cnode[0] == "D":
                edges.add((node[1], cnode[1]))
    if order is not None:
        rank = {var: i for i, var in enumerate(order.order)}
        for var in vars_seen:
            if var not in rank:
                return MembershipReport(
                    False, "obdd", witness="variable %d missing from the order" % var
                )
        for a, b in sorted(edges):
            if rank[a] >= rank[b]:
                return MembershipReport(
                    False,
                    "obdd",
                    witness="decision on %d above %d violates the order" % (a, b),
                )
        return MembershipReport(True, "obdd", order=order.order)
    # Recover an order: topological sort of the precedence constraints.
    succ: dict[int, set[int]] = {}
    indeg: dict[int, int] = {}
    for a, b in edges:
        if b not in succ.setdefault(a, set()):
            succ[a].add(b)
            indeg[b] = indeg.get(b, 0) + 1
    ready = sorted(v for v in vars_seen if indeg.get(v, 0) == 0)
    recovered: list[int] = []
    heapq.heapify(ready)
    while ready:
        v = heapq.heappop(ready)
        recovered.append(v)
        for w in sorted(succ.get(v, ())):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(recovered) != len(vars_seen):
        cyc = sorted(v for v in vars_seen if indeg.get(v, 0) > 0)
        return MembershipReport(
            False,
            "obdd",
            witness="variables %s appear in conflicting orders" % (cyc,),
        )
    # A conditioned circuit's universe is a count that its surviving
    # decision variables may exceed; complete over both so that the
    # result is a permutation VarOrder accepts.
    placed = set(recovered)
    top = max(circuit.universe, max(vars_seen, default=0))
    full = recovered + [v for v in range(1, top + 1) if v not in placed]
    return MembershipReport(True, "obdd", order=tuple(full))


def check_decision_dnnf(circuit: Circuit) -> MembershipReport:
    """Decomposable circuit whose every disjunction is a decision node."""
    circuit.store.audit()
    try:
        annotate(circuit)
    except LanguageError as err:
        return MembershipReport(False, "decision-dnnf", witness=str(err))
    return MembershipReport(True, "decision-dnnf")


# --- inverse construction -------------------------------------------------

# A guided clause is a tuple of (literal, colors) pairs; position matters,
# and colors are consumed head-first during guided decomposition.
GuidedClause = tuple[tuple[int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class GuidedCnf:
    """CNF whose literal positions carry the replay script of a circuit."""

    clauses: tuple[GuidedClause, ...]
    num_vars: int

    @property
    def base(self) -> Cnf:
        return Cnf(
            self.num_vars,
            tuple((i, tuple(lit for lit, _ in cl)) for i, cl in enumerate(self.clauses)),
        )


def circuit_to_cnf(circuit: Circuit) -> GuidedCnf:
    """Derive the clause set that replays to this circuit.

    The false sink maps to the empty clause, the true sink to no clauses;
    a decision on x prepends x to its low part's clauses and -x to its
    high part's; a conjunction unions its parts, tagging each part's
    clauses with a fresh color on their first literal.  Literal leaves are
    treated as their two-sink decision expansion.

    Colors are numbered per conjunction edge in topological order.  One
    iterative depth-first walk emits every clause once, as a copy of the
    shared root-to-leaf path, so the cost is linear in the circuit plus
    the clause text and independent of the recursion limit.
    """
    try:
        order, _ = annotate(circuit)
    except LanguageError as err:
        raise LanguageError("not decision-DNNF: %s" % err) from None
    nodes = circuit.store.nodes
    first_color: dict[int, int] = {}
    fresh = 1
    for nid in order:
        node = nodes[nid]
        if node[0] == "A":
            first_color[nid] = fresh
            fresh += len(node[1])
    out: list[GuidedClause] = []
    path: list[tuple[int, tuple[int, ...]]] = []
    # (node, path length above it, the pair it appends to the path or None,
    # colors its first literal still has to take)
    stack: list[tuple] = [(circuit.root, 0, None, ())]
    while stack:
        nid, depth, head, colors = stack.pop()
        del path[depth:]
        if head is not None:
            path.append(head)
            depth += 1
        node = nodes[nid]
        kind = node[0]
        if kind == "F":
            out.append(tuple(path))
        elif kind == "L":
            out.append(tuple(path) + ((node[1], colors),))
        elif kind == "D":
            _, var, low, high = node
            stack.append((high, depth, (-var, colors), ()))
            stack.append((low, depth, (var, colors), ()))
        elif kind == "A":
            kids = node[1]
            base = first_color[nid]
            for i in range(len(kids) - 1, -1, -1):
                stack.append((kids[i], depth, None, colors + (base + i,)))
    return GuidedCnf(tuple(out), circuit.universe)


def compile_guided(guided: GuidedCnf) -> Circuit:
    """Replay the decomposed search with choices resolved by the script.

    When first literals carry colors, the clause set splits by first color
    (popping it); otherwise every clause starts with the same variable and
    the search branches on it.  The result is isomorphic to the circuit
    the script came from.

    Each clause keeps a cursor on its current literal and on that
    literal's next color, so a step costs one per clause it touches and
    the replay is linear in the script.  It runs on an explicit work
    stack, independent of the recursion limit, and builds nodes in the
    post-order of the recursive definition.
    """
    clauses = guided.clauses
    lit_at = [0] * len(clauses)
    color_at = [0] * len(clauses)
    store = NodeStore()
    results: list[int] = []
    # ("expand", clause ids) | ("and", child count) | ("decide", var)
    work: list[tuple] = [("expand", list(range(len(clauses))))]
    while work:
        op, arg = work.pop()
        if op == "and":
            children = results[len(results) - arg :]
            del results[len(results) - arg :]
            results.append(FALSE if FALSE in children else store.get_and_node(children))
            continue
        if op == "decide":
            high = results.pop()
            low = results.pop()
            results.append(store.get_node(arg, low, high))
            continue
        try:
            heads = [clauses[i][lit_at[i]] for i in arg]
        except IndexError:  # some clause is used up: the empty clause
            results.append(FALSE)
            continue
        if not heads:
            results.append(TRUE)
            continue
        if color_at[arg[0]] < len(heads[0][1]):
            parts: dict[int, list[int]] = {}
            for i, (_, colors) in zip(arg, heads):
                k = color_at[i]
                if k == len(colors):
                    raise GuidedScriptError("mixed colored and uncolored first literals")
                color_at[i] = k + 1
                part = parts.get(colors[k])
                if part is None:
                    parts[colors[k]] = [i]
                else:
                    part.append(i)
            work.append(("and", len(parts)))
            work.extend(("expand", p) for p in reversed(parts.values()))
            continue
        var = abs(heads[0][0])
        low: list[int] = []
        high: list[int] = []
        agree = True
        for i, (lit, colors) in zip(arg, heads):
            if color_at[i] < len(colors):
                raise GuidedScriptError("mixed colored and uncolored first literals")
            if lit == var:
                low.append(i)
            elif lit == -var:
                high.append(i)
            else:
                agree = False
            lit_at[i] += 1
            color_at[i] = 0
        if not agree:
            raise GuidedScriptError("uncolored first literals disagree on the variable")
        work.append(("decide", var))
        work.append(("expand", high))
        work.append(("expand", low))

    store.freeze()
    return Circuit(store, results[0], guided.num_vars)


# --- structural isomorphism -----------------------------------------------


def _iso_view(store: NodeStore, nid: int) -> tuple:
    """Node view with literal leaves expanded to two-sink decisions."""
    node = store.nodes[nid]
    if node[0] == "L":
        lit = node[1]
        return ("D", abs(lit), FALSE, TRUE) if lit > 0 else ("D", abs(lit), TRUE, FALSE)
    return node


def isomorphic(a: Circuit, b: Circuit) -> bool:
    """Structural equality across stores.

    Literal leaves are identified with their two-sink decision expansion
    (the compact and the explicit drawing of the same node).  Conjunction
    children match as multisets: every reachable node of either circuit
    gets a canonical id, hash-consed over both on its kind, variable and
    children's ids (sorted, for a conjunction), and the circuits are
    isomorphic iff their roots get the same id.  Linear in the two
    circuits up to the sort, and independent of the recursion limit.
    """
    ids: dict[tuple, int] = {("F",): FALSE, ("T",): TRUE}
    roots = []
    for circuit in (a, b):
        canon = {FALSE: FALSE, TRUE: TRUE}
        for nid in circuit.order:
            node = _iso_view(circuit.store, nid)
            kind = node[0]
            if kind == "D":
                key = ("D", node[1], canon[node[2]], canon[node[3]])
            elif kind == "A":
                key = ("A", tuple(sorted([canon[c] for c in node[1]])))
            else:
                key = node
            canon[nid] = ids.setdefault(key, len(ids))
        roots.append(canon[circuit.root])
    return roots[0] == roots[1]
