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
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .cnf import Cnf
from .compiler import VarOrder
from .queries import LanguageError, annotate, variable_masks
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
    """Some root-to-target node path, as a list of ids."""
    stack: list[tuple[int, list[int]]] = [(root, [root])]
    seen = set()
    while stack:
        nid, path = stack.pop()
        if nid == target:
            return path
        if nid in seen:
            continue
        seen.add(nid)
        node = store.nodes[nid]
        kind = node[0]
        kids = (node[2], node[3]) if kind == "D" else node[1] if kind == "A" else ()
        for c in kids:
            stack.append((c, path + [c]))
    raise AssertionError("target not reachable")


def _descend_to_var(store: NodeStore, masks: dict[int, int], nid: int, var: int) -> list[int]:
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


def check_fbdd(circuit: Circuit) -> MembershipReport:
    """Decision-form circuit in which no path tests a variable twice."""
    store = circuit.store
    store.audit()
    order = reachable(store, circuit.root)
    for nid in order:
        kind = store.nodes[nid][0]
        if kind not in ("F", "T", "D"):
            return MembershipReport(
                False, "fbdd", witness="non-decision node %s@%d" % (kind, nid)
            )
    masks, bad = variable_masks(store, order)
    if bad is not None:
        nid, var = bad
        _, _, low, high = store.nodes[nid]
        child = low if masks[low] & (1 << (var - 1)) else high
        path = _path_to(store, circuit.root, nid)
        path += _descend_to_var(store, masks, child, var)
        return MembershipReport(
            False,
            "fbdd",
            witness="variable %d repeats on path %s" % (var, _render_path(store, path)),
        )
    return MembershipReport(True, "fbdd")


def check_obdd(circuit: Circuit, order: VarOrder | None = None) -> MembershipReport:
    """FBDD whose decisions follow one total order on every path.

    With an explicit order, every decision edge must descend in its ranks;
    without one, a consistent total order is recovered from the observed
    edges (smallest-index-first among the unconstrained) and reported.
    """
    base = check_fbdd(circuit)
    if not base.verdict:
        return MembershipReport(False, "obdd", witness=base.witness)
    store = circuit.store
    topo = reachable(store, circuit.root)
    edges: set[tuple[int, int]] = set()
    for nid in topo:
        node = store.nodes[nid]
        if node[0] != "D":
            continue
        for child in (node[2], node[3]):
            cnode = store.nodes[child]
            if cnode[0] == "D":
                edges.add((node[1], cnode[1]))
    if order is not None:
        rank = {var: i for i, var in enumerate(order.order)}
        for nid in topo:
            node = store.nodes[nid]
            if node[0] == "D" and node[1] not in rank:
                return MembershipReport(
                    False, "obdd", witness="variable %d missing from the order" % node[1]
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
    vars_seen: set[int] = set()
    for a, b in edges:
        vars_seen.update((a, b))
        if b not in succ.setdefault(a, set()):
            succ[a].add(b)
            indeg[b] = indeg.get(b, 0) + 1
    for nid in topo:
        node = store.nodes[nid]
        if node[0] == "D":
            vars_seen.add(node[1])
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
    full = recovered + [
        v for v in range(1, circuit.universe + 1) if v not in set(recovered)
    ]
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
    """
    report = check_decision_dnnf(circuit)
    if not report.verdict:
        raise LanguageError("not decision-DNNF: %s" % report.witness)
    store = circuit.store
    fresh = itertools.count(1)
    delta: dict[int, tuple[GuidedClause, ...]] = {}
    for nid in reachable(store, circuit.root):
        node = store.nodes[nid]
        kind = node[0]
        if kind == "F":
            delta[nid] = ((),)
        elif kind == "T":
            delta[nid] = ()
        elif kind == "L":
            delta[nid] = (((node[1], ()),),)
        elif kind == "D":
            _, var, low, high = node
            delta[nid] = tuple(((var, ()),) + cl for cl in delta[low]) + tuple(
                ((-var, ()),) + cl for cl in delta[high]
            )
        else:
            out: list[GuidedClause] = []
            for c in node[1]:
                color = next(fresh)
                for cl in delta[c]:
                    (lit, colors), rest = cl[0], cl[1:]
                    out.append(((lit, (color,) + colors),) + rest)
            delta[nid] = tuple(out)
    return GuidedCnf(delta[circuit.root], circuit.universe)


def compile_guided(guided: GuidedCnf) -> Circuit:
    """Replay the decomposed search with choices resolved by the script.

    When first literals carry colors, the clause set splits by first color
    (popping it); otherwise every clause starts with the same variable and
    the search branches on it.  The result is isomorphic to the circuit
    the script came from.
    """
    store = NodeStore()

    def build(clauses: tuple[GuidedClause, ...]) -> int:
        if any(not cl for cl in clauses):
            return FALSE
        if not clauses:
            return TRUE
        heads = [cl[0] for cl in clauses]
        colored = [bool(colors) for _, colors in heads]
        if any(colored):
            if not all(colored):
                raise GuidedScriptError("mixed colored and uncolored first literals")
            parts: dict[int, list[GuidedClause]] = {}
            for cl in clauses:
                (lit, colors), rest = cl[0], cl[1:]
                parts.setdefault(colors[0], []).append(((lit, colors[1:]),) + rest)
            children = [build(tuple(p)) for p in parts.values()]
            if FALSE in children:
                return FALSE
            return store.get_and_node(children)
        var = abs(heads[0][0])
        if any(abs(lit) != var for lit, _ in heads):
            raise GuidedScriptError("uncolored first literals disagree on the variable")
        low = tuple(cl[1:] for cl in clauses if cl[0][0] == var)
        high = tuple(cl[1:] for cl in clauses if cl[0][0] == -var)
        return store.get_node(var, build(low), build(high))

    root = build(guided.clauses)
    store.freeze()
    return Circuit(store, root, guided.num_vars)


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
    children are matched by a perfect matching under isomorphism; children
    of a reduced conjunction are pairwise distinct, so the matching is
    effectively forced.
    """
    sa, sb = a.store, b.store
    memo: dict[tuple[int, int], bool] = {}

    def pairs_of(ia: int, ib: int) -> list[tuple[int, int]]:
        na, nb = _iso_view(sa, ia), _iso_view(sb, ib)
        if na[0] != nb[0]:
            return []
        if na[0] == "D":
            return [(na[2], nb[2]), (na[3], nb[3])]
        if na[0] == "A":
            return [(x, y) for x in na[1] for y in nb[1]]
        return []

    def decide(ia: int, ib: int) -> bool:
        na, nb = _iso_view(sa, ia), _iso_view(sb, ib)
        if na[0] != nb[0]:
            return False
        if na[0] in ("F", "T"):
            return True
        if na[0] == "D":
            return (
                na[1] == nb[1]
                and memo[(na[2], nb[2])]
                and memo[(na[3], nb[3])]
            )
        xs, ys = na[1], nb[1]
        if len(xs) != len(ys):
            return False
        # Perfect matching by augmenting paths; k is small in practice.
        match: dict[int, int] = {}

        def augment(xi: int, banned: set[int]) -> bool:
            for yj, y in enumerate(ys):
                if yj in banned or not memo[(xs[xi], y)]:
                    continue
                banned.add(yj)
                if yj not in match or augment(match[yj], banned):
                    match[yj] = xi
                    return True
            return False

        return all(augment(i, set()) for i in range(len(xs)))

    pending: set[tuple[int, int]] = set()
    stack = [(a.root, b.root, False)]
    while stack:
        ia, ib, expanded = stack.pop()
        if (ia, ib) in memo:
            continue
        if expanded:
            memo[(ia, ib)] = decide(ia, ib)
            continue
        if (ia, ib) in pending:
            continue
        pending.add((ia, ib))
        if sa is sb and ia == ib:
            memo[(ia, ib)] = True
            continue
        stack.append((ia, ib, True))
        for pair in pairs_of(ia, ib):
            if pair not in memo and pair not in pending:
                stack.append((pair[0], pair[1], False))
    return memo[(a.root, b.root)]
