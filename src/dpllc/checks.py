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
it again.  A guided script is held as the prefix trie of its clauses, and
the round trip costs time linear in that trie, not in the clause text,
which can be quadratic in a decision chain and exponential in a shared
DAG: circuit_to_cnf is linear in the circuit plus the trie, and
compile_guided does constant work per trie node (a residual is one trie
node's children), builds a one-clause residual at once as its chain of
decisions, and reads every child once per color split.  circuit_to_cnf
first counts the trie by one fold over the circuit and raises
GuidedScriptTooLarge, before it builds anything, for a script over
SCRIPT_BUDGET; the `clauses` and `base` views of a script check the same
budget.  isomorphic is linear in both circuits (up to sorting conjunction
children).  Every function here walks with explicit stacks, so none
depends on the recursion limit.
"""

from __future__ import annotations

import heapq
from collections import Counter
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
    """Some root-to-target path of decisions, as a list of ids.

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
        if node[0] == "D":
            stack += ((node[2], nid), (node[3], nid))
    raise AssertionError("target not reachable")


def _descend_to_var(store: NodeStore, masks: list[int], nid: int, var: int) -> list[int]:
    """Path of decisions from nid, with var at or below it, down to one on var."""
    bit = 1 << (var - 1)
    path = [nid]
    while store.nodes[nid][1] != var:
        _, _, low, high = store.nodes[nid]
        nid = low if masks[low] & bit else high
        path.append(nid)
    return path


def _render_path(store: NodeStore, path: list[int]) -> str:
    return "->".join("x%d@%d" % (store.nodes[nid][1], nid) for nid in path)


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
    edges (smallest-index-first among the unconstrained), completed over
    1..num_vars, and reported.
    """
    witness = _fbdd_witness(circuit)
    if witness is not None:
        return MembershipReport(False, "obdd", witness=witness)
    nodes = circuit.store.nodes
    # Each decision variable, in first-seen topological order, to the
    # variables decided directly below it.
    below: dict[int, set[int]] = {}
    for nid in circuit.order:
        node = nodes[nid]
        if node[0] == "D":
            succ = below.get(node[1])
            if succ is None:
                succ = below[node[1]] = set()
            for child in (node[2], node[3]):
                cnode = nodes[child]
                if cnode[0] == "D":
                    succ.add(cnode[1])
    if order is not None:
        for var in below:
            if var > order.n:
                return MembershipReport(
                    False, "obdd", witness="variable %d missing from the order" % var
                )
        # Ranks of the decided variables only, so a long order costs one
        # pass and no table of its own size.
        rank = {var: pos for pos, var in enumerate(order.order) if var in below}
        # The least violating edge is the witness.
        bad = [(a, b) for a, bs in below.items() for b in bs if rank[a] >= rank[b]]
        if bad:
            return MembershipReport(
                False, "obdd", witness="decision on %d above %d violates the order" % min(bad)
            )
        return MembershipReport(True, "obdd", order=order.order)
    # Recover an order: topological sort of the constraints, least first.
    above = Counter(b for bs in below.values() for b in bs)
    ready = [v for v in below if not above[v]]
    heapq.heapify(ready)
    recovered: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        recovered.append(v)
        for w in below[v]:
            above[w] -= 1
            if not above[w]:
                heapq.heappush(ready, w)
    if len(recovered) != len(below):
        cyc = sorted(v for v in below if above[v])
        return MembershipReport(
            False,
            "obdd",
            witness="variables %s appear in conflicting orders" % (cyc,),
        )
    placed = set(recovered)
    full = recovered + [v for v in range(1, circuit.num_vars + 1) if v not in placed]
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

# The most entries a guided script, or one of its views, may hold: trie
# nodes plus clauses for a script, literals plus clauses for its `clauses`
# and `base` views.  Measured with tracemalloc on 64-bit CPython 3.11, an
# entry of circuit_to_cnf's trie holds about 100 bytes and compile_guided
# peaks about 180 bytes per entry above that, so a script at the budget
# takes about 0.4 GB and its round trip about 1.1 GB.  A view entry holds
# less than a trie entry.
SCRIPT_BUDGET = 4_000_000


class GuidedScriptTooLarge(ValueError):
    """A guided script, or a view of one, would exceed SCRIPT_BUDGET entries."""


class GuidedCnf:
    """CNF whose literal positions carry the replay script of a circuit.

    The clauses are held as their prefix trie.  Node 0 is the empty prefix;
    every other node is one (literal, colors) pair below its parent, so
    clauses that share a prefix share its nodes.  `_trie` holds per-node
    lists of literals, colors, parents and children (in the order of the
    first clause through them; a leaf may hold an empty tuple), and the
    node each clause ends at, in clause order.  Nodes are numbered in the
    order the clauses first reach them, so equal clause sequences give
    equal tries, and `==` and `hash` compare the clause sequences.
    `clauses` and `base` are views built on demand.
    """

    __slots__ = ("_num_vars", "_trie", "_hash")

    def __init__(self, clauses, num_vars: int):
        """Intern the clause tuples; every literal must lie in 1..num_vars."""
        lits = [0]
        colors: list[tuple[int, ...]] = [()]
        parent = [0]
        children: list = [()]
        ends = []
        index: dict[tuple, int] = {}
        for clause in clauses:
            at = 0
            for lit, cols in clause:
                key = (at, lit, cols)
                node = index.get(key)
                if node is None:
                    if not 1 <= abs(lit) <= num_vars:
                        raise GuidedScriptError("literal %d outside universe 1..%d" % (lit, num_vars))
                    node = index[key] = len(lits)
                    if children[at]:
                        children[at].append(node)
                    else:
                        children[at] = [node]
                    lits.append(lit)
                    colors.append(cols)
                    parent.append(at)
                    children.append(())
                at = node
            ends.append(at)
        self._num_vars = num_vars
        self._trie = (lits, colors, parent, children, ends)
        self._hash = None

    @classmethod
    def _of_trie(cls, trie: tuple, num_vars: int) -> "GuidedCnf":
        guided = cls.__new__(cls)
        guided._num_vars = num_vars
        guided._trie = trie
        guided._hash = None
        return guided

    @property
    def num_vars(self) -> int:
        return self._num_vars

    def _key(self) -> tuple:
        lits, colors, parent, _, ends = self._trie
        return (self._num_vars, lits, colors, parent, ends)

    def __eq__(self, other):
        if not isinstance(other, GuidedCnf):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        if self._hash is None:
            num_vars, *parts = self._key()
            self._hash = hash((num_vars, *map(tuple, parts)))
        return self._hash

    def __repr__(self) -> str:
        return "GuidedCnf(<%d trie nodes, %d clauses>, num_vars=%d)" % (
            len(self._trie[0]) - 1,
            len(self._trie[4]),
            self.num_vars,
        )

    @property
    def clauses(self) -> tuple[GuidedClause, ...]:
        lits, colors, parent, _, ends = self._trie
        depth = [0] * len(parent)
        for node in range(1, len(parent)):
            depth[node] = depth[parent[node]] + 1
        literals = sum([depth[end] for end in ends])
        if literals + len(ends) > SCRIPT_BUDGET:
            raise GuidedScriptTooLarge(
                "the clauses of this guided script hold %d literals in %d clauses, over the budget of %d"
                % (literals, len(ends), SCRIPT_BUDGET)
            )
        out = []
        for node in ends:
            clause = []
            while node:
                clause.append((lits[node], colors[node]))
                node = parent[node]
            clause.reverse()
            out.append(tuple(clause))
        return tuple(out)

    @property
    def base(self) -> Cnf:
        return Cnf(
            self.num_vars,
            tuple((i, tuple(lit for lit, _ in cl)) for i, cl in enumerate(self.clauses)),
        )


def _script_size(nodes: list[tuple], order: list[int]) -> tuple[int, int, int]:
    """(trie nodes, clauses, literals) of circuit_to_cnf's script, by one
    fold over the circuit's topological order (children first)."""
    size = {FALSE: (0, 1, 0), TRUE: (0, 0, 0)}
    for nid in order:
        node = nodes[nid]
        kind = node[0]
        if kind == "D":
            _, _, low, high = node
            tl, cl, ll = size[low]
            th, ch, lh = size[high]
            size[nid] = (tl + th + (low != TRUE) + (high != TRUE), cl + ch, ll + cl + lh + ch)
        elif kind == "A":
            t = c = n = 0
            for kid in node[1]:
                tk, ck, nk = size[kid]
                t += tk
                c += ck
                n += nk
            size[nid] = (t, c, n)
        elif kind == "L":
            size[nid] = (1, 1, 1)
    return size[order[-1]]


def circuit_to_cnf(circuit: Circuit) -> GuidedCnf:
    """Derive the clause set that replays to this circuit.

    The false sink maps to the empty clause, the true sink to no clauses;
    a decision on x prepends x to its low part's clauses and -x to its
    high part's; a conjunction unions its parts, tagging each part's
    clauses with a fresh color on their first literal.  Literal leaves are
    treated as their two-sink decision expansion.  The script is over
    1..num_vars without the fixed set: a conditioned circuit replays to an
    isomorphic circuit over 1..num_vars with none fixed.

    Colors are numbered per conjunction edge in topological order.  The
    clauses come out as their prefix trie: one iterative depth-first walk
    makes one trie node per step that leads to a clause (a step into the
    true sink makes none), so the cost is linear in the circuit plus the
    trie, not the clause text, and independent of the recursion limit.
    Before the walk, one fold over the circuit counts the trie nodes,
    clauses and literals, and a script over SCRIPT_BUDGET raises
    GuidedScriptTooLarge before any trie node is built.
    """
    try:
        order, _ = annotate(circuit)
    except LanguageError as err:
        raise LanguageError("not decision-DNNF: %s" % err) from None
    nodes = circuit.store.nodes
    trie_nodes, clauses, literals = _script_size(nodes, order)
    if trie_nodes + clauses > SCRIPT_BUDGET:
        raise GuidedScriptTooLarge(
            "the guided script has %d trie nodes, %d clauses and %d literals, over the budget of %d"
            % (trie_nodes, clauses, literals, SCRIPT_BUDGET)
        )
    first_color: dict[int, int] = {}
    fresh = 1
    for nid in order:
        node = nodes[nid]
        if node[0] == "A":
            first_color[nid] = fresh
            fresh += len(node[1])
    lits = [0]
    colors: list[tuple[int, ...]] = [()]
    parent = [0]
    children: list = [()]
    ends = []
    # (circuit node, trie node its clauses continue from, the literal it
    # adds below that trie node or 0, colors of that literal or else of
    # the node's own first literal)
    stack: list[tuple] = [(circuit.root, 0, 0, ())]
    while stack:
        nid, at, lit, cols = stack.pop()
        node = nodes[nid]
        kind = node[0]
        if lit:
            new = len(lits)
            if children[at]:
                children[at].append(new)
            else:
                children[at] = [new]
            lits.append(lit)
            colors.append(cols)
            parent.append(at)
            children.append(())
            at = new
            cols = ()
        if kind == "D":
            _, var, low, high = node
            if high != TRUE:
                stack.append((high, at, -var, cols))
            if low != TRUE:
                stack.append((low, at, var, cols))
        elif kind == "A":
            kids = node[1]
            base = first_color[nid]
            for i in range(len(kids) - 1, -1, -1):
                stack.append((kids[i], at, 0, cols + (base + i,)))
        elif kind == "L":  # its two-sink decision: one clause, of its literal
            stack.append((FALSE, at, node[1], cols))
        elif kind == "F":
            ends.append(at)
    return GuidedCnf._of_trie((lits, colors, parent, children, ends), circuit.num_vars)


def compile_guided(guided: GuidedCnf) -> Circuit:
    """Replay the decomposed search with choices resolved by the script.

    When first literals carry colors, the clause set splits by first color
    (popping it); otherwise every clause starts with the same variable and
    the search branches on it.  The result is isomorphic to the circuit
    the script came from.

    Every clause of a residual has taken the same steps, so a residual is
    one trie node's children, or after color splits some of them, with one
    color position for all.  Some clause is used up when one ends at that
    trie node.  A color split groups the children by their color at the
    position; a decision finds at most one child on each literal of its
    variable, and that child's children are the residual below.  A
    residual of one child splits into itself at every color, so it is
    decided at once; and if that child's subtree holds one clause end, the
    residual is that one clause, which can only decide down its literals,
    each with the true sink on the other branch.  It is built directly as
    that chain, from its last literal back, and the chain's last decision,
    on one literal, is kept per literal for the whole replay.

    The replay does constant work per trie node and per child in a color
    split, so it is linear in the trie, not the clause text.  It runs on an
    explicit work stack, independent of the recursion limit, and builds
    nodes in the post-order of the recursive definition, so the store is
    the same node for node.
    """
    lits, colors, parent, children, ends = guided._trie
    # Clause ends at each trie node, then in each subtree.
    total = [0] * len(lits)
    for end in ends:
        total[end] += 1
    closed = [count > 0 for count in total]
    for node in range(len(lits) - 1, 0, -1):
        total[parent[node]] += total[node]
    store = NodeStore()
    get_node = store.get_node
    leaves: dict[int, int] = {}
    results: list[int] = []
    # A work item is a residual (trie node, the children of it that the
    # residual holds, color position) or an int: var > 0 decides on var over
    # the last two results, -n conjoins the last n.
    work: list = [(0, children[0], 0)]
    while work:
        item = work.pop()
        if type(item) is int:
            if item > 0:
                high = results.pop()
                results[-1] = get_node(item, results[-1], high)
            else:
                kids = results[item:]
                del results[item:]
                results.append(FALSE if FALSE in kids else store.get_and_node(kids))
            continue
        at, kids, c = item
        if closed[at]:  # some clause is used up: the empty clause
            results.append(FALSE)
            continue
        if not kids:
            results.append(TRUE)
            continue
        first = kids[0]
        lit = lits[first]
        if len(kids) == 1:
            if total[first] == 1:
                chain = [lit]
                node = first
                while children[node]:
                    node = children[node][0]
                    chain.append(lits[node])
                lit = chain.pop()
                node = leaves.get(lit)
                if node is None:
                    node = leaves[lit] = get_node(lit, FALSE, TRUE) if lit > 0 else get_node(-lit, TRUE, FALSE)
                for lit in reversed(chain):
                    node = get_node(lit, node, TRUE) if lit > 0 else get_node(-lit, TRUE, node)
                results.append(node)
            # No clause ends at a trie node that is decided below, so
            # (at, (), 0) holds no clause: the true sink.
            elif lit > 0:
                work += (lit, (at, (), 0), (first, children[first], 0))
            else:
                work += (-lit, (first, children[first], 0), (at, (), 0))
            continue
        if c < len(colors[first]):
            parts: dict[int, list[int]] = {}
            try:
                for kid in kids:
                    key = colors[kid][c]
                    part = parts.get(key)
                    if part is None:
                        parts[key] = [kid]
                    else:
                        part.append(kid)
            except IndexError:
                raise GuidedScriptError("mixed colored and uncolored first literals") from None
            work.append(-len(parts))
            work.extend([(at, part, c + 1) for part in reversed(parts.values())])
            continue
        # The splits that moved the cursor to c took a color from every
        # child, so a child with exactly c colors has none left, and two
        # such children with one literal would be one trie node.
        if len(kids) == 2:
            other = kids[1]
            if lits[other] == -lit and len(colors[other]) == c:
                low, high = (first, other) if lit > 0 else (other, first)
                work += (abs(lit), (high, children[high], 0), (low, children[low], 0))
                continue
        if any(len(colors[kid]) != c for kid in kids):
            raise GuidedScriptError("mixed colored and uncolored first literals")
        raise GuidedScriptError("uncolored first literals disagree on the variable")

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
