"""Shared test helpers: the running example, random formula generation, and
oracles kept independent of the code under test."""

import itertools
import random
from array import array
from typing import Iterable, Iterator

import dpllc.compiler as compiler
from dpllc import _kernel_py as byte_ops
from dpllc.checks import GuidedCnf, GuidedScriptError, _iso_view, check_decision_dnnf
from dpllc.cnf import Cnf, as_term
from dpllc.queries import (
    LanguageError,
    annotate,
    condition_circuit,
    is_consistent,
    model_count,
)
from dpllc.store import FALSE, TRUE, Circuit, NnfFormatError, NodeStore, reachable

RUNNING_DIMACS = "p cnf 3 3\n1 2 0\n1 -2 -3 0\n-1 2 -3 0\n"
RUNNING_CLAUSES = [[1, 2], [1, -2, -3], [-1, 2, -3]]


def running_cnf() -> Cnf:
    return Cnf.from_clauses(RUNNING_CLAUSES, 3)


def random_cnf(rng: random.Random, max_vars=12, max_clauses=40, max_len=4) -> Cnf:
    n = rng.randint(1, max_vars)
    m = rng.randint(0, max_clauses)
    clauses = []
    for _ in range(m):
        k = rng.randint(1, min(max_len, n))
        vs = rng.sample(range(1, n + 1), k)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return Cnf.from_clauses(clauses, n)


def assignments(n: int):
    """All full assignments as dicts var -> bool."""
    for m in range(1 << n):
        yield {v: bool((m >> (v - 1)) & 1) for v in range(1, n + 1)}


def eval_cnf(cnf: Cnf, assignment: dict) -> bool:
    return all(
        any(assignment[abs(l)] == (l > 0) for l in lits) for _, lits in cnf.clauses
    )


def model_set(cnf: Cnf) -> set[int]:
    """Satisfying assignments as bitmasks (bit v-1 = value of var v)."""
    out = set()
    for m in range(1 << cnf.num_vars):
        a = {v: bool((m >> (v - 1)) & 1) for v in range(1, cnf.num_vars + 1)}
        if eval_cnf(cnf, a):
            out.add(m)
    return out


# Hard ceiling for the truth-table oracle; 2^24 assignment bits is ~2 MB per
# table and anything beyond that defeats the purpose of a safety oracle.
BRUTE_FORCE_VAR_LIMIT = 24


def _var_table(v: int, n: int) -> int:
    # Truth table of variable v over all 2^n assignments, one bit per
    # assignment (bit i is the value of v in assignment i).
    half = 1 << (v - 1)
    block = ((1 << half) - 1) << half
    width = half << 1
    total = 1 << n
    while width < total:
        block |= block << width
        width <<= 1
    return block


def brute_force_count(delta: Cnf) -> int:
    """Exact model count over all num_vars variables by truth-table sweep.

    Independent of the search-based compilers on purpose: this is the test
    oracle for them.  Refuses universes beyond BRUTE_FORCE_VAR_LIMIT.
    """
    n = delta.num_vars
    if n > BRUTE_FORCE_VAR_LIMIT:
        raise ValueError(
            "refusing brute-force count over %d > %d variables" % (n, BRUTE_FORCE_VAR_LIMIT)
        )
    full = (1 << (1 << n)) - 1
    table = full
    for _, lits in delta.clauses:
        acc = 0
        for lit in lits:
            t = _var_table(abs(lit), n)
            acc |= t if lit > 0 else full ^ t
        table &= acc
        if not table:
            return 0
    return table.bit_count()


def eval_circuit(circuit, assignment: dict) -> bool:
    """Semantic evaluation of a stored circuit under a full assignment."""
    store = circuit.store
    memo = {}

    def go(nid):
        if nid in memo:
            return memo[nid]
        node = store.nodes[nid]
        kind = node[0]
        if kind == "F":
            val = False
        elif kind == "T":
            val = True
        elif kind == "L":
            val = assignment[abs(node[1])] == (node[1] > 0)
        elif kind == "D":
            val = go(node[3]) if assignment[node[1]] else go(node[2])
        else:
            val = all(go(c) for c in node[1])
        memo[nid] = val
        return val

    return go(circuit.root)


def shannon_obdd_stats(models: set[int], n: int) -> tuple[int, int]:
    """(nodes, edges) of the reduced ordered decision diagram for the
    function with the given model set, variable order 1..n.

    Independent construction: recursive Shannon expansion with merging of
    equal (level, subfunction) pairs and skipping of don't-care levels.
    """
    unique = {}
    sinks_used = set()

    def build(level: int, fn: frozenset) -> tuple:
        # fn holds suffix assignments over vars level..n; bit 0 is var `level`.
        if level > n:
            kind = ("T",) if 0 in fn else ("F",)
            sinks_used.add(kind)
            return kind
        lo = build(level + 1, frozenset(m >> 1 for m in fn if not m & 1))
        hi = build(level + 1, frozenset(m >> 1 for m in fn if m & 1))
        if lo == hi:
            return lo
        key = (level, lo, hi)
        unique[key] = True
        return key

    build(1, frozenset(models))
    decisions = len(unique)
    return decisions + len(sinks_used), 2 * decisions


def oracle_bandwidth_order(delta: Cnf) -> "compiler.VarOrder":
    """compiler.bandwidth_order as first written: neighbors sorted by
    (degree, variable) at every visit, and each component started from the
    least (degree, variable) vertex left, found by a scan of all of them;
    quadratic in the number of components."""
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
    return compiler.VarOrder(tuple(order))


def renamed(delta: Cnf, order: "compiler.VarOrder") -> Cnf:
    """delta with each variable renamed to its 1-based position in order,
    over the order's variables."""
    rank = {var: r for r, var in enumerate(order.order, 1)}
    return Cnf.from_clauses(
        [[rank[l] if l > 0 else -rank[-l] for l in lits] for _, lits in delta.clauses], order.n
    )


def random_3cnf(rng: random.Random, n: int, ratio: float) -> Cnf:
    """int(ratio*n) clauses over 3 distinct variables, each sign negative
    with probability 1/2."""
    clauses = []
    for _ in range(int(ratio * n)):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append([-v if rng.random() < 0.5 else v for v in vs])
    return Cnf.from_clauses(clauses, n)


def compiled_family(rng: random.Random) -> list[Circuit]:
    """Free, ordered and decomposed compiles of one random formula, plus
    copies conditioned on a random term, which keep num_vars and fix the
    term's variables."""
    if rng.random() < 0.8:
        cnf = random_3cnf(rng, rng.randint(3, 10), rng.uniform(0.5, 4.0))
    else:
        cnf = random_cnf(rng, max_vars=8, max_clauses=14)
    n = cnf.num_vars
    order = compiler.VarOrder(tuple(rng.sample(range(1, n + 1), n)))
    out = [
        compiler.compile_free(cnf),
        compiler.compile_ordered(cnf, order),
        compiler.compile_decomposed(cnf),
    ]
    for circuit in list(out):
        k = rng.randint(1, n)
        term = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), k)]
        out.append(condition_circuit(circuit, term))
    return out


def flat_colouring_cnf(rng: random.Random, vertices: int, edges: int) -> Cnf:
    """3-colouring CNF of a random graph whose edges join only vertices of
    different hidden colour classes, so it is 3-colourable (the shape of
    SATLIB `flat*`).  Variable 3v+c+1 says vertex v has colour c."""
    colour = [v % 3 for v in range(vertices)]
    rng.shuffle(colour)
    chosen = set()
    while len(chosen) < edges:
        u, w = sorted(rng.sample(range(vertices), 2))
        if colour[u] != colour[w]:
            chosen.add((u, w))
    clauses = []
    for v in range(vertices):
        clauses.append([3 * v + 1, 3 * v + 2, 3 * v + 3])
        for a in range(3):
            for b in range(a + 1, 3):
                clauses.append([-(3 * v + a + 1), -(3 * v + b + 1)])
    for u, w in sorted(chosen):
        for c in range(1, 4):
            clauses.append([-(3 * u + c), -(3 * w + c)])
    return Cnf.from_clauses(clauses, 3 * vertices)


# --- Cnf-level oracles for the kernel's residual operations -----------------


def condition(delta: Cnf, lit: int) -> Cnf:
    """The residual formula after assigning `lit` true.

    Clauses containing `lit` are removed; the complementary literal is
    removed from the rest.  A clause that loses all its literals stays as
    the empty clause: contradiction detection is the caller's job.
    """
    v = abs(lit)
    if not 1 <= v <= delta.num_vars:
        raise ValueError("literal %d outside universe 1..%d" % (lit, delta.num_vars))
    out = []
    for idx, lits in delta.clauses:
        if lit in lits:
            continue
        if -lit in lits:
            out.append((idx, tuple(l for l in lits if l != -lit)))
        else:
            out.append((idx, lits))
    return Cnf(delta.num_vars, tuple(out))


def condition_all(delta: Cnf, lits: Iterable[int]) -> Cnf:
    for lit in lits:
        delta = condition(delta, lit)
    return delta


def unit_propagate(delta: Cnf) -> tuple[Cnf, list[int], bool]:
    """Condition on unit clauses until fixpoint.

    Returns (residual, implied, conflict).  `implied` lists forced literals
    in derivation order; `conflict` is true iff an empty clause is present
    at the end (the residual is then only guaranteed to contain one).
    """
    implied: list[int] = []
    cur = delta
    while True:
        if cur.has_empty_clause():
            return cur, implied, True
        unit = next((lits[0] for _, lits in cur.clauses if len(lits) == 1), None)
        if unit is None:
            return cur, implied, False
        implied.append(unit)
        cur = condition(cur, unit)


def compute_key(delta: Cnf) -> bytes:
    """Canonical fingerprint of a formula in the kernels' byte layout:
    per clause its index, its length and its literals sorted by variable.

    Equal fingerprints exactly when the clause sets are identical.  The
    compiler hands the kernels its input in this layout, renamed (see
    compiler.compile_cnf); the tests feed the layout to `root` and to the
    single-step operations unrenamed.
    """
    return byte_ops.encode((idx, sorted(lits, key=abs)) for idx, lits in delta.clauses)


def select_variable(delta: Cnf, heuristic: str = "max-occurrence") -> int:
    """Branch variable of a formula under the named heuristic, by the
    byte layout's select_var (in _kernel_py; both kernels' branch picks
    the same variable).

    max-occurrence picks the variable in the most surviving clauses,
    min-index the smallest occurring index; ties break to the smaller
    index.  A formula without variables raises ValueError.
    """
    if heuristic not in compiler.HEURISTICS:
        raise ValueError("unknown heuristic %r" % heuristic)
    code = byte_ops.HEUR_MAX_OCCURRENCE if heuristic == "max-occurrence" else byte_ops.HEUR_MIN_INDEX
    var = byte_ops.select_var(compute_key(delta), code)
    if var == 0:
        raise ValueError("formula mentions no variables")
    return var


def components(delta: Cnf) -> list[Cnf]:
    """Finest partition of the clauses into variable-disjoint sub-formulas.

    Parts are ordered by their smallest original clause index and share
    delta's universe.  Callers must rule out empty clauses first.
    """
    if delta.has_empty_clause():
        raise ValueError("components() requires a formula without empty clauses")
    if not delta.clauses:
        return []
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for _, lits in delta.clauses:
        vs = [abs(l) for l in lits]
        for v in vs:
            parent.setdefault(v, v)
        for v in vs[1:]:
            parent[find(vs[0])] = find(v)

    groups: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for idx, lits in delta.clauses:
        groups.setdefault(find(abs(lits[0])), []).append((idx, lits))
    return [Cnf(delta.num_vars, tuple(g)) for g in groups.values()]


# --- the byte layout's decision step, the reference for both kernels ---------
#
# `oracle_root` and `oracle_branch` settle the input and take one decision
# over byte residuals (see dpllc._kernel_py) by composing the public
# single-step byte operations; `decode` turns either kernel's residual into
# that layout.


def oracle_root(res: bytes, split: bool, propagate: bool):
    """(parts, implied, conflict) that K.root(res, split, propagate) must
    give, in the byte layout: has_empty, then propagate, then
    split_components."""
    if byte_ops.has_empty(res):
        return [], (), True
    implied: tuple[int, ...] = ()
    if propagate:
        res, implied, conflict = byte_ops.propagate(res)
        if conflict:
            return [], (), True
    return (byte_ops.split_components(res) if split else [res]) if res else [], implied, False


def oracle_child(res: bytes, lit: int, split: bool, propagate: bool):
    """One child of `oracle_branch`: conditioning `res` on `lit`, then
    settling the rest as `oracle_root` does."""
    return oracle_root(byte_ops.condition(res, lit), split, propagate)


def oracle_branch(res: bytes, heuristic: int, split: bool, propagate: bool):
    """(x, low, high) that K.branch must give for the residual `res`, in
    the byte layout.

    `x` is what select_var(res, heuristic) picks; 0 when `res` has no
    variable.  Each child is (parts, implied, conflict), exactly what
    conditioning `res` on the literal, then has_empty, then (with
    `propagate`) propagate, then (with `split`) split_components would
    give: conflict when the child has an empty clause or a propagation
    conflict, and then parts == [] and implied == (); otherwise `implied`
    in derivation order and `parts` the rest's components, or the rest
    alone, or [] when nothing is left.
    """
    x = byte_ops.select_var(res, heuristic)
    if byte_ops.has_empty(res):
        return x, ([], (), True), ([], (), True)
    return x, oracle_child(res, -x, split, propagate), oracle_child(res, x, split, propagate)


def decode(res) -> bytes:
    """A kernel residual in the byte layout: a compiled kernel's residual
    is already in it, and a Python kernel residual (table, S, V) holds the
    clauses of S, each with its literals over the variables of V."""
    if isinstance(res, bytes):
        return res
    t, S, V = res
    out = array("i")
    for c in _bits(S):
        lits = [t.gvar[x] if t.occ[x] >> c & 1 else -t.gvar[x] for x in _bits(t.cvars[c] & V)]
        out.extend((t.idx[c], len(lits), *lits))
    return out.tobytes()


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def decode_child(child):
    """A (parts, implied, conflict) triple with its parts decoded."""
    parts, implied, conflict = child
    return [decode(part) for part in parts], implied, conflict


# --- reference versions of the guided round-trip ----------------------------
#
# The straightforward definitions that checks.circuit_to_cnf, compile_guided
# and isomorphic must agree with exactly: bottom-up clause tuples (each
# ancestor copies the clauses below it), a recursive replay, and pairwise
# isomorphism with a perfect matching of conjunction children.


def oracle_circuit_to_cnf(circuit):
    report = check_decision_dnnf(circuit)
    if not report.verdict:
        raise LanguageError("not decision-DNNF: %s" % report.witness)
    store = circuit.store
    fresh = itertools.count(1)
    delta = {}
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
            out = []
            for c in node[1]:
                color = next(fresh)
                for cl in delta[c]:
                    (lit, colors), rest = cl[0], cl[1:]
                    out.append(((lit, (color,) + colors),) + rest)
            delta[nid] = tuple(out)
    return GuidedCnf(delta[circuit.root], circuit.num_vars)


def oracle_compile_guided(guided):
    store = NodeStore()

    def build(clauses):
        if any(not cl for cl in clauses):
            return FALSE
        if not clauses:
            return TRUE
        heads = [cl[0] for cl in clauses]
        colored = [bool(colors) for _, colors in heads]
        if any(colored):
            if not all(colored):
                raise GuidedScriptError("mixed colored and uncolored first literals")
            parts = {}
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


def oracle_isomorphic(a, b) -> bool:
    sa, sb = a.store, b.store
    memo = {}

    def pairs_of(ia, ib):
        na, nb = _iso_view(sa, ia), _iso_view(sb, ib)
        if na[0] != nb[0]:
            return []
        if na[0] == "D":
            return [(na[2], nb[2]), (na[3], nb[3])]
        if na[0] == "A":
            return [(x, y) for x in na[1] for y in nb[1]]
        return []

    def decide(ia, ib):
        na, nb = _iso_view(sa, ia), _iso_view(sb, ib)
        if na[0] != nb[0]:
            return False
        if na[0] in ("F", "T"):
            return True
        if na[0] == "D":
            return na[1] == nb[1] and memo[(na[2], nb[2])] and memo[(na[3], nb[3])]
        xs, ys = na[1], nb[1]
        if len(xs) != len(ys):
            return False
        match = {}

        def augment(xi, banned):
            for yj, y in enumerate(ys):
                if yj in banned or not memo[(xs[xi], y)]:
                    continue
                banned.add(yj)
                if yj not in match or augment(match[yj], banned):
                    match[yj] = xi
                    return True
            return False

        return all(augment(i, set()) for i in range(len(xs)))

    pending = set()
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


#
# The definitions that queries.entails_clause, is_implicant and
# enumerate_models must agree with exactly on decision-DNNF circuits:
# condition the circuit in a fresh store and query the copy, and a
# recursive enumeration that materialises every conjunct's term list.
# Conditioning itself is checked against the full rebuild: every reachable
# source node goes through the fresh store's constructors, including those
# under the branches that the term throws away.


def oracle_condition_circuit(circuit: Circuit, term) -> Circuit:
    assigned = {abs(lit): lit > 0 for lit in as_term(term)}
    bad = [v for v in assigned if v > circuit.num_vars or circuit.fixed & (1 << (v - 1))]
    if bad:
        raise ValueError(
            "term variable %d is outside 1..%d or fixed" % (min(bad), circuit.num_vars)
        )
    src = circuit.store
    out = NodeStore()
    remap = [FALSE] * len(src.nodes)
    for nid in circuit.order:
        node = src.nodes[nid]
        kind = node[0]
        if kind == "T":
            remap[nid] = TRUE
        elif kind == "L":
            lit = node[1]
            val = assigned.get(abs(lit))
            if val is None:
                remap[nid] = out.literal(lit)
            else:
                remap[nid] = TRUE if val == (lit > 0) else FALSE
        elif kind == "D":
            _, var, low, high = node
            val = assigned.get(var)
            if val is None:
                remap[nid] = out.get_node(var, remap[low], remap[high])
            else:
                remap[nid] = remap[high] if val else remap[low]
        elif kind == "A":
            kids = [remap[c] for c in node[1]]
            if FALSE not in kids:
                remap[nid] = out.get_and_node(kids)
    out.freeze()
    fixed = circuit.fixed
    for var in assigned:
        fixed |= 1 << (var - 1)
    return Circuit(out, remap[circuit.root], circuit.num_vars, fixed)


def oracle_decide_under(circuit, order, assigned, validity) -> bool:
    """Is the circuit conditioned on `assigned` satisfiable (or, with
    `validity`, valid)?  One bottom-up sweep over the whole `order`: a
    conjunction of variable-disjoint parts holds iff every part does, a
    decision on an unassigned variable iff either branch is satisfiable
    (both are valid), and an unassigned literal is satisfiable but not
    valid."""
    nodes = circuit.store.nodes
    holds = [False] * len(nodes)
    value = assigned.get
    for nid in order:
        node = nodes[nid]
        kind = node[0]
        if kind == "D":
            val = value(node[1])
            if val is not None:
                holds[nid] = holds[node[3] if val else node[2]]
            elif validity:
                holds[nid] = holds[node[2]] and holds[node[3]]
            else:
                holds[nid] = holds[node[2]] or holds[node[3]]
        elif kind == "A":
            holds[nid] = all(map(holds.__getitem__, node[1]))
        elif kind == "L":
            val = value(abs(node[1]))
            holds[nid] = not validity if val is None else val == (node[1] > 0)
        elif kind == "T":
            holds[nid] = True
    return holds[circuit.root]


def oracle_entails_clause(circuit, clause) -> bool:
    lits = list(clause)
    if 0 in lits:
        raise ValueError("0 is not a literal")
    if any(-l in lits for l in lits):
        return True
    if not lits:
        return not is_consistent(circuit)
    return not is_consistent(condition_circuit(circuit, [-l for l in lits]))


def oracle_is_implicant(term, circuit) -> bool:
    lits = list(term)
    if 0 in lits:
        raise ValueError("0 is not a literal")
    try:
        t = as_term(lits)
    except ValueError:
        return True
    conditioned = condition_circuit(circuit, t)
    return model_count(conditioned) == 1 << conditioned.universe


def oracle_enumerate_models(circuit) -> Iterator[frozenset[int]]:
    annotate(circuit)
    store = circuit.store

    def walk(nid):
        node = store.nodes[nid]
        kind = node[0]
        if kind == "F":
            return
        if kind == "T":
            yield frozenset()
        elif kind == "L":
            yield frozenset((node[1],))
        elif kind == "D":
            _, var, low, high = node
            for term in walk(low):
                yield term | {-var}
            for term in walk(high):
                yield term | {var}
        else:
            for combo in itertools.product(*(list(walk(c)) for c in node[1])):
                yield frozenset().union(*combo)

    return walk(circuit.root)


# --- reference versions of the nnf reader and writer ---------------------------
#
# The definitions that store.serialize and store.parse_nnf must agree with
# exactly: the same text, the same parsed store, and the same error (type,
# message and line) on every malformed text.  This writer keys its memo on
# nested tuples and counts edges in a second pass; this reader re-visits a
# line on its work stack until its children are built.


def oracle_serialize(circuit: Circuit) -> str:
    """Render a circuit in the plain-text nnf format.

    Header `nnf V E N` with N the circuit's num_vars, followed by
    `c fixed v1 .. vk` when it has fixed variables, then one node line per
    row, children before parents: `L lit`, `A k c1 .. ck`, `O var 2 a b`;
    the false and true sinks are `O 0 0` and `A 0`.  Decision nodes are
    expanded: child a is the conjunction of the negative branch literal
    with the low child, child b the positive literal with the high child.
    Shared structure is emitted once, so a line may serve several parents.
    """
    store = circuit.store
    lines: list[str] = []
    memo: dict[tuple, int] = {}

    def emit(key: tuple, text: str) -> int:
        got = memo.get(key)
        if got is not None:
            return got
        memo[key] = len(lines)
        lines.append(text)
        return memo[key]

    def emit_and(parts: tuple[int, ...]) -> int:
        parts = tuple(sorted(parts))
        return emit(("A", parts), "A %d %s" % (len(parts), " ".join(map(str, parts))))

    line_of: dict[int, int] = {}
    for nid in reachable(store, circuit.root):
        node = store.nodes[nid]
        kind = node[0]
        if kind == "F":
            line_of[nid] = emit(("F",), "O 0 0")
        elif kind == "T":
            line_of[nid] = emit(("T",), "A 0")
        elif kind == "L":
            line_of[nid] = emit(("L", node[1]), "L %d" % node[1])
        elif kind == "A":
            line_of[nid] = emit_and(tuple(line_of[c] for c in node[1]))
        else:
            _, var, low, high = node
            neg = emit(("L", -var), "L %d" % -var)
            pos = emit(("L", var), "L %d" % var)
            a = emit_and((neg, line_of[low]))
            b = emit_and((pos, line_of[high]))
            line_of[nid] = emit(("O", var, a, b), "O %d 2 %d %d" % (var, a, b))

    # Each memo key is one emitted line; its edges are its children.
    edges = sum(len(key[1]) if key[0] == "A" else 2 if key[0] == "O" else 0 for key in memo)
    out = ["nnf %d %d %d" % (len(lines), edges, circuit.num_vars)]
    fixed = [v for v in range(1, circuit.num_vars + 1) if circuit.fixed & (1 << (v - 1))]
    if fixed:
        out.append("c fixed " + " ".join(str(v) for v in fixed))
    out.extend(lines)
    return "\n".join(out) + "\n"


def _oracle_parse_records(text: str) -> tuple[int, int, int, set[int], list[tuple]]:
    header = None
    fixed = None  # the set of fixed variables, once read
    records: list[tuple] = []

    def variable(var: int, lineno: int) -> None:
        if var > header[2]:
            raise NnfFormatError(
                "variable %d exceeds declared universe %d" % (var, header[2]), lineno
            )
        if fixed and var in fixed:
            raise NnfFormatError("variable %d is fixed" % var, lineno)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        fields = line.split()
        is_fixed = fields[:2] == ["c", "fixed"]
        if not line or (line.startswith("c") and not is_fixed):
            continue
        if header is None:
            if fields[0] != "nnf" or len(fields) != 4:
                raise NnfFormatError("expected header 'nnf V E N', got %r" % line, lineno)
            try:
                header = tuple(int(f) for f in fields[1:])
            except ValueError:
                raise NnfFormatError("non-numeric header field", lineno) from None
            continue
        try:
            args = [int(f) for f in fields[2 if is_fixed else 1 :]]
        except ValueError:
            raise NnfFormatError("non-numeric field in %r" % line, lineno) from None
        idx = len(records)
        if is_fixed:
            # One line, before every node line, of distinct variables of
            # 1..N in increasing order.
            ok = not records and fixed is None and args and all(1 <= v <= header[2] for v in args)
            if not ok or any(a >= b for a, b in zip(args, args[1:])):
                raise NnfFormatError("malformed fixed line %r" % line, lineno)
            fixed = set(args)
        elif fields[0] == "L":
            if len(args) != 1 or args[0] == 0:
                raise NnfFormatError("malformed literal line %r" % line, lineno)
            variable(abs(args[0]), lineno)
            records.append(("L", args[0], lineno))
        elif fields[0] == "A":
            if not args or args[0] != len(args) - 1:
                raise NnfFormatError("child count mismatch in %r" % line, lineno)
            for ref in args[1:]:
                if not 0 <= ref < idx:
                    raise NnfFormatError(
                        "reference %d not to an earlier line" % ref, lineno
                    )
            records.append(("A", tuple(args[1:]), lineno))
        elif fields[0] == "O":
            if len(args) == 2 and args == [0, 0]:
                records.append(("F", lineno))
                continue
            if len(args) != 4 or args[1] != 2 or args[0] <= 0:
                raise NnfFormatError("malformed decision line %r" % line, lineno)
            variable(args[0], lineno)
            for ref in args[2:]:
                if not 0 <= ref < idx:
                    raise NnfFormatError(
                        "reference %d not to an earlier line" % ref, lineno
                    )
            records.append(("O", args[0], args[2], args[3], lineno))
        else:
            raise NnfFormatError("unknown node kind %r" % fields[0], lineno)
    if header is None:
        raise NnfFormatError("missing header")
    declared_v, declared_e, universe = header
    if len(records) != declared_v:
        raise NnfFormatError(
            "header declares %d nodes, found %d" % (declared_v, len(records))
        )
    if universe < 0:
        raise NnfFormatError("negative universe in header")
    return declared_v, declared_e, universe, fixed or set(), records


def oracle_parse_nnf(text: str) -> Circuit:
    """Parse the nnf format back into a circuit (fresh store, frozen).

    The header's N is the circuit's num_vars and a `c fixed` line between
    the header and the node lines its fixed variables; every literal and
    decision variable must be one of 1..N that is not fixed.

    `O var 2 a b` lines are folded back into decision nodes by looking
    inside their children for the branch literal; everything else is
    rebuilt through the store constructors, so reduction re-fires and the
    result is reduced no matter who produced the file.
    """
    _, _, num_vars, fixed, records = _oracle_parse_records(text)
    if not records:
        raise NnfFormatError("empty node section")
    store = NodeStore()

    def branch_deps(rec, want_lit: int, lineno: int) -> list[int]:
        # Lines a decision child needs built: everything except the branch
        # literal itself.  Accepts a bare literal line (branch to true).
        if rec[0] == "L":
            if rec[1] != want_lit:
                raise NnfFormatError("decision child lacks branch literal", lineno)
            return []
        if rec[0] == "A":
            refs = list(rec[1])
            for i, r in enumerate(refs):
                sub = records[r]
                if sub[0] == "L" and sub[1] == want_lit:
                    del refs[i]
                    return refs
            raise NnfFormatError("decision child lacks branch literal", lineno)
        raise NnfFormatError("decision child is not a conjunction", lineno)

    def fold_branch(deps: list[int], built: dict[int, int]) -> int:
        ids = [built[r] for r in deps]
        if FALSE in ids:
            return FALSE
        return store.get_and_node(ids)

    built: dict[int, int] = {}
    root_line = len(records) - 1
    work = [root_line]
    while work:
        i = work[-1]
        if i in built:
            work.pop()
            continue
        rec = records[i]
        kind = rec[0]
        if kind == "L":
            built[i] = store.literal(rec[1])
            work.pop()
        elif kind == "F":
            built[i] = FALSE
            work.pop()
        elif kind == "A":
            refs = rec[1]
            if not refs:
                built[i] = TRUE
                work.pop()
                continue
            missing = [r for r in refs if r not in built]
            if missing:
                work.extend(missing)
                continue
            ids = [built[r] for r in refs]
            if FALSE in ids:
                raise NnfFormatError("false sink under a conjunction", rec[2])
            built[i] = store.get_and_node(ids)
            work.pop()
        else:
            _, var, a, b, lineno = rec
            lo_deps = branch_deps(records[a], -var, lineno)
            hi_deps = branch_deps(records[b], var, lineno)
            missing = [r for r in lo_deps + hi_deps if r not in built]
            if missing:
                work.extend(missing)
                continue
            built[i] = store.get_node(var, fold_branch(lo_deps, built), fold_branch(hi_deps, built))
            work.pop()

    store.freeze()
    return Circuit(store, built[root_line], num_vars, sum(1 << (v - 1) for v in fixed))
