"""Tractable queries over compiled circuits: consistency, validity, clausal
entailment, implicant, model counting, model enumeration, conditioning, and
a probabilistic equivalence test.

Counting does not require smooth circuits.  Each node is annotated with the
set of variables occurring at or below it (a bitmask); a child missing g of
the parent's variables contributes its count times 2^g, and the root count
scales by 2^(universe - |vars(root)|), the universe counting the free
variables: those of 1..num_vars that conditioning has not fixed.

Costs, for a circuit of |C| reachable nodes and edges over n variables:

- A circuit computes its topological order and variable masks once, on
  first use (O(|C|)), and every pass reads them.
- `model_count`, `is_consistent` and `is_valid` take one bottom-up sweep;
  counting does big-integer arithmetic of up to n bits per node.
- `entails_clause` and `is_implicant` take one sweep under the clause's
  negation or the term, and build no store.
- `condition_circuit` takes two passes: one top-down pass marks what the
  conditioned root still reaches, and one bottom-up pass rebuilds only
  the marked nodes in a fresh, reduced store.  On a source of decisions
  and literals it builds exactly the result's nodes.
- `enumerate_models` streams its terms with O(n) time between consecutive
  terms, and materialises no conjunct's terms.
- `prob_equiv` takes one sweep per circuit for its first round, then one
  sweep per circuit for every group of up to `LANES` further rounds,
  with arithmetic modulo the product of the group's primes.

Every pass is iterative, so no query depends on the recursion limit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .cnf import as_term
# `reachable` stays importable here because the benchmark's tracer rebinds it.
from .store import FALSE, TRUE, Circuit, NodeStore, mask_bits, reachable

# 2^61 - 1, a Mersenne prime; field for the polynomial identity test.
EQ_PRIME = (1 << 61) - 1
EQ_ROUNDS = 5
# Rounds after the first share one sweep in groups of up to LANES, one lane
# prime each.  A sweep's products widen with the group: on an 18,632-node
# FBDD (CPython 3.11, 2-vCPU VM) a lone round took 0.007-0.009 s, a lane of
# a 4- to 8-lane group 0.0031-0.0039 s, and of a 12-lane group 0.004 s.
LANES = 8


class LanguageError(ValueError):
    """The circuit is outside the language class the query needs."""


def annotate(circuit: Circuit) -> tuple[list[int], list[int]]:
    """The circuit's topological order and per-node variable bitmasks
    (indexed by node id), once it is known to be decision-DNNF.  Callers
    must not modify either list.

    Raises LanguageError unless conjuncts share no variables and no
    decision's branch variable occurs in a child.  (Disjunctions are
    decision nodes by construction, so they are always deterministic.)
    """
    masks, bad = circuit.masks
    if bad is not None:
        nid, var = bad
        if circuit.store.nodes[nid][0] == "D":
            raise LanguageError("branch variable %d reappears below decision node %d" % (var, nid))
        raise LanguageError("conjuncts of node %d share variable %d" % (nid, var))
    return circuit.order, masks


def _check_universe(circuit: Circuit, mask: int) -> None:
    stray = mask & circuit.fixed | mask >> circuit.num_vars << circuit.num_vars
    if stray:
        raise ValueError("variable %d below the root is not free" % stray.bit_length())


def model_count(circuit: Circuit) -> int:
    """Number of satisfying assignments over the circuit's universe."""
    order, masks = annotate(circuit)
    nodes = circuit.store.nodes
    counts = [0] * len(nodes)
    for nid in order:
        node = nodes[nid]
        kind = node[0]
        if kind == "D":
            _, _, low, high = node
            here = masks[nid].bit_count() - 1
            counts[nid] = (counts[low] << (here - masks[low].bit_count())) + (
                counts[high] << (here - masks[high].bit_count())
            )
        elif kind == "A":
            acc = 1
            for c in node[1]:
                acc *= counts[c]
            counts[nid] = acc
        elif kind != "F":
            counts[nid] = 1
    mask = masks[circuit.root]
    _check_universe(circuit, mask)
    return counts[circuit.root] << (circuit.universe - mask.bit_count())


def _assignment(term: frozenset[int], circuit: Circuit) -> dict[int, bool]:
    """Variable -> value for a normalized term over free variables."""
    assigned = {abs(l): l > 0 for l in term}
    for var in sorted(assigned):
        if var > circuit.num_vars or circuit.fixed >> (var - 1) & 1:
            raise ValueError("term variable %d is outside 1..%d or fixed" % (var, circuit.num_vars))
    return assigned


def _decide_under(
    circuit: Circuit, order: list[int], assigned: dict[int, bool], validity: bool
) -> bool:
    """Is the circuit conditioned on `assigned` satisfiable (or, with
    `validity`, valid)?  One sweep over `order`.

    Decomposability and determinism make both local: a conjunction of
    variable-disjoint parts is satisfiable (valid) iff every part is, and
    a decision on an unassigned variable absent below it iff either
    branch is satisfiable (both are valid).  An unassigned literal is
    satisfiable but not valid.
    """
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


def is_consistent(circuit: Circuit) -> bool:
    """Satisfiability by a single bottom-up sweep."""
    order, _ = annotate(circuit)
    return _decide_under(circuit, order, {}, validity=False)


def is_valid(circuit: Circuit) -> bool:
    """True iff every assignment over the universe satisfies the circuit."""
    order, masks = annotate(circuit)
    _check_universe(circuit, masks[circuit.root])
    return _decide_under(circuit, order, {}, validity=True)


def condition_circuit(circuit: Circuit, term: Iterable[int]) -> Circuit:
    """Assign the term's literals and rebuild what the conditioned root
    still reaches.

    Two passes over the source's order.  A top-down pass marks the nodes
    the root reaches once every assigned decision takes its branch: an
    unassigned decision marks both children, a conjunction every
    conjunct.  A bottom-up pass rebuilds the marked nodes only, through a
    fresh store's constructors, so the result is reduced and stays in the
    source's language class (an ordered input keeps its order).  On a
    source of decisions and literals only, every node built is reachable
    from the result's root; a conjunction that collapses to false can
    still leave the conjuncts built before it.

    The term's variables join `fixed`, occurring or not, so the universe
    shrinks by the term's size.  It reads the source's order but not its
    masks, so it accepts circuits outside decision-DNNF.
    """
    assigned = _assignment(as_term(term), circuit)
    nodes = circuit.store.nodes
    value = assigned.get
    live = bytearray(len(nodes))
    live[circuit.root] = 1
    # Marked ids, root first; the rebuild walks them in reverse.
    marked = []
    for nid in reversed(circuit.order):
        if not live[nid]:
            continue
        marked.append(nid)
        node = nodes[nid]
        kind = node[0]
        if kind == "D":
            val = value(node[1])
            if val is None:
                live[node[2]] = live[node[3]] = 1
            else:
                live[node[3] if val else node[2]] = 1
        elif kind == "A":
            for c in node[1]:
                live[c] = 1
    out = NodeStore()
    remap = [FALSE] * len(nodes)
    for nid in reversed(marked):
        node = nodes[nid]
        kind = node[0]
        if kind == "T":
            remap[nid] = TRUE
        elif kind == "L":
            lit = node[1]
            val = value(abs(lit))
            if val is None:
                remap[nid] = out.literal(lit)
            else:
                remap[nid] = TRUE if val == (lit > 0) else FALSE
        elif kind == "D":
            _, var, low, high = node
            val = value(var)
            if val is None:
                remap[nid] = out.get_node(var, remap[low], remap[high])
            else:
                remap[nid] = remap[high] if val else remap[low]
        elif kind == "A":
            kids = [remap[c] for c in node[1]]
            if FALSE not in kids:
                remap[nid] = out.get_and_node(kids)
    out.freeze()
    fixed = circuit.fixed | sum(1 << (var - 1) for var in assigned)  # distinct free bits
    return Circuit(out, remap[circuit.root], circuit.num_vars, fixed)


def entails_clause(circuit: Circuit, clause: Iterable[int]) -> bool:
    """Does the circuit imply the clause?

    One consistency sweep under the clause's negation: the clause is
    entailed iff no model survives it.  Tautologous clauses are entailed
    trivially and reported without a sweep.  On a decision-DNNF circuit,
    answers and errors are those of checking
    `condition_circuit(circuit, negation)` for consistency.
    """
    lits = list(clause)
    if any(-l in lits for l in lits):
        return True
    assigned = _assignment(as_term([-l for l in lits]), circuit)
    order, _ = annotate(circuit)
    return not _decide_under(circuit, order, assigned, validity=False)


def is_implicant(term: Iterable[int], circuit: Circuit) -> bool:
    """Does the term imply the circuit?

    One validity sweep under the term, which must assign free variables
    only.  Inconsistent terms imply everything.  On a decision-DNNF
    circuit whose variables are free, answers and errors are those of
    `is_valid` on `condition_circuit(circuit, term)`.
    """
    try:
        t = as_term(term)
    except ValueError:
        return True
    assigned = _assignment(t, circuit)
    order, _ = annotate(circuit)
    return _decide_under(circuit, order, assigned, validity=True)


def enumerate_models(circuit: Circuit) -> Iterator[frozenset[int]]:
    """Stream pairwise-disjoint terms whose union is exactly the models.

    Each term is a partial assignment; variables it leaves out are free,
    so it stands for 2^(universe - len(term)) total assignments, and those
    weights sum to the model count.  Output size can be exponential.

    Terms come in the order of a depth-first expansion: a decision's low
    branch before its high branch, and a conjunction's first conjunct as
    the outermost loop (the order of itertools.product over the
    conjuncts' terms).
    """
    annotate(circuit)  # structural preconditions only
    return _expand_terms(circuit.store.nodes, circuit.root)


def _expand_terms(nodes: list[tuple], root: int) -> Iterator[frozenset[int]]:
    # A state is the nodes still to expand and the literals chosen so far,
    # both as linked lists of pairs, so a saved state shares its tails with
    # the live one.  A decision saves its high branch as a choice point and
    # expands the low one; a finished or failed state backtracks to the
    # latest choice point, which re-expands the conjuncts after it.
    choices: list[tuple] = [((root, None), None)]
    while choices:
        pending, term = choices.pop()
        while pending is not None:
            nid, pending = pending
            node = nodes[nid]
            kind = node[0]
            if kind == "D":
                var = node[1]
                choices.append(((node[3], pending), (var, term)))
                pending = (node[2], pending)
                term = (-var, term)
            elif kind == "A":
                for c in reversed(node[1]):
                    pending = (c, pending)
            elif kind == "L":
                term = (node[1], term)
            elif kind == "F":
                break
        else:
            lits = []
            while term is not None:
                lit, term = term
                lits.append(lit)
            yield frozenset(lits)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases, which is exact
    for every n below 3.1 * 10^23, far above the lane primes."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _lane_primes(count: int) -> tuple[int, ...]:
    """EQ_PRIME and the count - 1 primes just above it, ascending."""
    primes = [EQ_PRIME]
    n = EQ_PRIME
    while len(primes) < count:
        n += 2
        if _is_prime(n):
            primes.append(n)
    return tuple(primes)


LANE_PRIMES = _lane_primes(LANES)


@dataclass(frozen=True)
class EqVerdict:
    """Outcome of the probabilistic equivalence test.

    not-equivalent verdicts are certain; equivalent-probably carries a
    one-sided error bound of at most (universe / prime) per round, where
    `prime` is EQ_PRIME, the least of the lane primes.
    """

    outcome: str  # 'equivalent-probably' | 'not-equivalent'
    rounds: int
    prime: int
    error_bound: Fraction

    @property
    def equivalent(self) -> bool:
        return self.outcome == "equivalent-probably"


def _poly_eval(circuit: Circuit, order: list[int], point, p: int) -> int:
    """Evaluate the circuit's network polynomial modulo p at `point`, which
    maps each variable that occurs to its value, sweeping the reachable
    ids in `order` (topological, as from annotate).

    p need not be prime: modulo a product of primes the result is, by the
    Chinese remainder theorem, the evaluations modulo each of them at the
    point's residues.  A variable absent below a node would contribute
    the factor r + (1 - r) = 1, so non-smooth gaps need no correction.
    """
    nodes = circuit.store.nodes
    vals = [0] * len(nodes)
    for nid in order:
        node = nodes[nid]
        kind = node[0]
        if kind == "D":
            _, var, low, high = node
            r = point[var]
            lo = vals[low]
            vals[nid] = (lo + r * (vals[high] - lo)) % p
        elif kind == "A":
            acc = 1
            for c in node[1]:
                acc = acc * vals[c] % p
            vals[nid] = acc
        elif kind == "L":
            r = point[abs(node[1])]
            vals[nid] = r if node[1] > 0 else (1 - r) % p
        elif kind == "T":
            vals[nid] = 1
    return vals[circuit.root]


def prob_equiv(
    a: Circuit, b: Circuit, seed: int = 0, rounds: int = EQ_ROUNDS
) -> EqVerdict:
    """Polynomial identity test for circuit equivalence.

    Per round, draws one field element per variable that occurs in either
    circuit, in increasing variable order, and compares the two network
    polynomials at that point; any disagreement proves inequivalence,
    while agreement in every round bounds the error by at most
    (universe / EQ_PRIME)^rounds.  A variable that occurs in neither
    circuit cannot tell them apart, so a declared universe far above the
    variables used costs nothing.

    Round 1 runs alone over EQ_PRIME, so most inequivalent pairs are
    refuted by one narrow sweep of each circuit.  The other rounds run in
    groups of up to LANES: one sweep per circuit modulo M, the product of
    the group's lane primes, at a point drawn uniformly from [0, M).
    Z/M is the product of the lane fields, so each lane is an independent
    round over a field of at least EQ_PRIME elements, and a mismatch
    reports the first lane that differs.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1, got %d" % rounds)
    if a.universe != b.universe:
        raise ValueError("universe mismatch: %d vs %d" % (a.universe, b.universe))
    order_a, masks_a = annotate(a)
    order_b, masks_b = annotate(b)
    occurring = masks_a[a.root] | masks_b[b.root]
    variables = mask_bits(occurring)
    rng = random.Random(seed)
    done = 0
    while done < rounds:
        lanes = LANE_PRIMES[: 1 if done == 0 else rounds - done]
        m = math.prod(lanes)
        point = {v: rng.randrange(m) for v in variables}
        va = _poly_eval(a, order_a, point, m)
        vb = _poly_eval(b, order_b, point, m)
        if va != vb:
            first = next(i for i, q in enumerate(lanes) if va % q != vb % q)
            return EqVerdict("not-equivalent", done + 1 + first, EQ_PRIME, Fraction(0))
        done += len(lanes)
    return EqVerdict(
        "equivalent-probably", rounds, EQ_PRIME, Fraction(a.universe, EQ_PRIME) ** rounds
    )
