"""Tractable queries over compiled circuits: consistency, validity, clausal
entailment, implicant, model counting, model enumeration, conditioning, and
a probabilistic equivalence test.

Counting does not require smooth circuits.  Each node is annotated with the
set of variables occurring at or below it (a bitmask); a child missing g of
the parent's variables contributes its count times 2^g, and the root count
scales by 2^(universe - |vars(root)|).

Costs, for a circuit of |C| reachable nodes and edges over n variables:

- A circuit computes its topological order and variable masks once, on
  first use (O(|C|)), and every pass reads them.
- `model_count`, `is_consistent` and `is_valid` take one bottom-up sweep;
  counting does big-integer arithmetic of up to n bits per node.
- `entails_clause` and `is_implicant` take one sweep under the clause's
  negation or the term, and build no store.
- `condition_circuit` takes one sweep that builds a fresh, reduced store.
- `enumerate_models` streams its terms with O(n) time between consecutive
  terms, and materialises no conjunct's terms.
- `prob_equiv` takes one sweep per circuit per round.

Every pass is iterative, so no query depends on the recursion limit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .cnf import as_term
# `reachable` stays importable here because the benchmark's tracer rebinds it.
from .store import FALSE, TRUE, Circuit, NodeStore, reachable

# 2^61 - 1, a Mersenne prime; field for the polynomial identity test.
EQ_PRIME = (1 << 61) - 1
EQ_ROUNDS = 5


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


def _check_universe(universe: int, mentioned: int) -> None:
    if universe < mentioned:
        raise ValueError(
            "universe %d smaller than the %d variables mentioned" % (universe, mentioned)
        )


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
    mentioned = masks[circuit.root].bit_count()
    _check_universe(circuit.universe, mentioned)
    return counts[circuit.root] << (circuit.universe - mentioned)


def _assignment(term: frozenset[int], universe: int) -> dict[int, bool]:
    """Variable -> value for a normalized term that must fit the universe."""
    assigned = {abs(l): l > 0 for l in term}
    if len(assigned) > universe:
        raise ValueError("term assigns more variables than the universe holds")
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
    _check_universe(circuit.universe, masks[circuit.root].bit_count())
    return _decide_under(circuit, order, {}, validity=True)


def condition_circuit(circuit: Circuit, term: Iterable[int]) -> Circuit:
    """Assign the term's literals and rebuild bottom-up.

    The rewrite goes through a fresh store's constructors, so the result
    is reduced and stays in the source's language class (an ordered input
    keeps its order).  The universe shrinks by one per assigned variable,
    whether or not it occurs in the circuit.  It reads the source's order
    but not its masks, so it accepts circuits outside decision-DNNF.
    """
    t = as_term(term)
    assigned = _assignment(t, circuit.universe)
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
    return Circuit(out, remap[circuit.root], circuit.universe - len(assigned))


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
    assigned = _assignment(as_term([-l for l in lits]), circuit.universe)
    order, _ = annotate(circuit)
    return not _decide_under(circuit, order, assigned, validity=False)


def is_implicant(term: Iterable[int], circuit: Circuit) -> bool:
    """Does the term imply the circuit?

    One validity sweep under the term.  Inconsistent terms imply
    everything.  On a decision-DNNF circuit, answers and errors are those
    of `is_valid` on `condition_circuit(circuit, term)`, whose universe
    shrinks by the term's size.
    """
    try:
        t = as_term(term)
    except ValueError:
        return True
    assigned = _assignment(t, circuit.universe)
    order, masks = annotate(circuit)
    free = masks[circuit.root]
    for var in assigned:
        free &= ~(1 << (var - 1))
    if circuit.universe - len(assigned) < free.bit_count():
        # The term assigns variables the circuit never mentions, beyond the
        # universe's slack.  Whether the conditioned circuit still fits its
        # universe depends on what its reduction drops, so build it.
        return is_valid(condition_circuit(circuit, t))
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


@dataclass(frozen=True)
class EqVerdict:
    """Outcome of the probabilistic equivalence test.

    not-equivalent verdicts are certain; equivalent-probably carries a
    one-sided error bound of (universe / prime) per round.
    """

    outcome: str  # 'equivalent-probably' | 'not-equivalent'
    rounds: int
    prime: int
    error_bound: Fraction

    @property
    def equivalent(self) -> bool:
        return self.outcome == "equivalent-probably"


def _poly_eval(circuit: Circuit, order: list[int], point: list[int], p: int) -> int:
    """Evaluate the circuit's network polynomial at a field point, sweeping
    the reachable ids in `order` (topological, as from annotate).

    A variable absent below a node would contribute the factor
    r + (1 - r) = 1, so non-smooth gaps need no correction.
    """
    nodes = circuit.store.nodes
    vals = [0] * len(nodes)
    for nid in order:
        node = nodes[nid]
        kind = node[0]
        if kind == "D":
            _, var, low, high = node
            r = point[var]
            vals[nid] = ((1 - r) * vals[low] + r * vals[high]) % p
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

    Per round, draws one field element per universe variable and compares
    the two network polynomials at that point; any disagreement proves
    inequivalence, while agreement in every round bounds the error by
    (universe / prime)^rounds.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1, got %d" % rounds)
    if a.universe != b.universe:
        raise ValueError("universe mismatch: %d vs %d" % (a.universe, b.universe))
    order_a, masks_a = annotate(a)
    order_b, masks_b = annotate(b)
    # Conditioned circuits can mention indices above their count-universe;
    # size the random point by whatever actually occurs.
    width = max(
        a.universe,
        masks_a[a.root].bit_length(),
        masks_b[b.root].bit_length(),
    )
    p = EQ_PRIME
    rng = random.Random(seed)
    for done in range(1, rounds + 1):
        point = [0] + [rng.randrange(p) for _ in range(width)]
        if _poly_eval(a, order_a, point, p) != _poly_eval(b, order_b, point, p):
            return EqVerdict("not-equivalent", done, p, Fraction(0))
    return EqVerdict(
        "equivalent-probably", rounds, p, Fraction(a.universe, p) ** rounds
    )
