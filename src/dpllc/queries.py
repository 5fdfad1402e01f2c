"""Tractable queries over compiled circuits: consistency, validity, clausal
entailment, implicant, model counting, model enumeration, conditioning, and
a probabilistic equivalence test.

Counting does not require smooth circuits.  Each node is annotated with the
set of variables occurring at or below it (a bitmask); a child missing g of
the parent's variables contributes its count times 2^g, and the root count
scales by 2^(universe - |vars(root)|).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator

from .cnf import as_term
from .store import FALSE, TRUE, Circuit, NodeStore, reachable

# 2^61 - 1, a Mersenne prime; field for the polynomial identity test.
EQ_PRIME = (1 << 61) - 1
EQ_ROUNDS = 5


class LanguageError(ValueError):
    """The circuit is outside the language class the query needs."""


def variable_masks(
    store: NodeStore, order: list[int]
) -> tuple[dict[int, int], tuple[int, int] | None]:
    """Per-node bitmasks of the variables at or below each node of a
    topological order, plus its first violation of the properties the
    queries rely on, or None.

    A violation is (node id, variable): a decision whose branch variable
    occurs in a child, or a conjunction whose conjuncts share the variable.
    The pass stops there, so masks then cover only the nodes before it,
    which include everything below it.
    """
    masks: dict[int, int] = {}
    for nid in order:
        node = store.nodes[nid]
        kind = node[0]
        if kind in ("F", "T"):
            masks[nid] = 0
        elif kind == "L":
            masks[nid] = 1 << (abs(node[1]) - 1)
        elif kind == "D":
            _, var, low, high = node
            below = masks[low] | masks[high]
            bit = 1 << (var - 1)
            if below & bit:
                return masks, (nid, var)
            masks[nid] = below | bit
        else:
            acc = 0
            for c in node[1]:
                mask = masks[c]
                if acc & mask:
                    return masks, (nid, (acc & mask).bit_length())
                acc |= mask
            masks[nid] = acc
    return masks, None


def annotate(circuit: Circuit) -> tuple[list[int], dict[int, int]]:
    """Reachable ids in topological order plus per-node variable bitmasks.

    Raises LanguageError unless conjuncts share no variables and no
    decision's branch variable occurs in a child.  (Disjunctions are
    decision nodes by construction, so they are always deterministic.)
    """
    store = circuit.store
    order = reachable(store, circuit.root)
    masks, bad = variable_masks(store, order)
    if bad is not None:
        nid, var = bad
        if store.nodes[nid][0] == "D":
            raise LanguageError(
                "branch variable %d reappears below decision node %d" % (var, nid)
            )
        raise LanguageError("conjuncts of node %d share variable %d" % (nid, var))
    return order, masks


def model_count(circuit: Circuit) -> int:
    """Number of satisfying assignments over the circuit's universe."""
    order, masks = annotate(circuit)
    store = circuit.store
    counts: dict[int, int] = {}
    for nid in order:
        node = store.nodes[nid]
        kind = node[0]
        if kind == "F":
            counts[nid] = 0
        elif kind in ("T", "L"):
            counts[nid] = 1
        elif kind == "D":
            _, var, low, high = node
            here = masks[nid].bit_count() - 1
            counts[nid] = (counts[low] << (here - masks[low].bit_count())) + (
                counts[high] << (here - masks[high].bit_count())
            )
        else:
            acc = 1
            for c in node[1]:
                acc *= counts[c]
            counts[nid] = acc
    mentioned = masks[circuit.root].bit_count()
    if circuit.universe < mentioned:
        raise ValueError(
            "universe %d smaller than the %d variables mentioned" % (circuit.universe, mentioned)
        )
    return counts[circuit.root] << (circuit.universe - mentioned)


def is_consistent(circuit: Circuit) -> bool:
    """Satisfiability by a single bottom-up sweep."""
    order, _ = annotate(circuit)
    store = circuit.store
    sat: dict[int, bool] = {}
    for nid in order:
        node = store.nodes[nid]
        kind = node[0]
        if kind == "F":
            sat[nid] = False
        elif kind in ("T", "L"):
            sat[nid] = True
        elif kind == "D":
            sat[nid] = sat[node[2]] or sat[node[3]]
        else:
            sat[nid] = all(sat[c] for c in node[1])
    return sat[circuit.root]


def is_valid(circuit: Circuit) -> bool:
    """True iff every assignment over the universe satisfies the circuit."""
    return model_count(circuit) == 1 << circuit.universe


def condition_circuit(circuit: Circuit, term: Iterable[int]) -> Circuit:
    """Assign the term's literals and rebuild bottom-up.

    The rewrite goes through a fresh store's constructors, so the result
    is reduced and stays in the source's language class (an ordered input
    keeps its order).  The universe shrinks by one per assigned variable,
    whether or not it occurs in the circuit.
    """
    t = as_term(term)
    assigned = {abs(l): (l > 0) for l in t}
    if len(assigned) > circuit.universe:
        raise ValueError("term assigns more variables than the universe holds")
    src = circuit.store
    out = NodeStore()
    remap: dict[int, int] = {}
    for nid in reachable(src, circuit.root):
        node = src.nodes[nid]
        kind = node[0]
        if kind == "F":
            remap[nid] = FALSE
        elif kind == "T":
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
        else:
            kids = [remap[c] for c in node[1]]
            if FALSE in kids:
                remap[nid] = FALSE
            else:
                remap[nid] = out.get_and_node(kids)
    out.freeze()
    return Circuit(out, remap[circuit.root], circuit.universe - len(assigned))


def entails_clause(circuit: Circuit, clause: Iterable[int]) -> bool:
    """Does the circuit imply the clause?

    Conditions the circuit on the clause's negation and checks the result
    is inconsistent.  Tautologous clauses are entailed trivially and
    reported without conditioning.
    """
    lits = list(clause)
    if any(-l in lits for l in lits):
        return True
    if not lits:
        return not is_consistent(circuit)
    return not is_consistent(condition_circuit(circuit, [-l for l in lits]))


def is_implicant(term: Iterable[int], circuit: Circuit) -> bool:
    """Does the term imply the circuit?

    Conditions on the term and checks validity over the shrunken
    universe.  Inconsistent terms imply everything.
    """
    try:
        t = as_term(term)
    except ValueError:
        return True
    return is_valid(condition_circuit(circuit, t))


def enumerate_models(circuit: Circuit) -> Iterator[frozenset[int]]:
    """Stream pairwise-disjoint terms whose union is exactly the models.

    Each term is a partial assignment; variables it leaves out are free,
    so it stands for 2^(universe - len(term)) total assignments, and those
    weights sum to the model count.  Output size can be exponential.
    """
    annotate(circuit)  # structural preconditions only
    store = circuit.store

    def walk(nid: int) -> Iterator[frozenset[int]]:
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
            for combo in product(*(list(walk(c)) for c in node[1])):
                yield frozenset().union(*combo)

    return walk(circuit.root)


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
    store = circuit.store
    vals: dict[int, int] = {}
    for nid in order:
        node = store.nodes[nid]
        kind = node[0]
        if kind == "F":
            vals[nid] = 0
        elif kind == "T":
            vals[nid] = 1
        elif kind == "L":
            r = point[abs(node[1])]
            vals[nid] = r if node[1] > 0 else (1 - r) % p
        elif kind == "D":
            _, var, low, high = node
            r = point[var]
            vals[nid] = ((1 - r) * vals[low] + r * vals[high]) % p
        else:
            acc = 1
            for c in node[1]:
                acc = acc * vals[c] % p
            vals[nid] = acc
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
