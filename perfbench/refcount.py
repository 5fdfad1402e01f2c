"""Reference model counter for the benchmark's correctness gate.

Deliberately shares no code with dpllc: clauses are plain tuples of DIMACS
literals, and the search is a textbook exhaustive DPLL counter with unit
propagation, connected-component decomposition and a component cache
keyed by the component's clause set.  The benchmark's tests check it
against a truth table.
"""

from __future__ import annotations


def _assign(clauses, lit):
    """Clauses after making `lit` true, or None when one becomes empty."""
    out = []
    neg = -lit
    for cl in clauses:
        if lit in cl:
            continue
        if neg in cl:
            cl = tuple(l for l in cl if l != neg)
            if not cl:
                return None
        out.append(cl)
    return out


def _components(clauses):
    """Variable-disjoint groups of clauses (union-find over variables)."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cl in clauses:
        vs = [abs(l) for l in cl]
        for v in vs:
            parent.setdefault(v, v)
        root = find(vs[0])
        for v in vs[1:]:
            other = find(v)
            if other != root:
                parent[other] = root
    groups = {}
    for cl in clauses:
        groups.setdefault(find(abs(cl[0])), []).append(cl)
    return list(groups.values())


class Counter:
    """Exact #SAT over an explicit variable set, with a component cache."""

    def __init__(self):
        self.cache: dict[frozenset, int] = {}

    def count(self, clauses, num_vars: int) -> int:
        """Models of the clause list over variables 1..num_vars."""
        for cl in clauses:
            for lit in cl:
                if not 1 <= abs(lit) <= num_vars:
                    raise ValueError("literal %d outside 1..%d" % (lit, num_vars))
        cleaned = []
        for cl in clauses:
            lits = tuple(sorted(set(cl), key=abs))
            if any(-l in lits for l in lits):
                continue  # tautology
            if not lits:
                return 0
            cleaned.append(lits)
        return self._count(cleaned, num_vars)

    def _count(self, clauses, free_vars: int) -> int:
        # free_vars: how many unassigned variables this residual ranges over.
        while True:
            unit = next((cl[0] for cl in clauses if len(cl) == 1), None)
            if unit is None:
                break
            clauses = _assign(clauses, unit)
            if clauses is None:
                return 0
            free_vars -= 1
        total = 1
        mentioned = 0
        for comp in _components(clauses):
            width = len({abs(l) for cl in comp for l in cl})
            mentioned += width
            total *= self._component(comp, width)
            if total == 0:
                return 0
        return total << (free_vars - mentioned)

    def _component(self, comp, width: int) -> int:
        key = frozenset(comp)
        got = self.cache.get(key)
        if got is not None:
            return got
        occ: dict[int, int] = {}
        for cl in comp:
            for lit in cl:
                occ[abs(lit)] = occ.get(abs(lit), 0) + 1
        var = max(occ, key=lambda v: (occ[v], -v))
        result = 0
        for lit in (var, -var):
            rest = _assign(comp, lit)
            if rest is not None:
                result += self._count(rest, width - 1)
        self.cache[key] = result
        return result


def count_models(clauses, num_vars: int) -> int:
    """Models of a CNF (iterable of literal tuples) over 1..num_vars."""
    return Counter().count([tuple(cl) for cl in clauses], num_vars)


def satisfies(term, clauses) -> bool:
    """Does every total extension of the partial assignment satisfy the CNF?

    True exactly when each clause contains a literal of the term.
    """
    lits = set(term)
    return all(any(l in lits for l in cl) for cl in clauses)


def find_model(clauses, num_vars: int) -> list[int] | None:
    """Some total satisfying assignment as a list of literals indexed by
    variable - 1, or None when the CNF is unsatisfiable."""
    clauses = [tuple(cl) for cl in clauses]
    trail: list[int] = []

    def search(cls) -> bool:
        while True:
            if not cls:
                return True
            unit = next((cl[0] for cl in cls if len(cl) == 1), None)
            if unit is None:
                break
            trail.append(unit)
            cls = _assign(cls, unit)
            if cls is None:
                return False
        var = abs(cls[0][0])
        for lit in (var, -var):
            mark = len(trail)
            rest = _assign(cls, lit)
            trail.append(lit)
            if rest is not None and search(rest):
                return True
            del trail[mark:]
        return False

    if any(not cl for cl in clauses) or not search(clauses):
        return None
    chosen = {abs(l): l for l in trail}
    return [chosen.get(v, v) for v in range(1, num_vars + 1)]
