"""CNF formulas and DIMACS parsing.

Literals follow the DIMACS convention: variable x is the positive integer x,
its negation is -x.  Every clause keeps the index it had in the input
formula, so residual formulas obtained by conditioning stay identifiable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable

log = logging.getLogger(__name__)


class DimacsError(ValueError):
    """Malformed DIMACS input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


def _check_clause(lits: tuple[int, ...], num_vars: int) -> None:
    seen = set()
    for lit in lits:
        v = abs(lit)
        if not 1 <= v <= num_vars:
            raise ValueError("literal %d outside universe 1..%d" % (lit, num_vars))
        if v in seen:
            raise ValueError("variable %d appears twice in clause %s" % (v, (lits,)))
        seen.add(v)


@dataclass(frozen=True)
class Cnf:
    """Immutable clause set over variables 1..num_vars.

    `clauses` holds (original_index, literals) pairs in increasing index
    order; an empty literal tuple is the empty (contradictory) clause.
    Variables declared in the universe but absent from every clause still
    count toward model counts (factor 2 each).
    """

    num_vars: int
    clauses: tuple[tuple[int, tuple[int, ...]], ...]
    dropped_tautologies: int = field(default=0, compare=False)

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("negative variable universe")
        normalized = tuple(sorted(((i, tuple(ls)) for i, ls in self.clauses)))
        prev = -1
        for idx, lits in normalized:
            if idx < 0:
                raise ValueError("negative clause index %d" % idx)
            if idx <= prev:
                raise ValueError("duplicate clause index %d" % idx)
            prev = idx
            _check_clause(lits, self.num_vars)
        object.__setattr__(self, "clauses", normalized)

    @classmethod
    def from_clauses(cls, clause_lists: Iterable[Iterable[int]], num_vars: int) -> "Cnf":
        """Build a Cnf assigning clause indices 0, 1, ... in the given order."""
        return cls(num_vars, tuple((i, tuple(c)) for i, c in enumerate(clause_lists)))

    def variables(self) -> set[int]:
        return {abs(lit) for _, lits in self.clauses for lit in lits}

    def has_empty_clause(self) -> bool:
        return any(not lits for _, lits in self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)


def parse_dimacs(text: str) -> Cnf:
    """Parse DIMACS CNF text into a Cnf.

    Comment lines start with 'c'; the header is `p cnf <vars> <clauses>`;
    clauses are zero-terminated and may span lines.  A '%' token ends the
    clause section (common trailer in distributed benchmark files).
    Duplicate literals within a clause are dropped; tautologous clauses are
    dropped entirely and counted, with a warning.
    """
    num_vars = -1
    declared = -1
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    pending_line = 0
    tautologies = 0
    done = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars >= 0:
                raise DimacsError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError("malformed header %r" % line, lineno)
            try:
                num_vars, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError("malformed header %r" % line, lineno) from None
            if num_vars < 0 or declared < 0:
                raise DimacsError("negative counts in header", lineno)
            continue
        if num_vars < 0:
            raise DimacsError("clause before header", lineno)
        for tok in line.split():
            if tok == "%":
                done = True
                break
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError("bad token %r" % tok, lineno) from None
            if lit == 0:
                seen: dict[int, int] = {}
                taut = False
                for l in pending:
                    if seen.get(abs(l), l) != l:
                        taut = True
                    seen.setdefault(abs(l), l)
                if taut:
                    tautologies += 1
                else:
                    clauses.append(tuple(seen.values()))
                pending = []
            else:
                if abs(lit) > num_vars:
                    raise DimacsError(
                        "variable %d exceeds declared universe %d" % (abs(lit), num_vars),
                        lineno,
                    )
                if not pending:
                    pending_line = lineno
                pending.append(lit)
        if done:
            break

    if num_vars < 0:
        raise DimacsError("missing header")
    if pending:
        raise DimacsError("clause missing 0 terminator", pending_line)
    if len(clauses) + tautologies != declared:
        raise DimacsError(
            "header declares %d clauses, found %d" % (declared, len(clauses) + tautologies)
        )
    if tautologies:
        log.warning("dropped %d tautologous clause(s)", tautologies)
    return Cnf(
        num_vars,
        tuple((i, lits) for i, lits in enumerate(clauses)),
        dropped_tautologies=tautologies,
    )


def as_term(lits: Iterable[int]) -> frozenset[int]:
    """Normalize a partial assignment; rejects contradictory literal pairs."""
    term = frozenset(lits)
    for lit in term:
        if lit == 0:
            raise ValueError("0 is not a literal")
        if -lit in term:
            raise ValueError("term assigns variable %d both ways" % abs(lit))
    return term
