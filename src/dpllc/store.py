"""Hash-consed NNF node arena with construction-time reduction rules.

Nodes live in an append-only arena as plain tuples and are referred to by
integer ids; ids 0 and 1 are the false and true sinks of every store.

    ('F',)                  false sink, id 0
    ('T',)                  true sink, id 1
    ('L', lit)              literal leaf (signed int)
    ('D', var, low, high)   decision: (not var and low) or (var and high)
    ('A', children)         conjunction; children is a sorted tuple of ids

Reduction is an invariant, not a post-pass: the unique table never stores
two structurally identical nodes, get_node never creates a decision with
equal children, and conjunctions are flattened, de-duplicated, constant
free and at least binary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

FALSE = 0
TRUE = 1


class StoreError(Exception):
    pass


class NnfFormatError(ValueError):
    """Malformed circuit file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class NodeStore:
    """Arena of reduced NNF nodes with unique tables.

    Single writer while compiling; freeze() afterwards makes the store
    immutable so circuits can be shared across threads.
    """

    def __init__(self):
        self.nodes: list[tuple] = [("F",), ("T",)]
        self._unique: dict[tuple, int] = {("F",): FALSE, ("T",): TRUE}
        self.frozen = False

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, nid: int) -> tuple:
        return self.nodes[nid]

    def _intern(self, node: tuple) -> int:
        existing = self._unique.get(node)
        if existing is not None:
            return existing
        if self.frozen:
            raise StoreError("store is frozen")
        nid = len(self.nodes)
        self.nodes.append(node)
        self._unique[node] = nid
        return nid

    def _check_id(self, nid: int) -> None:
        if not 0 <= nid < len(self.nodes):
            raise StoreError("invalid node id %d" % nid)

    def literal(self, lit: int) -> int:
        if lit == 0:
            raise StoreError("0 is not a literal")
        return self._intern(("L", lit))

    def get_node(self, var: int, low: int, high: int) -> int:
        """Decision node on var, reduced: equal children collapse to the child."""
        if var < 1:
            raise StoreError("decision variable must be positive, got %d" % var)
        self._check_id(low)
        self._check_id(high)
        if low == high:
            return low
        return self._intern(("D", var, low, high))

    def get_and_node(self, children) -> int:
        """Conjunction of children, normalized.

        True sinks are absorbed, nested conjunctions inlined, duplicates
        dropped; an empty result is the true sink and a singleton is the
        child itself.  A false sink among the children is a contract
        violation: callers must return the false sink directly instead.
        """
        flat: set[int] = set()
        for c in children:
            self._check_id(c)
            if c == FALSE:
                raise StoreError("false sink among conjuncts")
            if c == TRUE:
                continue
            node = self.nodes[c]
            if node[0] == "A":
                flat.update(node[1])
            else:
                flat.add(c)
        if not flat:
            return TRUE
        if len(flat) == 1:
            return next(iter(flat))
        return self._intern(("A", tuple(sorted(flat))))

    def freeze(self) -> None:
        self.frozen = True

    def audit(self) -> None:
        """Re-verify the arena invariants; raises StoreError on violation."""
        seen: dict[tuple, int] = {}
        for nid, node in enumerate(self.nodes):
            dup = seen.get(node)
            if dup is not None:
                raise StoreError("nodes %d and %d are structurally identical" % (dup, nid))
            seen[node] = nid
            kind = node[0]
            if kind in ("F", "T"):
                if nid > 1:
                    raise StoreError("sink at non-reserved id %d" % nid)
            elif kind == "L":
                if node[1] == 0:
                    raise StoreError("zero literal at node %d" % nid)
            elif kind == "D":
                _, var, low, high = node
                if low == high:
                    raise StoreError("decision %d has identical children" % nid)
                if low >= nid or high >= nid:
                    raise StoreError("decision %d references a later node" % nid)
            elif kind == "A":
                ch = node[1]
                if len(ch) < 2:
                    raise StoreError("conjunction %d has fewer than two children" % nid)
                if list(ch) != sorted(set(ch)):
                    raise StoreError("conjunction %d children not sorted/unique" % nid)
                for c in ch:
                    if c >= nid:
                        raise StoreError("conjunction %d references a later node" % nid)
                    if c in (FALSE, TRUE):
                        raise StoreError("conjunction %d has a constant child" % nid)
                    if self.nodes[c][0] == "A":
                        raise StoreError("conjunction %d has a nested conjunction" % nid)
            else:
                raise StoreError("unknown node kind %r" % (kind,))


@dataclass(frozen=True, eq=False)
class Circuit:
    """A root in a node store plus the variable universe it ranges over.

    For freshly compiled circuits every variable mentioned below the root
    is <= universe; conditioning shrinks the universe to a plain count of
    unassigned variables, so treat universe as a count, not an index bound.

    `annotation` caches `queries.annotate`'s (order, masks) once it has
    succeeded.  The ids reachable from a root never change in the
    append-only arena, so the cache cannot go stale.
    """

    store: NodeStore
    root: int
    universe: int
    annotation: tuple[list[int], list[int]] | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self):
        self.store._check_id(self.root)
        if self.universe < 0:
            raise ValueError("negative universe")


def reachable(store: NodeStore, root: int) -> list[int]:
    """Ids reachable from root in topological order (children first)."""
    order: list[int] = []
    seen: set[int] = set()
    stack: list[tuple[int, bool]] = [(root, False)]
    while stack:
        nid, expanded = stack.pop()
        if expanded:
            order.append(nid)
            continue
        if nid in seen:
            continue
        seen.add(nid)
        stack.append((nid, True))
        node = store.nodes[nid]
        kind = node[0]
        if kind == "D":
            kids = (node[2], node[3])
        elif kind == "A":
            kids = node[1]
        else:
            kids = ()
        for c in kids:
            if c not in seen:
                stack.append((c, False))
    return order


def stats(circuit: Circuit) -> tuple[int, int]:
    """(node count, edge count) of the subgraph reachable from the root."""
    nodes = 0
    edges = 0
    for nid in reachable(circuit.store, circuit.root):
        nodes += 1
        node = circuit.store.nodes[nid]
        if node[0] == "D":
            edges += 2
        elif node[0] == "A":
            edges += len(node[1])
    return nodes, edges


def serialize(circuit: Circuit) -> str:
    """Render a circuit in the plain-text nnf format.

    Header `nnf V E N`, then one node line per row, children before
    parents: `L lit`, `A k c1 .. ck`, `O var 2 a b`; the false and true
    sinks are `O 0 0` and `A 0`.  Decision nodes are expanded: child a is
    the conjunction of the negative branch literal with the low child,
    child b the positive literal with the high child.  Shared structure is
    emitted once, so a line may serve several parents.
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
    out = ["nnf %d %d %d" % (len(lines), edges, circuit.universe)]
    out.extend(lines)
    return "\n".join(out) + "\n"


def _parse_records(text: str) -> tuple[int, int, int, list[tuple]]:
    header = None
    records: list[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if header is None:
            if fields[0] != "nnf" or len(fields) != 4:
                raise NnfFormatError("expected header 'nnf V E N', got %r" % line, lineno)
            try:
                header = tuple(int(f) for f in fields[1:])
            except ValueError:
                raise NnfFormatError("non-numeric header field", lineno) from None
            continue
        try:
            args = [int(f) for f in fields[1:]]
        except ValueError:
            raise NnfFormatError("non-numeric field in %r" % line, lineno) from None
        idx = len(records)
        if fields[0] == "L":
            if len(args) != 1 or args[0] == 0:
                raise NnfFormatError("malformed literal line %r" % line, lineno)
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
    return declared_v, declared_e, universe, records


def parse_nnf(text: str) -> Circuit:
    """Parse the nnf format back into a circuit (fresh store, frozen).

    `O var 2 a b` lines are folded back into decision nodes by looking
    inside their children for the branch literal; everything else is
    rebuilt through the store constructors, so reduction re-fires and the
    result is reduced no matter who produced the file.
    """
    _, _, universe, records = _parse_records(text)
    if not records:
        raise NnfFormatError("empty node section")
    store = NodeStore()
    # No bound check of variables against the universe: circuits produced by
    # conditioning keep their variable indices while the universe shrinks to
    # a count of unassigned variables.

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
    return Circuit(store, built[root_line], universe)
