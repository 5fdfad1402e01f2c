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

from array import array
from dataclasses import dataclass
from functools import cached_property

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

    `order` and `masks` are computed on first use and kept, since the ids
    reachable from a root never change in the append-only arena.  Callers
    must not modify them.
    """

    store: NodeStore
    root: int
    universe: int

    def __post_init__(self):
        self.store._check_id(self.root)
        if self.universe < 0:
            raise ValueError("negative universe")

    @cached_property
    def order(self) -> list[int]:
        """Reachable ids in topological order (children first)."""
        return reachable(self.store, self.root)

    @cached_property
    def masks(self) -> tuple[list[int], tuple[int, int] | None]:
        """`variable_masks` over `order`."""
        return variable_masks(self.store, self.order)


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


def variable_masks(
    store: NodeStore, order: list[int]
) -> tuple[list[int], tuple[int, int] | None]:
    """Per-node bitmasks of the variables at or below each node of a
    topological order (a list indexed by node id), plus its first
    violation of the properties the queries rely on, or None.

    A violation is (node id, variable): a decision whose branch variable
    occurs in a child, or a conjunction whose conjuncts share the variable.
    The pass stops there, so masks then cover only the nodes before it,
    which include everything below it.
    """
    nodes = store.nodes
    masks = [0] * len(nodes)
    for nid in order:
        node = nodes[nid]
        kind = node[0]
        if kind == "L":
            masks[nid] = 1 << (abs(node[1]) - 1)
        elif kind == "D":
            _, var, low, high = node
            below = masks[low] | masks[high]
            bit = 1 << (var - 1)
            if below & bit:
                return masks, (nid, var)
            masks[nid] = below | bit
        elif kind == "A":
            acc = 0
            for c in node[1]:
                mask = masks[c]
                if acc & mask:
                    return masks, (nid, (acc & mask).bit_length())
                acc |= mask
            masks[nid] = acc
    return masks, None


def stats(circuit: Circuit) -> tuple[int, int]:
    """(node count, edge count) of the subgraph reachable from the root."""
    edges = 0
    for nid in circuit.order:
        node = circuit.store.nodes[nid]
        if node[0] == "D":
            edges += 2
        elif node[0] == "A":
            edges += len(node[1])
    return len(circuit.order), edges


def serialize(circuit: Circuit) -> str:
    """Render a circuit in the plain-text nnf format.

    Header `nnf V E N`, then one node line per row, children before
    parents: `L lit`, `A k c1 .. ck`, `O var 2 a b`; the false and true
    sinks are `O 0 0` and `A 0`.  Decision nodes are expanded: child a is
    the conjunction of the negative branch literal with the low child,
    child b the positive literal with the high child.  Shared structure is
    emitted once, so a line may serve several parents.

    One iterative pass over the reachable nodes; a line's text is built
    only when it is first emitted, so time and memory are linear in the
    text.
    """
    nodes = circuit.store.nodes
    lines: list[str] = []
    # Line of each literal (int key) and conjunction (sorted tuple key);
    # decisions and sinks need no memo, since reachable lists each id once
    # and the store is hash-consed.
    memo: dict = {}
    line_of = [0] * len(nodes)
    edges = 0

    def emit(key, text: str, degree: int) -> int:
        nonlocal edges
        got = memo[key] = len(lines)
        lines.append(text)
        edges += degree
        return got

    for nid in circuit.order:
        node = nodes[nid]
        kind = node[0]
        if kind == "D":
            _, var, low, high = node
            neg = memo.get(-var)
            if neg is None:
                neg = emit(-var, "L %d" % -var, 0)
            pos = memo.get(var)
            if pos is None:
                pos = emit(var, "L %d" % var, 0)
            lo = line_of[low]
            part = (neg, lo) if neg < lo else (lo, neg)
            a = memo.get(part)
            if a is None:
                a = emit(part, "A 2 %d %d" % part, 2)
            hi = line_of[high]
            part = (pos, hi) if pos < hi else (hi, pos)
            b = memo.get(part)
            if b is None:
                b = emit(part, "A 2 %d %d" % part, 2)
            got = len(lines)
            lines.append("O %d 2 %d %d" % (var, a, b))
            edges += 2
        elif kind == "A":
            parts = tuple(sorted([line_of[c] for c in node[1]]))
            got = memo.get(parts)
            if got is None:
                text = "A %d %s" % (len(parts), " ".join(map(str, parts)))
                got = emit(parts, text, len(parts))
        elif kind == "L":
            got = memo.get(node[1])
            if got is None:
                got = emit(node[1], "L %d" % node[1], 0)
        else:
            got = len(lines)
            lines.append("O 0 0" if kind == "F" else "A 0")
        line_of[nid] = got
    lines.insert(0, "nnf %d %d %d" % (len(lines), edges, circuit.universe))
    lines.append("")
    return "\n".join(lines)


# Kinds of parsed node lines.
_L, _A, _O, _F = range(4)


def _parse_records(text: str) -> tuple[int, bytearray, list, array]:
    """Validate every line of an nnf text.

    Returns (universe, kinds, data, linenos): for node line i, kinds[i] is
    _L, _A, _O or _F; data[i] its literal, its tuple of child lines, its
    (var, a, b), or None; linenos[i] its 1-based line in the text.
    """
    header = None
    kinds = bytearray()
    data: list = []
    linenos = array("i")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "c":
            continue
        if header is None:
            if fields[0] != "nnf" or len(fields) != 4:
                raise NnfFormatError("expected header 'nnf V E N', got %r" % raw.strip(), lineno)
            try:
                header = tuple(int(f) for f in fields[1:])
            except ValueError:
                raise NnfFormatError("non-numeric header field", lineno) from None
            continue
        try:
            args = tuple(map(int, fields[1:]))
        except ValueError:
            raise NnfFormatError("non-numeric field in %r" % raw.strip(), lineno) from None
        idx = len(data)
        kind = fields[0]
        if kind == "A":
            refs = args[1:]
            if not args or args[0] != len(refs):
                raise NnfFormatError("child count mismatch in %r" % raw.strip(), lineno)
            if refs and (min(refs) < 0 or max(refs) >= idx):
                _bad_reference(refs, idx, lineno)
            kinds.append(_A)
            data.append(refs)
        elif kind == "L":
            if len(args) != 1 or args[0] == 0:
                raise NnfFormatError("malformed literal line %r" % raw.strip(), lineno)
            kinds.append(_L)
            data.append(args[0])
        elif kind == "O":
            if args == (0, 0):
                kinds.append(_F)
                data.append(None)
            else:
                if len(args) != 4 or args[1] != 2 or args[0] <= 0:
                    raise NnfFormatError("malformed decision line %r" % raw.strip(), lineno)
                _, _, a, b = args
                if not (0 <= a < idx and 0 <= b < idx):
                    _bad_reference((a, b), idx, lineno)
                kinds.append(_O)
                data.append((args[0], a, b))
        else:
            raise NnfFormatError("unknown node kind %r" % kind, lineno)
        linenos.append(lineno)
    if header is None:
        raise NnfFormatError("missing header")
    declared_v, _, universe = header
    if len(data) != declared_v:
        raise NnfFormatError("header declares %d nodes, found %d" % (declared_v, len(data)))
    if universe < 0:
        raise NnfFormatError("negative universe in header")
    return universe, kinds, data, linenos


def _bad_reference(refs, idx: int, lineno: int) -> None:
    for ref in refs:
        if not 0 <= ref < idx:
            raise NnfFormatError("reference %d not to an earlier line" % ref, lineno)


def parse_nnf(text: str) -> Circuit:
    """Parse the nnf format back into a circuit (fresh store, frozen).

    `O var 2 a b` lines are folded back into decision nodes by looking
    inside their children for the branch literal; everything else is
    rebuilt through the store constructors, so reduction re-fires and the
    result is reduced no matter who produced the file.

    Two iterative passes, each linear in the text: validate every line;
    then walk once from the root (the last line), children first, checking
    each reached decision's branches and each conjunction's children and
    building each reached line as the walk leaves it.
    """
    universe, kinds, data, linenos = _parse_records(text)
    n = len(kinds)
    if not n:
        raise NnfFormatError("empty node section")
    # No bound check of variables against the universe: circuits produced by
    # conditioning keep their variable indices while the universe shrinks to
    # a count of unassigned variables.

    def branch(line: int, want: int, at: int) -> tuple[int, ...]:
        # Lines a decision child needs built: all but the branch literal.
        # A bare literal line is a branch to true.
        kind = kinds[line]
        if kind == _L:
            if data[line] == want:
                return ()
        elif kind == _A:
            refs = data[line]
            for k, r in enumerate(refs):
                if kinds[r] == _L and data[r] == want:
                    return refs[:k] + refs[k + 1 :]
        else:
            raise NnfFormatError("decision child is not a conjunction", linenos[at])
        raise NnfFormatError("decision child lacks branch literal", linenos[at])

    def fold(deps: tuple[int, ...]) -> int:
        # One decision branch: the conjunction of its dependencies' nodes.
        if len(deps) == 1:
            return built[deps[0]]
        ids = [built[r] for r in deps]
        return FALSE if FALSE in ids else store.get_and_node(ids)

    # built[i] is line i's node id once the walk has left it, else -1.
    # Leaves are built on entry; a conjunction at its exit frame ~i, and a
    # decision at its exit frame, which sits on top of its two dependency
    # tuples.
    store = NodeStore()
    built = [-1] * n
    stack: list = [n - 1]
    while stack:
        i = stack.pop()
        if i >= 0:
            if built[i] >= 0:
                continue
            kind = kinds[i]
            if kind == _A:
                stack.append(~i)
                stack.extend(data[i])
            elif kind == _O:
                var, a, b = data[i]
                lo = branch(a, -var, i)
                hi = branch(b, var, i)
                stack += (lo, hi, ~i)
                stack.extend(lo)
                stack.extend(hi)
            else:
                built[i] = FALSE if kind == _F else store.literal(data[i])
            continue
        i = ~i
        if kinds[i] == _A:
            refs = data[i]
            ids = [built[r] for r in refs]
            if FALSE in ids:
                raise NnfFormatError("false sink under a conjunction", linenos[i])
            built[i] = store.get_and_node(ids)
        else:
            hi = stack.pop()
            lo = fold(stack.pop())
            built[i] = store.get_node(data[i][0], lo, fold(hi))
    store.freeze()
    return Circuit(store, built[n - 1], universe)
