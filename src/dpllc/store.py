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

Circuits are stored as nnf text by `serialize` and read back by
`parse_nnf`.  Both are iterative and linear in the text: in the common
case a node line costs one dispatch and no helper call in each direction,
and neither depends on the bound N, since fixed variables are listed off
their mask by `mask_bits` and checked against a set while reading.
"""

from __future__ import annotations

import re
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

    def _add(self, node: tuple, nid: int) -> int:
        """Append a node the unique table lacks; nid must be len(self.nodes)."""
        if self.frozen:
            raise StoreError("store is frozen")
        self.nodes.append(node)
        self._unique[node] = nid
        return nid

    def _check_id(self, nid: int) -> None:
        if not 0 <= nid < len(self.nodes):
            raise StoreError("invalid node id %d" % nid)

    # The constructors check ids inline against one length read and probe
    # the unique table once: they run once per node built, so a helper
    # call per check is a measurable share of compiling and conditioning.

    def literal(self, lit: int) -> int:
        if lit == 0:
            raise StoreError("0 is not a literal")
        node = ("L", lit)
        nid = self._unique.get(node)
        return self._add(node, len(self.nodes)) if nid is None else nid

    def get_node(self, var: int, low: int, high: int) -> int:
        """Decision node on var, reduced: equal children collapse to the child."""
        if var < 1:
            raise StoreError("decision variable must be positive, got %d" % var)
        n = len(self.nodes)
        if not 0 <= low < n:
            raise StoreError("invalid node id %d" % low)
        if not 0 <= high < n:
            raise StoreError("invalid node id %d" % high)
        if low == high:
            return low
        node = ("D", var, low, high)
        nid = self._unique.get(node)
        return self._add(node, n) if nid is None else nid

    def get_and_node(self, children) -> int:
        """Conjunction of children, normalized.

        True sinks are absorbed, nested conjunctions inlined, duplicates
        dropped; an empty result is the true sink and a singleton is the
        child itself.  A false sink among the children is a contract
        violation: callers must return the false sink directly instead.
        """
        nodes = self.nodes
        n = len(nodes)
        flat: set[int] = set()
        for c in children:
            if not 0 <= c < n:
                raise StoreError("invalid node id %d" % c)
            if c == FALSE:
                raise StoreError("false sink among conjuncts")
            if c == TRUE:
                continue
            node = nodes[c]
            if node[0] == "A":
                flat.update(node[1])
            else:
                flat.add(c)
        if not flat:
            return TRUE
        if len(flat) == 1:
            return next(iter(flat))
        node = ("A", tuple(sorted(flat)))
        nid = self._unique.get(node)
        return self._add(node, n) if nid is None else nid

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
    """A root in a node store plus the variables it ranges over.

    Those are 1..num_vars outside `fixed`, a bitmask (bit v - 1 for v) of
    the variables in 1..num_vars that conditioning assigned; `universe`
    counts them.

    `order` and `masks` are computed on first use and kept, since the ids
    reachable from a root never change in the append-only arena.  Callers
    must not modify them.
    """

    store: NodeStore
    root: int
    num_vars: int
    fixed: int = 0

    def __post_init__(self):
        self.store._check_id(self.root)
        if self.num_vars < 0:
            raise ValueError("negative universe")
        if self.fixed < 0:
            raise ValueError("negative fixed mask")
        if self.fixed >> self.num_vars:
            raise ValueError("fixed mask names a variable above %d" % self.num_vars)

    @property
    def universe(self) -> int:
        return self.num_vars - self.fixed.bit_count()

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


# A nonzero byte, and the 1-based set bits of each byte value.
_NONZERO_BYTE = re.compile(rb"[^\x00]")
_BYTE_BITS = [tuple(k + 1 for k in range(8) if b >> k & 1) for b in range(256)]


def mask_bits(mask: int) -> list[int]:
    """The variables of a bitmask (bit v - 1 for v), ascending.

    A regular expression finds the nonzero bytes of the mask in C, so the
    cost is one pass over its bytes plus one Python step per nonzero
    byte, not one per variable below the highest.
    """
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    out: list[int] = []
    for hit in _NONZERO_BYTE.finditer(raw):
        pos = hit.start()
        out.extend([8 * pos + k for k in _BYTE_BITS[raw[pos]]])
    return out


def _mask_of(variables) -> int:
    """The bitmask of a collection of positive variables, built in one pass."""
    buf = bytearray((max(variables, default=0) + 7) // 8)
    for v in variables:
        buf[(v - 1) >> 3] |= 1 << ((v - 1) & 7)
    return int.from_bytes(buf, "little")


# serialize joins its lines once per block of this many nodes, so a large
# circuit's lines are never all held as separate strings.
_BLOCK = 4096


def serialize(circuit: Circuit) -> str:
    """Render a circuit in the plain-text nnf format.

    Header `nnf V E N` (N is num_vars; `c fixed v1 .. vk` follows if any
    are fixed), then one node line per row, children before parents:
    `L lit`, `A k c1 .. ck`, `O var 2 a b`; the false and true sinks are
    `O 0 0` and `A 0`.  Decision nodes are expanded: child a is the
    conjunction of the negative branch literal with the low child, child b
    the positive literal with the high child.  Shared structure is emitted
    once, so a line may serve several parents.

    One iterative pass over the reachable nodes.  A node costs one
    dispatch and a few dict probes, and a line's text is built only when
    it is first emitted, so time and memory are linear in the text; the
    `c fixed` line is read off the mask by `mask_bits`, so neither
    depends on N.
    """
    nodes = circuit.store.nodes
    order = circuit.order
    # Line of each literal, and of each conjunction: a two-part one (every
    # decision branch) keyed by the int x * span + y of its sorted child
    # lines x < y, any other by its sorted tuple.  A node emits at most
    # five lines, so span exceeds every line index.  Decisions and sinks
    # need no memo, since reachable lists each id once and the store is
    # hash-consed.
    span = 5 * len(order) + 1
    lit_line: dict[int, int] = {}
    and_line: dict = {}
    line_of = [0] * len(nodes)
    blocks: list[str] = []
    count = edges = 0
    for start in range(0, len(order), _BLOCK):
        lines: list[str] = []
        emit = lines.append
        for nid in order[start : start + _BLOCK]:
            node = nodes[nid]
            kind = node[0]
            if kind == "D":
                _, var, low, high = node
                neg = lit_line.get(-var)
                if neg is None:
                    neg = lit_line[-var] = count
                    count += 1
                    emit(f"L {-var}")
                pos = lit_line.get(var)
                if pos is None:
                    pos = lit_line[var] = count
                    count += 1
                    emit(f"L {var}")
                lo = line_of[low]
                key = lo * span + neg if lo < neg else neg * span + lo
                a = and_line.get(key)
                if a is None:
                    a = and_line[key] = count
                    count += 1
                    emit(f"A 2 {lo} {neg}" if lo < neg else f"A 2 {neg} {lo}")
                    edges += 2
                hi = line_of[high]
                key = hi * span + pos if hi < pos else pos * span + hi
                b = and_line.get(key)
                if b is None:
                    b = and_line[key] = count
                    count += 1
                    emit(f"A 2 {hi} {pos}" if hi < pos else f"A 2 {pos} {hi}")
                    edges += 2
                got = count
                count += 1
                emit(f"O {var} 2 {a} {b}")
                edges += 2
            elif kind == "A":
                kids = node[1]
                if len(kids) == 2:
                    x = line_of[kids[0]]
                    y = line_of[kids[1]]
                    key = x * span + y if x < y else y * span + x
                    got = and_line.get(key)
                    if got is None:
                        got = and_line[key] = count
                        count += 1
                        emit(f"A 2 {x} {y}" if x < y else f"A 2 {y} {x}")
                        edges += 2
                else:
                    parts = tuple(sorted([line_of[c] for c in kids]))
                    got = and_line.get(parts)
                    if got is None:
                        got = and_line[parts] = count
                        count += 1
                        emit("A %d %s" % (len(parts), " ".join(map(str, parts))))
                        edges += len(parts)
            elif kind == "L":
                got = lit_line.get(node[1])
                if got is None:
                    got = lit_line[node[1]] = count
                    count += 1
                    emit(f"L {node[1]}")
            else:
                got = count
                count += 1
                emit("O 0 0" if kind == "F" else "A 0")
            line_of[nid] = got
        if lines:
            blocks.append("\n".join(lines))
    header = "nnf %d %d %d" % (count, edges, circuit.num_vars)
    if circuit.fixed:
        header += "\nc fixed " + " ".join(map(str, mask_bits(circuit.fixed)))
    return "\n".join([header, *blocks, ""])


# Kinds of parsed node lines.
_L, _A, _O, _F = range(4)


def _parse_records(text: str) -> tuple[int, int, bytearray, list]:
    """Validate every line of an nnf text.

    Returns (N, fixed, kinds, data): for node line i, kinds[i] is _L, _A,
    _O or _F, and data[i] its literal, its tuple of child lines, its
    fields (var, 2, a, b), or None.  `A` lines, the most frequent, take
    the first test and `O` lines the next after one comment test, each
    with its checks inline; fixed variables are tested against a set, and
    their mask is built once at the end.
    """
    numbered = enumerate(text.splitlines(), start=1)
    for lineno, raw in numbered:
        fields = raw.split()
        if fields and (fields[0][0] != "c" or fields[:2] == ["c", "fixed"]):
            break
    else:
        raise NnfFormatError("missing header")
    if fields[0] != "nnf" or len(fields) != 4:
        raise NnfFormatError("expected header 'nnf V E N', got %r" % raw.strip(), lineno)
    try:
        declared, _, n = map(int, fields[1:])
    except ValueError:
        raise NnfFormatError("non-numeric header field", lineno) from None
    fixed: set[int] = set()
    kinds = bytearray()
    data: list = []
    add_kind = kinds.append
    add_data = data.append
    for lineno, raw in numbered:  # the lines after the header
        fields = raw.split()
        if not fields:
            continue
        kind = fields[0]
        idx = len(data)
        if kind == "A":
            try:
                if len(fields) == 4:  # `A 2 x y`, as every decision branch
                    count = int(fields[1])
                    refs = (int(fields[2]), int(fields[3]))
                else:
                    refs = tuple(map(int, fields[2:]))
                    count = int(fields[1])
            except ValueError:
                raise NnfFormatError("non-numeric field in %r" % raw.strip(), lineno) from None
            except IndexError:
                count = -1  # a bare `A`
            if count != len(refs):
                raise NnfFormatError("child count mismatch in %r" % raw.strip(), lineno)
            if count == 2:
                x, y = refs
                if not (0 <= x < idx and 0 <= y < idx):
                    _bad_reference(refs, idx, lineno)
            elif refs and (min(refs) < 0 or max(refs) >= idx):
                _bad_reference(refs, idx, lineno)
            add_kind(_A)
            add_data(refs)
            continue
        if kind[0] == "c":
            if kind != "c" or fields[1:2] != ["fixed"]:
                continue  # a comment
            # `c fixed`: once, before the node lines, ascending in 1..N.
            del fields[1]
        try:
            args = tuple(map(int, fields[1:]))
        except ValueError:
            raise NnfFormatError("non-numeric field in %r" % raw.strip(), lineno) from None
        if kind == "O":
            if len(args) == 4 and args[1] == 2 and args[0] > 0:
                var, _, a, b = args
                if var > n or var in fixed:
                    _bad_variable(var, n, lineno)
                if not (0 <= a < idx and 0 <= b < idx):
                    _bad_reference((a, b), idx, lineno)
                add_kind(_O)
                add_data(args)
            elif args == (0, 0):
                add_kind(_F)
                add_data(None)
            else:
                raise NnfFormatError("malformed decision line %r" % raw.strip(), lineno)
        elif kind == "L":
            if len(args) != 1 or args[0] == 0:
                raise NnfFormatError("malformed literal line %r" % raw.strip(), lineno)
            var = abs(args[0])
            if var > n or var in fixed:
                _bad_variable(var, n, lineno)
            add_kind(_L)
            add_data(args[0])
        elif kind == "c":
            if data or fixed or not args or args[0] < 1 or args[-1] > n or (
                list(args) != sorted(set(args))
            ):
                raise NnfFormatError("malformed fixed line %r" % raw.strip(), lineno)
            fixed = set(args)
        else:
            raise NnfFormatError("unknown node kind %r" % kind, lineno)
    if len(data) != declared:
        raise NnfFormatError("header declares %d nodes, found %d" % (declared, len(data)))
    if n < 0:
        raise NnfFormatError("negative universe in header")
    return n, _mask_of(fixed), kinds, data


def _bad_variable(var: int, n: int, lineno: int) -> None:
    if var > n:
        raise NnfFormatError("variable %d exceeds declared universe %d" % (var, n), lineno)
    raise NnfFormatError("variable %d is fixed" % var, lineno)


def _bad_reference(refs, idx: int, lineno: int) -> None:
    for ref in refs:
        if not 0 <= ref < idx:
            raise NnfFormatError("reference %d not to an earlier line" % ref, lineno)


def _record_line(text: str, record: int) -> int:
    """The 1-based line of node line `record` in a text that
    `_parse_records` accepted: every line after the header that is not
    blank and not a comment (`c fixed` included) is a node line."""
    seen = -1  # the header
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if fields and fields[0][0] != "c":
            if seen == record:
                return lineno
            seen += 1
    raise ValueError("no node line %d" % record)


def parse_nnf(text: str) -> Circuit:
    """Parse the nnf format back into a circuit (fresh store, frozen).

    The header's N is num_vars and a `c fixed` line gives the fixed set;
    every `L` and `O` variable must be in 1..N and not fixed.  Each `O`
    line is folded back into a decision node by looking inside its
    children for the branch literal; everything else is rebuilt through
    the store constructors, so reduction re-fires and the result is
    reduced no matter who produced the file.

    Two iterative passes, each linear in the text and independent of N:
    validate every line; then walk once from the root (the last line),
    children first, checking each reached decision's branches and each
    conjunction's children and building each reached line as the walk
    leaves it.  In the common case a line costs one dispatch in each
    pass: the record pass tests `A` and `O` lines first with their checks
    inline, and the walk resolves a branch of the shape `serialize`
    writes, a two-child `A` line holding the branch literal, inline.
    """
    num_vars, fixed, kinds, data = _parse_records(text)
    n = len(kinds)
    if not n:
        raise NnfFormatError("empty node section")

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
            raise NnfFormatError("decision child is not a conjunction", _record_line(text, at))
        raise NnfFormatError("decision child lacks branch literal", _record_line(text, at))

    def fold(deps: tuple[int, ...]) -> int:
        # One decision branch: the conjunction of its dependencies' nodes.
        if len(deps) == 1:
            return built[deps[0]]
        ids = [built[r] for r in deps]
        return FALSE if FALSE in ids else store.get_and_node(ids)

    # built[i] is line i's node id once the walk has left it, else -1.
    # Leaves are built on entry; a conjunction at its exit frame ~i, and a
    # decision at its exit frame, which sits on top of its two branches'
    # dependencies: one line each in the shape serialize writes, resolved
    # inline, else the tuples branch returns.
    store = NodeStore()
    built = [-1] * n
    stack: list = [n - 1]
    push = stack.append
    pop = stack.pop
    while stack:
        i = pop()
        if i >= 0:
            if built[i] >= 0:
                continue
            kind = kinds[i]
            if kind == _O:
                var, _, a, b = data[i]
                lo = hi = -1
                if kinds[a] == _A:
                    refs = data[a]
                    if len(refs) == 2:
                        x, y = refs
                        if kinds[x] == _L and data[x] == -var:
                            lo = y
                        elif kinds[y] == _L and data[y] == -var:
                            lo = x
                if kinds[b] == _A:
                    refs = data[b]
                    if len(refs) == 2:
                        x, y = refs
                        if kinds[x] == _L and data[x] == var:
                            hi = y
                        elif kinds[y] == _L and data[y] == var:
                            hi = x
                if lo >= 0 and hi >= 0:
                    stack += (lo, hi, ~i, lo, hi)
                else:
                    lo = branch(a, -var, i)
                    hi = branch(b, var, i)
                    stack += (lo, hi, ~i)
                    stack.extend(lo)
                    stack.extend(hi)
            elif kind == _A:
                push(~i)
                stack.extend(data[i])
            else:
                built[i] = FALSE if kind == _F else store.literal(data[i])
            continue
        i = ~i
        if kinds[i] == _A:
            ids = [built[r] for r in data[i]]
            if FALSE in ids:
                raise NnfFormatError("false sink under a conjunction", _record_line(text, i))
            built[i] = store.get_and_node(ids)
        else:
            hi = pop()
            lo = pop()
            built[i] = store.get_node(
                data[i][0],
                built[lo] if lo.__class__ is int else fold(lo),
                built[hi] if hi.__class__ is int else fold(hi),
            )
    store.freeze()
    return Circuit(store, built[n - 1], num_vars, fixed)
