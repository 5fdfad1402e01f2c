"""Pure-Python residual-formula kernel.

The search runs on bitset residuals.  `root` takes the input formula in
the byte layout below and settles it there (unit propagation, then the
split into components), which costs what the formula holds; what is
left is the root formula.  It then
builds one table per part: the mask of each clause's variables, and for
each literal the mask of the clauses holding it.  A
residual is then (table, S, V): S and V are two Python ints over the
table, S the positions of the surviving clauses and V the variables that
still occur.  An unsatisfied clause keeps exactly its literals over
unassigned variables, so clause c of S holds exactly its table literals
whose variables are in V, and the pair determines the residual formula
(the hybrid encoding of sharpSAT, Thurley, SAT 2006).  A part's table
numbers only the part's own clauses and variables, so on a wide sparse
formula its masks are as wide as the component, not the formula.

`branch` is one decision of the search.  It picks the variable from the
masks (max-occurrence is one bit_count per variable of V, ties to the
smaller variable; min-index is V's lowest bit, which the ordered search
also takes, on a formula renamed by the order), and derives both
children.  Each child is one loop of the same step, first for the
decision literal and then, with propagation, for each implied one:
conditioning drops the clauses the literal satisfies from S and its
variable from V, and then visits only the clauses of S that hold the
opposite literal.  Unit propagation goes on in the manner of Chaff's
counters (Moskewicz et al., DAC 2001): a clause's count of not-yet-false
literals is the bit_count of its variables within V, a clause whose
count reaches one enters a heap keyed by its position, and the heap's
minimum is always the first unit clause of the residual the rescanning
definition would see, so the implied literals come out in the same
order.  A count reaching zero is a conflict.  A parent comes from `root`
or `branch` under the same `propagate` as its children, so with
propagation it holds no unit clause, and the decision literal's scan finds every unit clause of
the child.  Splitting is a breadth-first search over the masks, and its
parts come out in order of their smallest clause.

`key` is the residual's cache key, in the root formula's coordinates:
`root` numbers the root formula's clauses and variables part by part,
each part's in increasing order, so a part's table is one contiguous
range of that numbering, and its masks map to it by one shift each.  Keys
are therefore equal exactly when the residuals are.  The key is the two
masks at the fixed widths of the root formula behind a tag byte 0, a
few C-level int operations; only on a root formula whose two masks are
wider than _MASK_KEY_BYTES is it the nonzero byte spans of the two masks
behind a tag byte 1, when those are shorter, a few more.

The byte layout is the root's input format.  `encode` writes it;
`compiler.compile_cnf` hands it every input renamed, the clauses
numbered 0..m-1 by position and the variables 1..k, so every value fits
an int32.  `_read` is the one walk over its records: it finds the empty
ones and runs unit propagation with a heap of record positions, as
`branch` does; `_components` groups what survives by union-find.
`root` settles the input with those two.  The single-step operations
below them (`has_empty` to `split_components`), which the search does
not call, are each a few lines over the same helpers.  They stay as the
tests' reference for both kernels' `root` and `branch`, and as the names
the benchmark's tracer looks up on this kernel (`min_rank_var` for the
tracer only); the compiled kernel does not have them.  The layout holds one native int32 record per surviving
clause, in increasing clause-index order,

    idx, k, lit_1, ..., lit_k

with the literals of a record sorted by variable.  A variable occurs at
most once per record (Cnf._check_clause enforces it).  The compiled
kernel, the hand-written C extension _kernel_cy built from _kernel_cy.c,
keeps byte residuals throughout: there a residual is its own cache key.
Both kernels give the same picks, implied literals, conflicts and
components in the same order, and so the same circuits.
"""

from array import array
from heapq import heappop, heappush
from struct import Struct

HEUR_MIN_INDEX = 0
HEUR_MAX_OCCURRENCE = 1

# A root formula whose two masks take at most this many bytes keys every
# residual by its masks: two shifts and one to_bytes, where the span form
# takes a few more int operations and two packs per mask.  The benchmark
# corpora's root formulas take 17 to 28 bytes.  Above the bound a small
# residual's spans are kept when they are shorter, so that a wide input's
# keys stay small.
_MASK_KEY_BYTES = 64

# A span's first nonzero byte and its length in bytes.
_SPAN_HEAD = Struct("<II")


class _Table:
    """The clauses of `records` ((clause index, literals) pairs, the
    literals sorted by variable) over the formula's variables `xs`
    (sorted), numbered 0..m-1 and 1..n: `cvars[c]` the mask of c's
    variables, `occ[lit]` the mask of the clauses holding lit (a negative
    literal indexes from the end) and `vocc[x]` of those holding x or -x.
    `idx` holds the clause indices and `gvar` the formula's variables.  The root formula numbers the table's clauses from `coff`
    and its variables from `voff` + 1, in increasing order; `widths` are
    its key's: the mask key's length `kbytes`, with S at bit `sshift` and V
    at bit `vshift`, and `spans`, false when every key is a mask key."""

    __slots__ = ("idx", "cvars", "occ", "vocc", "gvar", "coff", "voff",
                 "sshift", "vshift", "kbytes", "spans")

    def __init__(self, records, xs, coff, voff, widths):
        local = dict(zip(xs, range(1, len(xs) + 1)))
        cvars = []
        occ = [0] * (2 * len(xs) + 1)
        for c, (_, clause) in enumerate(records):
            bit = 1 << c
            mask = 0
            for lit in clause:
                i = local[lit] if lit > 0 else -local[-lit]
                occ[i] |= bit
                mask |= 1 << (i if i > 0 else -i)
            cvars.append(mask)
        self.idx = [i for i, _ in records]
        self.cvars = cvars
        self.occ = occ
        self.vocc = [occ[x] | occ[-x] for x in range(len(xs) + 1)]
        self.gvar = [0, *xs]
        self.coff = coff
        self.voff = voff
        sbytes, self.kbytes, self.spans = widths
        # A mask key's first byte is its tag, 0.
        self.sshift = 8 + coff
        self.vshift = 8 * (1 + sbytes) + voff


def root(res: bytes, split: bool, propagate: bool):
    """(parts, implied, conflict) of the input formula `res`, in the byte
    layout: conflict when it holds an empty clause or (with `propagate`)
    unit propagation finds one, and then parts == [] and implied == ();
    otherwise `implied` in derivation order and `parts` the rest's
    components (with `split`), or the rest alone, or [] when nothing is
    left, each a residual over a table of its own."""
    records, implied, conflict = _read(res, propagate)
    if conflict:
        return [], (), True
    if not records:
        return [], implied, False
    parts = [[records[c] for c in cs] for cs in _components(records)] if split else [records]
    xss = [sorted({lit if lit > 0 else -lit for _, lits in part for lit in lits}) for part in parts]
    m, n = len(records), sum(map(len, xss))
    sbytes, vbytes = (m + 7) // 8, (n + 8) // 8
    widths = sbytes, 1 + sbytes + vbytes, sbytes + vbytes > _MASK_KEY_BYTES
    # The root formula numbers its clauses and variables part by part.
    out = []
    coff = voff = 0
    for part, xs in zip(parts, xss):
        out.append((_Table(part, xs, coff, voff, widths), (1 << len(part)) - 1, (2 << len(xs)) - 2))
        coff += len(part)
        voff += len(xs)
    return out, implied, False


def branch(res, heuristic: int, split: bool, propagate: bool):
    """One decision: (x, low, high), its variable and its children on -x
    and on x.

    `x` is the occurring variable in the most clauses (HEUR_MAX_OCCURRENCE,
    ties to the smaller) or the smallest one (HEUR_MIN_INDEX).  Each child
    is (parts, implied, conflict) as `root` gives it for the residual
    conditioned on the literal.  `propagate` must be the value `root` took
    for the residual's input: with it, the residual holds no unit clause.
    """
    t, S, V = res
    x = _pick(t, S, V, heuristic)
    low = _child(t, S, V, -x, split, propagate)
    high = _child(t, S, V, x, split, propagate)
    return t.gvar[x], low, high


def _pick(t, S, V, heuristic) -> int:
    if heuristic == HEUR_MIN_INDEX:
        return (V & -V).bit_length() - 1
    vocc = t.vocc
    best = best_count = 0
    while V:
        low = V & -V
        V ^= low
        x = low.bit_length() - 1
        count = (S & vocc[x]).bit_count()
        if count > best_count:
            best, best_count = x, count
    return best


def _child(t, S, V, lit, split, propagate):
    """One child of `branch`: (parts, implied, conflict) of the residual
    (S, V) of t with `lit` true, and then, with `propagate`, the literal of
    its first unit clause true, until none is left or a clause empties."""
    occ, cvars = t.occ, t.cvars
    implied: list[int] = []
    heap: list[int] = []
    gone = 0
    V ^= 1 << (lit if lit > 0 else -lit)
    while True:
        sat = S & occ[lit]
        S ^= sat
        gone |= sat
        hit = S & occ[-lit]
        while hit:
            low = hit & -hit
            hit ^= low
            c = low.bit_length() - 1
            k = (cvars[c] & V).bit_count()
            if k <= 1:
                if k == 0:
                    return [], (), True
                if propagate:
                    heappush(heap, c)
        # A unit clause that a later literal satisfied is skipped.
        while heap and not S >> heap[0] & 1:
            heappop(heap)
        if not heap:
            break
        c = heappop(heap)
        bit = cvars[c] & V
        V ^= bit
        x = bit.bit_length() - 1
        lit = x if occ[x] >> c & 1 else -x
        implied.append(lit)
    if implied:
        g = t.gvar
        implied = [g[u] if u > 0 else -g[-u] for u in implied]
    if not S:
        return [], tuple(implied), False
    if split:
        return _split_masks(t, S, V), tuple(implied), False
    # A variable leaves V when the last clause holding it is satisfied.
    vocc = t.vocc
    maybe = 0
    while gone:
        low = gone & -gone
        gone ^= low
        maybe |= cvars[low.bit_length() - 1]
    maybe &= V
    while maybe:
        low = maybe & -maybe
        maybe ^= low
        if not S & vocc[low.bit_length() - 1]:
            V ^= low
    return [(t, S, V)], tuple(implied), False


def _split_masks(t, S, V) -> list:
    """The variable-disjoint parts of the residual (S, V) of t, each with
    its own exact V, in order of their smallest clause."""
    cvars, vocc = t.cvars, t.vocc
    if not S & (S - 1):
        return [(t, S, cvars[S.bit_length() - 1] & V)]
    parts = []
    while S:
        # S and V keep the clauses and variables no part has taken yet.
        cs = S & -S
        S ^= cs
        vs = new = cvars[cs.bit_length() - 1] & V
        V ^= new
        while new:
            touch = 0
            while new:
                low = new & -new
                new ^= low
                touch |= vocc[low.bit_length() - 1]
            touch &= S
            S ^= touch
            cs |= touch
            while touch:
                low = touch & -touch
                touch ^= low
                new |= cvars[low.bit_length() - 1]
            new &= V
            V ^= new
            vs |= new
        parts.append((t, cs, vs))
    return parts


def key(res) -> bytes:
    """The cache key of a residual: equal exactly when the residuals are.

    Tag 0 then S and V as masks of the root formula's fixed widths, in
    its numbering.  On a root formula whose two masks are wider than
    _MASK_KEY_BYTES, tag 1 then S and V in that numbering, each as its
    nonzero byte span (see _span), instead, when that is shorter.  So a
    key is never longer than 1 + ceil(m / 8) + ceil((n + 1) / 8) bytes for
    m clauses over variables 1..n.
    """
    t, S, V = res
    if t.spans:
        span = _span(S << t.coff) + _span(V << t.voff)
        if len(span) < t.kbytes - 1:
            return b"\x01" + span
    return (S << t.sshift | V << t.vshift).to_bytes(t.kbytes, "little")


def _span(mask: int) -> bytes:
    """The nonzero `mask` as the index of its first nonzero byte and the
    number of bytes from there to its last, as two uint32, then those
    bytes."""
    start = ((mask & -mask).bit_length() - 1) >> 3
    mask >>= 8 * start
    size = (mask.bit_length() + 7) >> 3
    return _SPAN_HEAD.pack(start, size) + mask.to_bytes(size, "little")


# --- the byte layout ---------------------------------------------------------


def encode(records) -> bytes:
    """The byte layout of (clause index, literals) records, in their order.
    The compiler's renamed inputs number no clause or variable past their
    counts, so every value fits the layout's int32."""
    out: list[int] = []
    for idx, lits in records:
        out.append(idx)
        out.append(len(lits))
        out += lits
    return array("i", out).tobytes()


def _read(res: bytes, propagate: bool):
    """(records, implied, conflict) of the layout `res`.

    `conflict` says that a record is empty or (with `propagate`) that unit
    propagation empties one; it stops at the first implied literal that
    does.  `implied` lists the literals propagation derived, in order, and
    `records` the (clause index, literals) pairs it left unsatisfied, each
    without its false literals: all of `res` when nothing was implied.
    """
    v = memoryview(res).cast("i").tolist()
    starts: list[int] = []
    units: list[int] = []
    occ: dict[int, list[int]] = {}
    conflict = False
    i, n = 0, len(v)
    while i < n:
        k = v[i + 1]
        c = len(starts)
        if k < 2:
            if k == 0:
                conflict = True
            else:
                units.append(c)
        starts.append(i)
        if propagate:
            for lit in v[i + 2 : i + 2 + k]:
                clauses = occ.get(lit)
                if clauses is None:
                    occ[lit] = [c]
                else:
                    clauses.append(c)
        i += 2 + k
    if not propagate or conflict or not units:
        return [(v[s], v[s + 2 : s + 2 + v[s + 1]]) for s in starts], (), conflict
    # counts[c] is record c's count of literals not yet false, -1 once it is
    # satisfied; `units` lists the unit records in position order, a heap.
    counts = [v[s + 1] for s in starts]
    true: set[int] = set()
    implied: list[int] = []
    heap = units
    while heap and not conflict:
        c = heappop(heap)
        if counts[c] < 0:
            continue
        s = starts[c]
        for unit in v[s + 2 : s + 2 + v[s + 1]]:
            if -unit not in true:
                break
        implied.append(unit)
        true.add(unit)
        for d in occ.get(unit, ()):
            counts[d] = -1
        for d in occ.get(-unit, ()):
            k = counts[d]
            if k > 0:
                counts[d] = k = k - 1
                if k == 1:
                    heappush(heap, d)
                elif k == 0:
                    conflict = True
    records = []
    for c, s in enumerate(starts):
        left = counts[c]
        if left >= 0:
            lits = v[s + 2 : s + 2 + v[s + 1]]
            if left < len(lits):
                lits = [lit for lit in lits if -lit not in true]
            records.append((v[s], lits))
    return records, tuple(implied), conflict


def _components(records) -> list[list[int]]:
    """The positions of `records` per variable-disjoint component, each
    component's in increasing order and the components in order of their
    first record; an empty record raises ValueError."""
    up: dict[int, int] = {}

    def find(x):
        # The representative of x's variables, halving the path to it.
        while up[x] != x:
            up[x] = up[up[x]]
            x = up[x]
        return x

    for _, lits in records:
        if not lits:
            raise ValueError("cannot split a residual containing an empty clause")
        head = None
        for lit in lits:
            x = lit if lit > 0 else -lit
            r = find(up.setdefault(x, x))
            if head is None:
                head = r
            elif r != head:
                up[r] = head
    parts: dict[int, list[int]] = {}
    for c, (_, lits) in enumerate(records):
        lit = lits[0]
        parts.setdefault(find(lit if lit > 0 else -lit), []).append(c)
    return list(parts.values())


def _occurrences(res: bytes) -> dict[int, int]:
    """The variables of `res` in order of first occurrence, each with the
    number of records holding it."""
    counts: dict[int, int] = {}
    for _, lits in _read(res, False)[0]:
        for lit in lits:
            x = lit if lit > 0 else -lit
            counts[x] = counts.get(x, 0) + 1
    return counts


# --- the byte layout's single-step operations ---------------------------------


def has_empty(res: bytes) -> bool:
    return _read(res, False)[2]


def condition(res: bytes, lit: int) -> bytes:
    """Residual after assigning `lit` true: drop satisfied clauses, strip -lit."""
    neg = -lit
    records = _read(res, False)[0]
    return encode((idx, [x for x in lits if x != neg]) for idx, lits in records if lit not in lits)


def propagate(res: bytes) -> tuple[bytes, tuple[int, ...], bool]:
    """Condition on unit clauses until fixpoint.

    Returns (residual, implied, conflict); implied is in derivation order
    and conflict means an empty clause is present in the residual.
    """
    records, implied, conflict = _read(res, True)
    return encode(records), implied, conflict


def propagate_conflict(res: bytes) -> bool:
    """True iff unit propagation derives the empty clause: the cheap
    conflict lookahead."""
    return _read(res, True)[2]


def first_unit_var(res: bytes) -> int:
    return next((abs(lits[0]) for _, lits in _read(res, False)[0] if len(lits) == 1), 0)


def select_var(res: bytes, heuristic: int) -> int:
    """Deterministic branch-variable choice; 0 when the residual has no variables."""
    counts = _occurrences(res)
    if heuristic == HEUR_MIN_INDEX:
        return min(counts, default=0)
    return min(counts, key=lambda x: (-counts[x], x), default=0)


def min_rank_var(res: bytes, ranks: bytes) -> int:
    """Variable of minimum rank occurring in res; ranks is int32, indexed by var."""
    return min(_occurrences(res), key=memoryview(ranks).cast("i").__getitem__, default=0)


def split_components(res: bytes) -> list[bytes]:
    """Finest variable-disjoint partition of the clauses.

    Parts come out ordered by smallest original clause index and must not
    contain empty clauses.
    """
    records = _read(res, False)[0]
    return [encode(records[c] for c in cs) for cs in _components(records)]
