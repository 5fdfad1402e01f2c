"""Pure-Python residual-formula kernel.

The search runs on bitset residuals.  `root` takes the input formula in
the byte layout below and settles it there (unit propagation, then the
split into components), which costs what the formula holds.  It then
builds one table per part: the mask of each clause's variables, and for
each literal the mask of the clauses holding it.  A
residual is then (table, S, V, settled): S and V are two Python ints
over the table, S the positions of the surviving clauses and V the
variables that still occur, and `settled` says that it has no unit
clause.  An unsatisfied clause keeps exactly its literals over
unassigned variables, so clause c of S holds exactly its table literals
whose variables are in V, and the pair determines the residual formula
(the hybrid encoding of sharpSAT, Thurley, SAT 2006).  A part's table
numbers only the part's own clauses and variables, so on a wide sparse
formula its masks are as wide as the component, not the formula.

`branch` is one decision of the search.  It picks the variable from the
masks (max-occurrence is one bit_count per variable of V, ties to the
smaller variable; min-index is V's lowest bit; ordered the least rank),
and derives both children: conditioning drops the clauses the literal
satisfies from S and its variable from V, and then visits only the
clauses of S that hold the opposite literal.  Unit propagation goes on in
the manner of Chaff's counters (Moskewicz et al., DAC 2001): a clause's
count of not-yet-false literals is the bit_count of its variables within
V, a clause whose count reaches one enters a heap keyed by its position,
and the heap's minimum is always the first unit clause of the residual
the rescanning definition would see, so the implied literals come out in
the same order.  The unit clauses of a parent that is not settled join
the heap too.  A count reaching zero is a conflict.  Splitting is a
breadth-first search over the masks, and its parts come out in order of
their smallest clause.

`key` is the residual's cache key: the two masks at the fixed widths of
the settled input, or the sorted ids of its clauses and variables when
those are shorter, behind a tag byte that tells the two apart.  Keys are
in the settled input's coordinates (its clause positions, and its
variables numbered 1..n in increasing order; a part's table maps its
own back in increasing order), so they are equal exactly when the
residuals are.

The byte layout is the root's input format and the layout of the
single-step operations below `key` (`condition` to `split_components`),
which the search does not call; `root` settles the input with them and
their helpers.  They stay as the tests' reference for both kernels'
`root` and `branch`, and as the names the benchmark's tracer looks up on
this kernel; the compiled kernel does not have them.  The layout holds
one native int32 record per surviving clause, in increasing
original-clause-index order,

    idx, k, lit_1, ..., lit_k

with the literals of a record sorted by variable.  A variable occurs at
most once per record (Cnf._check_clause enforces it).  The compiled
kernel, the hand-written C extension _kernel_cy built from _kernel_cy.c,
keeps byte residuals throughout: there a residual is its own cache key.
Both kernels give the same picks, implied literals, conflicts and
components in the same order, and so the same circuits.
"""

from array import array
from heapq import heapify, heappop, heappush

HEUR_MIN_INDEX = 0
HEUR_MAX_OCCURRENCE = 1


class _Table:
    """The clauses `clauses` (lists of the formula's literals, sorted by
    variable) over the formula's variables `xs` (sorted), numbered 0..m-1
    and 1..n: `cvars[c]` the mask of c's variables, `occ[lit]` the mask
    of the clauses holding lit (a negative literal indexes from the end)
    and `vocc[x]` of those holding x or -x.  `idx` holds the original
    clause indices and `gvar` the formula's variables.  `gpos` and `tvar`
    map clauses and variables to the settled input's numbering, in
    increasing order, or are None when the table numbers them as it
    does; `widths` are the key's widths there."""

    __slots__ = ("idx", "cvars", "occ", "vocc", "gvar", "gpos", "tvar",
                 "sbytes", "vbytes", "ids", "idw")

    def __init__(self, idx, clauses, xs, gpos, tvar, widths):
        local = dict(zip(xs, range(1, len(xs) + 1)))
        cvars = []
        occ = [0] * (2 * len(xs) + 1)
        for c, clause in enumerate(clauses):
            bit = 1 << c
            mask = 0
            for lit in clause:
                i = local[lit] if lit > 0 else -local[-lit]
                occ[i] |= bit
                mask |= 1 << (i if i > 0 else -i)
            cvars.append(mask)
        self.idx = idx
        self.cvars = cvars
        self.occ = occ
        self.vocc = [occ[x] | occ[-x] for x in range(len(xs) + 1)]
        self.gvar = [0, *xs]
        self.gpos = gpos
        self.tvar = tvar
        self.sbytes, self.vbytes, self.ids, self.idw = widths


_BYTE_ONES = [tuple(j for j in range(8) if b >> j & 1) for b in range(256)]


def _ones(x: int):
    """The positions of the set bits of x, in increasing order."""
    if x < 256:
        return _BYTE_ONES[x]
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def root(res: bytes, split: bool, propagate: bool):
    """(parts, implied, conflict) of the input formula `res`, in the byte
    layout: conflict when it holds an empty clause or (with `propagate`)
    unit propagation finds one, and then parts == [] and implied == ();
    otherwise `implied` in derivation order and `parts` the rest's
    components (with `split`), or the rest alone, or [] when nothing is
    left, each a residual over a table of its own."""
    v = _decode(res)
    implied: tuple[int, ...] = ()
    if propagate:
        conflict, found = _unit_pass(v)
        if conflict:
            return [], (), True
        if found is not None:
            starts, counts, true, derived = found
            v = _rebuild(v, starts, counts, true)
            implied = tuple(derived)
    elif has_empty(res):
        return [], (), True
    if not v:
        return [], implied, False
    idx: list[int] = []
    clauses: list[list[int]] = []
    i = 0
    while i < len(v):
        k = v[i + 1]
        idx.append(v[i])
        clauses.append(v[i + 2 : i + 2 + k])
        i += 2 + k
    xs = sorted({lit if lit > 0 else -lit for clause in clauses for lit in clause})
    m, n = len(clauses), len(xs)
    ids = "B" if max(m, n) < 1 << 8 else "H" if max(m, n) < 1 << 16 else "I"
    widths = (m + 7) // 8, (n + 8) // 8, ids, array(ids).itemsize
    members: dict[int, list[int]] = {}
    if split:
        group = _labels(v)
        for c, clause in enumerate(clauses):
            lit = clause[0]
            members.setdefault(group[lit if lit > 0 else -lit], []).append(c)
    if len(members) < 2:
        return [_residual(_Table(idx, clauses, xs, None, None, widths), propagate)], implied, False
    number = {x: i for i, x in enumerate(xs, 1)}
    parts = []
    for cs in members.values():
        part = [clauses[c] for c in cs]
        ys = sorted({lit if lit > 0 else -lit for clause in part for lit in clause})
        t = _Table([idx[c] for c in cs], part, ys, cs, [0, *(number[y] for y in ys)], widths)
        parts.append(_residual(t, propagate))
    return parts, implied, False


def _residual(t, settled):
    """The residual of all of t."""
    return t, (1 << len(t.cvars)) - 1, (1 << len(t.gvar)) - 2, settled


def branch(res, heuristic: int, ranks: bytes | None, split: bool, propagate: bool):
    """One decision: (x, low, high), its variable and its children on -x
    and on x.

    `x` is the occurring variable in the most clauses (HEUR_MAX_OCCURRENCE,
    ties to the smaller) or the smallest one (HEUR_MIN_INDEX), or with the
    int32 rank table `ranks` the one of least rank.  Each child is
    (parts, implied, conflict) as `root` gives it for the residual
    conditioned on the literal.
    """
    t, S, V, settled = res
    x = _pick(t, S, V, heuristic, ranks)
    units = ()
    if propagate and not settled:
        cvars = t.cvars
        units = [c for c in _ones(S) if (cvars[c] & V).bit_count() == 1]
    low = _child(t, S, V, -x, split, propagate, units)
    high = _child(t, S, V, x, split, propagate, units)
    return t.gvar[x], low, high

def _pick(t, S, V, heuristic, ranks) -> int:
    if ranks is not None:
        r = memoryview(ranks).cast("i")
        g = t.gvar
        best = best_rank = 0
        while V:
            low = V & -V
            V ^= low
            x = low.bit_length() - 1
            rank = r[g[x]]
            if best == 0 or rank < best_rank:
                best, best_rank = x, rank
        return best
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


def _child(t, S, V, lit, split, propagate, units):
    """One child of `branch`: the residual (S, V) of t with `lit` true;
    `units` are the parent's unit clauses when it is not settled."""
    cvars = t.cvars
    gone = S & t.occ[lit]
    S ^= gone
    V ^= 1 << (lit if lit > 0 else -lit)
    heap: list[int] = []
    hit = S & t.occ[-lit]
    while hit:
        low = hit & -hit
        hit ^= low
        c = low.bit_length() - 1
        k = (cvars[c] & V).bit_count()
        if k <= 1:
            if k == 0:
                return [], (), True
            heap.append(c)
    if units:
        # A unit clause holding -lit is empty now, and one holding lit
        # is gone; the others are still unit clauses.
        heap += [c for c in units if S >> c & 1]
        heapify(heap)
    return _settle(t, S, V, gone, heap, split, propagate)


def _settle(t, S, V, gone, heap, split, propagate):
    """(parts, implied, conflict) of the residual (S, V) of t, whose unit
    clauses are `heap` (a heap of positions) and whose V may still hold
    variables of the clauses in `gone`, which are satisfied."""
    implied: list[int] = []
    if propagate and heap:
        occ, cvars = t.occ, t.cvars
        while heap:
            c = heappop(heap)
            if not S >> c & 1:
                continue
            bit = cvars[c] & V
            x = bit.bit_length() - 1
            V ^= bit
            if not occ[x] >> c & 1:
                x = -x
            implied.append(x)
            sat = S & occ[x]
            S ^= sat
            gone |= sat
            hit = S & occ[-x]
            while hit:
                low = hit & -hit
                hit ^= low
                d = low.bit_length() - 1
                k = (cvars[d] & V).bit_count()
                if k <= 1:
                    if k == 0:
                        return [], (), True
                    heappush(heap, d)
        g = t.gvar
        implied = [g[u] if u > 0 else -g[-u] for u in implied]
    if not S:
        return [], tuple(implied), False
    if split:
        return _split_masks(t, S, V, propagate), tuple(implied), False
    # A variable leaves V when the last clause holding it is satisfied.
    cvars, vocc = t.cvars, t.vocc
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
    return [(t, S, V, propagate)], tuple(implied), False


def _split_masks(t, S, V, settled) -> list:
    """The variable-disjoint parts of the residual (S, V) of t, each with
    its own exact V, in order of their smallest clause."""
    cvars, vocc = t.cvars, t.vocc
    if not S & (S - 1):
        return [(t, S, cvars[S.bit_length() - 1] & V, settled)]
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
        parts.append((t, cs, vs, settled))
    return parts


def key(res) -> bytes:
    """The cache key of a residual: equal exactly when the residuals are.

    Tag 0 then S and V as masks of the settled input's fixed widths, or,
    when it is shorter, tag 1 then the counts and the sorted ids of S's
    clauses and V's variables, as unsigned ints of the width the settled
    input's size needs; so a key is never longer than 1 + ceil(m / 8) +
    ceil((n + 1) / 8) bytes for m clauses over variables 1..n.
    """
    t, S, V, _ = res
    g, h = t.gpos, t.tvar
    s, n = S.bit_count(), V.bit_count()
    if t.idw * (2 + s + n) >= t.sbytes + t.vbytes:
        if g is not None:
            gS = gV = 0
            for c in _ones(S):
                gS |= 1 << g[c]
            for x in _ones(V):
                gV |= 1 << h[x]
            S, V = gS, gV
        return b"\x00" + S.to_bytes(t.sbytes, "little") + V.to_bytes(t.vbytes, "little")
    if g is None:
        ids = [s, n, *_ones(S), *_ones(V)]
    else:
        ids = [s, n, *[g[c] for c in _ones(S)], *[h[x] for x in _ones(V)]]
    return b"\x01" + array(t.ids, ids).tobytes()


# --- the byte layout's single-step operations ---------------------------------


def _decode(res: bytes) -> list[int]:
    return memoryview(res).cast("i").tolist()


def has_empty(res: bytes) -> bool:
    v = memoryview(res).cast("i")
    i, n = 0, len(v)
    while i < n:
        k = v[i + 1]
        if k == 0:
            return True
        i += 2 + k
    return False


def condition(res: bytes, lit: int) -> bytes:
    """Residual after assigning `lit` true: drop satisfied clauses, strip -lit."""
    v = _decode(res)
    out: list[int] = []
    neg = -lit
    i, n = 0, len(v)
    while i < n:
        k = v[i + 1]
        end = i + 2 + k
        lits = v[i + 2 : end]
        if neg in lits:
            lits.remove(neg)
            out.append(v[i])
            out.append(k - 1)
            out += lits
        elif lit not in lits:
            out += v[i:end]
        i = end
    return array("i", out).tobytes()


def _index(v: list[int]):
    """(starts, units, counts, occ) of the decoded residual `v` in one pass:
    the record offsets, the positions of its unit records, each record's
    literal count, and for each literal the positions of the records
    holding it, in increasing order; None when a record is empty."""
    starts: list[int] = []
    units: list[int] = []
    counts: list[int] = []
    occ: dict[int, list[int]] = {}
    i, n = 0, len(v)
    while i < n:
        k = v[i + 1]
        if k == 0:
            return None
        c = len(starts)
        if k == 1:
            units.append(c)
        starts.append(i)
        counts.append(k)
        for lit in v[i + 2 : i + 2 + k]:
            clauses = occ.get(lit)
            if clauses is None:
                occ[lit] = [c]
            else:
                clauses.append(c)
        i += 2 + k
    return starts, units, counts, occ


def _fixpoint(v, starts, counts, occ, heap, true, implied) -> bool:
    """Unit propagation from the unit records in `heap`; True on a conflict.

    `counts` holds each record's count of literals not yet false, -1 once
    it is satisfied, and `true` the literals made true so far; both are
    updated, and each implied literal is appended to `implied`.  The pass
    stops at the first implied literal that empties a record.
    """
    while heap:
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
        conflict = False
        for d in occ.get(-unit, ()):
            k = counts[d]
            if k > 0:
                k -= 1
                counts[d] = k
                if k == 1:
                    heappush(heap, d)
                elif k == 0:
                    conflict = True
        if conflict:
            return True
    return False


def _rebuild(v, starts, counts, true) -> list[int]:
    """The records of `v` not yet satisfied, without their false literals."""
    out: list[int] = []
    for c, s in enumerate(starts):
        left = counts[c]
        if left < 0:
            continue
        k = v[s + 1]
        if left == k:
            out += v[s : s + 2 + k]
        else:
            out.append(v[s])
            out.append(left)
            out += [lit for lit in v[s + 2 : s + 2 + k] if -lit not in true]
    return out


def _unit_pass(v: list[int]):
    """Unit propagation over the decoded residual `v`: (conflict, found).

    `found` is None when `v` holds an empty clause or no unit record, and
    otherwise (starts, counts, true, implied) as `_fixpoint` leaves them.
    """
    index = _index(v)
    if index is None:
        return True, None
    starts, units, counts, occ = index
    if not units:
        return False, None
    true: set[int] = set()
    implied: list[int] = []
    # `units` lists the unit records in position order, which is a heap.
    conflict = _fixpoint(v, starts, counts, occ, units, true, implied)
    return conflict, (starts, counts, true, implied)


def propagate(res: bytes) -> tuple[bytes, tuple[int, ...], bool]:
    """Condition on unit clauses until fixpoint.

    Returns (residual, implied, conflict); implied is in derivation order
    and conflict means an empty clause is present in the residual.
    """
    v = _decode(res)
    conflict, found = _unit_pass(v)
    if found is None:
        return res, (), conflict
    starts, counts, true, implied = found
    return array("i", _rebuild(v, starts, counts, true)).tobytes(), tuple(implied), conflict


def propagate_conflict(res: bytes) -> bool:
    """True iff unit propagation derives the empty clause.

    Same fixpoint as propagate(), but the residual and the implied literals
    are not materialized; this is the cheap conflict lookahead.
    """
    return _unit_pass(_decode(res))[0]


def first_unit_var(res: bytes) -> int:
    v = memoryview(res).cast("i")
    i, n = 0, len(v)
    while i < n:
        k = v[i + 1]
        if k == 1:
            return abs(v[i + 2])
        i += 2 + k
    return 0


def select_var(res: bytes, heuristic: int) -> int:
    """Deterministic branch-variable choice; 0 when the residual has no variables."""
    v = memoryview(res).cast("i")
    n = len(v)
    if heuristic == HEUR_MIN_INDEX:
        best = 0
        i = 0
        while i < n:
            k = v[i + 1]
            for j in range(i + 2, i + 2 + k):
                var = abs(v[j])
                if best == 0 or var < best:
                    best = var
            i += 2 + k
        return best
    counts: dict[int, int] = {}
    i = 0
    while i < n:
        k = v[i + 1]
        for j in range(i + 2, i + 2 + k):
            var = abs(v[j])
            counts[var] = counts.get(var, 0) + 1
        i += 2 + k
    best = 0
    best_count = -1
    for var, c in counts.items():
        if c > best_count or (c == best_count and var < best):
            best, best_count = var, c
    return best


def min_rank_var(res: bytes, ranks: bytes) -> int:
    """Variable of minimum rank occurring in res; ranks is int32, indexed by var."""
    v = memoryview(res).cast("i")
    r = memoryview(ranks).cast("i")
    best = 0
    best_rank = -1
    i, n = 0, len(v)
    while i < n:
        k = v[i + 1]
        for j in range(i + 2, i + 2 + k):
            var = abs(v[j])
            rank = r[var]
            if best == 0 or rank < best_rank:
                best, best_rank = var, rank
        i += 2 + k
    return best


def split_components(res: bytes) -> list[bytes]:
    """Finest variable-disjoint partition of the clauses.

    Parts come out ordered by smallest original clause index (clauses are
    scanned in index order) and must not contain empty clauses.
    """
    return _split(_decode(res), res)


def _split(v: list[int], res: bytes) -> list[bytes]:
    """split_components of `res`, whose decoded records are `v`."""
    if not v:
        return []
    group = _labels(v)
    parts: dict[int, list[bytes]] = {}
    i, n = 0, len(v)
    while i < n:
        end = i + 2 + v[i + 1]
        lit = v[i + 2]
        part = parts.setdefault(group[lit if lit > 0 else -lit], [])
        part.append(res[4 * i : 4 * end])
        i = end
    if len(parts) == 1:
        return [res]
    return [b"".join(part) for part in parts.values()]


def _labels(v: list[int]) -> dict[int, int]:
    """group[x] for each variable x of the decoded residual `v`, a label
    that the variables of one component share."""
    # members[g] lists the variables of group g.  A record joins all
    # groups its variables are in, and the smaller group is relabelled
    # into the larger.
    group: dict[int, int] = {}
    members: dict[int, list[int]] = {}
    i, n = 0, len(v)
    while i < n:
        k = v[i + 1]
        if k == 0:
            raise ValueError("cannot split a residual containing an empty clause")
        joined: set[int] = set()
        fresh: list[int] = []
        for lit in v[i + 2 : i + 2 + k]:
            x = lit if lit > 0 else -lit
            g = group.get(x)
            if g is None:
                fresh.append(x)
            else:
                joined.add(g)
        if joined:
            target = joined.pop()
            into = members[target]
            for g in joined:
                other = members.pop(g)
                if len(other) > len(into):
                    members[g] = other
                    del members[target]
                    target, into, other = g, other, into
                for x in other:
                    group[x] = target
                into += other
            into += fresh
        else:
            target = i
            members[i] = fresh
        for x in fresh:
            group[x] = target
        i += 2 + k
    return group
