"""Pure-Python residual-formula kernel.

A residual formula is a bytes object holding native int32 records, one per
surviving clause, in increasing original-clause-index order:

    idx, k, lit_1, ..., lit_k

Literals within a record are sorted by variable.  The encoding doubles as
the formula-cache key: two residuals are the same formula exactly when
their bytes are equal.  The compiled kernel, the hand-written C extension
_kernel_cy built from _kernel_cy.c, implements the same functions over the
same layout; outputs must match byte for byte.

Each call decodes its residual once into a list and then works a clause
at a time, relying on one invariant: a variable occurs at most once per
record (Cnf._check_clause enforces it, and conditioning only removes
literals).  So a record holding `lit` is satisfied by it, a record holding
-lit loses exactly one literal, and a record is unit exactly when one of
its literals is not yet false.

Unit propagation is one pass in the manner of Chaff's counters
(Moskewicz et al., DAC 2001): occurrence lists and a count of not-yet-false
literals per record, so each implied literal touches only the records it
occurs in.  The rescanning definition it replaces conditions on the unit
record of smallest position, rescans, and repeats.  The pass takes unit
records from a heap keyed by record position instead: a record enters the
heap when its count reaches one and leaves it, skipped, once satisfied, so
the heap's minimum is always the first unit record of the residual the
rescanning loop would see, and the implied literals come out in the same
order.  A count reaching zero is the empty clause that loop would find
after conditioning on the same literal, so on a conflict the residual
returned is the same as well.

`branch` is one decision of the search in one call.  One pass over the
decoded parent builds its record counts and occurrence lists; the
decision variable is picked from the occurrence lists, whose lengths are
the occurrence counts, and both children are derived from them, each
assigned, propagated by the same pass, rebuilt and (optionally) split.
So below the root no mode calls a picker, `condition`, `has_empty`,
`propagate` or `split_components`.  The root is settled by `has_empty`,
`propagate` and `split_components`; `condition` has no caller in the
package, and `select_var` and `min_rank_var` define the pick that
`branch` must make.
"""

from array import array
from heapq import heapify, heappop, heappush

HEUR_MIN_INDEX = 0
HEUR_MAX_OCCURRENCE = 1


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


def _pick(occ: dict[int, list[int]], heuristic: int, ranks) -> int:
    """The decision variable among the literals of `occ`, as select_var
    (ranks None) or min_rank_var (ranks the int32 rank table) would pick
    it from the residual `occ` indexes; 0 when `occ` is empty."""
    if ranks is not None:
        r = memoryview(ranks).cast("i")
        best = 0
        best_rank = -1
        for lit in occ:
            var = lit if lit > 0 else -lit
            rank = r[var]
            if best == 0 or rank < best_rank:
                best, best_rank = var, rank
        return best
    if heuristic == HEUR_MIN_INDEX:
        return min(map(abs, occ), default=0)
    best = 0
    best_count = 0
    for lit, clauses in occ.items():
        var = lit if lit > 0 else -lit
        count = len(clauses) + len(occ.get(-lit, ()))
        if count > best_count or (count == best_count and var < best):
            best, best_count = var, count
    return best


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


def branch(res: bytes, heuristic: int, ranks: bytes | None, split: bool, propagate: bool):
    """One decision: (x, low, high), its variable and its children on -x
    and on x.

    `x` is what select_var(res, heuristic) picks, or with a rank table
    `ranks` what min_rank_var(res, ranks) picks; 0 when `res` has no
    variable.  Each child is (parts, implied, conflict), exactly what
    conditioning `res` on the literal, then has_empty, then (with
    `propagate`) propagate, then (with `split`) split_components would
    give: conflict when the child has an empty clause or a propagation
    conflict, and then parts == [] and implied == (); otherwise `implied`
    in derivation order and `parts` the rest's components, or the rest
    alone, or [] when nothing is left.  The residual is decoded and
    indexed once, in one pass, for the pick and both children, and a
    child's propagation touches only the records its literals occur in.
    """
    v = _decode(res)
    index = _index(v)
    if index is None:
        x = select_var(res, heuristic) if ranks is None else min_rank_var(res, ranks)
        return x, ([], (), True), ([], (), True)
    starts, units, counts, occ = index
    x = _pick(occ, heuristic, ranks)
    low = _child(v, starts, units, counts, occ, -x, split, propagate)
    high = _child(v, starts, units, counts, occ, x, split, propagate)
    return x, low, high


def _child(v, starts, units, counts, occ, lit, split, propagate):
    """One child of `branch` from the parent's shared index."""
    counts = counts[:]
    for c in occ.get(lit, ()):
        counts[c] = -1
    heap: list[int] = []
    for c in occ.get(-lit, ()):
        k = counts[c] - 1
        if k == 0:
            return [], (), True
        counts[c] = k
        if k == 1:
            heap.append(c)
    true = {lit}
    implied: list[int] = []
    if propagate:
        # The parent's own unit records join those `lit` made; the heap
        # then yields them in position order, as propagate would.
        if units:
            heap += [c for c in units if counts[c] == 1]
            heapify(heap)
        if _fixpoint(v, starts, counts, occ, heap, true, implied):
            return [], (), True
    out = _rebuild(v, starts, counts, true)
    if not out:
        return [], tuple(implied), False
    rest = array("i", out).tobytes()
    return (_split(out, rest) if split else [rest]), tuple(implied), False


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
    n = len(v)
    if n == 0:
        return []
    # group[x] labels the part of variable x; members[g] lists its
    # variables.  A record joins all groups its variables are in, and the
    # smaller group is relabelled into the larger.
    group: dict[int, int] = {}
    members: dict[int, list[int]] = {}
    i = 0
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
    if len(members) == 1:
        return [res]
    parts: dict[int, list[bytes]] = {}
    i = 0
    while i < n:
        end = i + 2 + v[i + 1]
        lit = v[i + 2]
        part = parts.setdefault(group[lit if lit > 0 else -lit], [])
        part.append(res[4 * i : 4 * end])
        i = end
    return [b"".join(part) for part in parts.values()]
