"""The two kernel backends must agree with each other byte for byte, and
both must agree with the byte layout's decision step: the single-step
operations of _kernel_py, which must agree with the plain Cnf-level
operations in tests/util.py."""

import importlib.util
import random
from array import array
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dpllc.compiler as compiler
from dpllc import _kernel
from dpllc.cnf import Cnf

from util import (
    components,
    compute_key,
    condition,
    decode,
    decode_child,
    oracle_branch,
    oracle_child,
    oracle_root,
    random_cnf,
    renamed,
    unit_propagate,
)

# A test that takes `kernel` runs once per backend (see conftest.py).
kernel_py = _kernel.load("py")
bounded = settings(max_examples=300, deadline=None)
# The single-step byte-layout operations exist in _kernel_py only; a test
# of them runs on that backend alone.
byte_layout = pytest.mark.parametrize("kernel", [kernel_py], ids=["py"])
LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _cases(count=150, seed=23):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        cnf = random_cnf(rng, max_vars=10, max_clauses=20)
        lit = 0
        vs = sorted(cnf.variables())
        if vs:
            v = rng.choice(vs)
            lit = v if rng.random() < 0.5 else -v
        out.append((cnf, lit))
    return out


@byte_layout
def test_kernel_matches_cnf_ops(kernel):
    for cnf, lit in _cases():
        res = compute_key(cnf)
        assert kernel.has_empty(res) == cnf.has_empty_clause()
        if lit:
            assert kernel.condition(res, lit) == compute_key(condition(cnf, lit))
        if not cnf.has_empty_clause():
            parts = kernel.split_components(res)
            assert parts == [compute_key(p) for p in components(cnf)]
        residual, implied, conflict = unit_propagate(cnf)
        k_res, k_implied, k_conflict = kernel.propagate(res)
        assert (k_res, list(k_implied), k_conflict) == (
            compute_key(residual),
            implied,
            conflict,
        )
        assert kernel.propagate_conflict(res) == conflict


def _first(cnf, x):
    """cnf renamed by the order on 1..n that puts x first, so that x is 1:
    branching min-index on it decides x first when x occurs, as the
    ordered search does."""
    return renamed(cnf, compiler.VarOrder((x, *(v for v in range(1, cnf.num_vars + 1) if v != x))))


def _rank_table(order):
    """The int32 rank table of `order` that _kernel_py.min_rank_var takes."""
    return array("i", order.rank).tobytes()


def test_backends_agree(kernel_cy):
    # branch propagates only under a root that propagated (see
    # test_rebinding's settings test), so an unsettled residual branches
    # without propagation alone.
    for cnf, _ in _cases(count=200, seed=29):
        inputs = [(compute_key(cnf), (0, 1))]
        inputs += [(compute_key(_first(cnf, x)), (0,)) for x in range(1, cnf.num_vars + 1)]
        for (res, codes), split, settle in product(inputs, (False, True), (False, True)):
            py_root, cy_root = kernel_py.root(res, split, settle), kernel_cy.root(res, split, settle)
            assert decode_child(py_root) == cy_root
            for py_part, cy_part in zip(py_root[0], cy_root[0]):
                for code, prop in product(codes, (False, True) if settle else (False,)):
                    x, low, high = kernel_py.branch(py_part, code, split, prop)
                    assert (x, decode_child(low), decode_child(high)) == kernel_cy.branch(
                        cy_part, code, split, prop
                    )


def test_each_kernel_exposes_what_its_callers_use(kernel_cy):
    # The compiled kernel is the search's interface and nothing more; the
    # Python kernel also keeps every operation the benchmark's tracer
    # looks up by name, so a traced run cannot lose one.
    public = {name for name in dir(kernel_cy) if not name.startswith("_")}
    assert public == {"root", "branch", "key", "HEUR_MIN_INDEX", "HEUR_MAX_OCCURRENCE"}
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.KERNEL_OPS
    assert all(callable(getattr(kernel_py, name, None)) for name in layers.KERNEL_OPS)


def test_compilers_identical_across_backends(kernel_cy, monkeypatch):
    rng = random.Random(31)
    from dpllc.checks import isomorphic
    from dpllc.store import stats

    for _ in range(25):
        cnf = random_cnf(rng, max_vars=9, max_clauses=18)
        order = compiler.VarOrder(tuple(rng.sample(range(1, cnf.num_vars + 1), cnf.num_vars)))
        results = []
        for kernel in (kernel_py, kernel_cy):
            monkeypatch.setattr(compiler, "KERNEL", kernel)
            results.append(
                (
                    compiler.compile_free(cnf),
                    compiler.compile_ordered(cnf, order),
                    compiler.compile_decomposed(cnf),
                )
            )
        for a, b in zip(*results):
            assert stats(a) == stats(b)
            assert isomorphic(a, b)


@byte_layout
def test_select_var_semantics(kernel):
    cnf = compute_key(Cnf.from_clauses([[2, 3], [3]], 3))
    assert kernel.select_var(cnf, kernel.HEUR_MAX_OCCURRENCE) == 3
    assert kernel.select_var(cnf, kernel.HEUR_MIN_INDEX) == 2
    assert kernel.select_var(b"", kernel.HEUR_MAX_OCCURRENCE) == 0


def test_branch_takes_no_rank_table(kernel):
    # The search passes no rank table, and neither backend takes one: a
    # stale fifth argument is refused on both.
    (res,), _, _ = kernel.root(compute_key(Cnf.from_clauses([[2, 1]], 2)), False, False)
    assert kernel.branch(res, kernel.HEUR_MIN_INDEX, False, False)[0] == 1
    with pytest.raises(TypeError):
        kernel.branch(res, kernel.HEUR_MIN_INDEX, None, False, False)


@byte_layout
def test_min_rank_var_rejects_a_variable_without_rank(kernel):
    res = compute_key(Cnf.from_clauses([[5000, 4000]], 5000))
    with pytest.raises(IndexError):
        kernel.min_rank_var(res, _rank_table(compiler.VarOrder.identity(3)))


# --- differential tests against the Cnf-level oracles ------------------------


@st.composite
def formulas(draw, max_vars=10, max_clauses=16):
    """A Cnf that may hold an empty clause (anywhere, the first included)
    and a unit-implication chain, so propagation can cascade through
    every variable."""
    n = draw(st.integers(1, max_vars))
    clause = st.lists(st.integers(1, n), min_size=1, max_size=min(n, 4), unique=True)
    clauses = []
    for vs in draw(st.lists(clause, max_size=max_clauses)):
        clauses.append([v if draw(st.booleans()) else -v for v in vs])
    if draw(st.booleans()):
        chain = draw(st.permutations(range(1, n + 1)))[: draw(st.integers(1, n))]
        sign = [1 if draw(st.booleans()) else -1 for _ in chain]
        clauses.append([sign[0] * chain[0]])
        for j in range(1, len(chain)):
            clauses.append([-sign[j - 1] * chain[j - 1], sign[j] * chain[j]])
        clauses = draw(st.permutations(clauses))
    if draw(st.integers(0, 4)) == 0:
        clauses.insert(draw(st.integers(0, len(clauses))), [])
    return Cnf.from_clauses(clauses, n)


@byte_layout
@bounded
@given(data=st.data())
def test_condition_matches_oracle(kernel, data):
    cnf = data.draw(formulas())
    lit = data.draw(st.integers(1, cnf.num_vars)) * data.draw(st.sampled_from((1, -1)))
    assert kernel.condition(compute_key(cnf), lit) == compute_key(condition(cnf, lit))


LEADING_EMPTY = Cnf.from_clauses([[], [1], [-1, 2]], 2)
LONG_CASCADE = Cnf.from_clauses([[-v, v + 1] for v in range(1, 10)] + [[1]], 10)


@byte_layout
@bounded
@given(cnf=formulas())
@example(cnf=LEADING_EMPTY)
@example(cnf=LONG_CASCADE)
def test_propagate_matches_unit_propagate(kernel, cnf):
    residual, implied, conflict = unit_propagate(cnf)
    res = compute_key(cnf)
    assert kernel.propagate(res) == (compute_key(residual), tuple(implied), conflict)
    assert kernel.propagate_conflict(res) == conflict


@byte_layout
@bounded
@given(rng=st.randoms(use_true_random=False))
def test_closure_decides_the_branches_it_holds(kernel, rng):
    # Unit resolution is monotone: for a literal x of a residual's
    # unit-propagation closure I, conditioning on -x gives an empty clause
    # or a propagation conflict, and conditioning on x gives a residual
    # without conflict whose closure is I less x.
    res = compute_key(random_cnf(rng, max_vars=10, max_clauses=16))
    _, implied, conflict = kernel.propagate(res)
    if conflict:
        return
    closure = set(implied)
    for x in implied:
        other = kernel.condition(res, -x)
        assert kernel.has_empty(other) or kernel.propagate(other)[2]
        _, child_implied, child_conflict = kernel.propagate(kernel.condition(res, x))
        assert not child_conflict
        assert set(child_implied) == closure - {x}


@bounded
@given(rng=st.randoms(use_true_random=False))
def test_branch_children_share_no_variable_with_their_implied_literals(kernel, rng):
    # What ordered search relies on when it keys a child by its rest and
    # the literals still waiting: neither the branch variable nor an
    # implied literal's variable occurs in the rest.
    # Every variable is decided first once, as 1 of the formula renamed
    # to put it first.
    cnf = random_cnf(rng, max_vars=10, max_clauses=16)
    for x in range(1, cnf.num_vars + 1):
        for res in kernel.root(compute_key(_first(cnf, x)), False, True)[0]:
            y, *children = kernel.branch(res, kernel.HEUR_MIN_INDEX, False, True)
            assert y == min(abs(lit) for lit in _literals(decode(res)))
            for parts, implied, _ in children:
                rest = {abs(lit) for part in parts for lit in _literals(decode(part))}
                assert len({abs(lit) for lit in implied}) == len(implied)
                assert not rest & ({abs(lit) for lit in implied} | {y})


def _literals(res):
    v = memoryview(res).cast("i")
    i = 0
    while i < len(v):
        yield from v[i + 2 : i + 2 + v[i + 1]]
        i += 2 + v[i + 1]


@byte_layout
@bounded
@given(cnf=formulas())
def test_split_matches_components(kernel, cnf):
    res = compute_key(cnf)
    if cnf.has_empty_clause():
        with pytest.raises(ValueError):
            kernel.split_components(res)
    else:
        assert kernel.split_components(res) == [compute_key(p) for p in components(cnf)]


def _records(*records):
    """Residual bytes of (clause index, literals) records."""
    return array("i", [x for idx, lits in records for x in (idx, len(lits), *lits)]).tobytes()


# (clauses, low child, high child) of branching min-index, on x = 1, with
# split and propagation; between them the cases cover every kind of child.
BRANCH_CASES = [
    # -x itself empties a clause; x leaves the rest as it is.
    ([[1], [2, 3]], ([], (), True), ([_records((1, [2, 3]))], (), False)),
    # -x implies 2, whose propagation empties (1 -2); x satisfies every
    # clause, and nothing is implied.
    ([[1, 2], [1, -2]], ([], (), True), ([], (), False)),
    # -x leaves nothing but an implied literal.
    ([[1, 2]], ([], (2,), False), ([], (), False)),
    # Implied literals and two components on one side, two components on
    # the other.
    (
        [[1, 2], [-2, 3, 4], [5, 6], [1, 5, 7]],
        ([_records((1, [3, 4])), _records((2, [5, 6]), (3, [5, 7]))], (2,), False),
        ([_records((1, [-2, 3, 4])), _records((2, [5, 6]))], (), False),
    ),
]


@pytest.mark.parametrize("clauses, low, high", BRANCH_CASES)
def test_branch_child_kinds(kernel, clauses, low, high):
    (res,), _, _ = kernel.root(compute_key(Cnf.from_clauses(clauses, 7)), False, False)
    x, got_low, got_high = kernel.branch(res, kernel.HEUR_MIN_INDEX, True, True)
    assert (x, decode_child(got_low), decode_child(got_high)) == (1, low, high)


@bounded
@given(rng=st.randoms(use_true_random=False))
def test_branch_matches_composition(kernel, rng):
    # Both children of every variable, with and without splitting and
    # propagation, on a residual as the search holds it (settled by root
    # with propagation), and without propagation on the unsettled input,
    # which free and decomposed search without propagation branch on.
    # Min-index on the formula renamed to put x first decides x, as 1,
    # when x occurs, and the first occurring variable of that order when
    # it does not.
    cnf = random_cnf(rng, max_vars=10, max_clauses=16)
    for x in range(1, cnf.num_vars + 1):
        raw = compute_key(_first(cnf, x))
        parents = [(res, prop) for res in kernel.root(raw, False, True)[0] for prop in (False, True)]
        parents += [(res, False) for res in kernel.root(raw, False, False)[0]]
        for res, prop in parents:
            layout = decode(res)
            occurring = {abs(lit) for lit in _literals(layout)}
            for split in (False, True):
                y, low, high = kernel.branch(res, kernel.HEUR_MIN_INDEX, split, prop)
                assert y == min(occurring)
                assert (decode_child(low), decode_child(high)) == (
                    oracle_child(layout, -y, split, prop),
                    oracle_child(layout, y, split, prop),
                )


@byte_layout
@bounded
@given(data=st.data())
def test_selectors_match_definitions(kernel, data):
    cnf = data.draw(formulas())
    order = data.draw(st.permutations(range(1, cnf.num_vars + 1)))
    res = compute_key(cnf)
    occurrences = {}
    for _, lits in cnf.clauses:
        for lit in lits:
            occurrences[abs(lit)] = occurrences.get(abs(lit), 0) + 1
    units = [abs(lits[0]) for _, lits in cnf.clauses if len(lits) == 1]
    rank = {v: pos for pos, v in enumerate(order)}
    assert kernel.first_unit_var(res) == (units[0] if units else 0)
    assert kernel.select_var(res, kernel.HEUR_MIN_INDEX) == min(occurrences, default=0)
    assert kernel.select_var(res, kernel.HEUR_MAX_OCCURRENCE) == min(
        occurrences, key=lambda v: (-occurrences[v], v), default=0
    )
    ranks = _rank_table(compiler.VarOrder(tuple(order)))
    assert kernel.min_rank_var(res, ranks) == min(occurrences, key=rank.get, default=0)


# Every variable occurs twice, so max-occurrence ties all four.
TIES = Cnf.from_clauses([[3, 4], [-1, 2], [-4, -3], [2, 1]], 4)


@bounded
@given(cnf=formulas(), rng=st.randoms(use_true_random=False))
@example(cnf=TIES, rng=random.Random(0))
@example(cnf=LEADING_EMPTY, rng=random.Random(0))
def test_branch_picks_what_the_pickers_pick(kernel, cnf, rng):
    # Ties included: the variable branch decides is the one _kernel_py's
    # select_var picks from the residual in the byte layout, settled or
    # not, and on the formula renamed by an order min-index decides the
    # renamed variable min_rank_var picks from the input's same residual.
    # An input with an empty clause is a conflict at the root and never
    # branches.
    raw = compute_key(cnf)
    if kernel.root(raw, False, False)[2]:
        assert cnf.has_empty_clause()
        return
    order = list(range(1, cnf.num_vars + 1))
    rng.shuffle(order)
    order = compiler.VarOrder(tuple(order))
    ranks = _rank_table(order)
    shuffled = compute_key(renamed(cnf, order))
    roots = kernel.root(raw, False, True)[0] + kernel.root(raw, False, False)[0]
    renamed_roots = kernel.root(shuffled, False, True)[0] + kernel.root(shuffled, False, False)[0]
    assert len(roots) == len(renamed_roots)
    for res, res_renamed in zip(roots, renamed_roots):
        layout = decode(res)
        first = order.rank[kernel_py.min_rank_var(layout, ranks)]
        for prop, split in product((False, True), (False, True)):
            for code in (kernel.HEUR_MIN_INDEX, kernel.HEUR_MAX_OCCURRENCE):
                assert kernel.branch(res, code, split, prop)[0] == kernel_py.select_var(layout, code)
            assert kernel.branch(res_renamed, kernel.HEUR_MIN_INDEX, split, prop)[0] == first


# --- the decision step against the byte layout's reference -------------------


def _walk_against_oracle(kernel, cnf, rng, steps=10):
    # Settle the input, and the input renamed by a shuffled order as the
    # ordered search takes it, then branch on residuals drawn at random
    # from everything settled so far, under every split, propagation and
    # heuristic setting; each step must give the reference's pick, children
    # (implied literals in order, conflicts, components in order), and the
    # keys of one input must tell residuals apart exactly as their byte
    # layouts do.
    order = list(range(1, cnf.num_vars + 1))
    rng.shuffle(order)
    shuffled = renamed(cnf, compiler.VarOrder(tuple(order)))
    inputs = (compute_key(cnf), compute_key(shuffled))
    for res0, split, prop in product(inputs, (False, True), (False, True)):
        root = kernel.root(res0, split, prop)
        assert decode_child(root) == oracle_root(res0, split, prop)
        layouts: dict[bytes, bytes] = {}
        keys: dict[bytes, bytes] = {}
        for code in (kernel.HEUR_MIN_INDEX, kernel.HEUR_MAX_OCCURRENCE):
            pool = list(root[0])
            for _ in range(steps):
                if not pool:
                    break
                res = pool.pop(rng.randrange(len(pool)))
                layout, key = decode(res), kernel.key(res)
                assert layouts.setdefault(key, layout) == layout
                assert keys.setdefault(layout, key) == key
                x, low, high = kernel.branch(res, code, split, prop)
                want = oracle_branch(layout, code, split, prop)
                assert (x, decode_child(low), decode_child(high)) == want
                pool += low[0] + high[0]


walked = settings(max_examples=60, deadline=None)

# Settled inputs wider than the Python kernel's mask-key bound, so that it
# keys their small residuals by sorted ids: 80 copies of one small formula
# on disjoint variables, which split into 80 parts numbered from clause
# 3i and variable 4i + 1, and 110 pairs of clauses joined by one hub
# variable, which fall apart in one part's numbering once it is decided.
WIDE_PARTS = Cnf.from_clauses(
    [c for b in range(0, 320, 4) for c in ([b + 1, b + 2, -(b + 3)], [-(b + 1), b + 3, b + 4], [b + 2, -(b + 4)])],
    320,
)
WIDE_HUB = Cnf.from_clauses(
    [c for a in range(2, 222, 2) for c in ([1, a, a + 1], [-1, a, -(a + 1)], [-a, a + 1])], 221
)


@walked
@given(cnf=formulas(max_vars=9, max_clauses=18), rng=st.randoms(use_true_random=False))
@example(cnf=TIES, rng=random.Random(0))
@example(cnf=LONG_CASCADE, rng=random.Random(0))
@example(cnf=WIDE_PARTS, rng=random.Random(0))
@example(cnf=WIDE_HUB, rng=random.Random(0))
def test_decision_steps_match_the_byte_reference(kernel, cnf, rng):
    _walk_against_oracle(kernel, cnf, rng)
