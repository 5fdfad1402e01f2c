import random

import pytest

from dpllc.cnf import Cnf, DimacsError, as_term, parse_dimacs

from util import (
    RUNNING_DIMACS,
    assignments,
    brute_force_count,
    components,
    condition,
    condition_all,
    eval_cnf,
    random_cnf,
    running_cnf,
    unit_propagate,
)


# --- parsing ---------------------------------------------------------------


def test_parse_running_formula():
    cnf = parse_dimacs(RUNNING_DIMACS)
    assert cnf.num_vars == 3
    assert [lits for _, lits in cnf.clauses] == [(1, 2), (1, -2, -3), (-1, 2, -3)]


def test_parse_empty_formula():
    cnf = parse_dimacs("p cnf 1 0\n")
    assert cnf.num_vars == 1
    assert len(cnf) == 0


def test_parse_drops_tautology():
    cnf = parse_dimacs("p cnf 2 1\n1 -1 0\n")
    assert len(cnf) == 0
    assert cnf.dropped_tautologies == 1


def test_parse_dedups_literals():
    cnf = parse_dimacs("p cnf 2 1\n1 1 2 0\n")
    assert cnf.clauses[0][1] == (1, 2)


def test_parse_multiline_clause_and_comments():
    cnf = parse_dimacs("c hi\np cnf 3 1\nc mid\n1\n-2\n3 0\n")
    assert cnf.clauses[0][1] == (1, -2, 3)


def test_parse_satlib_trailer():
    cnf = parse_dimacs("p cnf 2 1\n1 2 0\n%\n0\n")
    assert len(cnf) == 1


@pytest.mark.parametrize(
    "text,line",
    [
        ("p cnf x 1\n1 0\n", 1),
        ("p cnf 2 1\n3 0\n", 2),
        ("p cnf 2 1\n1 2\n", 2),
        ("1 0\np cnf 2 1\n", 1),
        ("p cnf 2 2\n1 0\n", None),
    ],
)
def test_parse_errors_carry_line(text, line):
    with pytest.raises(DimacsError) as info:
        parse_dimacs(text)
    if line is not None:
        assert info.value.line == line


@pytest.mark.parametrize(
    "text,message,line",
    [
        ("p cnf 2 1\np cnf 2 1\n1 0\n", "duplicate header", 2),
        ("c hi\np cnf 2\n", "malformed header 'p cnf 2'", 2),
        ("p dnf 2 1\n", "malformed header 'p dnf 2 1'", 1),
        ("p cnf x 1\n", "malformed header 'p cnf x 1'", 1),
        ("p cnf -1 1\n", "negative counts in header", 1),
        ("p cnf 2 -1\n", "negative counts in header", 1),
        ("1 0\np cnf 2 1\n", "clause before header", 1),
        ("p cnf 2 1\n1 y 0\n", "bad token 'y'", 2),
        ("p cnf 2 1\n3 0\n", "variable 3 exceeds declared universe 2", 2),
        ("p cnf 2 1\n1 2\n", "clause missing 0 terminator", 2),
        ("c only a comment\n", "missing header", None),
        ("", "missing header", None),
        ("p cnf 2 2\n1 0\n", "header declares 2 clauses, found 1", None),
    ],
)
def test_parse_errors_name_the_fault(text, message, line):
    with pytest.raises(DimacsError) as info:
        parse_dimacs(text)
    assert info.value.line == line
    assert str(info.value) == (message if line is None else "line %d: %s" % (line, message))


def test_cnf_rejects_bad_clauses():
    with pytest.raises(ValueError):
        Cnf.from_clauses([[1, 5]], 3)
    with pytest.raises(ValueError):
        Cnf.from_clauses([[1, 1]], 3)


# --- conditioning ----------------------------------------------------------


def substitute(cnf, lit):
    # Oracle: literal substitution over every clause, applied symbolically.
    out = []
    for idx, lits in cnf.clauses:
        if lit in lits:
            continue  # clause evaluates to true
        out.append((idx, tuple(l for l in lits if l != -lit)))
    return out


def test_condition_running_positive():
    res = condition(running_cnf(), 1)
    assert res.clauses == ((2, (2, -3)),)
    assert res.clauses == tuple(substitute(running_cnf(), 1))


def test_condition_running_negative():
    res = condition(running_cnf(), -1)
    assert res.clauses == ((0, (2,)), (1, (-2, -3)))
    assert res.clauses == tuple(substitute(running_cnf(), -1))


def test_condition_absent_variable():
    cnf = Cnf.from_clauses([[1, 2]], 3)
    assert condition(cnf, 3).clauses == cnf.clauses


def test_condition_keeps_empty_clause():
    cnf = Cnf.from_clauses([[1]], 1)
    res = condition(cnf, -1)
    assert res.clauses == ((0, ()),)
    assert res.has_empty_clause()


def test_condition_commutes_on_distinct_vars():
    rng = random.Random(7)
    for _ in range(50):
        cnf = random_cnf(rng, max_vars=8, max_clauses=12)
        if cnf.num_vars < 2:
            continue
        a, b = rng.sample(range(1, cnf.num_vars + 1), 2)
        la = a if rng.random() < 0.5 else -a
        lb = b if rng.random() < 0.5 else -b
        assert condition(condition(cnf, la), lb) == condition(condition(cnf, lb), la)


# --- unit propagation ------------------------------------------------------


def test_unit_chain():
    cnf = Cnf.from_clauses([[1], [-1, 2]], 2)
    residual, implied, conflict = unit_propagate(cnf)
    assert (len(residual), implied, conflict) == (0, [1, 2], False)


def test_unit_contradiction():
    cnf = Cnf.from_clauses([[1], [-1]], 1)
    residual, implied, conflict = unit_propagate(cnf)
    assert conflict
    assert implied == [1]
    assert residual.has_empty_clause()


def test_unit_fixpoint_without_units():
    cnf = running_cnf()
    residual, implied, conflict = unit_propagate(cnf)
    assert residual == cnf and implied == [] and not conflict
    assert all(len(lits) > 1 for _, lits in cnf.clauses)


def test_unit_propagation_preserves_count():
    # Fixing the implied literals, the residual has the same models; over
    # the full universe the freed variables contribute a factor 2 each.
    rng = random.Random(11)
    for _ in range(100):
        cnf = random_cnf(rng, max_vars=8, max_clauses=15)
        residual, implied, conflict = unit_propagate(cnf)
        if conflict:
            assert brute_force_count(cnf) == 0
        else:
            assert residual == condition_all(cnf, implied)
            assert brute_force_count(cnf) << len(implied) == brute_force_count(residual)


# --- components ------------------------------------------------------------


def test_components_disjoint():
    cnf = Cnf.from_clauses([[1, 2], [3, 4]], 4)
    parts = components(cnf)
    assert len(parts) == 2
    assert parts[0].clauses == ((0, (1, 2)),)
    assert parts[1].clauses == ((1, (3, 4)),)


def test_components_running_is_connected():
    assert len(components(running_cnf())) == 1


def test_components_empty():
    assert components(Cnf.from_clauses([], 3)) == []


def test_components_rejects_empty_clause():
    with pytest.raises(ValueError):
        components(Cnf(1, ((0, ()),)))


def test_components_partition_counts():
    # Product of per-part counts over part variables, times 2^(untouched),
    # equals the whole count.
    rng = random.Random(13)
    for _ in range(60):
        cnf = random_cnf(rng, max_vars=10, max_clauses=8)
        if cnf.has_empty_clause():
            continue
        parts = components(cnf)
        assert sorted(i for p in parts for i, _ in p.clauses) == [
            i for i, _ in cnf.clauses
        ]
        seen_vars = set()
        product = 1
        for part in parts:
            vs = part.variables()
            assert not vs & seen_vars
            seen_vars |= vs
            product *= sum(
                1
                for m in range(1 << len(vs))
                # count over the part's own variables only
                if eval_cnf(
                    part,
                    dict(zip(sorted(vs), ((m >> i) & 1 == 1 for i in range(len(vs))))),
                )
            )
        product <<= cnf.num_vars - len(seen_vars)
        assert product == brute_force_count(cnf)


# --- brute-force oracle ----------------------------------------------------


def test_brute_force_running():
    cnf = running_cnf()
    assert brute_force_count(cnf) == 4
    # the oracle's oracle: direct evaluation of all 8 assignments
    assert sum(eval_cnf(cnf, a) for a in assignments(3)) == 4


def test_brute_force_trivial_cases():
    assert brute_force_count(Cnf.from_clauses([], 5)) == 32
    assert brute_force_count(Cnf.from_clauses([[1], [-1]], 1)) == 0


def test_brute_force_guard():
    with pytest.raises(ValueError):
        brute_force_count(Cnf.from_clauses([], 25))


def test_brute_force_matches_direct_eval():
    rng = random.Random(17)
    for _ in range(40):
        cnf = random_cnf(rng, max_vars=8, max_clauses=12)
        direct = sum(eval_cnf(cnf, a) for a in assignments(cnf.num_vars))
        assert brute_force_count(cnf) == direct


def test_split_identity():
    # count(F) = count(F|x=0) + count(F|x=1), each branch count taken over
    # the remaining variables (conditioning frees x, hence the halving).
    rng = random.Random(19)
    for _ in range(60):
        cnf = random_cnf(rng, max_vars=9, max_clauses=12)
        vs = cnf.variables()
        if not vs:
            continue
        x = rng.choice(sorted(vs))
        low = brute_force_count(condition(cnf, -x)) >> 1
        high = brute_force_count(condition(cnf, x)) >> 1
        assert brute_force_count(cnf) == low + high


def test_as_term():
    assert as_term([1, -2]) == frozenset({1, -2})
    with pytest.raises(ValueError):
        as_term([1, -1])
    with pytest.raises(ValueError):
        as_term([0])
