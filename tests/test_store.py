import random

import pytest

from dpllc.checks import isomorphic
from dpllc.compiler import VarOrder, compile_decomposed, compile_free, compile_ordered
from dpllc.store import (
    FALSE,
    TRUE,
    Circuit,
    NnfFormatError,
    NodeStore,
    StoreError,
    mask_bits,
    parse_nnf,
    reachable,
    serialize,
    stats,
)

from util import model_set, random_cnf, running_cnf, shannon_obdd_stats


# --- construction and reduction --------------------------------------------


def test_get_node_collapses_equal_children():
    s = NodeStore()
    a = s.get_node(2, FALSE, TRUE)
    assert s.get_node(1, a, a) == a


def test_get_node_hash_conses():
    s = NodeStore()
    assert s.get_node(1, FALSE, TRUE) == s.get_node(1, FALSE, TRUE)


def test_polarities_are_distinct_nodes():
    s = NodeStore()
    assert s.get_node(1, FALSE, TRUE) != s.get_node(1, TRUE, FALSE)


def test_and_singleton_collapses():
    s = NodeStore()
    a = s.get_node(1, FALSE, TRUE)
    assert s.get_and_node([a]) == a


def test_and_absorbs_true():
    s = NodeStore()
    a = s.get_node(1, FALSE, TRUE)
    b = s.get_node(2, FALSE, TRUE)
    node = s.get_and_node([TRUE, a, b])
    assert s.node(node) == ("A", (a, b))


def test_and_hash_conses_and_sorts():
    s = NodeStore()
    a = s.get_node(1, FALSE, TRUE)
    b = s.get_node(2, FALSE, TRUE)
    assert s.get_and_node([a, b]) == s.get_and_node([b, a])
    assert s.get_and_node([a, b, a]) == s.get_and_node([a, b])


def test_and_flattens_nested():
    s = NodeStore()
    a = s.get_node(1, FALSE, TRUE)
    b = s.get_node(2, FALSE, TRUE)
    c = s.get_node(3, FALSE, TRUE)
    inner = s.get_and_node([a, b])
    assert s.node(s.get_and_node([inner, c]))[1] == tuple(sorted((a, b, c)))


def test_and_empty_is_true():
    assert NodeStore().get_and_node([]) == TRUE


def test_and_rejects_false():
    with pytest.raises(StoreError):
        NodeStore().get_and_node([FALSE])


def test_literal_hash_conses():
    s = NodeStore()
    assert s.literal(-4) == s.literal(-4)
    assert s.literal(4) != s.literal(-4)


def test_frozen_store_rejects_writes():
    s = NodeStore()
    s.get_node(1, FALSE, TRUE)
    s.freeze()
    assert s.get_node(1, FALSE, TRUE) == 2  # lookups still fine
    with pytest.raises(StoreError):
        s.get_node(2, FALSE, TRUE)


def test_ids_are_stable():
    s = NodeStore()
    a = s.get_node(1, FALSE, TRUE)
    before = s.node(a)
    s.get_node(2, FALSE, a)
    assert s.node(a) == before


# --- stats ------------------------------------------------------------------


def test_stats_sink():
    s = NodeStore()
    assert stats(Circuit(s, TRUE, 4)) == (1, 0)


def test_stats_single_literal_decision():
    s = NodeStore()
    c = Circuit(s, s.get_node(1, FALSE, TRUE), 1)
    assert stats(c) == (3, 2)


def test_stats_running_obdd_matches_shannon_oracle():
    cnf = running_cnf()
    circuit = compile_ordered(cnf, VarOrder.identity(3))
    expected = shannon_obdd_stats(model_set(cnf), 3)
    assert expected == (6, 8)
    assert stats(circuit) == expected


def test_stats_random_obdds_match_shannon_oracle():
    rng = random.Random(37)
    for _ in range(40):
        cnf = random_cnf(rng, max_vars=7, max_clauses=10)
        circuit = compile_ordered(cnf, VarOrder.identity(cnf.num_vars))
        assert stats(circuit) == shannon_obdd_stats(model_set(cnf), cnf.num_vars)


def test_reachable_is_topological():
    s = NodeStore()
    a = s.get_node(2, FALSE, TRUE)
    b = s.get_node(1, a, TRUE)
    order = reachable(s, b)
    assert order.index(a) < order.index(b)
    assert set(order) == {FALSE, TRUE, a, b}


def test_mask_bits_lists_the_set_bits_in_order():
    rng = random.Random(3)
    masks = [0, 1, 1 << 7, 1 << 8, (1 << 55) - 1, 1 << 10**6 | 1 << 999]
    masks += [rng.getrandbits(rng.randint(1, 3000)) for _ in range(50)]
    for mask in masks:
        want = [v for v, bit in enumerate(reversed(bin(mask)[2:]), 1) if bit == "1"]
        assert mask_bits(mask) == want


# --- serialization ----------------------------------------------------------


def test_serialize_true_sink():
    assert serialize(Circuit(NodeStore(), TRUE, 7)) == "nnf 1 0 7\nA 0\n"


def test_serialize_false_sink():
    assert serialize(Circuit(NodeStore(), FALSE, 7)) == "nnf 1 0 7\nO 0 0\n"


def test_parse_sinks():
    assert parse_nnf("nnf 1 0 3\nA 0\n").root == TRUE
    assert parse_nnf("nnf 1 0 3\nO 0 0\n").root == FALSE


def test_roundtrip_compiled_circuits():
    rng = random.Random(41)
    for _ in range(30):
        cnf = random_cnf(rng, max_vars=8, max_clauses=14)
        for circuit in (
            compile_free(cnf),
            compile_ordered(cnf, VarOrder.identity(cnf.num_vars)),
            compile_decomposed(cnf),
        ):
            again = parse_nnf(serialize(circuit))
            assert isomorphic(circuit, again)
            assert stats(circuit) == stats(again)
            assert again.universe == circuit.universe


def test_roundtrip_literal_root():
    s = NodeStore()
    c = Circuit(s, s.literal(-2), 3)
    again = parse_nnf(serialize(c))
    assert again.store.node(again.root) == ("L", -2)


def test_parse_errors():
    with pytest.raises(NnfFormatError):
        parse_nnf("nnf 1 0 2\nL 1\nL 2\n")  # more lines than declared
    with pytest.raises(NnfFormatError) as e:
        parse_nnf("nnf 2 1 2\nA 1 1\nL 1\n")  # forward reference
    assert e.value.line == 2
    with pytest.raises(NnfFormatError):
        parse_nnf("nnf 1 0 2\nL x\n")
    with pytest.raises(NnfFormatError):
        parse_nnf("nnf 1 0 2\nZ 1\n")
    with pytest.raises(NnfFormatError):
        parse_nnf("L 1\n")  # missing header
    with pytest.raises(NnfFormatError):
        parse_nnf("nnf 3 2 2\nL 1\nL 2\nO 1 2 0 1\n")  # child lacks branch literal


@pytest.mark.parametrize(
    "text,message,line",
    [
        ("x 1 0 2\n", "expected header 'nnf V E N', got 'x 1 0 2'", 1),
        ("nnf 1 0\n", "expected header 'nnf V E N', got 'nnf 1 0'", 1),
        ("nnf a 0 2\n", "non-numeric header field", 1),
        ("nnf 1 0 2\nL x\n", "non-numeric field in 'L x'", 2),
        ("nnf 1 0 2\nL 1 2\n", "malformed literal line 'L 1 2'", 2),
        ("nnf 1 0 2\nL 0\n", "malformed literal line 'L 0'", 2),
        ("nnf 2 1 2\nL 1\nA 2 0\n", "child count mismatch in 'A 2 0'", 3),
        ("nnf 2 1 2\nA 1 1\nL 1\n", "reference 1 not to an earlier line", 2),
        ("nnf 2 0 2\nO 1 2 0\n", "malformed decision line 'O 1 2 0'", 2),
        ("nnf 1 0 2\nO 0 2 0 0\n", "malformed decision line 'O 0 2 0 0'", 2),
        ("nnf 3 0 2\nL 1\nL -1\nO 1 2 1 3\n", "reference 3 not to an earlier line", 4),
        ("nnf 1 0 2\nZ 1\n", "unknown node kind 'Z'", 2),
        ("c no header\nL 1\n", "expected header 'nnf V E N', got 'L 1'", 2),
        ("", "missing header", None),
        ("nnf 2 0 2\nL 1\n", "header declares 2 nodes, found 1", None),
        ("nnf 1 0 -1\nA 0\n", "negative universe in header", None),
        ("nnf 0 0 2\n", "empty node section", None),
        ("nnf 3 2 2\nL 1\nL 2\nO 1 2 0 1\n", "decision child lacks branch literal", 4),
        (
            "nnf 5 4 3\nL -1\nL 2\nL 3\nA 2 1 2\nO 1 2 0 3\n",
            "decision child lacks branch literal",
            6,
        ),
        ("nnf 4 3 2\nO 0 0\nA 0\nL -1\nO 1 2 2 0\n", "decision child is not a conjunction", 5),
        ("nnf 3 2 2\nO 0 0\nL 1\nA 2 0 1\n", "false sink under a conjunction", 4),
        ("nnf 1 0 1\nL -2\n", "variable 2 exceeds declared universe 1", 2),
        ("nnf 2 0 2\nA 0\nO 3 2 0 0\n", "variable 3 exceeds declared universe 2", 3),
        ("nnf 1 0 2\nc fixed 1\nL -1\n", "variable 1 is fixed", 3),
        ("nnf 2 0 2\nc fixed 2\nA 0\nO 2 2 0 0\n", "variable 2 is fixed", 4),
        ("nnf 1 0 2\nc fixed\nA 0\n", "malformed fixed line 'c fixed'", 2),
        ("nnf 1 0 2\nc fixed 0\nA 0\n", "malformed fixed line 'c fixed 0'", 2),
        ("nnf 1 0 2\nc fixed 3\nA 0\n", "malformed fixed line 'c fixed 3'", 2),
        ("nnf 1 0 2\nc fixed 2 1\nA 0\n", "malformed fixed line 'c fixed 2 1'", 2),
        ("nnf 1 0 2\nc fixed 1 1\nA 0\n", "malformed fixed line 'c fixed 1 1'", 2),
        ("nnf 1 0 2\nc fixed 1\nc fixed 2\nA 0\n", "malformed fixed line 'c fixed 2'", 3),
        ("nnf 1 0 2\nA 0\nc fixed 1\n", "malformed fixed line 'c fixed 1'", 3),
        ("nnf 1 0 2\nc fixed 1 x\nA 0\n", "non-numeric field in 'c fixed 1 x'", 2),
        ("c fixed 1\nnnf 1 0 2\nA 0\n", "expected header 'nnf V E N', got 'c fixed 1'", 1),
    ],
)
def test_parse_errors_name_the_fault(text, message, line):
    with pytest.raises(NnfFormatError) as info:
        parse_nnf(text)
    assert info.value.line == line
    assert str(info.value) == (message if line is None else "line %d: %s" % (line, message))


def test_parse_reads_the_fixed_set_and_skips_other_comments():
    c = parse_nnf("c made by hand\nnnf 1 0 4\nc note\nc fixed 1 3\ncfixed 2\nL -2\n")
    assert (c.num_vars, c.fixed, c.universe) == (4, 0b101, 2)
    assert serialize(c) == "nnf 1 0 4\nc fixed 1 3\nL -2\n"


def test_parse_header_edge_count_is_not_trusted():
    # Edge totals are informational; node structure is what gets validated.
    c = parse_nnf("nnf 3 99 2\nL 1\nL 2\nA 2 0 1\n")
    assert stats(c) == (3, 2)


def _literals(s, *lits):
    return [s.literal(l) for l in lits]


def _dup(s):
    s.nodes.append(s.nodes[_literals(s, 1)[0]])


def _sink(s):
    s.nodes[1] = ("L", 1)
    s.nodes.append(("T",))


def _conj(s, children):
    _literals(s, 1, 2, 3)  # ids 2, 3, 4
    s.nodes.append(("A", children))


def _nested(s):
    a, b, c = _literals(s, 1, 2, 3)
    inner = s.get_and_node([a, b])
    s.nodes.append(("A", (c, inner)))


# Each case breaks exactly one invariant of a fresh store.
AUDIT_BREAKS = {
    "duplicate": (_dup, "nodes 2 and 3 are structurally identical"),
    "sink": (_sink, "sink at non-reserved id 2"),
    "zero-literal": (lambda s: s.nodes.append(("L", 0)), "zero literal at node 2"),
    "equal-children": (
        lambda s: s.nodes.append(("D", 1, 0, 0)),
        "decision 2 has identical children",
    ),
    "later-low": (
        lambda s: s.nodes.append(("D", 1, 2, 0)),
        "decision 2 references a later node",
    ),
    "later-high": (
        lambda s: s.nodes.append(("D", 1, 0, 3)),
        "decision 2 references a later node",
    ),
    "one-child": (lambda s: _conj(s, (2,)), "conjunction 5 has fewer than two children"),
    "unsorted": (lambda s: _conj(s, (3, 2)), "conjunction 5 children not sorted/unique"),
    "repeated": (lambda s: _conj(s, (2, 2)), "conjunction 5 children not sorted/unique"),
    "later-child": (lambda s: _conj(s, (2, 6)), "conjunction 5 references a later node"),
    "false-child": (lambda s: _conj(s, (0, 2)), "conjunction 5 has a constant child"),
    "true-child": (lambda s: _conj(s, (1, 2)), "conjunction 5 has a constant child"),
    "nested": (_nested, "conjunction 6 has a nested conjunction"),
    "unknown-kind": (lambda s: s.nodes.append(("X",)), "unknown node kind 'X'"),
}


@pytest.mark.parametrize("case", sorted(AUDIT_BREAKS))
def test_audit_names_each_broken_invariant(case):
    s = NodeStore()
    s.audit()
    brk, message = AUDIT_BREAKS[case]
    brk(s)
    with pytest.raises(StoreError) as info:
        s.audit()
    assert str(info.value) == message


def test_audit_passes_on_compiled_stores():
    rng = random.Random(43)
    for _ in range(10):
        cnf = random_cnf(rng, max_vars=8, max_clauses=12)
        compile_decomposed(cnf).store.audit()
        compile_free(cnf).store.audit()
