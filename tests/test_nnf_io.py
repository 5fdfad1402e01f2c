"""The nnf writer and reader against their reference versions in util:
byte-equal text, equal parsed stores, the round trip, the same error for
every single-fault mutation of a serialized text, and large circuits at
the default recursion limit within a fixed time budget."""

import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpllc.store import FALSE, TRUE, Circuit, NodeStore, parse_nnf, serialize, stats

from util import compiled_family, oracle_parse_nnf, oracle_serialize


def _parsed(parse, text):
    """What a reader makes of text: its store, root, bound and fixed set,
    or the type, message and line of its error."""
    try:
        c = parse(text)
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "line", None))
    return ("ok", c.store.nodes, c.root, c.num_vars, c.fixed)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1 << 32))
def test_io_matches_the_reference_reader_and_writer(seed):
    for circuit in compiled_family(random.Random(seed)):
        text = serialize(circuit)
        assert text == oracle_serialize(circuit)
        got = _parsed(parse_nnf, text)
        assert got[0] == "ok"
        assert got == _parsed(oracle_parse_nnf, text)
        assert serialize(parse_nnf(text)) == text


# Texts around the `c fixed` line and the variables it fixes.
FIXED_LINE_TEXTS = {
    "read": "nnf 1 0 4\nc fixed 1 3\nL -2\n",
    "among-comments": "c x\nnnf 1 0 4\n\nc y\nc fixed 4\nc fixed_not 1\nL -2\n",
    "before-header": "c fixed 1\nnnf 1 0 2\nA 0\n",
    "empty": "nnf 1 0 2\nc fixed\nA 0\n",
    "zero": "nnf 1 0 2\nc fixed 0 1\nA 0\n",
    "above-bound": "nnf 1 0 2\nc fixed 1 3\nA 0\n",
    "descending": "nnf 1 0 2\nc fixed 2 1\nA 0\n",
    "repeated": "nnf 1 0 2\nc fixed 2 2\nA 0\n",
    "non-numeric": "nnf 1 0 2\nc fixed 1 +x\nA 0\n",
    "twice": "nnf 1 0 3\nc fixed 1\nc fixed 2\nA 0\n",
    "after-a-node": "nnf 2 0 3\nA 0\nc fixed 1\nO 0 0\n",
    "negative-bound": "nnf 1 0 -1\nc fixed 1\nA 0\n",
    "literal-on-fixed": "nnf 3 2 3\nc fixed 2\nL 1\nL -2\nA 2 0 1\n",
    "decision-on-fixed": "nnf 5 4 3\nc fixed 1\nL -2\nL 2\nA 0\nO 1 2 0 1\nA 1 3\n",
    "literal-above-bound": "nnf 3 2 2\nL 1\nL 3\nA 2 0 1\n",
}


@pytest.mark.parametrize("name", sorted(FIXED_LINE_TEXTS))
def test_fixed_lines_read_like_the_reference_reader(name):
    text = FIXED_LINE_TEXTS[name]
    got = _parsed(parse_nnf, text)
    assert got == _parsed(oracle_parse_nnf, text)
    assert (got[0] == "ok") == (name in ("read", "among-comments"))


# --- single-fault mutations -------------------------------------------------
#
# Each takes the header fields and the other lines (as field lists: a
# conditioned circuit's `c fixed` line keeps its fields as text, node lines
# have int fields after the kind) of a serialized circuit and returns the
# mutated text.  Node line references count node lines only.


def _text(header, body):
    return "\n".join(" ".join(map(str, f)) for f in [header] + body) + "\n"


def _refs(fields):
    """Indices into fields of the child references of one node line."""
    if fields[0] == "A":
        return range(2, len(fields))
    if fields[0] == "O" and len(fields) == 5:
        return range(3, 5)
    return range(0)


def _drop_line(rng, header, body):
    del body[rng.randrange(len(body))]
    if rng.random() < 0.7:
        header[1] -= 1  # keep the count right, so later references shift
    return _text(header, body)


def _bad_reference(rng, header, body):
    lines = [i for i, f in enumerate(body) if _refs(f)]
    if not lines:
        return _text(header, body + [["A", 1, len(body) + 3]])
    i = rng.choice(lines)
    j = rng.choice(list(_refs(body[i])))
    body[i][j] = rng.choice([i, i + rng.randint(1, 5), -rng.randint(1, 3)])
    return _text(header, body)


def _wrong_kind(rng, header, body):
    i = rng.randrange(len(body))
    body[i][0] = rng.choice([k for k in ("L", "A", "O", "Z", "D") if k != body[i][0]])
    return _text(header, body)


def _non_numeric(rng, header, body):
    i = rng.randrange(len(body))
    body[i].append(rng.choice(["x", "1.5", "--2"]))
    if len(body[i]) > 2:
        j = rng.randrange(1, len(body[i]))
        body[i][j], body[i][-1] = body[i][-1], body[i][j]
    return _text(header, body)


def _count_mismatch(rng, header, body):
    ands = [i for i, f in enumerate(body) if f[0] == "A"]
    if not ands:
        return _text(header, body + [["A", 2, 0]])
    i = rng.choice(ands)
    body[i][1] += rng.choice([-1, 1, 2])
    return _text(header, body)


def _missing_branch_literal(rng, header, body):
    decisions = [i for i, f in enumerate(body) if f[0] == "O" and len(f) == 5]
    if not decisions:
        return _text(header, body + [["O", 1, 2, 0, 0]])
    i = rng.choice(decisions)
    how = rng.randrange(3)
    if how == 0:
        body[i][3], body[i][4] = body[i][4], body[i][3]  # swap the branches
    elif how == 1:
        body[i][1] += rng.randint(1, 3)  # branch on another variable
    else:
        j = rng.choice([3, 4])  # point a branch at a non-conjunction
        body[i][j] = rng.randrange(i)
    return _text(header, body)


def _false_sink_under_conjunction(rng, header, body):
    # A new false sink as node line 0, after the `c fixed` line (every
    # reference shifts by one), then one conjunction gains it as a child.
    first = sum(1 for f in body if f[0] == "c")
    body = body[:first] + [["O", 0, 0]] + [
        [f + 1 if j in _refs(fields) else f for j, f in enumerate(fields)]
        for fields in body[first:]
    ]
    header[1] += 1
    branches = {f[j] for f in body if f[0] == "O" and len(f) == 5 for j in (3, 4)}
    ands = [i for i, f in enumerate(body) if f[0] == "A" and f[1] > 0]
    ands = [i for i in ands if i not in branches] or ands
    if ands:
        i = rng.choice(ands)
        body[i] = body[i][:1] + [body[i][1] + 1, 0] + body[i][2:]
    return _text(header, body)


def _bad_header(rng, header, body):
    how = rng.randrange(6)
    if how == 0:
        header = header[:3]
    elif how == 1:
        header = header + [0]
    elif how == 2:
        header[0] = "cnf"
    elif how == 3:
        header[rng.randint(1, 3)] = "n"
    elif how == 4:
        header[3] = -1
    else:
        header[1] += rng.choice([-1, 1])
    return _text(header, body)


def _bad_variable(rng, header, body):
    # A node line's variable moves above N or into the fixed set; without
    # a fixed set, a new `c fixed` line may fix a variable that occurs.
    nodes = [i for i, f in enumerate(body) if f[0] == "L" or f[0] == "O" and len(f) == 5]
    if not nodes:
        return _text(header, body + [["L", header[3] + 1]])
    i = rng.choice(nodes)
    var = abs(body[i][1])
    fixed = [int(v) for f in body if f[0] == "c" for v in f[2:]]
    if not fixed and rng.random() < 0.5:
        return _text(header, [["c", "fixed", var]] + body)
    if fixed and rng.random() < 0.5:
        new = rng.choice(fixed)
    else:
        new = header[3] + rng.randint(1, 3)
    body[i][1] = new if body[i][1] > 0 else -new
    return _text(header, body)


def _noise(rng, header, body):
    # Comments, blank lines, extra spacing and CRLF line ends: no fault.
    out = []
    for fields in [header] + body:
        while rng.random() < 0.2:
            out.append(rng.choice(["c a comment", "", "   ", "c", "\t"]))
        pad = rng.choice(["", " ", "\t"])
        out.append(pad + rng.choice([" ", "  ", "\t"]).join(map(str, fields)) + pad)
    return "".join(line + rng.choice(["\r\n", "\n"]) for line in out)


MUTATIONS = {
    "drop-line": _drop_line,
    "bad-reference": _bad_reference,
    "wrong-kind": _wrong_kind,
    "non-numeric": _non_numeric,
    "count-mismatch": _count_mismatch,
    "missing-branch-literal": _missing_branch_literal,
    "false-sink-under-conjunction": _false_sink_under_conjunction,
    "bad-header": _bad_header,
    "bad-variable": _bad_variable,
    "noise": _noise,
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 1 << 32))
def test_mutated_texts_fail_like_the_reference_reader(name, seed):
    rng = random.Random(seed)
    for circuit in compiled_family(rng)[:: rng.randint(1, 3)]:
        header, *body = [line.split() for line in serialize(circuit).splitlines()]
        header = header[:1] + [int(f) for f in header[1:]]
        body = [f if f[0] == "c" else f[:1] + [int(x) for x in f[1:]] for f in body]
        comments = [list(f) for f in body if f[0] == "c"]
        text = MUTATIONS[name](rng, header, body)
        got = _parsed(parse_nnf, text)
        assert got == _parsed(oracle_parse_nnf, text), text
        if name == "noise":
            assert got == _parsed(parse_nnf, serialize(circuit))
        elif name == "non-numeric":
            # A mutated `c` line may have become a plain comment.
            if comments == [f for f in body if f[0] == "c"]:
                assert got[0] != "ok"
        elif name in ("count-mismatch", "bad-variable"):
            assert got[0] != "ok"


def _noisy(rng, text):
    """text with its lines' fields kept and noise around and between them."""
    header, *body = [line.split() for line in text.splitlines()]
    return _noise(rng, header, body)


@pytest.mark.parametrize("name", sorted(set(MUTATIONS) - {"noise"}))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1 << 32))
def test_faults_behind_noise_fail_like_the_reference_reader(name, seed):
    # Comments, blank lines and CRLF ends shift every line number after
    # them, so an error must name the line of the text it was read from.
    rng = random.Random(seed)
    for circuit in compiled_family(rng)[:: rng.randint(1, 3)]:
        header, *body = [line.split() for line in serialize(circuit).splitlines()]
        header = header[:1] + [int(f) for f in header[1:]]
        body = [f if f[0] == "c" else f[:1] + [int(x) for x in f[1:]] for f in body]
        text = _noisy(rng, MUTATIONS[name](rng, header, body))
        assert _parsed(parse_nnf, text) == _parsed(oracle_parse_nnf, text), text


# --- large circuits -------------------------------------------------------------

IO_BUDGET_S = 5.0


@pytest.mark.parametrize("shape", ["deep", "wide", "fixed"])
def test_large_circuits_round_trip_within_budget(shape):
    # A 40,000-deep decision chain and a 40,000-wide literal conjunction,
    # at the default recursion limit; and the chain in a bound of 10^7
    # with every 500th variable above it fixed, 19,920 of them, so that a
    # cost per line or per fixed variable that grows with N shows.
    n = 40_000
    assert sys.getrecursionlimit() < n
    s = NodeStore()
    if shape == "wide":
        root = s.get_and_node([s.literal(v if v % 3 else -v) for v in range(1, n + 1)])
    else:
        root = TRUE
        for v in range(n, 0, -1):
            root = s.get_node(v, FALSE, root)
    if shape == "fixed":
        # Bits n + 499, n + 999, ..., 10^7 - 1: variables n + 500k.
        fixed = int(("1" + "0" * 499) * 19_920 + "0" * n, 2)
        circuit = Circuit(s, root, 10**7, fixed)
    else:
        circuit = Circuit(s, root, n)
    start = time.perf_counter()
    text = serialize(circuit)
    again = parse_nnf(text)
    elapsed = time.perf_counter() - start
    assert elapsed < IO_BUDGET_S, "round trip took %.2f s" % elapsed
    assert stats(again) == stats(circuit)
    assert (again.num_vars, again.fixed) == (circuit.num_vars, circuit.fixed)
    assert serialize(again) == text
