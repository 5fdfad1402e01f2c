"""Circuit sizes and counts pinned on fixed seeded formulas.

A change meant only for speed or simplicity must leave every compiled
circuit as it was.  PINNED was recorded before the kernel was last
rewritten and fails on any drift in node count, edge count or model count
of the default configurations; CONFIGURATIONS_DIGEST was recorded before
the search loops were merged and fails on any change to the serialized
circuit or the store size under any configuration.
"""

import hashlib
import random
from array import array

import pytest

import dpllc.compiler as compiler
from dpllc import _kernel
from dpllc.cnf import Cnf
from dpllc.compiler import (
    HEURISTICS,
    MODES,
    Cache,
    CompileConfig,
    bandwidth_order,
    compile_cnf,
    compile_decomposed,
    compile_free,
    compile_ordered,
)
from dpllc.queries import model_count
from dpllc.store import serialize, stats

from util import flat_colouring_cnf, random_3cnf, random_cnf, running_cnf

FORMULAS = {
    "r3-n30-3.6": lambda: random_3cnf(random.Random(1), 30, 3.6),
    "r3-n30-4.0": lambda: random_3cnf(random.Random(2), 30, 4.0),
    "flat-v8-e14": lambda: flat_colouring_cnf(random.Random(3), 8, 14),
}

COMPILERS = {
    "free": compile_free,
    "ordered": lambda cnf: compile_ordered(cnf, bandwidth_order(cnf)),
    "decomposed": compile_decomposed,
}

# (formula, mode) -> (nodes, edges, model count)
PINNED = {
    ("r3-n30-3.6", "free"): (217, 430, 217),
    ("r3-n30-3.6", "ordered"): (240, 476, 217),
    ("r3-n30-3.6", "decomposed"): (117, 281, 217),
    ("r3-n30-4.0", "free"): (300, 596, 204),
    ("r3-n30-4.0", "ordered"): (223, 442, 204),
    ("r3-n30-4.0", "decomposed"): (146, 387, 204),
    ("flat-v8-e14", "free"): (119, 234, 12),
    ("flat-v8-e14", "ordered"): (96, 188, 12),
    ("flat-v8-e14", "decomposed"): (69, 136, 12),
}


@pytest.mark.parametrize("formula, mode", sorted(PINNED), ids=["%s-%s" % key for key in sorted(PINNED)])
def test_circuit_size_is_pinned(formula, mode):
    circuit = COMPILERS[mode](FORMULAS[formula]())
    assert stats(circuit) + (model_count(circuit),) == PINNED[formula, mode]


# SHA-256 over CONFIGURATIONS_CORPUS x every CompileConfig: the serialize
# text of each circuit, then its store size.
CONFIGURATIONS_DIGEST = "d0ac90943f2574fa96cb5351a6ad84b848a6c5b0b050bf1f0ba44ed96a132c13"


def configurations_corpus():
    yield running_cnf()
    rng = random.Random(20)
    for _ in range(30):
        yield random_cnf(rng)
    yield FORMULAS["flat-v8-e14"]()


def configurations(cnf):
    """Every CompileConfig, ordered mode under the formula's RCM order."""
    order = bandwidth_order(cnf)
    for mode in MODES:
        for caching in (False, True):
            for up in (False, True):
                for heuristic in HEURISTICS:
                    yield CompileConfig(mode, caching, up, heuristic, order if mode == "ordered" else None)


def test_every_configuration_is_pinned(kernel, monkeypatch):
    monkeypatch.setattr(compiler, "KERNEL", kernel)
    digest = hashlib.sha256()
    for cnf in configurations_corpus():
        for cfg in configurations(cnf):
            circuit = compile_cnf(cnf, cfg)
            digest.update(serialize(circuit).encode())
            digest.update(b"%d\n" % len(circuit.store))
    assert digest.hexdigest() == CONFIGURATIONS_DIGEST


def _cache_log(kernel, cnf, cfg, monkeypatch):
    """(operation, key, node) of every probe and insert of one compile."""
    log = []

    class LoggingCache(Cache):
        def probe(self, key):
            node = Cache.probe(self, key)
            log.append(("probe", key, node))
            return node

        def insert(self, key, node):
            log.append(("insert", key, node))
            Cache.insert(self, key, node)

    monkeypatch.setattr(compiler, "KERNEL", kernel)
    monkeypatch.setattr(compiler, "Cache", LoggingCache)
    compile_cnf(cnf, cfg)
    return log


def _trailer(key: bytes, ordered: bool) -> bytes:
    """The trailer (lit_1, ..., lit_k, k) that ends an ordered key, read
    from its end; b"" for a key of another mode."""
    if not ordered:
        return b""
    k = array("i", key[-4:])[0]
    assert 0 <= k and 4 * (k + 1) <= len(key)
    return key[-4 * (k + 1) :]


def _is_layout(key: bytes) -> bool:
    """Whether key is whole byte-layout records (c, k, lit_1, ..., lit_k)."""
    if len(key) % 4:
        return False
    v = memoryview(key).cast("i")
    i = 0
    while i + 1 < len(v) and v[i] >= 0 and v[i + 1] >= 0:
        i += 2 + v[i + 1]
    return i == len(v)


def unit_chains(*lengths):
    """One unit chain [a], [-a, a + 1], ... per length, on disjoint
    variables."""
    clauses, first = [], 1
    for n in lengths:
        clauses.append([first])
        clauses += [[-v, v + 1] for v in range(first, first + n - 1)]
        first += n
    return Cnf.from_clauses(clauses, first - 1)


def key_form_cases():
    """(formula, configurations, whether its settled input is wider than
    the Python kernel's mask-key bound).

    Every table of the configurations corpus, and one the size of the
    benchmark corpora's (165 clauses over 55 variables, compiled as they
    are), keys residuals by masks alone.  A settled input wider than the
    mask-key bound gives both forms: one chain of 300 clauses, and two of
    150, which the decomposed compiles without propagation key as two
    parts, the second numbered from clause 150 and variable 151."""
    for cnf in configurations_corpus():
        yield cnf, configurations(cnf), False
    yield random_3cnf(random.Random(1), 55, 3.0), [CompileConfig("decomposed")], False
    for cnf in (unit_chains(300), unit_chains(150, 150)):
        yield cnf, (cfg for cfg in configurations(cnf) if cfg.caching), True


def test_cache_keys_are_one_to_one_across_backends(kernel_cy, monkeypatch):
    # The compiled kernel keys a residual by its byte layout, the Python
    # kernel by its clause and variable sets.  On every configuration the
    # two make the same probes with the same outcomes and the same
    # inserts, and their keys map one to one; a Python key is never longer
    # than its two masks (ceil(m / 8) and ceil((n + 1) / 8) bytes for m
    # clauses over n variables) behind one tag byte, plus the trailer.
    kernel_py = _kernel.load("py")
    for cnf, cfgs, wide in key_form_cases():
        bound = 1 + -(-len(cnf.clauses) // 8) + -(-(cnf.num_vars + 1) // 8)
        tags = set()
        for cfg in cfgs:
            py = _cache_log(kernel_py, cnf, cfg, monkeypatch)
            cy = _cache_log(kernel_cy, cnf, cfg, monkeypatch)
            assert [(op, node) for op, _, node in py] == [(op, node) for op, _, node in cy]
            forward: dict[bytes, bytes] = {}
            backward: dict[bytes, bytes] = {}
            for (_, py_key, _), (_, cy_key, _) in zip(py, cy):
                assert forward.setdefault(py_key, cy_key) == cy_key
                assert backward.setdefault(cy_key, py_key) == py_key
                # Every ordered key ends with a trailer, and the rest of
                # every key is the kernel's own.
                trailer = _trailer(cy_key, cfg.mode == "ordered")
                assert py_key.endswith(trailer)
                assert _is_layout(cy_key[: len(cy_key) - len(trailer)])
                body = py_key[: len(py_key) - len(trailer)]
                assert len(body) <= bound
                if body:
                    tags.add(body[0])
        # Tag 0 is the mask form, tag 1 the byte spans.
        assert tags == {0, 1} if wide else tags <= {0}
