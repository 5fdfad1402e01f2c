"""Circuit sizes and counts pinned on fixed seeded formulas.

A change meant only for speed must leave every compiled circuit as it
was; these values were recorded before the kernel was last rewritten and
fail on any drift in node count, edge count or model count.
"""

import random

import pytest

from dpllc.compiler import bandwidth_order, compile_decomposed, compile_free, compile_ordered
from dpllc.queries import model_count
from dpllc.store import stats

from util import flat_colouring_cnf, random_3cnf

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
