"""Seeded inputs of the benchmark's workloads.

Every workload compiles a fixed corpus of base formulas, which come from
constant corpus seeds.  On the compile workloads the run's `--seed` draws
an isomorphic copy of each (a random renaming of the variables, random
polarity flips and a random clause order); on query-mix it draws the
query pool.  Fresh random draws per seed are not used because circuit size
varies too much between random formulas of one shape (862 to 18,370
decision-DNNF nodes over eight draws at n=50, ratio 3.0), which would
drown any change in the program; renamed copies stay within a few per
cent of each other, yet every byte of input changes with the seed, and
the search's tie-breaking sees a different formula each time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property


def random_3cnf(rng: random.Random, n: int, ratio: float) -> list[tuple[int, ...]]:
    """ROADMAP Baseline recipe: m = int(ratio*n) clauses of 3 distinct
    variables drawn by rng.sample, each sign negative with p = 0.5."""
    clauses = []
    for _ in range(int(ratio * n)):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(-v if rng.random() < 0.5 else v for v in vs))
    return clauses


def flat_colouring(rng: random.Random, vertices: int, edges: int) -> tuple[list[tuple[int, ...]], int]:
    """3-colouring CNF of a flat graph, shaped like SATLIB `flat*`.

    Vertices are split into three hidden colour classes of near-equal
    size, and edges join only vertices of different classes, so the graph
    is 3-colourable.  Among the candidate edges the generator prefers
    endpoints of low degree, which keeps the degree spread small ("flat").
    Variable 3v+c+1 says vertex v has colour c; the clauses say each
    vertex has at least one and at most one colour and adjacent vertices
    differ, as in SATLIB's encoding.
    """
    colour = [v % 3 for v in range(vertices)]
    rng.shuffle(colour)
    degree = [0] * vertices
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < edges:
        u, w = sorted(rng.sample(range(vertices), 2))
        if colour[u] == colour[w] or (u, w) in chosen:
            continue
        low = min(degree)
        if degree[u] > low + 1 and degree[w] > low + 1:
            continue
        chosen.add((u, w))
        degree[u] += 1
        degree[w] += 1

    def var(v: int, c: int) -> int:
        return 3 * v + c + 1

    clauses: list[tuple[int, ...]] = []
    for v in range(vertices):
        clauses.append((var(v, 0), var(v, 1), var(v, 2)))
        for a in range(3):
            for b in range(a + 1, 3):
                clauses.append((-var(v, a), -var(v, b)))
    for u, w in sorted(chosen):
        for c in range(3):
            clauses.append((-var(u, c), -var(w, c)))
    return clauses, 3 * vertices


def relabel(rng: random.Random, clauses, n: int) -> list[tuple[int, ...]]:
    """Isomorphic copy: renamed variables, flipped polarities, shuffled
    clauses and literal order.  The model count is unchanged."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    flip = [rng.random() < 0.5 for _ in range(n)]
    out = []
    for cl in clauses:
        lits = [
            (-1 if (l < 0) != flip[abs(l) - 1] else 1) * perm[abs(l) - 1] for l in cl
        ]
        rng.shuffle(lits)
        out.append(tuple(lits))
    rng.shuffle(out)
    return out


def to_dimacs(clauses, n: int) -> str:
    lines = ["c perfbench instance", "p cnf %d %d" % (n, len(clauses))]
    lines.extend(" ".join(map(str, cl)) + " 0" for cl in clauses)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Instance:
    name: str
    clauses: tuple[tuple[int, ...], ...]
    num_vars: int

    @cached_property
    def dimacs(self) -> str:
        return to_dimacs(self.clauses, self.num_vars)


# Corpus shapes: (kind, size, shape, corpus seed), where size is n for
# "random" and the vertex count for "flat", and shape is the clause ratio
# or the edge count.  The corpus seeds were picked so that one pass over a
# corpus fits several times into a run; see README.md for the sizes.
# "toy" is the smoke-test scale.
CORPORA = {
    "full": {
        "ddnnf-pipeline": [
            ("random", 50, 3.0, 16),
            ("random", 50, 3.0, 18),
            ("random", 50, 3.0, 20),
        ],
        "obdd-order": [("random", 28, 3.6, s) for s in (21, 22, 23, 24)]
        + [("flat", 13, 26, s) for s in (21, 22, 23, 24)],
        "query-mix": [("random", 55, 3.0, 33)],
    },
    "toy": {
        "ddnnf-pipeline": [("random", 14, 3.0, 11), ("random", 12, 3.0, 12)],
        "obdd-order": [("random", 12, 3.6, 21), ("flat", 5, 7, 22)],
        "query-mix": [("random", 16, 3.0, 31)],
    },
}


# query-mix asks its seeded queries of one fixed formula, so that its
# set-up measures the same compile in every run; the compile workloads
# compile a seeded copy of every formula.
RELABELLED = ("ddnnf-pipeline", "obdd-order")


def corpus(workload: str, seed: int, size: str = "full") -> list[Instance]:
    """The workload's formulas for a run seed."""
    out = []
    for kind, size_param, shape, corpus_seed in CORPORA[size][workload]:
        if kind == "random":
            name = "r3-n%d/%d" % (size_param, corpus_seed)
            clauses = random_3cnf(random.Random(name), size_param, shape)
            n = size_param
        else:
            name = "flat-v%d/%d" % (size_param, corpus_seed)
            clauses, n = flat_colouring(random.Random(name), size_param, shape)
        if workload in RELABELLED:
            clauses = relabel(random.Random("%s/run%d" % (name, seed)), clauses, n)
        out.append(Instance(name, tuple(clauses), n))
    return out


# --- query-mix --------------------------------------------------------------

QUERY_KINDS = (
    "model_count",
    "is_consistent",
    "entails_clause",
    "is_implicant",
    "condition_count",
    "enumerate",
    "prob_equiv",
)
POOL_SIZE = 42
ENUMERATE_LIMIT = 200


def query_pool(rng: random.Random, inst: Instance, model: list[int]):
    """Seeded queries over the two circuits compiled from `inst`.

    Each query is (kind, target, literals): target is "fbdd" or "ddnnf".
    Half of the clause queries are entailed (a clause of the formula,
    widened by one literal) and half are random clauses; half of the term
    queries are implicants (the literals of `model` that some clause
    needs, so every clause is satisfied) and half are random short terms.
    Every kind appears POOL_SIZE/len(QUERY_KINDS) times.
    """
    n = inst.num_vars
    pool = []
    for i in range(POOL_SIZE):
        kind = QUERY_KINDS[i % len(QUERY_KINDS)]
        target = ("fbdd", "ddnnf")[(i // len(QUERY_KINDS)) % 2]
        lits: tuple[int, ...] = ()
        if kind == "entails_clause":
            if rng.random() < 0.5:
                base = list(rng.choice(inst.clauses))
                extra = rng.choice([v for v in range(1, n + 1) if v not in map(abs, base)])
                lits = tuple(base + [extra if rng.random() < 0.5 else -extra])
            else:
                lits = tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
        elif kind == "is_implicant":
            if rng.random() < 0.5:
                need = set()
                for cl in inst.clauses:
                    if not need.intersection(cl):
                        need.add(next(l for l in cl if model[abs(l) - 1] == l))
                lits = tuple(sorted(need, key=abs))
            else:
                lits = tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 4))
        elif kind == "condition_count":
            k = rng.randint(2, 6)
            lits = tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), k))
        pool.append((kind, target, lits))
    order = list(range(POOL_SIZE))
    rng.shuffle(order)
    return [pool[i] for i in order]
