"""The correctness gate: expected outputs from the reference counter, and
the comparison of a worker's outputs against them.

Nothing here imports dpllc.  Expected values for the default seed are
stored in reference.json; for any other seed they are recomputed, outside
the measured run.
"""

from __future__ import annotations

import json
import os
import random

import gen
import refcount

HERE = os.path.dirname(os.path.abspath(__file__))
STORED = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 1


def expected(workload: str, seed: int, size: str = "full") -> dict:
    """Expected counts (compile workloads) or query answers (query-mix)."""
    insts = gen.corpus(workload, seed, size)
    if workload != "query-mix":
        return {"counts": {i.name: refcount.count_models(i.clauses, i.num_vars) for i in insts}}
    (inst,) = insts
    n = inst.num_vars
    clauses = list(inst.clauses)
    counter = refcount.Counter()  # one cache for the formula and its conditionings
    total = counter.count(clauses, n)

    def count_with(units) -> int:
        return counter.count(clauses + [(l,) for l in units], n)

    model = refcount.find_model(clauses, n)
    answers: dict[str, object] = {}
    for idx, (kind, _, lits) in enumerate(gen.query_pool(random.Random("pool/%d" % seed), inst, model)):
        if kind == "model_count":
            want: object = total
        elif kind == "is_consistent":
            want = total > 0
        elif kind == "entails_clause":
            want = count_with([-l for l in lits]) == 0
        elif kind == "is_implicant":
            want = count_with(lits) == 1 << (n - len(lits))
        elif kind == "condition_count":
            want = [n - len(lits), count_with(lits)]
        elif kind == "enumerate":
            want = None  # checked term by term against the formula
        else:
            want = True  # prob_equiv against the serialized-and-parsed copy
        answers[str(idx)] = want
    return {"count": total, "answers": answers}


def load_or_compute(workload: str, seed: int, size: str) -> tuple[dict, str]:
    """Expected values and where they came from ("stored" or "computed")."""
    if seed == DEFAULT_SEED and size == "full" and os.path.exists(STORED):
        with open(STORED) as fh:
            stored = json.load(fh)
        if workload in stored:
            return stored[workload], "stored"
    return expected(workload, seed, size), "computed"


def _check_terms(terms, inst: gen.Instance, total: int) -> list[str]:
    errors = []
    if len(terms) > gen.ENUMERATE_LIMIT:
        errors.append("enumeration returned %d terms, more than asked" % len(terms))
    seen = [frozenset(t) for t in terms]
    if len(set(seen)) != len(seen):
        errors.append("enumeration repeats a term")
    for t in seen:
        if not refcount.satisfies(t, inst.clauses):
            errors.append("enumerated term %s falsifies a clause" % sorted(t, key=abs))
            break
    for i, a in enumerate(seen):
        if any(not any(-l in b for l in a) for b in seen[i + 1 :]):
            errors.append("enumerated terms overlap")
            break
    if len(terms) < gen.ENUMERATE_LIMIT:
        weight = sum(1 << (inst.num_vars - len(t)) for t in seen)
        if weight != total:
            errors.append("all %d terms cover %d models, not %d" % (len(terms), weight, total))
    return errors


def verify(workload: str, seed: int, size: str, want: dict, got) -> list[str]:
    """Every difference between the worker's outputs and the expected ones."""
    errors = []
    insts = gen.corpus(workload, seed, size)
    if workload != "query-mix":
        if [o["name"] for o in got] != [i.name for i in insts]:
            return ["outputs are for instances %s" % [o["name"] for o in got]]
        for out in got:
            name = out["name"]
            count = want["counts"][name]
            if out.get("count") != count:
                errors.append("%s: count %s, expected %d" % (name, out.get("count"), count))
            if out.get("verdict") is not True:
                errors.append("%s: checker verdict %s" % (name, out.get("verdict")))
            if workload == "ddnnf-pipeline":
                if out.get("parsed_count") != count:
                    errors.append("%s: parsed circuit counts %s" % (name, out.get("parsed_count")))
                if out.get("equivalent") is not True:
                    errors.append("%s: prob_equiv(compiled, parsed) is not equivalent" % name)
                if out.get("isomorphic") is not True:
                    errors.append("%s: guided round-trip is not isomorphic" % name)
            if not out["nodes"] or not out["edges"]:
                errors.append("%s: empty circuit size" % name)
        return errors
    (inst,) = insts
    answers = got["answers"]
    for idx, expect in want["answers"].items():
        if idx not in answers:
            errors.append("query %s never answered" % idx)
        elif expect is None:
            errors.extend("query %s: %s" % (idx, e) for e in _check_terms(answers[idx], inst, want["count"]))
        elif answers[idx] != expect:
            errors.append("query %s: answer %s, expected %s" % (idx, answers[idx], expect))
    for name, (nodes, edges) in got["sizes"].items():
        if not nodes or not edges:
            errors.append("%s: empty circuit size" % name)
    return errors
