"""One measured run of a workload, in a fresh interpreter.

run.py starts this file as

    python3 -I worker.py --lib LIB --workload W --seed S --seconds T --trace 0|1 --size full|toy

where LIB is the directory the package build wrote.  It prints one JSON
object on stdout: the timings at the reference speed of clock.py
(untraced) or the per-layer totals in plain seconds (traced), the outputs run.py checks against its
reference, and provenance.  This file does no checking against the
reference itself, so the reference code never shares a process with dpllc.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
from itertools import islice
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import clock  # noqa: E402  (the benchmark's own modules, beside this file)
import gen  # noqa: E402
import layers  # noqa: E402
import refcount  # noqa: E402

SETUP_REPEATS = 3
COMPILE_STAGES = ("cnf.parse_dimacs", "compiler.order", "compiler.compile")


class Stages:
    """Times each call the benchmark makes into dpllc, by layer name.

    Untraced, each call is followed by its share of calibration and its
    time is kept at the reference speed; traced, each call is a span of
    the tracer and its time is kept in plain seconds.
    """

    def __init__(self, tracer=None, cal: clock.Calibration | None = None):
        self.tracer = tracer
        self.cal = cal
        self.calls: list[tuple[str, float]] = []

    def __call__(self, name: str, fn, *args):
        t0 = perf_counter()
        out = self.tracer.span(name, fn, *args) if self.tracer else fn(*args)
        dt = perf_counter() - t0
        self.calls.append((name, self.cal.follow(dt) if self.cal else dt))
        return out

    def note_bytes(self, name: str, n: int) -> None:
        if self.tracer:
            self.tracer.bytes[name] += n


class Outcome:
    """Attempted and failed operations, with the first few error messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def compile_time(calls: list[tuple[str, float]]) -> float:
    return sum(dt for name, dt in calls if name in COMPILE_STAGES)


def typical(runs: list[Stages]) -> list[tuple[str, float]]:
    """Each call's mean time over repetitions of one call sequence.

    A mean, not a median: the machine flips between a fast and a slow
    phase within milliseconds (see clock.py), and the median of such a
    two-valued mix jumps between the two, while the mean follows the mix.
    """
    return [(seq[0][0], statistics.fmean(dt for _, dt in seq)) for seq in zip(*(s.calls for s in runs))]


def percentiles(samples: list[float]) -> tuple[float, float]:
    """(p50, p90) with the inclusive method, so small samples work."""
    qs = statistics.quantiles(samples, n=10, method="inclusive")
    return statistics.median(samples), qs[8]


# --- compile workloads ------------------------------------------------------


def ddnnf_pipeline(d, inst, st: Stages):
    cnf = st("cnf.parse_dimacs", d.parse_dimacs, inst.dimacs)
    circ = st("compiler.compile", d.compile_decomposed, cnf)
    count = st("queries.model_count", d.model_count, circ)
    text = st("store.serialize", d.serialize, circ)
    st.note_bytes("store.serialize", len(text))
    parsed = st("store.parse_nnf", d.parse_nnf, text)
    parsed_count = st("queries.model_count", d.model_count, parsed)
    report = st("checks.check_decision_dnnf", d.check_decision_dnnf, circ)
    verdict = st("queries.prob_equiv", d.prob_equiv, circ, parsed)
    guided = st("checks.circuit_to_cnf", d.circuit_to_cnf, circ)
    replay = st("checks.compile_guided", d.compile_guided, guided)
    iso = st("checks.isomorphic", d.isomorphic, circ, replay)
    return circ, {
        "count": count,
        "parsed_count": parsed_count,
        "verdict": report.verdict,
        "equivalent": verdict.equivalent,
        "isomorphic": iso,
    }


def obdd_pipeline(d, inst, st: Stages):
    from dpllc.compiler import bandwidth_order

    cnf = st("cnf.parse_dimacs", d.parse_dimacs, inst.dimacs)
    order = st("compiler.order", bandwidth_order, cnf)
    circ = st("compiler.compile", d.compile_ordered, cnf, order)
    count = st("queries.model_count", d.model_count, circ)
    report = st("checks.check_obdd", d.check_obdd, circ, order)
    return circ, {"count": count, "verdict": report.verdict}


PIPELINES = {"ddnnf-pipeline": ddnnf_pipeline, "obdd-order": obdd_pipeline}


def run_compile(d, workload, insts, seconds, tracer, cal, outcome: Outcome) -> dict:
    """Rounds over the corpus until `seconds` have passed.

    With a tracer, rounds alternate between untraced and traced, so the
    overhead ratio compares like with like; the per-layer totals are
    averaged over the traced rounds.
    """
    pipeline = PIPELINES[workload]
    rounds: list[tuple[bool, list[Stages | None]]] = []
    outputs: list[dict | None] = [None] * len(insts)
    sizes: list[tuple[int, int] | None] = [None] * len(insts)
    start = perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        row: list[Stages | None] = []
        for i, inst in enumerate(insts):
            gc.collect()
            st = Stages(tracer if traced else None, cal)
            outcome.attempted += 1
            try:
                circ, out = pipeline(d, inst, st)
            except Exception as exc:  # a failing operation is a result, not a crash
                outcome.fail("%s round %d: %r" % (inst.name, len(rounds), exc))
                row.append(None)
                continue
            if traced:
                tracer.recording = False
            size = d.stats(circ)
            if traced:
                tracer.recording = True
            if outputs[i] is None:
                outputs[i], sizes[i] = out, size
            elif (outputs[i], sizes[i]) != (out, size):
                outcome.fail("%s round %d: output or size differs from round 0" % (inst.name, len(rounds)))
            row.append(st)
        if traced:
            tracer.uninstall()
        rounds.append((traced, row))
        if perf_counter() - start >= seconds and len(rounds) >= (2 if tracer else 1):
            break

    result = {
        "outputs": [
            dict(out or {}, name=inst.name, nodes=(sz or (0, 0))[0], edges=(sz or (0, 0))[1])
            for inst, out, sz in zip(insts, outputs, sizes)
        ],
        "rounds": len(rounds),
    }

    def runs_of(i: int, traced: bool) -> list[Stages]:
        return [row[i] for t, row in rounds if t == traced and row[i] is not None]

    plain = [typical(runs_of(i, False)) for i in range(len(insts))]
    if tracer is not None:
        traced_rounds = sum(1 for t, _ in rounds if t)
        traced_compile = sum(compile_time(typical(runs_of(i, True))) for i in range(len(insts)))
        per_layer = layers.per_pass({}, tracer.snapshot(), traced_rounds)
        per_layer["trace.overhead_ratio"] = traced_compile / sum(map(compile_time, plain))
        result["layers"] = per_layer
        return result
    # Here a query is everything the pipeline asks of one compiled circuit:
    # the post-compile calls on one instance.
    post = [sum(dt for _, dt in calls) - compile_time(calls) for calls in plain]
    p50, p90 = percentiles(post)
    result["metrics"] = {
        "compile_s": sum(map(compile_time, plain)),
        "pipeline_s": sum(dt for calls in plain for _, dt in calls),
        "post_compile_s": sum(post),
        "queries_per_s": len(post) / sum(post),
        "query_p50_ms": 1e3 * p50,
        "query_p90_ms": 1e3 * p90,
    }
    result["query_samples"] = sum(len(runs_of(i, False)) for i in range(len(insts)))
    return result


# --- query-mix --------------------------------------------------------------


def query_setup(d, inst, st: Stages):
    """Compile once: an FBDD and a decision-DNNF of one formula, plus
    their serialized-and-parsed copies for the equivalence queries."""
    cnf = st("cnf.parse_dimacs", d.parse_dimacs, inst.dimacs)
    circuits = {
        "fbdd": st("compiler.compile", d.compile_free, cnf),
        "ddnnf": st("compiler.compile", d.compile_decomposed, cnf),
    }
    parsed = {}
    for name, circ in circuits.items():
        text = st("store.serialize", d.serialize, circ)
        st.note_bytes("store.serialize", len(text))
        parsed[name] = st("store.parse_nnf", d.parse_nnf, text)
    return circuits, parsed


def ask(d, st: Stages, kind: str, circ, copy, lits, limit: int):
    """Run one query; returns its answer in JSON form."""
    if kind == "model_count":
        return st("queries.model_count", d.model_count, circ)
    if kind == "is_consistent":
        return st("queries.is_consistent", d.is_consistent, circ)
    if kind == "entails_clause":
        return st("queries.entails_clause", d.entails_clause, circ, lits)
    if kind == "is_implicant":
        return st("queries.is_implicant", d.is_implicant, lits, circ)
    if kind == "condition_count":
        cond = st("queries.condition_circuit", d.condition_circuit, circ, lits)
        return [cond.universe, st("queries.model_count", d.model_count, cond)]
    if kind == "enumerate":
        terms = st("queries.enumerate_models", lambda c: list(islice(d.enumerate_models(c), limit)), circ)
        return [sorted(t, key=abs) for t in terms]
    if kind == "prob_equiv":
        return st("queries.prob_equiv", d.prob_equiv, circ, copy).equivalent
    raise ValueError("unknown query kind %r" % kind)


def run_query_mix(d, seed, size, seconds, tracer, cal, outcome: Outcome, setup_s: list) -> dict:
    """Set up (compile once) several times, then one client in a closed
    loop cycles through the seeded query pool until `seconds` have passed.

    With a tracer, the last set-up and every query are traced, and the
    first set-up is the untraced baseline of the overhead ratio.
    """
    reps = 2 if tracer is not None else SETUP_REPEATS
    setups: list[Stages] = []
    sizes: dict[str, list[int]] | None = None
    for rep in range(reps):
        circuits = parsed = None
        gc.collect()
        traced = tracer is not None and rep == reps - 1
        if traced:
            tracer.install()
        t0 = perf_counter()
        (inst,) = gen.corpus("query-mix", seed, size)
        generate_s = perf_counter() - t0
        if cal:
            generate_s = cal.follow(generate_s)
        st = Stages(tracer if traced else None, cal)
        outcome.attempted += 1
        circuits, parsed = query_setup(d, inst, st)  # a failure here ends the run
        setup_s.append(generate_s + sum(dt for _, dt in st.calls))
        setups.append(st)
        if traced:
            tracer.recording = False
        rep_sizes = {name: list(d.stats(c)) for name, c in circuits.items()}
        if traced:
            tracer.recording = True
        if sizes is None:
            sizes = rep_sizes
        elif rep_sizes != sizes:
            outcome.fail("set-up %d: circuit sizes %s differ from set-up 0's %s" % (rep, rep_sizes, sizes))
    if tracer is not None:
        setup_layers = tracer.snapshot()
    model = refcount.find_model(inst.clauses, inst.num_vars)
    pool = gen.query_pool(random.Random("pool/%d" % seed), inst, model)
    answers: dict[int, object] = {}
    latencies: list[list[float]] = [[] for _ in pool]
    st = Stages(tracer, cal)
    i = 0
    start = perf_counter()
    while True:
        idx = i % len(pool)
        kind, target, lits = pool[idx]
        outcome.attempted += 1
        first_call = len(st.calls)
        try:
            ans = ask(d, st, kind, circuits[target], parsed[target], lits, gen.ENUMERATE_LIMIT)
        except Exception as exc:
            latencies[idx].append(float("inf"))  # a failed query misses every latency limit
            outcome.fail("query %d (%s): %r" % (idx, kind, exc))
        else:
            latencies[idx].append(sum(dt for _, dt in st.calls[first_call:]))
            if idx not in answers:
                answers[idx] = ans
            elif answers[idx] != ans:
                outcome.fail("query %d (%s): answer differs from its first run" % (idx, kind))
        i += 1
        if i % len(pool) == 0 and perf_counter() - start >= seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    result = {
        "outputs": {"sizes": sizes, "answers": {str(k): v for k, v in sorted(answers.items())}},
        "rounds": i // len(pool),
        "query_samples": i,
    }
    if tracer is not None:
        loop_layers = layers.diff(tracer.snapshot(), setup_layers)
        per_layer = layers.per_pass(setup_layers, loop_layers, i // len(pool))
        per_layer["trace.overhead_ratio"] = compile_time(setups[-1].calls) / compile_time(setups[0].calls)
        result["layers"] = per_layer
        return result
    calls = typical(setups)
    per_query = [statistics.fmean(lat) for lat in latencies]
    p50, p90 = percentiles(per_query)
    result["metrics"] = {
        "compile_s": compile_time(calls),
        "pipeline_s": sum(dt for _, dt in calls),
        "post_compile_s": sum(dt for _, dt in calls) - compile_time(calls),
        "queries_per_s": len(per_query) / sum(per_query),
        "query_p50_ms": 1e3 * p50,
        "query_p90_ms": 1e3 * p90,
    }
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lib", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "toy"), default="full")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.lib))
    t0 = perf_counter()
    import dpllc

    import_s = perf_counter() - t0
    if not os.path.abspath(dpllc.__file__).startswith(os.path.abspath(args.lib) + os.sep):
        raise SystemExit("dpllc imported from %s, not from the build" % dpllc.__file__)

    tracer = layers.Tracer() if args.trace else None
    cal = None if args.trace else clock.Calibration()
    if cal:
        import_s = cal.follow(import_s)
    outcome = Outcome()
    setup_s: list[float] = []
    if args.workload == "query-mix":
        result = run_query_mix(dpllc, args.seed, args.size, args.seconds, tracer, cal, outcome, setup_s)
    elif args.workload in PIPELINES:
        insts = None
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            insts = gen.corpus(args.workload, args.seed, args.size)
            for inst in insts:
                inst.dimacs
            setup_s.append(perf_counter() - t0)
            if cal:
                setup_s[-1] = cal.follow(setup_s[-1])
        result = run_compile(dpllc, args.workload, insts, args.seconds, tracer, cal, outcome)
    else:
        raise SystemExit("unknown workload %r" % args.workload)
    result.update(
        kernel_backend=dpllc.KERNEL_BACKEND,
        python=sys.version.split()[0],
        import_s=import_s,
        setup_s=statistics.median(setup_s),
        scale=cal.scale if cal else None,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=outcome.attempted,
        failed=outcome.failed,
        errors=outcome.errors,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
