#!/usr/bin/env python3
"""Benchmark the compiled kernel against the pure-Python fallback.

Generates a fixed set of random 3-CNF instances, compiles each with every
mode under both kernel backends (each in its own process, selected via
DPLLC_KERNEL), and prints a timing table.  A backend that fails to load
(the compiled kernel when it is not built) shows as '-'; the exit status
is non-zero only when no backend ran.

    python3 scripts/kernel_bench.py            # both backends
    python3 scripts/kernel_bench.py --n 80     # bigger instances
"""

import argparse
import json
import os
import random
import subprocess
import sys
import time

BACKENDS = ("py", "cy")


def make_instances(n, count, seed=12345):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = int(4.3 * n)
        clauses = []
        for _ in range(m):
            vs = rng.sample(range(1, n + 1), 3)
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        out.append(clauses)
    return out


def run_backend(n, count):
    """Executed in a child process with DPLLC_KERNEL already set."""
    from dpllc import KERNEL_BACKEND
    from dpllc.cnf import Cnf
    from dpllc.compiler import bandwidth_order, compile_decomposed, compile_free, compile_ordered

    timings = {}
    for clauses in make_instances(n, count):
        cnf = Cnf.from_clauses(clauses, n)
        jobs = [
            ("free", lambda: compile_free(cnf)),
            ("decomposed", lambda: compile_decomposed(cnf)),
            ("ordered", lambda: compile_ordered(cnf, bandwidth_order(cnf))),
        ]
        for mode, job in jobs:
            start = time.perf_counter()
            job()
            timings[mode] = timings.get(mode, 0.0) + time.perf_counter() - start
    print(json.dumps({"backend": KERNEL_BACKEND, "timings": timings}))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=60, help="variables per instance")
    parser.add_argument("--count", type=int, default=5, help="instances per backend")
    parser.add_argument("--run", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.run:
        run_backend(args.n, args.count)
        return

    results = {}
    for backend in BACKENDS:
        env = dict(os.environ, DPLLC_KERNEL=backend)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--run",
             "--n", str(args.n), "--count", str(args.count)],
            env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print("backend %s failed:\n%s" % (backend, proc.stderr), file=sys.stderr)
            continue
        payload = json.loads(proc.stdout.strip().splitlines()[-1])
        results[payload["backend"]] = payload["timings"]

    if not results:
        sys.exit(1)
    print(format_table(results))


def format_table(results):
    """Seconds per mode for every backend, '-' for a backend that did not
    run; the speedup column needs both."""
    lines = ["%-12s %10s %10s %8s" % ("mode", "py", "cy", "speedup")]
    for mode in ("free", "ordered", "decomposed"):
        py, cy = (results.get(b, {}).get(mode) for b in BACKENDS)
        cells = ["%9.2fs" % t if t is not None else "-" for t in (py, cy)]
        speedup = "%7.1fx" % (py / cy) if py is not None and cy else "-"
        lines.append("%-12s %10s %10s %8s" % (mode, cells[0], cells[1], speedup))
    return "\n".join(lines)


if __name__ == "__main__":
    main()
