#!/usr/bin/env python3
"""Layered benchmark of dpllc: one workload, one seed, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ddnnf-pipeline --seed 1 --seconds 20 --trace 0

Set-up builds the package with the repository's own setup.py from a copy
of the checkout (the build writes egg-info into the tree it builds), three
times, and imports it in a fresh interpreter.  The run itself happens in
that interpreter (worker.py); this process only builds, computes the
reference answers, checks the worker's outputs against them and prints:

  - a provenance line, {"provenance": {...}};
  - as the last line, {"correct", "attempted", "failed", "metrics"}, with
    the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).

The exit code is 0 when every output is correct, 1 when one is not, and 2
when the benchmark cannot run (for instance outside a dpllc checkout).
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402  (the benchmark's own modules, beside this file)
import clock  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("ddnnf-pipeline", "obdd-order", "query-mix")
BUILD_REPEATS = 3
DEADLINE_S = 170  # the whole run, build and reference included
WORK_DIR = os.path.join(".bench_build", "perfbench")
# Never copied into a build: the benchmark's scratch space and anything a
# build or a test run leaves behind.
COPY_IGNORE = shutil.ignore_patterns(
    ".bench_build", ".git", "build", "*.egg-info", "__pycache__", ".pytest_cache", "*.cnf"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "compile_s": "s",
    "pipeline_s": "s",
    "post_compile_s": "s",
    "peak_rss_mb": "MB",
    "circuit_nodes": "count",
    "circuit_edges": "count",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def source_digest(root: str) -> str:
    """sha256 over the paths and bytes of every file under src/."""
    h = hashlib.sha256()
    base = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit_of(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("DPLLC_KERNEL", None)  # the build decides the kernel
    return env


def build(root: str, dest: str, timeout: float) -> tuple[str, float]:
    """Copy the checkout to dest and run its setup.py build there.

    Returns the directory holding the built package and the seconds the
    copy and the build took.
    """
    shutil.rmtree(dest, ignore_errors=True)
    tree = os.path.join(dest, "tree")
    lib = os.path.join(dest, "lib")
    t0 = perf_counter()
    shutil.copytree(root, tree, ignore=COPY_IGNORE)
    try:
        proc = subprocess.run(
            [sys.executable, "setup.py", "-q", "build", "--build-base", os.path.join(dest, "build"), "--build-lib", lib],
            cwd=tree,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("package build timed out") from None
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError("package build failed:\n" + proc.stderr[-2000:])
    return lib, elapsed


def run_worker(args, lib: str, timeout: float) -> dict:
    cmd = [
        sys.executable, "-I", os.path.join(HERE, "worker.py"),
        "--lib", lib, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
    ]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("workload did not finish within %.0f s" % timeout) from None
    if proc.returncode != 0:
        raise BenchError("worker exited with %d:\n%s" % (proc.returncode, proc.stderr[-4000:]))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    return json.loads(lines[-1])


def measure(args) -> int:
    started = perf_counter()
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "setup.py")) and os.path.isdir(os.path.join(root, "src", "dpllc"))):
        raise BenchError("run from the root of a dpllc checkout (no setup.py and src/dpllc here)")
    digest = source_digest(root)
    work = os.path.join(root, WORK_DIR)

    def remaining() -> float:
        return DEADLINE_S - (perf_counter() - started)

    build_s = []
    lib = None
    cal = clock.Calibration()
    for k in range(BUILD_REPEATS if not args.trace else 1):
        lib, dt = build(root, os.path.join(work, "build%d" % k), remaining())
        build_s.append(cal.follow(dt))

    t0 = perf_counter()
    want, source = check.load_or_compute(args.workload, args.seed, args.size)
    reference_s = perf_counter() - t0

    got = run_worker(args, lib, remaining())
    errors = list(got["errors"])
    errors += check.verify(args.workload, args.seed, args.size, want, got["outputs"])
    if source_digest(root) != digest:
        errors.append("the run changed files under src/")
    failed = max(got["failed"], 1 if errors else 0)

    if args.trace:
        values = {name: got["layers"][name] for name in layers.PER_LAYER_NAMES}
        metrics = {k: {"value": v, "unit": layers.unit_of(k)} for k, v in values.items()}
    else:
        outputs = got["outputs"]
        if args.workload == "query-mix":
            sizes = list(outputs["sizes"].values())
        else:
            sizes = [(o["nodes"], o["edges"]) for o in outputs]
        values = dict(got["metrics"])
        values["setup_s"] = statistics.median(build_s) + got["import_s"] + got["setup_s"]
        values["peak_rss_mb"] = got["peak_rss_mb"]
        values["circuit_nodes"] = sum(n for n, _ in sizes)
        values["circuit_edges"] = sum(e for _, e in sizes)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "kernel_backend": got["kernel_backend"],
        "python": got["python"],
        "nproc": os.cpu_count(),
        "commit": commit_of(root),
        "src_sha256": digest,
        "rounds": got["rounds"],
        "query_samples": got.get("query_samples"),
        "build_s": build_s,
        "scale": got["scale"],
        "reference": source,
        "reference_s": reference_s,
        "error_rate": failed / got["attempted"],
        "errors": errors[:10],
        "wall_s": perf_counter() - started,
    }
    print(json.dumps({"provenance": provenance}))
    result = {"correct": not errors, "attempted": got["attempted"], "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if not errors else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=check.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full", help="toy is the smoke-test scale")
    args = ap.parse_args(argv)
    try:
        return measure(args)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
