#!/usr/bin/env python3
"""Record this checkout's perfbench numbers in BENCH_<label>.json.

Runs `perfbench/run.py` from the root of the checkout, one run at a time:
every workload untraced (`--trace 0`) on seeds 101-110 and traced
(`--trace 1`) on seeds 101-103.  For each workload and trace setting the
file holds every metric's median, quartiles and raw value per seed, and
every run's outcome and provenance (kernel backend, Python, commit, sha256
of src/).  A run that exits non-zero, times out or prints no result is
recorded with what it did print; it is never dropped.

With `--parent DIR` (another checkout, usually of the parent commit) every
run is paired with the same run in DIR, the two sides taking turns to go
first by seed parity.  The parent's runs are kept as their own groups
(`parent_groups`), and every end-to-end metric of this checkout gets
`wins`, the seeds on which it beat the parent, out of `pairs`.

    python3 scripts/bench_record.py --label baseline   # writes BENCH_baseline.json
    python3 scripts/bench_record.py --label pr --parent ../parent-checkout
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The workload list is perfbench's own, so a workload added there is recorded too.
_spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
_perfbench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_perfbench)
WORKLOADS = _perfbench.WORKLOADS
SEEDS = {0: tuple(range(101, 111)), 1: tuple(range(101, 104))}
PROVENANCE = ("kernel_backend", "python", "commit", "src_sha256")
RUN_TIMEOUT_S = 400  # perfbench ends a run itself after 170 s


def parse_run(workload: str, seed: int, trace: int, exit_code: int | None, stdout: str, stderr: str) -> dict:
    """One run's record from what it printed; exit_code None means it timed out."""
    provenance = result = None
    for line in stdout.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "provenance" in obj:
            provenance = obj["provenance"]
        elif isinstance(obj, dict) and "metrics" in obj:
            result = obj
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "exit_code": exit_code,
        "correct": bool(result and result.get("correct")) and exit_code == 0,
        "attempted": result.get("attempted") if result else None,
        "failed": result.get("failed") if result else None,
        "provenance": {k: provenance.get(k) for k in PROVENANCE} if provenance else None,
        "metrics": result["metrics"] if result else {},
        "stderr": stderr[-2000:] if exit_code != 0 else "",
    }


def run_once(root: str, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run of the checkout at root, which builds its own copy.

    The child writes no bytecode, so no `__pycache__` appears under the
    checkout's `src/` and moves the digest that perfbench checks during
    the run.
    """
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout.decode() if isinstance(exc.stdout, bytes) else exc.stdout or ""
        return parse_run(workload, seed, trace, None, out, "timed out after %d s" % RUN_TIMEOUT_S)
    return parse_run(workload, seed, trace, proc.returncode, proc.stdout, proc.stderr)


def summarize(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3}


def aggregate(runs: list[dict]) -> dict:
    """Group runs by workload and trace setting; per metric, the median and
    quartiles over every run that printed it, and its value per seed."""
    groups: dict[str, dict] = {}
    for run in runs:
        key = "%s/trace%d" % (run["workload"], run["trace"])
        group = groups.setdefault(key, {"workload": run["workload"], "trace": run["trace"], "runs": []})
        group["runs"].append(run)
    for group in groups.values():
        group["failed_runs"] = sum(not r["correct"] for r in group["runs"])
        metrics: dict[str, dict] = {}
        for run in group["runs"]:
            for name, m in run["metrics"].items():
                entry = metrics.setdefault(name, {"unit": m["unit"], "values": {}})
                entry["values"][str(run["seed"])] = m["value"]
        group["metrics"] = metrics
        for entry in metrics.values():
            entry.update(summarize(list(entry["values"].values())))
    return groups


def add_wins(groups: dict, parent_groups: dict) -> None:
    """Per end-to-end metric, the seeds on which this checkout's value is
    better than the parent's (a tie is no win), out of the seeds both have."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    for key, group in groups.items():
        before = parent_groups.get(key, {}).get("metrics", {})
        for name, entry in group["metrics"].items():
            if name not in better or name not in before:
                continue
            theirs = before[name]["values"]
            pairs = [(v, theirs[s]) for s, v in entry["values"].items() if s in theirs]
            sign = 1 if better[name] == "higher" else -1
            entry["wins"] = sum(sign * (mine - old) > 0 for mine, old in pairs)
            entry["pairs"] = len(pairs)


def record(label: str, parent: str | None = None, run=run_once) -> tuple[dict, list[dict]]:
    """Run every workload, seed and trace setting; with a parent, pair each
    run with the parent's, odd seeds running this checkout first."""
    roots = {"this": ROOT} if parent is None else {"this": ROOT, "parent": parent}
    runs: dict[str, list[dict]] = {side: [] for side in roots}
    for trace, seeds in SEEDS.items():
        for workload in WORKLOADS:
            for seed in seeds:
                for side in list(roots) if seed % 2 else list(roots)[::-1]:
                    result = run(roots[side], workload, seed, trace)
                    print("%s: %s seed %d trace %d: exit %s" % (side, workload, seed, trace, result["exit_code"]),
                          file=sys.stderr)
                    runs[side].append(result)
    rec = {
        "label": label,
        "command": "python3 perfbench/run.py --workload W --seed S --trace T",
        "groups": aggregate(runs["this"]),
    }
    if parent is not None:
        rec["parent_groups"] = aggregate(runs["parent"])
        add_wins(rec["groups"], rec["parent_groups"])
    return rec, [r for side in runs.values() for r in side]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    ap.add_argument("--parent", help="a checkout to pair every run with, usually of the parent commit")
    args = ap.parse_args(argv)
    rec, runs = record(args.label, args.parent and os.path.abspath(args.parent))
    path = os.path.join(ROOT, "BENCH_%s.json" % args.label)
    with open(path, "w") as fh:
        json.dump(rec, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
