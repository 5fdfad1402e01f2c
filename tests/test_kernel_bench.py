"""scripts/kernel_bench.py reports every backend that ran, as the median
and [min-max] of its runs, and fails only when none did."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dpllc

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "kernel_bench.py"
SRC = Path(dpllc.__file__).resolve().parent.parent


def bench(cwd, pythonpath):
    env = dict(os.environ, PYTHONPATH=pythonpath)
    env.pop("DPLLC_KERNEL", None)
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--n", "8", "--count", "1"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


CELL = r"(-|(\d+\.\d) \[(\d+\.\d)-(\d+\.\d)\])"
ROW = re.compile(r"^(\w+) +%s +%s +(\S+)$" % (CELL, CELL))


def test_table_keeps_the_backends_that_ran():
    proc = bench(ROOT, str(SRC))
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.strip().splitlines()
    assert rows[0] == "milliseconds per mode, median [min-max] of 5 runs per backend"
    assert rows[1].split() == ["mode", "py", "cy", "speedup"]
    assert [row.split()[0] for row in rows[2:]] == ["free", "ordered", "decomposed"]
    for row in rows[2:]:
        # mode, then per backend its cell and the cell's three numbers.
        fields = ROW.match(row).groups()
        cy, speedup = fields[5], fields[9]
        median, low, high = map(float, fields[2:5])
        assert 0 <= low <= median <= high
        if cy == "-":
            assert speedup == "-" and proc.stderr.count("backend cy failed") == 1
        else:
            median, low, high = map(float, fields[6:9])
            assert 0 <= low <= median <= high
            assert speedup.endswith("x")


def test_exit_status_is_nonzero_when_no_backend_ran(tmp_path):
    installed = subprocess.run(
        [sys.executable, "-c", "import dpllc"], cwd=tmp_path, capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(tmp_path)),
    )
    if installed.returncode == 0:
        pytest.skip("dpllc is importable without src/, so no backend can be made to fail")
    proc = bench(tmp_path, str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert proc.stderr.count("backend py failed") == 1
