"""Kernel backends for the tests.

`kernel` runs a test once per backend.  The compiled backend is the
shipped `src/dpllc/_kernel_cy.c`, built with the system C compiler once
per source digest into `build/test-kernel/` (nothing is written under
`src/`).  It is imported as `dpllc._kernel_cy` only after `dpllc` has
picked its default backend, so every other test keeps that default.
Without a compiler or the Python headers the `cy` cases skip.
"""

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from dpllc import _kernel

ROOT = Path(__file__).resolve().parent.parent
C_SOURCE = ROOT / "src" / "dpllc" / "_kernel_cy.c"
BUILD_DIR = ROOT / "build" / "test-kernel"


def _build_cy() -> Path:
    """Path of the built extension; raises RuntimeError when it cannot be built."""
    compiler = shutil.which("gcc") or shutil.which("cc")
    include = sysconfig.get_paths()["include"]
    if compiler is None:
        raise RuntimeError("no C compiler on PATH")
    if not (Path(include) / "Python.h").exists():
        raise RuntimeError("no Python headers in %s" % include)
    tag = hashlib.sha256(C_SOURCE.read_bytes() + sys.version.encode()).hexdigest()[:16]
    target = BUILD_DIR / tag / ("_kernel_cy" + sysconfig.get_config_var("EXT_SUFFIX"))
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    partial = target.with_name(target.name + ".%d.tmp" % os.getpid())
    proc = subprocess.run(
        [compiler, "-O2", "-shared", "-fPIC", "-I" + include, str(C_SOURCE), "-o", str(partial)],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        partial.unlink(missing_ok=True)
        raise RuntimeError("building %s failed:\n%s" % (C_SOURCE.name, proc.stderr[-2000:]))
    partial.replace(target)
    return target


@pytest.fixture(scope="session")
def kernel_cy():
    """The compiled backend, built from the shipped C source when not installed."""
    try:
        return _kernel.load("cy")
    except ImportError:
        pass
    try:
        path = _build_cy()
    except RuntimeError as exc:
        pytest.skip("compiled kernel not built: %s" % exc)
    spec = importlib.util.spec_from_file_location("dpllc._kernel_cy", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules["dpllc._kernel_cy"] = module
    return module


@pytest.fixture(scope="session", params=["py", "cy"])
def kernel(request):
    """Each kernel backend in turn."""
    if request.param == "py":
        return _kernel.load("py")
    return request.getfixturevalue("kernel_cy")
