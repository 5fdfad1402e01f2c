"""Kernel backends for the tests.

`kernel` runs a test once per backend.  The compiled backend is always
built from the tracked `src/dpllc/_kernel_cy.c` with the system C compiler
(`-O2 -Wall -Werror`), once per digest of source, flags and Python, into
`build/test-kernel/`; nothing is written under `src/`, and an extension
installed elsewhere is never used in its place.  It is imported as
`dpllc._kernel_cy` only after `dpllc` has picked its default backend, so
every other test keeps that default.  Without a C compiler or the Python
headers the `cy` cases skip; with both, a failed build fails them.
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
CFLAGS = ["-O2", "-Wall", "-Werror", "-shared", "-fPIC"]


def _build_cy(compiler: str, include: str) -> Path:
    """Path of the extension built from C_SOURCE; fails the test when the
    build does."""
    digest = hashlib.sha256(C_SOURCE.read_bytes())
    digest.update(repr((CFLAGS, sys.version)).encode())
    target = BUILD_DIR / digest.hexdigest()[:16] / ("_kernel_cy" + sysconfig.get_config_var("EXT_SUFFIX"))
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    partial = target.with_name(target.name + ".%d.tmp" % os.getpid())
    proc = subprocess.run(
        [compiler, *CFLAGS, "-I" + include, str(C_SOURCE), "-o", str(partial)],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        partial.unlink(missing_ok=True)
        pytest.fail("building %s failed:\n%s" % (C_SOURCE.name, proc.stderr[-4000:]), pytrace=False)
    partial.replace(target)
    return target


@pytest.fixture(scope="session")
def kernel_cy():
    """The compiled backend, built from the tracked C source."""
    compiler = shutil.which("gcc") or shutil.which("cc")
    include = sysconfig.get_paths()["include"]
    if compiler is None:
        pytest.skip("compiled kernel not built: no C compiler on PATH")
    if not (Path(include) / "Python.h").exists():
        pytest.skip("compiled kernel not built: no Python headers in %s" % include)
    spec = importlib.util.spec_from_file_location("dpllc._kernel_cy", _build_cy(compiler, include))
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
