"""Paths and process settings shared by the benchmark and its child processes.

Import this module before anything that loads numpy: it pins the BLAS
thread pools to one thread, so a run never uses more threads than the
machine's two cores and timings do not depend on thread scheduling.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


class MissingSource(RuntimeError):
    """The checkout does not contain the kahler_lab sources."""


def add_checkout_source() -> None:
    """Put this checkout's src/ first on the import path."""
    if not (SRC / "kahler_lab" / "__init__.py").is_file():
        raise MissingSource(f"no kahler_lab package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def check_imported(package) -> None:
    """Refuse a kahler_lab imported from anywhere but this checkout."""
    if Path(package.__file__).resolve().parent != SRC / "kahler_lab":
        raise MissingSource(f"kahler_lab resolved to {package.__file__}, not {SRC}")


def child_env() -> dict:
    """Environment for benchmark subprocesses: checkout source, one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for var in BLAS_VARS:
        env[var] = "1"
    return env
