"""Shared fixtures: cached backgrounds at unit-test scale.

Backgrounds are immutable (arrays frozen at construction), so session scope
is safe; building one validates its own curvature anchors, which makes the
fixtures a first smoke test in themselves.
"""

from __future__ import annotations

import os

# one BLAS thread, as tools/golden.py and the benchmark run, set before
# anything imports numpy: results must not depend on how a threaded
# reduction splits its sums
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest

from kahler_lab.families import generate_probe
from kahler_lab.geometry import fs_background


@pytest.fixture(scope="session")
def bg_cp1():
    return fs_background("cpn", 1, 64)


@pytest.fixture(scope="session")
def bg_cp2():
    return fs_background("cpn", 2, 72)


@pytest.fixture(scope="session")
def bg_cp3():
    return fs_background("cpn", 3, 80)


@pytest.fixture(scope="session")
def bg_cp4():
    return fs_background("cpn", 4, 96)


@pytest.fixture(scope="session")
def bg_torus():
    return fs_background("torus", 1, 64)


@pytest.fixture(scope="session")
def probe_cp1(bg_cp1):
    return generate_probe(bg_cp1, seed=7, scenario="unit", index=0)


@pytest.fixture(scope="session")
def probe_cp2(bg_cp2):
    return generate_probe(bg_cp2, seed=7, scenario="unit", index=0)


@pytest.fixture(scope="session")
def probe_torus(bg_torus):
    return generate_probe(bg_torus, seed=7, scenario="unit", index=0)

