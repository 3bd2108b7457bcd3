"""The names and fields the benchmark reads from the package.

`bench/tracer.py` wraps the functions in its TARGETS and reads counts off
their arguments and return values; `tools/golden.py` reads the scenario
list.  Removing or renaming any of them breaks the benchmark without
failing any other test, so this checks each one on a small grid.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

from kahler_lab import scenarios
from kahler_lab.continuity import solve_aubin_path
from kahler_lab.energies import e_k_path
from kahler_lab.families import generate_probe
from kahler_lab.flow import run_flow
from kahler_lab.geometry import fs_background, potential_from_density

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_targets() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_is_a_callable():
    targets = _tracer_targets()
    assert targets
    for span, (module_name, attr) in targets.items():
        assert callable(getattr(importlib.import_module(module_name), attr, None)), span


def test_fields_the_tracer_hooks_read():
    assert list(inspect.signature(potential_from_density).parameters)[2] == "polish"
    bg = fs_background("cpn", 2, 24)
    probe = generate_probe(bg, seed=0, scenario="bench", index=0)
    assert e_k_path(probe, 1).intervals > 0
    # at this grid the path stalls just short of t = 1, which the hook
    # counts; it needs only the fields
    aubin = solve_aubin_path(probe, dt=0.1)
    assert isinstance(aubin.completed, bool)
    assert len(aubin.points) > 1
    assert all(isinstance(p.iterations, int) for p in aubin.points)
    flow = run_flow(probe, steps=10)
    assert (flow.steps, flow.halvings) == (10, 0)


def test_names_the_scripts_read_from_scenarios():
    assert len(scenarios.SCENARIO_NAMES) == 15
    for name in ("run_flow", "run_scenario", "parse_config"):
        assert callable(getattr(scenarios, name)), name
