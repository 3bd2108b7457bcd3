"""The names and fields the benchmark reads from the package.

`bench/tracer.py` wraps the functions in its TARGETS and reads counts off
their arguments and return values; `tools/golden.py` reads the scenario
list.  Removing or renaming any of them breaks the benchmark without
failing any other test, so this checks each one on a small grid.
"""

from __future__ import annotations

import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

from kahler_lab import scenarios
from kahler_lab.continuity import solve_aubin_path
from kahler_lab.energies import e_k_path
from kahler_lab.families import generate_probe
from kahler_lab.flow import run_flow
from kahler_lab.geometry import fs_background, potential_from_density

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_is_a_callable():
    targets = _tracer().TARGETS
    assert targets
    for span, (module_name, attr) in targets.items():
        assert callable(getattr(importlib.import_module(module_name), attr, None)), span


def test_fields_the_tracer_hooks_read():
    bg = fs_background("cpn", 2, 24)
    probe = generate_probe(bg, seed=0, scenario="bench", index=0)
    # the density hook counts calls with a positive third argument as
    # polished; the inversion takes two, so a real call counts none
    totals = defaultdict(float)
    args = (bg, probe.rho)
    _tracer()._polish_hook(totals, args, {}, potential_from_density(*args))
    assert totals["polished_calls"] == 0
    # the hook adds `intervals` to a float total: the highest order any k needed
    intervals = e_k_path(probe, "linear").intervals
    assert isinstance(intervals, int) and intervals > 0
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
