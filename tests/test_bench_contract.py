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
from kahler_lab.flow import FlowStack, run_flow
from kahler_lab.geometry import MetricState, fs_background, potential_from_density

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
    # each hook runs on what its target really returns, and its totals
    # are checked against the result's own fields
    tracer = _tracer()
    bg = fs_background("cpn", 2, 24)
    probe = generate_probe(bg, seed=0, scenario="bench", index=0)
    # the density hook counts calls with a positive third argument as
    # polished; the inversion takes two, so a real call counts none
    totals = defaultdict(float)
    args = (bg, probe.rho)
    tracer._polish_hook(totals, args, {}, potential_from_density(*args))
    assert totals["polished_calls"] == 0
    # the path hook adds the highest Gauss order any k needed
    path = e_k_path(probe, "linear")
    tracer._e_k_path_hook(totals, (probe, "linear"), {}, path)
    assert totals["accepted_nodes"] == path.intervals in (48, 96, 192, 384)
    # the bending hook counts points, Newton steps and stalls; this path
    # completes, so it counts no stall
    aubin = solve_aubin_path(probe, dt=0.1)
    tracer._aubin_hook(totals, (probe,), {"dt": 0.1}, aubin)
    assert aubin.completed
    assert totals["points"] == len(aubin.ts) == 11
    assert totals["newton_iters"] == sum(aubin.iterations) > 0
    assert totals["stalled"] == 0
    # a single start and a stacked one, as krf_monotone runs them: the
    # stack's totals are its rows' sums
    totals = defaultdict(float)
    tracer._flow_hook(totals, (probe,), {"steps": 10}, run_flow(probe, steps=10))
    assert (totals["steps"], totals["halvings"]) == (10, 0)
    start = MetricState.stack([bg.reference, probe, probe])
    flows = run_flow(start, steps=10)
    assert isinstance(flows, FlowStack) and len(flows.rows) == 3
    tracer._flow_hook(totals, (start,), {"steps": 10}, flows)
    assert totals["steps"] == 10 + sum(row.steps for row in flows.rows) == 40
    assert totals["halvings"] == sum(row.halvings for row in flows.rows) == 0


def test_names_the_scripts_read_from_scenarios():
    assert len(scenarios.SCENARIO_NAMES) == 15
    for name in ("run_flow", "run_scenario", "parse_config"):
        assert callable(getattr(scenarios, name)), name
