"""Every scenario, run end to end on a small grid.

Each run writes its artifacts to a temporary directory; the test checks
the report's structure and that the files agree with it.  It does not
require every check to pass: a small grid is not the resolution the
tolerances assume, and a grid chosen to make a known under-resolution
failure disappear would hide that defect.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import kahler_lab
from kahler_lab import continuity, energies, geometry, scenarios, spectral
from kahler_lab.continuity import monitors
from kahler_lab.errors import SolverError
from kahler_lab.families import generate_probe
from kahler_lab.flow import FlowStack
from kahler_lab.scenarios import (_T975, SCENARIO_NAMES, ScenarioConfig, list_scenarios,
                                  parse_config, run_scenario)

# rows per scenario at grid_size 48, count 2, seed 0, in SCENARIO_NAMES order
ROW_COUNTS = dict(zip(SCENARIO_NAMES, (4, 12, 12, 15, 12, 15, 8, 22, 8, 9, 22,
                                       12, 16, 8, 11)))

# each scenario's description and the model, n, count and tolerances that
# `parse_config({"scenario": name})` returns, in SCENARIO_NAMES order
SPECS = [
    ("exact_identities",
     "exact integer/rational verification of the combinatorial identities",
     "cpn", 1, 10, {}),
    ("fs_anchors", "round-metric curvature, class-constant, and spectrum anchors",
     "cpn", 2, 10, {"eigenvalue": 1e-09, "mu": 1e-10, "residual": 1e-08, "lambda1": 1e-08}),
    ("ek_path_independence", "energy agrees across segments and with the closed form",
     "cpn", 2, 20, {"path": 1e-08, "closed": 1e-06}),
    ("prop21_agreement", "closed-form energy: definition agreement and shift invariance",
     "cpn", 2, 5, {"closed": 1e-06, "shift": 1e-09}),
    ("cocycle", "two-step composition and antisymmetry of the energy",
     "cpn", 2, 20, {"cocycle": 1e-07}),
    ("theorem1",
     "nonnegativity over positively curved probes, minimum at the round metric",
     "cpn", 2, 25, {"energy_floor": 1e-07, "argmin_deviation": 0.01}),
    ("theorem2", "k = 1 energy floor over arbitrary probes with the two-leg split",
     "cpn", 2, 50, {"energy_floor": 1e-07, "cocycle": 1e-07}),
    ("lemma32_34", "bending-path structure: rate equation, curvature identity, "
     "eigenvalue bound, monotonicity, endpoint identity", "cpn", 2, 3, {}),
    ("lemma41", "prescribed-volume path: rate equation and endpoint energy identity",
     "cpn", 2, 20, {}),
    ("futaki", "rotation-field invariants vanish, metric-independently",
     "cpn", 2, 10, {"futaki": 1e-06, "spread": 1e-06, "orbit_derivative": 1e-06}),
    ("section5", "growth control along both paths: two-time identity, bridge identity, "
     "decay bounds, boundedness monitor", "cpn", 2, 2, {}),
    ("orbit_flatness", "energies and invariants flat along the rotation orbit while J grows",
     "cpn", 2, 1, {"energy": 1e-05, "futaki": 1e-06, "spread": 1e-06}),
    ("properness_probe", "empirical growth exponent on a scaling family (documented "
     "substitute for the unverifiable polynomial bound)",
     "cpn", 2, 1, {"energy_floor": 1e-07, "monotone_slack": 1e-09}),
    ("krf_monotone", "flow monitors: stationarity, energy monotonicity, volume "
     "conservation, long-time convergence",
     "cpn", 2, 20, {"stationary": 1e-08, "monotone": 1e-07, "volume": 1e-09,
                    "convergence": 0.001}),
    ("cy_torus", "flat-model branch: manifest nonnegativity and formula reduction",
     "torus", 1, 50, {"floor": 1e-10, "agreement": 1e-09, "path": 1e-08}),
]

TRAJECTORIES = {
    "lemma32_34": ["trajectory_bending_0.csv", "trajectory_bending_1.csv"],
    "section5": ["trajectory_bending_0.csv", "trajectory_bending_1.csv"],
    "lemma41": ["trajectory_volume_0.csv"],
    "krf_monotone": ["trajectory_flow_0.csv"],
}


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests as a reference
    src = str(Path(kahler_lab.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, kahler_lab; "
         "print([m for m in sys.modules if m.split('.')[0].startswith('scipy')])"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_t_quantile_table_matches_scipy():
    from scipy.special import stdtrit
    assert len(_T975) == 10
    for dof, value in enumerate(_T975, start=1):
        assert value == float(stdtrit(dof, 0.975)), dof


def test_scenario_names_descriptions_and_defaults_are_pinned():
    assert list_scenarios() == [(name, description) for name, description, *_ in SPECS]
    for name, _, model, n, count, tolerances in SPECS:
        cfg = parse_config({"scenario": name})
        assert (cfg.model, cfg.n, cfg.count, cfg.tolerances) == (model, n, count, tolerances)
        # a parsed config parses to itself
        assert parse_config(asdict(cfg)) == cfg, name


@pytest.mark.parametrize("name", ["fs_anchors", "cocycle", "cy_torus"])
def test_directly_built_config_runs_on_its_defaults(name):
    report = run_scenario(ScenarioConfig(name))
    assert report.all_passed, [i.name for i in report.items if not i.passed]


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_runs_and_writes_consistent_artifacts(name, tmp_path):
    cfg = parse_config({"scenario": name, "grid_size": 48, "count": 2, "seed": 0})
    report = run_scenario(cfg, out_dir=str(tmp_path))
    out = tmp_path / name

    names = [item.name for item in report.items]
    assert len(set(names)) == len(names)
    assert len(names) == ROW_COUNTS[name]

    data = json.loads((out / "report.json").read_text())
    assert data["checks"] == [item.as_dict() for item in report.items]
    assert data["config"]["seed"] == 0 and data["config"]["grid_size"] == 48

    lines = (out / "checks.csv").read_text().splitlines()
    assert lines[0] == "name,anchor,lhs,rhs,tol,margin,pass"
    assert len(lines) == len(names) + 1

    written = sorted(p.name for p in out.glob("trajectory_*.csv"))
    assert written == TRAJECTORIES.get(name, [])


@pytest.mark.parametrize("name", ["lemma41", "krf_monotone"])
def test_a_run_without_a_directory_formats_nothing(name, monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("output formatted with no directory to write it to")

    monkeypatch.setattr(scenarios, "trajectory_csv", unused)
    monkeypatch.setattr(scenarios.json, "dumps", unused)
    report = run_scenario(parse_config({"scenario": name, "grid_size": 48, "count": 1}))
    assert report.items


def test_a_run_that_raises_writes_no_file(monkeypatch, tmp_path):
    # the second probe's checks raise after the first one's trajectory is
    # recorded: the scenario directory is made up front, and stays empty
    calls, original = [], scenarios.check_lemma_3_4

    def failing(traj, *args, **kwargs):
        calls.append(traj)
        if len(calls) == 2:
            raise SolverError("raised on purpose")
        return original(traj, *args, **kwargs)

    monkeypatch.setattr(scenarios, "check_lemma_3_4", failing)
    cfg = parse_config({"scenario": "lemma32_34", "grid_size": 48, "count": 2})
    with pytest.raises(SolverError):
        run_scenario(cfg, out_dir=str(tmp_path))
    assert len(calls) == 2
    assert list((tmp_path / "lemma32_34").iterdir()) == []


@pytest.mark.parametrize("count", [1, 2])
def test_flow_scenario_passes_with_one_or_two_probes(count):
    report = run_scenario(parse_config({"scenario": "krf_monotone", "count": count}))
    assert report.all_passed, [i.name for i in report.items if not i.passed]
    assert [i.name for i in report.items if i.name.startswith("k0_decreasing")] == [
        f"k0_decreasing_s{idx}" for idx in range(count)]


@pytest.mark.parametrize("name", ["lemma32_34", "lemma41", "section5",
                                  "theorem1", "theorem2"])
def test_path_scenarios_pass_at_n1(name, tmp_path):
    cfg = parse_config({"scenario": name, "n": 1, "count": 1})
    report = run_scenario(cfg, out_dir=str(tmp_path))
    assert report.all_passed, [i.name for i in report.items if not i.passed]


# the default grid for two scenarios, and the fine grid on which the
# prescribed-path scenarios once left the cone at the pole
N4_CASES = ([pytest.param(name, seed, {}, id=f"{name}-{seed}")
             for name in ("lemma32_34", "lemma41") for seed in (0, 1, 2)]
            + [pytest.param(name, 0, {"grid_size": 192}, id=f"{name}-0-N192")
               for name in ("lemma41", "section5", "theorem2")])


@pytest.mark.parametrize("name,seed,extra", N4_CASES)
def test_path_scenarios_pass_at_n4(name, seed, extra, tmp_path):
    cfg = parse_config({"scenario": name, "n": 4, "count": 1, "seed": seed, **extra})
    report = run_scenario(cfg, out_dir=str(tmp_path))
    assert report.all_passed, [i.name for i in report.items if not i.passed]


def test_bending_scenario_passes_at_n3_on_the_fine_grid(tmp_path):
    cfg = parse_config({"scenario": "lemma32_34", "n": 3, "grid_size": 192,
                        "count": 1, "seed": 0})
    report = run_scenario(cfg, out_dir=str(tmp_path))
    assert report.all_passed, [i.name for i in report.items if not i.passed]


@pytest.mark.parametrize("n", [1, 4])
def test_trajectory_csv_columns_are_the_monitor_records(n, request):
    # the column list lives in `monitors` alone; the benchmark reads the
    # header's first three names
    bg = request.getfixturevalue(f"bg_cp{n}")
    states = geometry.MetricState.stack(
        [bg.reference, generate_probe(bg, seed=0, scenario="unit", index=0)])
    rows = monitors(states, t=np.array([0.0, 0.5]), c_t=np.zeros(2))
    header = scenarios.trajectory_csv(rows).splitlines()[0].split(",")
    assert header == [name for name in rows.dtype.names if name != "I_minus_J"]
    assert header == (["t", "c_t"] + [f"E_{k}" for k in range(n + 1)]
                      + ["I", "J", "lambda1_radial", "min_ricci"])


def test_flow_scenario_evaluates_each_sample_energy_once(monkeypatch, tmp_path):
    # trajectory 0's monitor rows already hold E_0 and E_1 of every sample;
    # a stacked call evaluates every energy of each row, so rows are counted
    rows = []
    original = energies.e_k_closed

    def counting(*args, **kwargs):
        rows.append(len(np.atleast_2d(args[0].phi)))
        return original(*args, **kwargs)

    # every module that imported the function by name holds its own binding
    for name, module in list(sys.modules.items()):
        if (name.startswith("kahler_lab")
                and getattr(module, "e_k_closed", None) is original):
            monkeypatch.setattr(module, "e_k_closed", counting)
    cfg = parse_config({"scenario": "krf_monotone", "grid_size": 48, "count": 1})
    report = run_scenario(cfg, out_dir=str(tmp_path))
    assert report.items
    samples = len((tmp_path / "krf_monotone" / "trajectory_flow_0.csv")
                  .read_text().splitlines()) - 1
    assert sum(rows) == samples


def test_flow_scenario_passes_its_probe_states(monkeypatch):
    # the flow stack joins the round reference and the probe states as they
    # are; no potential is rebuilt into a metric
    calls, original = [], scenarios.make_metric

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(scenarios, "make_metric", recorded)
    report = run_scenario(parse_config({"scenario": "krf_monotone", "grid_size": 48,
                                        "count": 2}))
    assert report.items
    assert calls == []


def test_flow_scenario_notes_halved_and_truncated_runs(monkeypatch, tmp_path):
    cfg = parse_config({"scenario": "krf_monotone", "grid_size": 48, "count": 2})
    assert run_scenario(cfg, out_dir=str(tmp_path / "plain")).notes == []

    # no probe halves at the amplitudes a config can set, so the runs the
    # scenario gets back are marked as one that halved and one that truncated
    original = scenarios.run_flow

    def marked(start, **kwargs):
        result = original(start, **kwargs)
        if isinstance(result, FlowStack):
            result.rows[2].halvings, result.rows[2].dt_final = 2, 2.5e-4
        else:
            result.status, result.halvings, result.reason = "truncated", 13, "marked"
        return result

    monkeypatch.setattr(scenarios, "run_flow", marked)
    report = run_scenario(cfg, out_dir=str(tmp_path / "marked"))
    assert report.notes == [
        "flow row 2 (probe 1): completed after 40 steps with 2 halvings, "
        "dt_final = 0.00025",
        "long-run flow: truncated after 40 steps with 13 halvings, "
        "dt_final = 0.25 (marked)"]
    data = json.loads((tmp_path / "marked" / "krf_monotone" / "report.json").read_text())
    assert data["notes"] == report.notes


def test_bending_runners_note_a_stalled_path_with_its_reason(monkeypatch):
    # every bending solve past t = 0.52 raises, so each scenario's path
    # substeps to a stall; both runners note it alike, the reason included
    original = continuity._newton_solve

    def faulty(ref_state, target, t, guess):
        if t > 0.52:
            raise SolverError(f"forced failure at t = {t}", t=t, row=0)
        return original(ref_state, target, t, guess)

    trajs = []

    def recorded(probes):
        trajs[:] = continuity.solve_aubin_paths(probes)
        return trajs

    monkeypatch.setattr(continuity, "_newton_solve", faulty)
    monkeypatch.setattr(scenarios, "solve_aubin_paths", recorded)
    for name in ("lemma32_34", "section5"):
        cfg = parse_config({"scenario": name, "grid_size": 48, "count": 1})
        notes = run_scenario(cfg).notes
        assert trajs[0].reason.startswith("no progress past t = "), name
        assert notes == [f"probe 0: path stalled at t = {trajs[0].ts[-1]}"
                         f" ({trajs[0].reason})"], name


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("size", [96, 384])
def test_flow_scenario_long_run_never_halves_at_its_step(n, size, monkeypatch):
    # the long run's exponential steps of 0.25 treat the stiff linear part
    # exactly, and no run halves at any n
    runs = []
    original = scenarios.run_flow

    def recorded(start, **kwargs):
        runs.append((kwargs, original(start, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(scenarios, "run_flow", recorded)
    cfg = parse_config({"scenario": "krf_monotone", "n": n, "grid_size": size,
                        "count": 1, "seed": 0})
    report = run_scenario(cfg)
    kwargs, long_run = runs[-1]
    assert kwargs == {"dt": 0.25, "steps": 40, "sample_every": 8}
    assert (long_run.status, long_run.halvings, long_run.steps) == ("completed", 0, 40)
    [row] = [item for item in report.items if item.name == "long_time_convergence"]
    assert row.passed


def test_second_run_on_a_grid_builds_no_background(monkeypatch, tmp_path):
    builds = []
    original = spectral.Antiderivative

    def counting(*args):
        builds.append(args)
        return original(*args)

    monkeypatch.setattr(spectral, "Antiderivative", counting)
    geometry.fs_background.cache_clear()
    cfg = parse_config({"scenario": "lemma41", "grid_size": 48, "count": 1})
    first = run_scenario(cfg, out_dir=str(tmp_path / "first"))
    assert len(builds) == 1
    second = run_scenario(cfg, out_dir=str(tmp_path / "second"))
    assert len(builds) == 1
    assert ([(i.name, i.lhs, i.rhs) for i in first.items]
            == [(i.name, i.lhs, i.rhs) for i in second.items])


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_passes_at_defaults(name, tmp_path):
    report = run_scenario(parse_config({"scenario": name, "seed": 0}),
                          out_dir=str(tmp_path))
    assert report.all_passed, [i.name for i in report.items if not i.passed]
