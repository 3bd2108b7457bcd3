"""Every scenario, run end to end on a small grid.

Each run writes its artifacts to a temporary directory; the test checks
the report's structure and that the files agree with it.  It does not
require every check to pass: a small grid is not the resolution the
tolerances assume, and a grid chosen to make a known under-resolution
failure disappear would hide that defect.
"""

from __future__ import annotations

import json

import pytest

from kahler_lab.scenarios import SCENARIO_NAMES, parse_config, run_scenario

# rows per scenario at grid_size 48, count 2, seed 0, in SCENARIO_NAMES order
ROW_COUNTS = dict(zip(SCENARIO_NAMES, (4, 12, 12, 15, 12, 15, 8, 22, 8, 9, 22,
                                       12, 16, 8, 11)))

TRAJECTORIES = {
    "lemma32_34": ["trajectory_bending_0.csv", "trajectory_bending_1.csv"],
    "section5": ["trajectory_bending_0.csv", "trajectory_bending_1.csv"],
    "lemma41": ["trajectory_volume_0.csv"],
    "krf_monotone": ["trajectory_flow_0.csv"],
}


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
