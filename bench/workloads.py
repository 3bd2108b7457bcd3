"""The benchmark's workloads, how one pass of each runs, and how its output
is checked.

A pass runs every scenario of the workload once, one after another, each
with the benchmark seed as its config `seed`, by calling
`kahler_lab.scenarios.run_scenario` in this process.  Every scenario's
report.json, checks.csv and trajectory CSVs are parsed and checked after
the scenario's timed interval ends.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import common
from tracer import MAKE_METRIC, Tracer

ALL_SCENARIOS = (
    "exact_identities", "fs_anchors", "ek_path_independence",
    "prop21_agreement", "cocycle", "theorem1", "theorem2", "lemma32_34",
    "lemma41", "futaki", "section5", "orbit_flatness", "properness_probe",
    "krf_monotone", "cy_torus",
)
# grid of the smoke test and of the first-run probe (count 1)
TINY_GRID = 24


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenarios: tuple
    backgrounds: tuple          # (model, n, grid) the workload builds; timed by setup_s
    grid: int | None = None     # grid_size override; None keeps each default
    counts: dict = field(default_factory=dict)

    def config(self, scenario: str, seed: int, tiny: bool = False) -> dict:
        raw = {"scenario": scenario, "seed": seed}
        if tiny:
            raw.update(grid_size=TINY_GRID, count=1)
            return raw
        if self.grid is not None:
            raw["grid_size"] = self.grid
        if scenario in self.counts:
            raw["count"] = self.counts[scenario]
        return raw


WORKLOADS = {w.name: w for w in (
    Workload(
        "suite-n96",
        "all 15 scenarios at default configs (N = 96), warm: per-call Python "
        "overhead of make_metric and e_k_path dominates",
        ALL_SCENARIOS, (("cpn", 2, 96), ("torus", 1, 96))),
    Workload(
        "paths-n384",
        "lemma41, lemma32_34, section5, krf_monotone at N = 384, count 1, warm: "
        "dense solves and matvecs dominate, e_k_path never runs",
        ("lemma41", "lemma32_34", "section5", "krf_monotone"),
        (("cpn", 2, 384),), grid=384,
        counts={"lemma41": 1, "lemma32_34": 1, "section5": 1, "krf_monotone": 1}),
)}


@dataclass
class ScenarioRun:
    scenario: str
    seconds: float
    rows: int = 0
    passed: int = 0
    tol_used: float | None = None     # max of 1 - margin/tol over rows with tol > 0
    worst_row: str = ""
    failed_rows: list[str] = field(default_factory=list)
    error: str = ""                   # set when the scenario raised
    make_metric_calls: float = 0.0    # traced passes only


@dataclass
class PassResult:
    runs: list[ScenarioRun] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    totals: dict | None = None        # traced passes: additive span totals

    @property
    def wall_s(self) -> float:
        return sum(r.seconds for r in self.runs)


# ---------------------------------------------------------------------------
# output checks


_CSV_HEADER = ["name", "anchor", "lhs", "rhs", "tol", "margin", "pass"]
_ROW_KEYS = {"name", "anchor", "lhs", "rhs", "tol", "margin", "pass", "kind", "note"}


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _trajectory_files(scenario: str, count: int) -> list[str]:
    if scenario in ("lemma32_34", "section5"):
        return [f"trajectory_bending_{i}.csv" for i in range(count)]
    if scenario == "lemma41":
        return ["trajectory_volume_0.csv"]
    if scenario == "krf_monotone":
        return ["trajectory_flow_0.csv"]
    return []


def _check_trajectory(path: Path, problems: list[str]) -> None:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0][:3] != ["t", "c_t", "E_0"] or len(rows) < 2:
        problems.append(f"{path.name}: missing header or rows")
        return
    times = []
    for row in rows[1:]:
        values = [float(v) for v in row]
        if len(values) != len(rows[0]) or not all(math.isfinite(v) for v in values):
            problems.append(f"{path.name}: malformed or non-finite row")
            return
        times.append(values[0])
    if any(b <= a for a, b in zip(times, times[1:])):
        problems.append(f"{path.name}: time column not increasing")


def check_outputs(run: ScenarioRun, scen_dir: Path, seed: int, problems: list[str],
                  report) -> None:
    """Parse and cross-check one scenario's artifacts; fill in run's counts."""
    where = run.scenario
    try:
        data = json.loads((scen_dir / "report.json").read_text())
        with open(scen_dir / "checks.csv", newline="", encoding="utf-8") as handle:
            csv_rows = list(csv.reader(handle))
    except (OSError, ValueError) as exc:
        problems.append(f"{where}: unreadable artifacts: {exc}")
        return
    checks = data.get("checks", [])
    if data.get("scenario") != run.scenario or data.get("config", {}).get("seed") != seed:
        problems.append(f"{where}: report.json names another scenario or seed")
    if not checks:
        problems.append(f"{where}: report.json has no check rows")
    for row in checks:
        if set(row) != _ROW_KEYS:
            problems.append(f"{where}: row {row.get('name')} has keys {sorted(row)}")
            return
        if row["pass"] != (row["margin"] >= 0.0):
            problems.append(f"{where}: row {row['name']} pass flag contradicts its margin")
    if data.get("aggregate") != all(row["pass"] for row in checks):
        problems.append(f"{where}: aggregate flag contradicts the rows")

    mine = [item.as_dict() for item in report.items]
    if len(mine) != len(checks) or any(
            a["name"] != b["name"] or a["pass"] != b["pass"]
            or not all(_same(a[k], b[k]) for k in ("lhs", "rhs", "tol", "margin"))
            for a, b in zip(mine, checks)):
        problems.append(f"{where}: report.json differs from the returned report")

    if csv_rows[:1] != [_CSV_HEADER] or len(csv_rows) != len(checks) + 1 or any(
            c[0] != r["name"] or c[6] != str(r["pass"]) or not _same(float(c[2]), r["lhs"])
            for c, r in zip(csv_rows[1:], checks)):
        problems.append(f"{where}: checks.csv disagrees with report.json")

    for name in _trajectory_files(run.scenario, data.get("config", {}).get("count", 0)):
        if not (scen_dir / name).is_file():
            problems.append(f"{where}: missing {name}")
        else:
            _check_trajectory(scen_dir / name, problems)

    run.rows = len(checks)
    run.passed = sum(bool(row["pass"]) for row in checks)
    run.failed_rows = [row["name"] for row in checks if not row["pass"]]
    used = [(1.0 - row["margin"] / row["tol"], row["name"])
            for row in checks if row["tol"] > 0.0]
    if used:
        run.tol_used, run.worst_row = max(used)


# ---------------------------------------------------------------------------
# passes


def run_pass(workload: Workload, seed: int, out_dir: Path, *, tiny: bool = False,
             tracer: Tracer | None = None) -> PassResult:
    """One pass, traced when `tracer` is given; scenario errors are recorded,
    not raised."""
    from kahler_lab import scenarios
    from kahler_lab.errors import LabError

    result = PassResult()
    if tracer is not None:
        tracer.reset_totals()
    for name in workload.scenarios:
        cfg = scenarios.parse_config(workload.config(name, seed, tiny))
        if tracer is not None:
            tracer.run_id += 1
        report = None
        calls_before = tracer.totals[MAKE_METRIC]["calls"] if tracer else 0.0
        start = time.perf_counter()
        try:
            report = scenarios.run_scenario(cfg, out_dir=str(out_dir))
            error = ""
        except LabError as exc:
            error = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # not the program's typed failure: also a harness problem
            error = f"{type(exc).__name__}: {exc}"
            result.problems.append(f"{name}: untyped exception {error}")
        run = ScenarioRun(name, time.perf_counter() - start, error=error)
        if tracer is not None:
            run.make_metric_calls = tracer.totals[MAKE_METRIC]["calls"] - calls_before
        if report is not None:
            check_outputs(run, out_dir / name, seed, result.problems, report=report)
        result.runs.append(run)
    if tracer is not None:
        result.totals = tracer.totals
    return result
