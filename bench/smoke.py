"""Self-test of the benchmark: every workload, one pass at grid 24, untraced
and traced, plus one scenario made to raise.

    python3 bench/run.py --smoke

Checks that each run emits exactly the metric names and units listed in
BENCHMARK.json, that span self times recomputed from the written span files
are non-negative and sum to no more than the traced wall time, and that a
scenario raising a LabError is counted as failed without stopping the run.
Exits 0 when every check holds.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict

import common
from workloads import WORKLOADS

# slack for perf_counter rounding when comparing summed intervals
CLOCK_EPS = 1e-6


def _self_times(paths) -> list[float]:
    """Self time of every span in the given span files, from parent links."""
    duration, child = {}, defaultdict(float)
    for path in paths:
        with open(path, newline="", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                key = (path, row["span"])
                duration[key] = float(row["end"]) - float(row["start"])
                if row["parent"] != "0":
                    child[(path, row["parent"])] += duration[key]
    return [d - child[key] for key, d in duration.items()]


def _check_run(run_benchmark, workload, trace: bool, expected: dict) -> list[str]:
    label = f"{workload.name} trace={int(trace)}"
    line, details = run_benchmark(workload, 0, 0.0, trace, tiny=True)
    failures = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{label}: result keys {sorted(line)}")
    if not line["correct"]:
        failures.append(f"{label}: output problems {details['problems']}")
    if line["attempted"] < 1:
        failures.append(f"{label}: nothing attempted")
    units = {name: m["unit"] for name, m in line["metrics"].items()}
    if units != expected:
        missing = sorted(set(expected) - set(units))
        extra = sorted(set(units) - set(expected))
        wrong = sorted(k for k in set(units) & set(expected) if units[k] != expected[k])
        failures.append(f"{label}: metrics missing {missing}, extra {extra}, "
                        f"wrong unit {wrong}")
    if trace:
        run_dir = common.OUT / f"run-{workload.name}-seed0-trace1"
        selfs = _self_times(sorted(run_dir.glob("spans*.csv")))
        traced_wall = sum(details["traced_wall_s"])
        if not selfs:
            failures.append(f"{label}: no spans written")
        elif min(selfs) < -CLOCK_EPS:
            failures.append(f"{label}: negative self time {min(selfs)}")
        elif sum(selfs) > traced_wall + CLOCK_EPS:
            failures.append(f"{label}: self times sum to {sum(selfs)} s, more than "
                            f"the traced wall time {traced_wall} s")
    return failures


def _check_raising_scenario(run_benchmark) -> list[str]:
    """krf_monotone made to raise must be counted, not crash the run."""
    from kahler_lab import scenarios
    from kahler_lab.errors import SolverError

    def broken_flow(*args, **kwargs):
        raise SolverError("raised on purpose by the benchmark smoke test")

    original = scenarios.run_flow
    scenarios.run_flow = broken_flow
    try:
        line, details = run_benchmark(WORKLOADS["suite-n96"], 0, 0.0, False, tiny=True)
    finally:
        scenarios.run_flow = original
    acc = details["accuracy"]
    if (line["failed"] != 1 or not line["correct"]
            or acc["scenario_error_share"] != 1 / len(WORKLOADS["suite-n96"].scenarios)
            or not acc["errors"][0].startswith("krf_monotone: SolverError")):
        return [f"raising scenario not counted as one failure: {line}, {acc}"]
    return []


def main(run_benchmark) -> int:
    common.add_checkout_source()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in WORKLOADS.values():
        for trace in (False, True):
            failures += _check_run(run_benchmark, workload, trace, expected[trace])
    failures += _check_raising_scenario(run_benchmark)
    for failure in failures:
        print(f"SMOKE FAIL: {failure}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 0 if not failures else 1
