"""kahler_lab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...    (every workload in turn)
    python3 bench/run.py --smoke

A run imports kahler_lab from this checkout's src/, does one untimed
warm-up pass, then repeats timed passes for S seconds (at least three),
timing one fresh-interpreter set-up before each pass.  Every scenario's
artifacts are checked as it completes.  With --trace 1 the run times untraced passes for S/2 seconds, then traced
passes for S/2 seconds, and reports per-layer metrics and the tracing
overhead instead of the end-to-end metrics.

End-to-end metrics (untraced):
    wall_s            one pass's wall time: the sum over the workload's
                      scenarios of each one's median run time over the
                      passes, artifact writing included
    setup_s           median over samples of `import kahler_lab` plus
                      fs_background for each background the workload uses,
                      in a fresh interpreter
    check_pass_share  passed check rows / all check rows of the timed passes

Human-readable tables go to standard output; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}: "attempted" counts
scenario runs, "failed" those that raised, and "correct" is false when an
artifact is missing, malformed or disagrees with the run.  Failed check rows
are measured (check_pass_share), not treated as harness errors.  The full
result with provenance is written to .bench_out/, and traced runs write
their spans there.  Exit code 0 means the run completed; 2 means the
checkout holds no kahler_lab sources.
"""

from __future__ import annotations

import common  # pins BLAS threads before numpy loads

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from tracer import Tracer, layer_metrics, total_self_s
from workloads import ALL_SCENARIOS, WORKLOADS, PassResult, Workload, run_pass

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "check_pass_share": "share",
}
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
CHILD_TIMEOUT_S = 120


def _child(args: list) -> dict:
    proc = subprocess.run([sys.executable, str(common.BENCH_DIR / "child.py")] + args,
                          cwd=common.ROOT, env=common.child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {var: os.environ[var] for var in common.BLAS_VARS},
    }


def _passes(workload: Workload, seed: int, seconds: float, min_passes: int, work,
            tag: str, *, tiny: bool, tracer: Tracer | None = None,
            setup: list | None = None) -> list[PassResult]:
    """Timed passes within `seconds`, at least `min_passes`.

    A further pass starts only if one more pass of the median length so far
    still ends within `seconds`, so a run lasts about `seconds` whatever the
    length of a pass.  With `setup`, one fresh-interpreter set-up sample is
    appended before each pass, so set-up samples spread over the run like the
    passes do.
    """
    passes: list[PassResult] = []
    lengths: list[float] = []
    start = time.perf_counter()
    while len(passes) < min_passes or (
            time.perf_counter() - start + statistics.median(lengths) <= seconds):
        began = time.perf_counter()
        if setup is not None:
            setup.append(_child(["startup", json.dumps(workload.backgrounds)]))
        out = work / f"{tag}{len(passes)}"
        passes.append(run_pass(workload, seed, out, tiny=tiny, tracer=tracer))
        shutil.rmtree(out, ignore_errors=True)
        lengths.append(time.perf_counter() - began)
    return passes


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def pass_wall_s(passes: list[PassResult]) -> float:
    """Wall time of one pass: the sum over scenarios of each one's median run
    time.  A slow spell of the host that hits a different scenario in each
    pass then moves no median, where it would lengthen every pass's sum."""
    names = dict.fromkeys(r.scenario for p in passes for r in p.runs)
    return sum(_median(r.seconds for p in passes for r in p.runs if r.scenario == name)
               for name in names)


def end_to_end(passes: list[PassResult], setup: list[dict]) -> dict[str, float]:
    runs = [r for p in passes for r in p.runs]
    rows = sum(r.rows for r in runs)
    return {
        "wall_s": pass_wall_s(passes),
        "setup_s": _median(s["setup_s"] for s in setup),
        "check_pass_share": sum(r.passed for r in runs) / rows if rows else 0.0,
    }


def accuracy(passes: list[PassResult]) -> dict:
    runs = [r for p in passes for r in p.runs]
    rows = sum(r.rows for r in runs)
    used = [(r.tol_used, r.scenario, r.worst_row) for r in runs if r.tol_used is not None]
    worst = max(used) if used else (0.0, "", "")
    return {
        "check_fail_share": (rows - sum(r.passed for r in runs)) / rows if rows else 0.0,
        "scenario_error_share": sum(bool(r.error) for r in runs) / len(runs),
        "tol_used_max": worst[0],
        "tol_used_max_row": f"{worst[1]} {worst[2]}".strip(),
        "rows": rows,
        "failed_rows": sorted({f"{r.scenario} {row}" for r in runs for row in r.failed_rows}),
        "errors": sorted({f"{r.scenario}: {r.error}" for r in runs if r.error}),
    }


def per_layer(traced: list[PassResult], untraced: list[PassResult], setup: list[dict],
              first_run_extra_s: float) -> dict[str, float]:
    samples = []
    for p in traced:
        values = layer_metrics(p.totals)
        seconds = {r.scenario: r.seconds for r in p.runs}
        for name in ALL_SCENARIOS:
            values[f"scenarios.{name}.s"] = seconds.get(name, 0.0)
        samples.append(values)
    out = {key: _median(s[key] for s in samples) for key in samples[0]}
    out["startup.import_s"] = _median(s["import_s"] for s in setup)
    out["startup.first_run_extra_s"] = first_run_extra_s
    out["trace.overhead_s"] = pass_wall_s(traced) - pass_wall_s(untraced)
    acc = accuracy(untraced + traced)
    for key in ("check_fail_share", "scenario_error_share", "tol_used_max"):
        out[key] = acc[key]
    return out


def layer_unit(name: str) -> str:
    if name.endswith("steps_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("_share"):
        return "share"
    if name == "tol_used_max":
        return "ratio"
    return "count"


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool, *,
                  tiny: bool = False) -> tuple[dict, dict]:
    """Measure one workload; return (final JSON line, full details).

    `tiny` is the smoke test's mode: grid 24, count 1, one pass.
    """
    common.add_checkout_source()
    import kahler_lab
    common.check_imported(kahler_lab)

    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    common.OUT.mkdir(exist_ok=True)
    run_dir = common.OUT / f"run-{tag}"     # spans of a traced run stay here
    work = run_dir / "work"
    shutil.rmtree(run_dir, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup: list[dict] = []
        min_passes = 1 if tiny else MIN_PASSES
        if not tiny:
            run_pass(workload, seed, work / "warmup")
        untraced_s = seconds / 2 if trace else seconds
        untraced = _passes(workload, seed, untraced_s, min(min_passes, MIN_TRACE_PASSES)
                           if trace else min_passes, work, "pass", tiny=tiny,
                           setup=setup)
        traced: list[PassResult] = []
        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()
            try:
                traced = _passes(workload, seed, seconds / 2,
                                 1 if tiny else MIN_TRACE_PASSES, work, "traced",
                                 tiny=tiny, tracer=tracer)
            finally:
                tracer.uninstall()
            configs = [workload.config(name, seed, tiny=True) for name in workload.scenarios]
            first_run_extra = _child(["firstrun", json.dumps(configs),
                                      str(work / "firstrun")])["first_run_extra_s"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is not None:
        tracer.write_spans(run_dir / "spans.csv")
    if not trace:
        shutil.rmtree(run_dir, ignore_errors=True)

    passes = untraced + traced
    problems = [msg for p in passes for msg in p.problems]
    e2e = end_to_end(untraced, setup)
    details = {
        "workload": workload.name,
        "why": workload.why,
        "provenance": provenance(seed),
        "seconds": seconds,
        "passes": len(untraced),
        "pass_wall_s": [p.wall_s for p in untraced],
        "scenario_runs_s": {name: [r.seconds for p in untraced for r in p.runs
                                   if r.scenario == name]
                            for name in workload.scenarios},
        "traced_passes": len(traced),
        "scenario_runs": sum(len(p.runs) for p in untraced),
        "setup_samples": len(setup),
        "end_to_end": e2e,
        "run_p50_s": _median(r.seconds for p in untraced for r in p.runs),
        "scenario_s": {name: _median(r.seconds for p in untraced for r in p.runs
                                     if r.scenario == name)
                       for name in workload.scenarios},
        "accuracy": accuracy(passes),
        "problems": problems,
    }
    if trace:
        layers = per_layer(traced, untraced, setup, first_run_extra)
        details["per_layer"] = layers
        details["traced_wall_s"] = [p.wall_s for p in traced]
        details["traced_self_s"] = [total_self_s(p.totals) for p in traced]
        details["make_metric_calls_by_scenario"] = {
            r.scenario: r.make_metric_calls for r in traced[0].runs}
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    line = {
        "correct": not problems,
        "attempted": sum(len(p.runs) for p in passes),
        "failed": sum(bool(r.error) for p in passes for r in p.runs),
        "metrics": metrics,
    }
    with open(common.OUT / f"result-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump({"line": line, "details": details}, handle, indent=2)
    return line, details


def print_report(d: dict) -> None:
    prov = d["provenance"]
    print(f"workload {d['workload']}  seed {prov['seed']}  "
          f"nproc {prov['nproc']} (usable {prov['cpus_usable']})  "
          f"python {prov['python']}  numpy {prov['numpy']}  scipy {prov['scipy']}  "
          f"blas {prov['blas']} ({prov['blas_config']}), threads pinned to 1")
    print(f"end-to-end, untraced: median over {d['passes']} passes, "
          f"{d['scenario_runs']} scenario runs, {d['setup_samples']} set-up samples")
    for name, value in d["end_to_end"].items():
        print(f"  {name:<20s} {value:12.6f} {E2E_UNITS[name]}")
    print(f"  run_p50_s            {d['run_p50_s']:12.6f} s  (one scenario run)")
    print("scenario run time, median over passes:")
    for name, value in d["scenario_s"].items():
        print(f"  {name + '_s':<28s} {value:10.4f} s")
    acc = d["accuracy"]
    print(f"accuracy: check_fail_share {acc['check_fail_share']:.6f} of {acc['rows']} rows "
          f"(failing in: {', '.join(acc['failed_rows']) or 'none'}); "
          f"scenario_error_share {acc['scenario_error_share']:.4f}; "
          f"tol_used_max {acc['tol_used_max']:.4g} at {acc['tol_used_max_row'] or '-'}")
    for error in acc["errors"]:
        print(f"  scenario error: {error}")
    if "per_layer" in d:
        print(f"per-layer, traced: median over {d['traced_passes']} passes; traced "
              f"wall_s {d['end_to_end']['wall_s'] + d['per_layer']['trace.overhead_s']:.4f} s, "
              f"tracing overhead "
              f"{d['per_layer']['trace.overhead_s']:.4f} s")
        for name, value in d["per_layer"].items():
            print(f"  {name:<52s} {value:16.6f} {layer_unit(name)}")
        print("make_metric calls per scenario, first traced pass:")
        for name, calls in d["make_metric_calls_by_scenario"].items():
            print(f"  {name:<28s} {calls:10.0f}")
    for problem in d["problems"]:
        print(f"OUTPUT PROBLEM: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny pass of every workload, traced and untraced, "
                             "with self-checks")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            import smoke
            return smoke.main(run_benchmark)
        if args.workload is None:
            parser.error("--workload is required")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            line, details = run_benchmark(WORKLOADS[name], args.seed, args.seconds,
                                          bool(args.trace))
            print_report(details)
            print(json.dumps(line))
    except common.MissingSource as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
