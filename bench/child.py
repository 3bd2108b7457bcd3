"""Fresh-interpreter measurements, run as subprocesses of bench/run.py.

    python3 bench/child.py startup BG_JSON
        Time `import kahler_lab` and then `fs_background` for each
        [model, n, grid] in BG_JSON; print {"import_s", "setup_s"}.
    python3 bench/child.py firstrun CONFIGS_JSON OUT_DIR
        Run each scenario config twice; print {"first_run_extra_s"}, the
        summed first-minus-second run time (lazy imports and first-call
        costs the first run of each scenario pays).
"""

from __future__ import annotations

import common  # first: pins BLAS threads before numpy loads

import json
import sys
import time


def startup(backgrounds: list) -> dict:
    start = time.perf_counter()
    import kahler_lab
    imported = time.perf_counter()
    common.check_imported(kahler_lab)
    for model, n, grid in backgrounds:
        kahler_lab.fs_background(model, n, grid)
    done = time.perf_counter()
    return {"import_s": imported - start, "setup_s": done - start}


def first_run(configs: list, out_dir: str) -> dict:
    from kahler_lab import scenarios
    from kahler_lab.errors import LabError
    extra = 0.0
    for raw in configs:
        times = []
        for _ in range(2):
            cfg = scenarios.parse_config(raw)
            start = time.perf_counter()
            try:
                scenarios.run_scenario(cfg, out_dir=out_dir)
            except LabError:
                pass  # the timed passes count scenario errors; here only time matters
            times.append(time.perf_counter() - start)
        extra += times[0] - times[1]
    return {"first_run_extra_s": extra}


def main(argv: list) -> int:
    common.add_checkout_source()
    mode = argv[0]
    if mode == "startup":
        result = startup(json.loads(argv[1]))
    elif mode == "firstrun":
        result = first_run(json.loads(argv[1]), argv[2])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
