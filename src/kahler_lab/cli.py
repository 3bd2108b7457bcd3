"""Command-line entry point.

Exit codes: 0 all checks passed; 1 at least one check failed; 2 usage or
config error; 3 numerical failure inside a scenario.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import LabError, ParameterError
from .scenarios import list_scenarios, parse_config, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="Numerical laboratory for energy hierarchies on "
                    "symmetry-reduced Kahler metrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario from a JSON config")
    run.add_argument("--config", required=True, help="path to a JSON config file")
    run.add_argument("--out", default=None, help="output directory (overrides "
                     "LAB_OUT and the config's out_dir)")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--grid", type=int, default=None, help="override the grid size")

    sub.add_parser("list-scenarios", help="print scenario names and descriptions")

    val = sub.add_parser("validate", help="parse and validate a config, then exit")
    val.add_argument("--config", required=True, help="path to a JSON config file")
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParameterError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config {path!r} is not valid JSON: {exc}") from exc


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.command == "list-scenarios":
        for name, description in list_scenarios():
            print(f"{name:22s} {description}")
        return 0

    try:
        raw = _load_config(args.config)
        if args.command == "run" and isinstance(raw, dict):
            # overrides go into the raw config, so parse_config validates them
            if args.seed is not None:
                raw["seed"] = args.seed
            if args.grid is not None:
                raw["grid_size"] = args.grid
        cfg = parse_config(raw)
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"config ok: scenario {cfg.scenario!r} on {cfg.model} "
              f"n={cfg.n} grid={cfg.grid_size}")
        return 0

    out_dir = args.out or os.environ.get("LAB_OUT") or cfg.out_dir or "lab_out"
    try:
        report = run_scenario(cfg, out_dir=out_dir)
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: cannot write the output: {exc}", file=sys.stderr)
        return 2
    except LabError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    stats = report.summary()
    print(f"{report.scenario}: {stats['passed']}/{stats['total']} checks passed"
          f" (worst margin {stats['worst_margin']:.3e})")
    for item in report.failures:
        print(f"  FAIL {item.name}: margin {item.margin:.3e} ({item.anchor})")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
