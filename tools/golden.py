"""Golden-report harness: write a canonical set of scenario reports, or
compare two such sets.

    python3 tools/golden.py write DIR
    python3 tools/golden.py diff A B

`write` runs, at seeds 0, 1 and 2 and through
`kahler_lab.scenarios.run_scenario` of this checkout, three sets:

* DIR/default/seed<s>/<scenario>/   -- all 15 scenarios at default configs;
* DIR/n384/seed<s>/<scenario>/      -- lemma41, lemma32_34, section5 and
  krf_monotone at grid_size 384 with count 1;
* DIR/dims/seed<s>/n<n>[_N<size>]/<scenario>/ -- the path scenarios
  lemma32_34, lemma41 and section5, and every scenario that reads E_k,
  F_k or the critical residual per k (fs_anchors, ek_path_independence,
  prop21_agreement, cocycle, theorem1, theorem2, futaki, orbit_flatness
  and properness_probe), with count 1 at n = 1, 3 and 4 on the default
  grid and at n = 3 and 4 with grid_size 192; and
  DIR/dims/seed<s>/torus/fs_anchors/, the flat model's anchors.

A run that raises leaves error.txt (exception type and message) in its
scenario directory in place of a report, prints its traceback to stderr,
and `write` carries on.

`diff` compares every scenario directory of A with the same one in B and
prints one line per scenario: an error on either side (differing errors,
or an error against a report, are mismatches), mismatches of check-row
names, order, kinds and pass flags (and of the report's config, notes and
aggregate), the largest lhs/rhs movement |a - b| / max(1, |a|), the
largest such movement as a share of its row's tol over the rows with
tol > 0 (and that row's name), and trajectory CSVs that differ byte for
byte, each with its largest cell movement (or a note that its header or
shape differs).  A CSV that differs counts as a mismatch however small the
movement.  The wall-clock row `exact_runtime` and the report fields
`runtime_seconds` and `timestamp` are ignored.  It exits 1 on any mismatch
or on a movement above 1e-12, else 0; the share of tol is only reported.
"""

from __future__ import annotations

import os

# one BLAS thread, set before anything imports numpy: results must not
# depend on how a threaded reduction splits its sums
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import math
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2)
PATH_SCENARIOS = ("lemma41", "lemma32_34", "section5", "krf_monotone")
DIM_SCENARIOS = ("lemma32_34", "lemma41", "section5", "fs_anchors",
                 "ek_path_independence", "prop21_agreement", "cocycle", "theorem1",
                 "theorem2", "futaki", "orbit_flatness", "properness_probe")
# the dims set's (n, grid_size) pairs; None keeps the scenario's default
DIMS = ((1, None), (3, None), (4, None), (3, 192), (4, 192))
MAX_MOVE = 1e-12
IGNORED_ROWS = {"exact_runtime"}
IGNORED_FIELDS = {"runtime_seconds", "timestamp"}


def write(out: Path) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from kahler_lab import scenarios

    # each set's runs: (subdirectory, scenario, config overrides)
    sets = {
        "default": [("", name, {}) for name in scenarios.SCENARIO_NAMES],
        "n384": [("", name, {"grid_size": 384, "count": 1}) for name in PATH_SCENARIOS],
        "dims": [(f"n{n}_N{size}" if size else f"n{n}", name,
                  {"n": n, "count": 1, **({"grid_size": size} if size else {})})
                 for n, size in DIMS for name in DIM_SCENARIOS]
                + [("torus", "fs_anchors", {"model": "torus", "n": 1})],
    }
    for set_name, runs in sets.items():
        for seed in SEEDS:
            for sub, name, extra in runs:
                base = out / set_name / f"seed{seed}" / sub
                label = base.relative_to(out) / name
                cfg = scenarios.parse_config({"scenario": name, "seed": seed, **extra})
                try:
                    report = scenarios.run_scenario(cfg, out_dir=str(base))
                except Exception as exc:  # recorded as the run's outcome
                    traceback.print_exc()
                    error = f"{type(exc).__name__}: {exc}"
                    (base / name).mkdir(parents=True, exist_ok=True)
                    (base / name / "error.txt").write_text(error + "\n")
                    print(f"{label}: {error}", flush=True)
                    continue
                print(f"{label}: {len(report.items)} rows", flush=True)
    return 0


def _move(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(1.0, abs(a))


def _error(run_dir: Path) -> str | None:
    path = run_dir / "error.txt"
    return path.read_text().strip() if path.exists() else None


def _compare(a_dir: Path, b_dir: Path) -> tuple[list[str], float, tuple[float, str]]:
    """Mismatches, the largest lhs/rhs movement and the largest movement as
    a share of its row's tol, with that row's name, of one scenario."""
    errors = [_error(a_dir), _error(b_dir)]
    if errors != [None, None]:
        if errors[0] == errors[1]:
            return [], 0.0, (0.0, "")
        return [f"{errors[0] or 'report'} -> {errors[1] or 'report'}"], 0.0, (0.0, "")
    a = json.loads((a_dir / "report.json").read_text())
    b = json.loads((b_dir / "report.json").read_text())
    # the check rows are compared one by one below
    problems = [f"report field {key!r} differs"
                for key in sorted((set(a) | set(b)) - IGNORED_FIELDS - {"checks"})
                if a.get(key) != b.get(key)]

    rows_a, rows_b = a["checks"], b["checks"]
    names_a = [row["name"] for row in rows_a]
    names_b = [row["name"] for row in rows_b]
    if names_a != names_b:
        problems.append(f"row names or order differ "
                        f"({len(names_a)} vs {len(names_b)} rows)")
    move, tol_share = 0.0, (0.0, "")
    for ra, rb in zip(rows_a, rows_b):
        if ra["name"] != rb["name"] or ra["name"] in IGNORED_ROWS:
            continue
        for key in ("kind", "pass", "tol", "anchor", "note"):
            if ra[key] != rb[key]:
                problems.append(f"{ra['name']}: {key} {ra[key]!r} -> {rb[key]!r}")
        row_move = max(_move(ra["lhs"], rb["lhs"]), _move(ra["rhs"], rb["rhs"]))
        move = max(move, row_move)
        if ra["tol"] > 0 and row_move / ra["tol"] > tol_share[0]:
            tol_share = (row_move / ra["tol"], ra["name"])

    traj_a = sorted(p.name for p in a_dir.glob("trajectory_*.csv"))
    traj_b = sorted(p.name for p in b_dir.glob("trajectory_*.csv"))
    if traj_a != traj_b:
        problems.append(f"trajectory files {traj_a} vs {traj_b}")
    problems += [f"{name} differs ({_csv_change(a_dir / name, b_dir / name)})"
                 for name in sorted(set(traj_a) & set(traj_b))
                 if (a_dir / name).read_bytes() != (b_dir / name).read_bytes()]
    return problems, move, tol_share


def _csv_change(a: Path, b: Path) -> str:
    """How two numeric CSVs with a header line differ."""
    rows_a = [line.split(",") for line in a.read_text().splitlines()]
    rows_b = [line.split(",") for line in b.read_text().splitlines()]
    if (rows_a[:1] != rows_b[:1]
            or [len(r) for r in rows_a] != [len(r) for r in rows_b]):
        return "header or shape differs"
    move = max((_move(float(x), float(y))
                for ra, rb in zip(rows_a[1:], rows_b[1:])
                for x, y in zip(ra, rb)), default=0.0)
    return f"largest cell movement {move:.2e}"


def _run_dirs(root: Path) -> set[Path]:
    return {p.parent.relative_to(root)
            for pattern in ("report.json", "error.txt") for p in root.rglob(pattern)}


def diff(a_root: Path, b_root: Path) -> int:
    dirs_a = _run_dirs(a_root)
    dirs_b = _run_dirs(b_root)
    bad = 0
    for rel in sorted(dirs_a - dirs_b) + sorted(dirs_b - dirs_a):
        print(f"{rel}: present in only one set")
        bad += 1
    worst, worst_share = 0.0, 0.0
    for rel in sorted(dirs_a & dirs_b):
        problems, move, (share, row) = _compare(a_root / rel, b_root / rel)
        worst, worst_share = max(worst, move), max(worst_share, share)
        ok = not problems and move <= MAX_MOVE
        bad += not ok
        both = f" (both raise {_error(a_root / rel)})" if ok and _error(a_root / rel) else ""
        at = f" ({row})" if row else ""
        print(f"{rel}: max move {move:.2e} {'ok' if ok else 'MISMATCH'}{both},"
              f" max move/tol {share:.2e}{at}")
        for problem in problems:
            print(f"    {problem}")
    print(f"{len(dirs_a | dirs_b)} scenario runs, {bad} mismatched, "
          f"largest movement {worst:.2e}, largest move/tol {worst_share:.2e}")
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "write":
        return write(Path(argv[1]))
    if len(argv) == 3 and argv[0] == "diff":
        return diff(Path(argv[1]), Path(argv[2]))
    print("usage: golden.py write DIR | golden.py diff A B", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
