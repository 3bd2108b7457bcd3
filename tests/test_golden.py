"""`tools/golden.py diff` on synthetic report sets."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "tools" / "golden.py"


def _report_set(root: Path, lhs: float = 1.0, cell: str = "0.5") -> Path:
    run = root / "default" / "seed0" / "demo"
    run.mkdir(parents=True)
    report = {
        "scenario": "demo", "aggregate": True, "notes": [],
        "runtime_seconds": 0.1, "timestamp": "now",
        "checks": [{"name": "row", "kind": "identity", "pass": True,
                    "tol": 1e-6, "anchor": "a", "note": "",
                    "lhs": lhs, "rhs": 1.0}],
    }
    (run / "report.json").write_text(json.dumps(report))
    (run / "trajectory_demo.csv").write_text(f"t,E_0\n0.0,{cell}\n1.0,2.0\n")
    return root


def _diff(a: Path, b: Path) -> tuple[int, str]:
    out = subprocess.run([sys.executable, str(GOLDEN), "diff", str(a), str(b)],
                         capture_output=True, text=True, timeout=60)
    return out.returncode, out.stdout


def test_identical_sets_match(tmp_path):
    a = _report_set(tmp_path / "a")
    shutil.copytree(a, tmp_path / "b")
    code, out = _diff(a, tmp_path / "b")
    assert code == 0, out
    assert "1 scenario runs, 0 mismatched, largest movement 0.00e+00" in out


def test_moved_lhs_is_a_mismatch(tmp_path):
    a = _report_set(tmp_path / "a")
    b = _report_set(tmp_path / "b", lhs=1.0 + 1e-11)
    code, out = _diff(a, b)
    assert code == 1, out
    assert "max move 1.00e-11 MISMATCH" in out


def test_movement_is_reported_as_a_share_of_the_row_tol(tmp_path):
    a = _report_set(tmp_path / "a")
    b = _report_set(tmp_path / "b", lhs=1.0 + 2e-10)
    code, out = _diff(a, b)
    assert code == 1, out
    assert "max move 2.00e-10 MISMATCH, max move/tol 2.00e-04 (row)" in out
    assert "largest movement 2.00e-10, largest move/tol 2.00e-04" in out
    # a movement within 1e-12 still passes, whatever its share of tol
    c = _report_set(tmp_path / "c", lhs=1.0 + 5e-13)
    code, out = _diff(a, c)
    assert code == 0, out
    assert "max move 5.00e-13 ok, max move/tol 5.00e-07 (row)" in out


def test_moved_csv_cell_is_a_mismatch_with_its_movement(tmp_path):
    a = _report_set(tmp_path / "a")
    b = _report_set(tmp_path / "b", cell="0.5000000000001")
    code, out = _diff(a, b)
    assert code == 1, out
    assert "trajectory_demo.csv differs (largest cell movement 1.00e-13)" in out
    c = tmp_path / "c"
    shutil.copytree(a, c)
    (c / "default" / "seed0" / "demo" / "trajectory_demo.csv").write_text(
        "t,E_0\n0.0,0.5\n")
    code, out = _diff(a, c)
    assert code == 1, out
    assert "trajectory_demo.csv differs (header or shape differs)" in out


def test_error_against_report_is_a_mismatch(tmp_path):
    a = _report_set(tmp_path / "a")
    b = tmp_path / "b"
    run = b / "default" / "seed0" / "demo"
    run.mkdir(parents=True)
    (run / "error.txt").write_text("SolverError: stalled\n")
    code, out = _diff(a, b)
    assert code == 1, out
    assert "report -> SolverError: stalled" in out
    # the same error on both sides matches
    shutil.copytree(b, tmp_path / "c")
    code, out = _diff(b, tmp_path / "c")
    assert code == 0, out
    assert "both raise SolverError: stalled" in out
