"""Exit codes of the `lab` command, called in-process."""

from __future__ import annotations

import json

import pytest

from kahler_lab import cli
from kahler_lab.errors import SolverError


def _config(tmp_path, raw) -> str:
    path = tmp_path / "config.json"
    path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    return str(path)


def test_list_scenarios_exits_zero():
    assert cli.main(["list-scenarios"]) == 0


def test_validate_rejects_unknown_key(tmp_path):
    path = _config(tmp_path, {"scenario": "fs_anchors", "colour": "blue"})
    assert cli.main(["validate", "--config", path]) == 2


def test_invalid_json_is_a_config_error(tmp_path):
    path = _config(tmp_path, "{not json")
    assert cli.main(["validate", "--config", path]) == 2
    assert cli.main(["run", "--config", path]) == 2


def test_run_passes_and_writes_report(tmp_path):
    path = _config(tmp_path, {"scenario": "fs_anchors"})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
    assert (out / "fs_anchors" / "report.json").is_file()
    assert (out / "fs_anchors" / "checks.csv").is_file()


def test_run_with_a_failing_check_exits_one(tmp_path):
    # the residual rows sit at 8e-12 .. 6e-10, so a zero tolerance fails them
    path = _config(tmp_path, {"scenario": "fs_anchors",
                              "tolerances": {"residual": 0.0}})
    assert cli.main(["run", "--config", path, "--out", str(tmp_path)]) == 1


def test_jobs_option_is_rejected(tmp_path):
    path = _config(tmp_path, {"scenario": "fs_anchors"})
    assert cli.main(["run", "--config", path, "--out", str(tmp_path),
                     "--jobs", "2"]) == 2


def test_numerical_failure_exits_three(tmp_path, monkeypatch):
    def broken(cfg, out_dir=None):
        raise SolverError("raised on purpose")

    monkeypatch.setattr(cli, "run_scenario", broken)
    path = _config(tmp_path, {"scenario": "fs_anchors"})
    assert cli.main(["run", "--config", path, "--out", str(tmp_path)]) == 3


def test_run_overrides_are_validated(tmp_path):
    path = _config(tmp_path, {"scenario": "fs_anchors"})
    for flag, value in (("--seed", -1), ("--seed", 2 ** 64), ("--grid", 8)):
        assert cli.main(["run", "--config", path, "--out", str(tmp_path),
                         flag, str(value)]) == 2


def test_boolean_config_values_are_config_errors(tmp_path):
    # JSON true is an int to isinstance; "n": true would run as n = 1
    for key in ("n", "grid_size", "seed", "count", "amplitude", "modes"):
        path = _config(tmp_path, {"scenario": "fs_anchors", key: True})
        assert cli.main(["validate", "--config", path]) == 2, key
    path = _config(tmp_path, {"scenario": "fs_anchors",
                              "tolerances": {"residual": True}})
    assert cli.main(["validate", "--config", path]) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_properness_probe_without_a_fit_fails_in_valid_json(tmp_path):
    # at this amplitude no scaling row has E_1 above 1e-12, so there is
    # nothing to fit the growth exponent to
    path = _config(tmp_path, {"scenario": "properness_probe", "amplitude": 1e-7})
    assert cli.main(["run", "--config", path, "--out", str(tmp_path)]) == 1
    text = (tmp_path / "properness_probe" / "report.json").read_text()
    assert "NaN" not in text
    report = json.loads(text)
    failed = [row["name"] for row in report["checks"] if not row["pass"]]
    assert failed == ["exponent_fit_rows"]
