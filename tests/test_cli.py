"""Exit codes of the `lab` command, called in-process."""

from __future__ import annotations

import json
import re
from dataclasses import asdict, fields

import pytest
from hypothesis import given, settings, strategies as st

from kahler_lab import cli
from kahler_lab.errors import ParameterError, SolverError
from kahler_lab.geometry import MAX_N, check_grid, fs_background
from kahler_lab.scenarios import _REGISTRY, SCENARIO_NAMES, ScenarioConfig, parse_config


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


def test_an_unwritable_output_is_a_config_error(tmp_path, capsys):
    path = _config(tmp_path, {"scenario": "fs_anchors"})
    (tmp_path / "file").write_text("")
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "file" / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write the output: ")
    assert "Traceback" not in err


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


def test_non_string_out_dir_is_a_config_error(tmp_path):
    for out_dir in (5, ["out"], {"path": "out"}):
        path = _config(tmp_path, {"scenario": "exact_identities", "out_dir": out_dir})
        assert cli.main(["validate", "--config", path]) == 2, out_dir
        assert cli.main(["run", "--config", path]) == 2, out_dir


def test_modes_must_lie_below_half_the_grid(tmp_path):
    # mode grid_size // 2 aliases on the grid, and 10^9 modes would be
    # drawn before any other check
    assert parse_config({"scenario": "fs_anchors", "grid_size": 48, "modes": 23}).modes == 23
    for modes in (24, 10 ** 9):
        with pytest.raises(ParameterError, match="modes"):
            parse_config({"scenario": "fs_anchors", "grid_size": 48, "modes": modes})
        path = _config(tmp_path, {"scenario": "fs_anchors", "grid_size": 48, "modes": modes})
        assert cli.main(["validate", "--config", path]) == 2, modes


def test_grid_size_is_bounded_above(tmp_path):
    # a million nodes would ask for terabytes before any other check
    assert parse_config({"scenario": "fs_anchors", "grid_size": 1024}).grid_size == 1024
    for size in (1025, 10 ** 6):
        with pytest.raises(ParameterError, match="grid_size"):
            parse_config({"scenario": "fs_anchors", "grid_size": size})
        path = _config(tmp_path, {"scenario": "fs_anchors", "grid_size": size})
        assert cli.main(["validate", "--config", path]) == 2, size
        assert cli.main(["run", "--config", path, "--out", str(tmp_path)]) == 2, size


def test_config_and_background_apply_the_grid_rules_of_check_grid():
    # every boundary of check_grid: the config is rejected exactly when the
    # grid is, with its message for a known model, and fs_background raises
    # that message too; no valid grid is built
    cases = [(model, n, size) for model in ("cpn", "torus")
             for n in sorted({0, 1, MAX_N[model], MAX_N[model] + 1})
             for size in (15, 16, 33, 1024, 1025)] + [("sphere", 1, 64)]
    rejected = 0
    for model, n, size in cases:
        raw = {"scenario": "fs_anchors", "model": model, "n": n, "grid_size": size,
               "modes": 1}
        try:
            check_grid(model, n, size)
        except ParameterError as exc:
            rejected += 1
            message = re.escape(str(exc)) if model in MAX_N else None
            with pytest.raises(ParameterError, match=message):
                parse_config(raw)
            with pytest.raises(ParameterError, match=re.escape(str(exc))):
                fs_background(model, n, size)
        else:
            assert parse_config(raw).grid_size == size
    assert (len(cases), rejected) == (36, 28)
    with pytest.raises(ParameterError, match=re.escape("supports 1 <= n <= 4, got 5")):
        parse_config({"scenario": "fs_anchors", "n": 5})


def test_odd_torus_grid_is_a_config_error(tmp_path):
    raw = {"scenario": "cy_torus", "model": "torus", "grid_size": 33, "count": 2}
    assert cli.main(["validate", "--config", _config(tmp_path, raw)]) == 2
    assert cli.main(["run", "--config", _config(tmp_path, raw), "--out", str(tmp_path)]) == 2
    assert parse_config({**raw, "grid_size": 34}).grid_size == 34


def test_boolean_config_values_are_config_errors(tmp_path):
    # JSON true is an int to isinstance; "n": true would run as n = 1
    for key in ("n", "grid_size", "seed", "count", "amplitude", "modes"):
        path = _config(tmp_path, {"scenario": "fs_anchors", key: True})
        assert cli.main(["validate", "--config", path]) == 2, key
    path = _config(tmp_path, {"scenario": "fs_anchors",
                              "tolerances": {"residual": True}})
    assert cli.main(["validate", "--config", path]) == 2


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "9" * 400],
                         ids=["nan", "inf", "minus_inf", "float_overflow", "int_overflow"])
def test_non_finite_config_numbers_are_config_errors(tmp_path, literal):
    # json.loads parses these literals; a tolerance of Infinity would pass
    # any check, and report.json would carry a bare NaN or Infinity
    for raw in (f'{{"scenario": "fs_anchors", "tolerances": {{"residual": {literal}}}}}',
                f'{{"scenario": "fs_anchors", "amplitude": {literal}}}'):
        with pytest.raises(ParameterError):
            parse_config(json.loads(raw))
        assert cli.main(["validate", "--config", _config(tmp_path, raw)]) == 2, raw


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


# any value json.loads can return: NaN, the infinities and integers past
# 2^64 included
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6)
# values near the valid ones, so that most configs reach the range checks
_VALUES = _JSON | st.integers(-1, 2 ** 65) | st.sampled_from(["cpn", "torus"])
_KEYS = [f.name for f in fields(ScenarioConfig)]
_TOLERANCE_KEYS = sorted({key for spec in _REGISTRY.values() for key in spec.tolerances})
_CONFIGS = st.fixed_dictionaries(
    {"scenario": st.sampled_from(SCENARIO_NAMES)},
    optional={**{key: _VALUES for key in _KEYS[1:]},
              "tolerances": st.dictionaries(st.sampled_from(_TOLERANCE_KEYS), _VALUES,
                                            max_size=3)})


@settings(max_examples=400, deadline=None, database=None)
@given(_CONFIGS | st.dictionaries(st.sampled_from(_KEYS + ["colour"]), _JSON) | _JSON)
def test_parse_config_rejects_or_returns_a_json_config(raw):
    # a config either fails as a config error or reports as strict JSON
    try:
        cfg = parse_config(raw)
    except ParameterError:
        return
    json.dumps(asdict(cfg), allow_nan=False)
    assert parse_config(asdict(cfg)) == cfg
