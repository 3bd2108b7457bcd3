"""Config-driven verification scenarios.

Each scenario draws a seeded family of probe metrics (as MetricStates, which
the runners pass on and never rebuild) and exercises one slice of the
functional machinery.  A runner returns records: CheckItem rows in the
report and trajectory `monitors` records by file name; `run_scenario` alone
formats and writes the files (report.json, checks.csv, trajectory CSVs).
Scenario names, config keys, and the report/CSV schemas are part of the
tool's public contract; anything unknown in a config is rejected up front.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .checks import CheckItem, CheckReport
from .continuity import (
    check_lemma_3_4,
    check_lemma_4_1,
    check_section5,
    lambda1_radial,
    monitors,
    path_monitors,
    ricci_positive_generator,
    solve_aubin_paths,
    solve_yau_path,
)
from .energies import (
    _gradient_wedges,
    critical_residual,
    e1_cy,
    e_k_closed,
    e_k_path,
    futaki_k,
    i_and_j,
    orbit_potential,
)
from .errors import NotKahlerError, ParameterError
from .exact import run_all as run_exact
from .families import DEFAULT_MODES, generate_probe
from .flow import run_flow
from .geometry import (
    MetricState,
    check_grid,
    fs_background,
    laplacian,
    make_metric,
    ricci_potential,
)
from . import spectral

@dataclass
class ScenarioConfig:
    """One scenario run's settings; a field left None takes the scenario's
    default when `parse_config` reads the config."""

    scenario: str
    model: str | None = None
    n: int | None = None
    grid_size: int = 96
    seed: int = 0
    modes: int = DEFAULT_MODES
    amplitude: float | None = None
    count: int | None = None
    tolerances: dict = field(default_factory=dict)
    out_dir: str | None = None


def parse_config(raw: dict) -> ScenarioConfig:
    """Validate a flat config dictionary; reject anything unknown."""
    if not isinstance(raw, dict):
        raise ParameterError("config must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(ScenarioConfig)}
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    if "scenario" not in raw:
        raise ParameterError("config is missing the required key 'scenario'")
    name = raw["scenario"]
    if name not in SCENARIO_NAMES:
        raise ParameterError(f"unknown scenario {name!r}")
    tols = raw.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ParameterError("tolerances must be an object")
    # JSON true/false would pass every integer and number test below
    flags = sorted(key for key, value in [*raw.items(), *tols.items()]
                   if isinstance(value, bool))
    if flags:
        raise ParameterError(f"config values must not be booleans: {flags}")

    spec = _REGISTRY[name]
    cfg = replace(ScenarioConfig(name, spec.models[0], spec.default_n, count=spec.default_count),
                  **{key: value for key, value in raw.items()
                     if value is not None and key != "tolerances"})

    if cfg.model not in spec.models:
        raise ParameterError(
            f"scenario {name!r} supports models {spec.models}, got {cfg.model!r}")
    for key in ("n", "grid_size"):
        if not isinstance(getattr(cfg, key), int):
            raise ParameterError(f"{key} must be an integer, got {getattr(cfg, key)!r}")
    check_grid(cfg.model, cfg.n, cfg.grid_size)
    ranges = {"seed": (0, 2 ** 64 - 1), "modes": (1, math.inf), "count": (1, math.inf)}
    for key, (low, high) in ranges.items():
        value = getattr(cfg, key)
        if not isinstance(value, int) or not low <= value <= high:
            raise ParameterError(f"{key} must be an integer in [{low}, {high}], got {value!r}")
    # the grid resolves fewer modes than half its nodes, and aliases beyond
    if cfg.modes >= cfg.grid_size // 2:
        raise ParameterError(f"modes must be below grid_size // 2, got {cfg.modes}")
    # json.load parses NaN and Infinity: numbers must be finite, here and below
    if cfg.amplitude is not None and not (isinstance(cfg.amplitude, (int, float))
                                          and 0 <= cfg.amplitude <= sys.float_info.max):
        raise ParameterError("amplitude must be a finite nonnegative number")
    if cfg.out_dir is not None and not isinstance(cfg.out_dir, str):
        raise ParameterError(f"out_dir must be a string, got {cfg.out_dir!r}")

    unknown_tols = set(tols) - set(spec.tolerances)
    if unknown_tols:
        raise ParameterError(
            f"unknown tolerance keys for {name!r}: {sorted(unknown_tols)}; "
            f"known: {sorted(spec.tolerances)}")
    merged = dict(spec.tolerances)
    for key, value in tols.items():
        if not isinstance(value, (int, float)) or not 0 <= value <= sys.float_info.max:
            raise ParameterError(f"tolerance {key!r} must be a finite nonnegative number")
        merged[key] = float(value)
    cfg.tolerances = merged
    return cfg


# ---------------------------------------------------------------------------
# shared helpers


def _fmt(value) -> str:
    return repr(float(value))


def trajectory_csv(rows: np.recarray) -> str:
    """The CSV of a trajectory's `monitors` records: every column but
    I - J, in record order."""
    cols = [c for c in rows.dtype.names if c != "I_minus_J"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def _probes(bg, cfg: ScenarioConfig, count: int | None = None,
            index_offset: int = 0) -> list:
    return [generate_probe(bg, cfg.seed, cfg.scenario, index_offset + i,
                           cfg.modes, cfg.amplitude)
            for i in range(count if count is not None else cfg.count)]


def _suffixed(items: list[CheckItem], idx: int) -> list[CheckItem]:
    """A probe's rows from a shared check suite, named apart by probe index."""
    return [replace(c, name=f"{c.name}_s{idx}") for c in items]


# ---------------------------------------------------------------------------
# scenario runners, each registered with its spec


@dataclass
class ScenarioSpec:
    runner: object
    description: str
    default_n: int = 2
    default_count: int = 10
    models: tuple = ("cpn",)
    tolerances: dict = field(default_factory=dict)
    needs_background: bool = True


_REGISTRY: dict[str, ScenarioSpec] = {}


def _scenario(description: str, **spec):
    """Register the decorated runner `_run_<name>` as scenario <name>; the
    registration order is the scenario order."""
    def register(runner):
        _REGISTRY[runner.__name__.removeprefix("_run_")] = ScenarioSpec(
            runner, description, **spec)
        return runner
    return register


@_scenario("exact integer/rational verification of the combinatorial identities",
           default_n=1, needs_background=False)
def _run_exact_identities(cfg, bg, report, art):
    start = time.perf_counter()
    for result in run_exact():
        report.add(CheckItem.exact(
            result.name,
            "combinatorial identity holds exactly over the full index range",
            result.passed, note=f"{result.cases} cases"))
    elapsed = time.perf_counter() - start
    report.add(CheckItem.upper_bound(
        "exact_runtime", "exact suite completes within one second",
        elapsed, 1.0, 0.0))


@_scenario("round-metric curvature, class-constant, and spectrum anchors",
           models=("cpn", "torus"),
           tolerances={"eigenvalue": 1e-9, "mu": 1e-10, "residual": 1e-8, "lambda1": 1e-8})
def _run_fs_anchors(cfg, bg, report, art):
    t = cfg.tolerances
    ref = bg.reference
    if cfg.model == "cpn":
        report.add(CheckItem.identity(
            "round_eigenvalues", "round-metric Ricci eigenvalues all equal one",
            ref.einstein_defect, 0.0, t["eigenvalue"]))
        f, defect = ricci_potential(ref)
        report.add(CheckItem.identity(
            "round_ricci_potential", "round-metric Ricci potential vanishes",
            float(np.abs(f).max()), 0.0, t["eigenvalue"],
            note=f"defining-identity defect {defect:.2e}"))
        for k in range(bg.n + 1):
            report.add(CheckItem.identity(
                f"class_constant_k{k}",
                "class constant with k+1 curvature factors equals one",
                bg.mu[k], 1.0, t["mu"]))
        for k, res in enumerate(critical_residual(ref)):
            report.add(CheckItem.identity(
                f"critical_residual_k{k}",
                "critical-equation residual vanishes at the round metric",
                float(np.abs(res).max()), 0.0, t["residual"]))
        lap_x = laplacian(ref, bg.x)
        report.add(CheckItem.identity(
            "moment_laplacian", "moment coordinate is an eigenfunction shifted by n",
            float(np.abs(lap_x - (bg.n - bg.x)).max()), 0.0, t["eigenvalue"]))
        report.add(CheckItem.identity(
            "moment_mean", "mean of the moment coordinate equals n",
            bg.mean(bg.x), float(bg.n), t["mu"]))
        report.add(CheckItem.identity(
            "first_eigenvalue", "first Laplacian eigenvalue equals one",
            lambda1_radial(ref), 1.0, t["lambda1"]))
    else:
        report.add(CheckItem.identity(
            "flat_eigenvalues", "flat-metric curvature vanishes identically",
            ref.einstein_defect, 0.0, t["eigenvalue"]))
        for k in range(bg.n + 1):
            report.add(CheckItem.identity(
                f"class_constant_k{k}", "flat-model class constants vanish",
                bg.mu[k], 0.0, t["mu"]))
    report.add(CheckItem.identity(
        "volume_quadrature", "reference volume reproduced by quadrature",
        bg.integrate(ref.rho) / bg.volume, 1.0, 1e-12))


@_scenario("energy agrees across segments and with the closed form",
           default_count=20, tolerances={"path": 1e-8, "closed": 1e-6})
def _run_ek_path_independence(cfg, bg, report, art):
    t = cfg.tolerances
    for idx, state in enumerate(_probes(bg, cfg)):
        lin = e_k_path(state, "linear").values
        quad = e_k_path(state, "quadratic").values
        for k, closed in enumerate(e_k_closed(state)):
            scale = max(abs(lin[k]), abs(closed))
            report.add(CheckItem.identity(
                f"path_independence_s{idx}_k{k}",
                "energy value agrees along two admissible segments",
                lin[k], quad[k], t["path"], relative_to=scale))
            report.add(CheckItem.identity(
                f"path_vs_closed_s{idx}_k{k}",
                "segment integral agrees with the closed-form expression",
                lin[k], closed, t["closed"], relative_to=scale))


@_scenario("closed-form energy: definition agreement and shift invariance",
           default_count=5, tolerances={"closed": 1e-6, "shift": 1e-9})
def _run_prop21_agreement(cfg, bg, report, art):
    t = cfg.tolerances
    probes = _probes(bg, cfg)
    rng = np.random.default_rng(cfg.seed)
    shifts = rng.uniform(-1.0, 1.0, size=len(probes))

    for k, zero in enumerate(e_k_closed(bg.reference)):
        report.add(CheckItem.identity(
            f"zero_potential_k{k}", "closed form vanishes at the reference",
            zero, 0.0, 1e-11))

    for idx, state in enumerate(probes):
        shifted_state = make_metric(bg, state.phi + shifts[idx])
        path = e_k_path(state, "linear").values
        shifted = e_k_closed(shifted_state)
        for k, closed in enumerate(e_k_closed(state)):
            scale = max(abs(closed), abs(path[k]))
            report.add(CheckItem.identity(
                f"definition_agreement_s{idx}_k{k}",
                "closed-form expression reproduces the defining integral",
                path[k], closed, t["closed"], relative_to=scale))
            report.add(CheckItem.identity(
                f"shift_invariance_s{idx}_k{k}",
                "energy unchanged by adding a constant to the potential",
                shifted[k], closed, t["shift"], relative_to=max(1.0, abs(closed))))


@_scenario("two-step composition and antisymmetry of the energy",
           default_count=20, tolerances={"cocycle": 1e-7})
def _run_cocycle(cfg, bg, report, art):
    t = cfg.tolerances
    first = MetricState.stack(_probes(bg, cfg))
    second = MetricState.stack(_probes(bg, cfg, index_offset=cfg.count))
    # one stacked evaluation of each energy over the probe pairs
    e_second = e_k_closed(second)
    direct = e_k_closed(first)
    via = e_second + e_k_closed(first, second)
    anti = e_k_closed(bg.reference, second) + e_second

    for idx in range(cfg.count):
        for k in range(bg.n + 1):
            scale = max(abs(direct[k][idx]), abs(via[k][idx]))
            report.add(CheckItem.identity(
                f"cocycle_s{idx}_k{k}",
                "energy composes along intermediate metrics",
                direct[k][idx], via[k][idx], t["cocycle"], relative_to=scale))
            report.add(CheckItem.identity(
                f"antisymmetry_s{idx}_k{k}",
                "energy reverses sign when the endpoints swap",
                anti[k][idx], 0.0, t["cocycle"]))


@_scenario("nonnegativity over positively curved probes, minimum at the round metric",
           default_count=25, tolerances={"energy_floor": 1e-7, "argmin_deviation": 1e-2})
def _run_theorem1(cfg, bg, report, art):
    t = cfg.tolerances
    seeds = MetricState.stack([bg.reference] + _probes(bg, cfg, count=cfg.count - 1))
    # the probes transported as one stack, and each energy in one call
    states = ricci_positive_generator(seeds)
    # the gradient term of each probe's potential over its Ricci form
    q0 = _gradient_wedges(states, seeds)[0] / bg.volume
    low, dev = states.min_ricci, states.einstein_defect
    values = e_k_closed(states)

    for idx in range(cfg.count):
        report.add(CheckItem.lower_bound(
            f"probe_positivity_s{idx}",
            "transported probe has positive curvature", low[idx], 0.0, 0.0))
        for k in range(bg.n + 1):
            report.add(CheckItem.lower_bound(
                f"energy_floor_s{idx}_k{k}",
                "energy from the round metric to a positively curved probe "
                "is nonnegative",
                values[k][idx], 0.0, t["energy_floor"]))
            if k >= 1:
                report.add(CheckItem.lower_bound(
                    f"gradient_refinement_s{idx}_k{k}",
                    "energy dominates the gradient term of the probe over "
                    "its curvature form",
                    values[k][idx], k * q0[idx], t["energy_floor"]))

    for k in range(bg.n + 1):
        arg = int(np.argmin(values[k]))
        report.add(CheckItem.upper_bound(
            f"minimizer_near_round_k{k}",
            "family minimizer sits at the round metric's eigenvalue profile",
            dev[arg], 0.0, t["argmin_deviation"],
            note=f"minimum at probe {arg}"))


@_scenario("k = 1 energy floor over arbitrary probes with the two-leg split",
           default_count=50, tolerances={"energy_floor": 1e-7, "cocycle": 1e-7})
def _run_theorem2(cfg, bg, report, art):
    t = cfg.tolerances
    probes = MetricState.stack(_probes(bg, cfg))
    direct = e_k_closed(probes)[1]
    # the first five probes split through their transports, as one stack
    split = probes[:5]
    ends = ricci_positive_generator(split)
    total, back = e_k_closed(ends)[1], e_k_closed(ends, split)[1]
    for idx in range(cfg.count):
        report.add(CheckItem.lower_bound(
            f"energy_floor_s{idx}",
            "k = 1 energy from the round metric is nonnegative on arbitrary "
            "probes",
            direct[idx], 0.0, t["energy_floor"]))
        if idx < 5:
            report.add(CheckItem.identity(
                f"split_cocycle_s{idx}",
                "energy splits through the curvature-inverted midpoint",
                direct[idx], total[idx] - back[idx], t["cocycle"],
                relative_to=max(abs(direct[idx]), abs(total[idx]))))
            report.add(CheckItem.lower_bound(
                f"split_positive_leg_s{idx}",
                "leg ending at a positively curved metric is nonnegative",
                total[idx], 0.0, t["energy_floor"]))
            report.add(CheckItem.upper_bound(
                f"split_negative_leg_s{idx}",
                "prescribed-volume endpoint leg is nonpositive",
                back[idx], 0.0, t["energy_floor"]))


@_scenario("bending-path structure: rate equation, curvature identity, "
           "eigenvalue bound, monotonicity, endpoint identity", default_count=3)
def _run_lemma32_34(cfg, bg, report, art):
    for idx, traj in enumerate(solve_aubin_paths(_probes(bg, cfg))):
        rows = path_monitors(traj)
        report.extend(_suffixed(check_lemma_3_4(traj, monitors=rows), idx))
        if not traj.completed:
            report.note(f"probe {idx}: path stalled at t = {traj.ts[-1]}"
                        f" ({traj.reason})")
        art[f"trajectory_bending_{idx}.csv"] = rows


@_scenario("prescribed-volume path: rate equation and endpoint energy identity",
           default_count=20)
def _run_lemma41(cfg, bg, report, art):
    for idx, probe in enumerate(_probes(bg, cfg)):
        traj = solve_yau_path(probe)
        report.extend(_suffixed(check_lemma_4_1(traj), idx))
        if idx == 0:
            art["trajectory_volume_0.csv"] = path_monitors(traj)


@_scenario("rotation-field invariants vanish, metric-independently",
           tolerances={"futaki": 1e-6, "spread": 1e-6, "orbit_derivative": 1e-6})
def _run_futaki(cfg, bg, report, art):
    t = cfg.tolerances
    # the round metric and the probes as one stacked state, a row each
    probes = MetricState.stack([bg.reference] + _probes(bg, cfg, count=cfg.count - 1))
    values = futaki_k(probes) / bg.volume

    for k, arr in enumerate(values):
        report.add(CheckItem.identity(
            f"invariant_vanishes_k{k}",
            "rotation-field invariant vanishes in the presence of a "
            "symmetric Einstein metric",
            float(np.abs(arr).max()), 0.0, t["futaki"]))
        report.add(CheckItem.identity(
            f"metric_independence_k{k}",
            "invariant value has no dependence on the evaluating metric",
            float(arr.max() - arr.min()), 0.0, t["spread"]))

    # derivative of the energy along the rotation orbit equals the invariant
    base = min(1, len(probes.phi) - 1)  # the first probe past the round metric, if any
    h = 0.02
    orbit = make_metric(bg, np.array([orbit_potential(probes[base], s)
                                      for s in 0.1 + h * np.arange(-2, 3)]))
    derivs = spectral.fd_derivative(e_k_closed(orbit).T, h)[2]
    for k in range(min(bg.n, 2) + 1):
        report.add(CheckItem.identity(
            f"orbit_derivative_k{k}",
            "orbit derivative of the energy equals the normalized invariant",
            derivs[k], values[k][base],
            t["orbit_derivative"]))


@_scenario("growth control along both paths: two-time identity, bridge "
           "identity, decay bounds, boundedness monitor", default_count=2)
def _run_section5(cfg, bg, report, art):
    probes = _probes(bg, cfg)
    for idx, (probe, aubin) in enumerate(zip(probes, solve_aubin_paths(probes))):
        yau = solve_yau_path(probe)
        rows = path_monitors(aubin)
        report.extend(_suffixed(check_section5(aubin, yau, monitors=rows), idx))
        if not aubin.completed:
            report.note(f"probe {idx}: path stalled at t = {aubin.ts[-1]}"
                        f" ({aubin.reason})")
        art[f"trajectory_bending_{idx}.csv"] = rows


@_scenario("energies and invariants flat along the rotation orbit while J grows",
           default_count=1, tolerances={"energy": 1e-5, "futaki": 1e-6, "spread": 1e-6})
def _run_orbit_flatness(cfg, bg, report, art):
    t = cfg.tolerances
    s_values = [-1.2, -1.0, -0.7, -0.4, -0.2, -0.1, 0.1, 0.2, 0.4, 0.7, 1.0, 1.2]

    # the orbit points as one stacked state, one evaluation per functional
    orbit = make_metric(bg, np.array([orbit_potential(bg.reference, s) for s in s_values]))
    js = i_and_j(orbit)[1]
    energies, invariants = e_k_closed(orbit), futaki_k(orbit) / bg.volume

    report.add(CheckItem.lower_bound(
        "j_span", "orbit sweep spans a tenfold range of J",
        js.max() / js.min(), 10.0, 0.0))
    for k, arr in enumerate(invariants):
        report.add(CheckItem.identity(
            f"orbit_energy_flat_k{k}",
            "energy vanishes along the full rotation orbit of the round metric",
            float(np.abs(energies[k]).max()), 0.0, t["energy"]))
        report.add(CheckItem.identity(
            f"orbit_invariant_k{k}",
            "rotation invariant vanishes at every orbit point",
            float(np.abs(arr).max()), 0.0, t["futaki"]))
        report.add(CheckItem.identity(
            f"orbit_invariant_spread_k{k}",
            "rotation invariant constant across the orbit sweep",
            float(arr.max() - arr.min()), 0.0, t["spread"]))

    probe = generate_probe(bg, cfg.seed, cfg.scenario, 0, cfg.modes, cfg.amplitude)
    base_e1 = e_k_closed(probe)[1]
    for s in (-0.6, 0.6):
        moved = make_metric(bg, orbit_potential(probe, s))
        report.add(CheckItem.identity(
            f"pullback_invariance_s{s:+.1f}",
            "energy of a probe unchanged under the rotation pullback",
            e_k_closed(moved)[1], base_e1, t["energy"],
            relative_to=max(1.0, abs(base_e1))))


# 95% two-sided t quantiles stdtrit(dof, 0.975); the fit has 3..12 rows, dof 1..10
_T975 = (12.706204736174694, 4.302652729749462, 3.1824463052837078,
         2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
         2.364624251592784, 2.306004135204166, 2.262157162798205, 2.228138851986274)


@_scenario("empirical growth exponent on a scaling family (documented "
           "substitute for the unverifiable polynomial bound)",
           default_count=1, tolerances={"energy_floor": 1e-7, "monotone_slack": 1e-9})
def _run_properness_probe(cfg, bg, report, art):
    t = cfg.tolerances
    report.note(
        "The polynomial-properness lower bound is existential in its "
        "constants and fails outright on the rotation orbit (energy flat, J "
        "unbounded), so it is not checkable as stated on this symmetric "
        "model.  This scenario reports only the empirical growth exponent "
        "on a fixed-direction scaling family, plus nonnegativity and "
        "monotone growth; orbit flatness is quantified by the companion "
        "orbit scenario.")
    base = generate_probe(bg, cfg.seed, cfg.scenario, 0, cfg.modes, cfg.amplitude)
    scales = np.geomspace(0.25, 2.5, 12)

    rows = []
    for c in scales:
        try:
            state = make_metric(bg, c * base.phi)
        except NotKahlerError:
            break
        e1 = e_k_closed(state)[1]
        jval = i_and_j(state)[1]
        rows.append((float(c), e1, jval))

    for c, e1, _ in rows:
        report.add(CheckItem.lower_bound(
            f"energy_floor_c{c:.3f}",
            "k = 1 energy nonnegative along the scaling family",
            e1, 0.0, t["energy_floor"]))
    diffs = np.diff([e1 for _, e1, _ in rows])
    report.add(CheckItem.lower_bound(
        "monotone_growth", "k = 1 energy grows monotonically with the scale",
        float(diffs.min()), 0.0, t["monotone_slack"]))

    usable = [(e1, j) for _, e1, j in rows if e1 > 1e-12 and j > 1e-12]
    if len(usable) < 3:
        report.add(CheckItem.lower_bound(
            "exponent_fit_rows",
            "scaling rows with energy and J above 1e-12, enough to fit an "
            "exponent", len(usable), 3, 0.0))
        return
    x = np.log([j for _, j in usable])
    y = np.log([e1 for e1, _ in usable])
    coef, cov = np.polyfit(x, y, 1, cov=True)  # cov on len(x) - 2 degrees of freedom
    slope = float(coef[0])
    half = _T975[len(x) - 3] * float(np.sqrt(cov[0, 0]))
    report.add(CheckItem.info(
        "empirical_exponent",
        "least-squares growth exponent of log-energy against log-J", slope))
    report.add(CheckItem.info(
        "exponent_ci_low", "95% confidence lower bound", slope - half))
    report.add(CheckItem.info(
        "exponent_ci_high", "95% confidence upper bound", slope + half))


@_scenario("flow monitors: stationarity, energy monotonicity, volume "
           "conservation, long-time convergence",
           default_count=20, tolerances={"stationary": 1e-8, "monotone": 1e-7,
                                         "volume": 1e-9, "convergence": 1e-3})
def _run_krf_monotone(cfg, bg, report, art):
    t = cfg.tolerances

    # the round metric rides as row 0 of the probe stack
    probes = _probes(bg, cfg)
    flows = run_flow(MetricState.stack([bg.reference] + probes), dt=0.025, steps=40)
    report.add(CheckItem.identity(
        "round_stationary", "round metric is an exact fixed point of the flow",
        float(np.abs(flows.rows[0].states.phi).max()), 0.0, t["stationary"]))

    # E_0 and E_1 of every probe's samples: probe 0's from the monitors
    # behind its CSV, the later probes' from one stacked call
    first = flows.rows[1]
    rows = monitors(first.states, t=first.times, c_t=np.zeros(len(first.times)))
    art["trajectory_flow_0.csv"] = rows
    later = e_k_closed(flows.states[flows.offsets[2]:])
    all_e0, all_e1 = (np.concatenate([rows[f"E_{k}"], later[k]]) for k in (0, 1))
    for idx, traj in enumerate(flows.rows[1:]):
        span = slice(*(flows.offsets[idx + 1:idx + 3] - flows.offsets[1]))
        e0, e1 = all_e0[span], all_e1[span]
        # E_1 rises between samples whose curvature both stay above -1
        flags = traj.states.min_ricci >= -1.0
        e1_rises = np.diff(e1)[flags[:-1] & flags[1:]]
        report.add(CheckItem.upper_bound(
            f"k0_decreasing_s{idx}",
            "k = 0 energy never increases between flow samples",
            float(np.diff(e0).max()), 0.0, t["monotone"]))
        if e1_rises.size:
            report.add(CheckItem.upper_bound(
                f"k1_decreasing_s{idx}",
                "k = 1 energy never increases while curvature stays above "
                "minus the metric",
                e1_rises.max(), 0.0, t["monotone"]))
        report.add(CheckItem.upper_bound(
            f"volume_conserved_s{idx}",
            "class volume conserved along the flow",
            float(traj.volume_defects.max()), 0.0, t["volume"]))

    small = generate_probe(bg, cfg.seed, cfg.scenario, 10_000, cfg.modes, 0.03)
    long_run = run_flow(small, dt=0.25, steps=40, sample_every=8)
    report.add(CheckItem.identity(
        "long_time_convergence",
        "small data flows to a unit-eigenvalue metric by time ten",
        long_run.states[-1].einstein_defect, 0.0, t["convergence"]))

    labels = ["flow row 0 (round metric)"] + [
        f"flow row {idx + 1} (probe {idx})" for idx in range(len(probes))]
    for label, traj in [*zip(labels, flows.rows), ("long-run flow", long_run)]:
        if traj.halvings or traj.status != "completed":
            report.note(f"{label}: {traj.status} after {traj.steps} steps with "
                        f"{traj.halvings} halvings, dt_final = {traj.dt_final:g}"
                        + (f" ({traj.reason})" if traj.reason else ""))


@_scenario("flat-model branch: manifest nonnegativity and formula reduction",
           default_n=1, default_count=50, models=("torus",),
           tolerances={"floor": 1e-10, "agreement": 1e-9, "path": 1e-8})
def _run_cy_torus(cfg, bg, report, art):
    t = cfg.tolerances
    ref = bg.reference
    report.add(CheckItem.identity(
        "flat_curvature", "flat reference has identically zero curvature",
        ref.einstein_defect, 0.0, 1e-12))
    for k in range(bg.n + 1):
        report.add(CheckItem.identity(
            f"class_constant_k{k}", "flat-model class constants vanish",
            bg.mu[k], 0.0, 1e-12))

    for idx, state in enumerate(_probes(bg, cfg)):
        cy = e1_cy(state)
        report.add(CheckItem.lower_bound(
            f"nonnegative_s{idx}",
            "flat-model k = 1 energy is a manifest square",
            cy, 0.0, t["floor"]))
        if idx < 5:
            closed = e_k_closed(state)[1]
            report.add(CheckItem.identity(
                f"closed_form_s{idx}",
                "general energy formula reduces to the squared-slope integral",
                closed, cy, t["agreement"], relative_to=max(1.0, cy)))
        if idx < 3:
            lin = e_k_path(state, "linear").values
            quad = e_k_path(state, "quadratic").values
            for k in range(bg.n + 1):
                report.add(CheckItem.identity(
                    f"path_independence_s{idx}_k{k}",
                    "flat-model energy agrees along two admissible segments",
                    lin[k], quad[k], t["path"],
                    relative_to=max(1.0, abs(lin[k]))))


# ---------------------------------------------------------------------------
# entry point


SCENARIO_NAMES = tuple(_REGISTRY)


def list_scenarios() -> list[tuple[str, str]]:
    return [(name, _REGISTRY[name].description) for name in SCENARIO_NAMES]


def run_scenario(cfg: ScenarioConfig, out_dir: str | None = None) -> CheckReport:
    """Execute one scenario and return its in-memory report.

    The config passes through `parse_config` first (a parsed one comes back
    unchanged), so a directly built ScenarioConfig runs on its scenario's
    defaults.  Files are written only given an output directory (`out_dir`,
    else the config's): <out>/<scenario>/ is made first, and every file is
    written after the runner returns, so a run that raises leaves it empty.
    """
    cfg = parse_config(asdict(cfg))
    spec = _REGISTRY[cfg.scenario]
    base = out_dir if out_dir is not None else cfg.out_dir
    if base is not None:
        base = Path(base) / cfg.scenario
        base.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    report = CheckReport(cfg.scenario)
    bg = None
    if spec.needs_background:
        bg = fs_background(cfg.model, cfg.n, cfg.grid_size)
    art = {}  # trajectory file name -> its monitors records
    spec.runner(cfg, bg, report, art)
    runtime = time.perf_counter() - start
    if base is None:
        return report

    payload = {
        "scenario": cfg.scenario,
        "config": asdict(cfg),
        "checks": [item.as_dict() for item in report.items],
        "aggregate": report.all_passed,
        "runtime_seconds": runtime,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "notes": list(report.notes),
    }
    files = {name: trajectory_csv(rows) for name, rows in art.items()}
    files["report.json"] = json.dumps(payload, indent=2, sort_keys=True) + "\n"

    lines = ["name,anchor,lhs,rhs,tol,margin,pass"]
    for item in report.items:
        anchor = item.anchor.replace('"', "'")
        lines.append(
            f'{item.name},"{anchor}",{_fmt(item.lhs)},{_fmt(item.rhs)},'
            f'{_fmt(item.tol)},{_fmt(item.margin)},{item.passed}')
    files["checks.csv"] = "\n".join(lines) + "\n"
    for name, text in files.items():
        (base / name).write_text(text)
    return report
