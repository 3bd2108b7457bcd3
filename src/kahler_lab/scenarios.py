"""Config-driven verification scenarios.

Each scenario draws a seeded family of probe metrics (as MetricStates, which
the runners pass on and never rebuild), exercises one slice of the
functional machinery, and emits CheckItem rows plus on-disk artifacts
(report.json, checks.csv, trajectory CSVs).  Scenario names, config keys,
and the report/CSV schemas are part of the tool's public contract; anything
unknown in a config is rejected up front.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .checks import CheckItem, CheckReport
from .continuity import (
    check_lemma_3_4,
    check_lemma_4_1,
    check_section5,
    lambda1_radial,
    monitor_row,
    path_monitors,
    ricci_positive_generator,
    solve_aubin_path,
    solve_yau_path,
)
from .energies import (
    e1_cy,
    e_k_closed,
    e_k_path,
    futaki_k,
    i_and_j,
    mu_k,
    orbit_potential,
)
from .errors import NotKahlerError, ParameterError
from .exact import run_all as run_exact
from .families import DEFAULT_MODES, generate_probe
from .flow import run_flow
from .geometry import (
    MAX_N,
    fs_background,
    laplacian,
    make_metric,
    ricci_potential,
    slot_gradsq,
    slot_metric,
    wedge_density,
)
from . import energies as _energies
from . import spectral

_CONFIG_KEYS = {"scenario", "model", "n", "grid_size", "seed", "modes",
                "amplitude", "count", "tolerances", "out_dir"}


@dataclass
class ScenarioConfig:
    scenario: str
    model: str = "cpn"
    n: int = 2
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
    unknown = set(raw) - _CONFIG_KEYS
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
    cfg = ScenarioConfig(scenario=name)
    cfg.model = spec.default_model
    cfg.n = spec.default_n
    for key in ("model", "n", "grid_size", "seed", "modes", "amplitude",
                "count", "out_dir"):
        if key in raw and raw[key] is not None:
            setattr(cfg, key, raw[key])
    if cfg.count is None:
        cfg.count = spec.default_count

    if cfg.model not in spec.models:
        raise ParameterError(
            f"scenario {name!r} supports models {spec.models}, got {cfg.model!r}")
    if not isinstance(cfg.n, int) or not 1 <= cfg.n <= MAX_N.get(cfg.model, 0):
        raise ParameterError(f"invalid dimension n = {cfg.n!r} for model {cfg.model!r}")
    if not isinstance(cfg.grid_size, int) or cfg.grid_size < 16:
        raise ParameterError(f"grid_size must be an integer >= 16, got {cfg.grid_size!r}")
    if not isinstance(cfg.seed, int) or not 0 <= cfg.seed < 2 ** 64:
        raise ParameterError("seed must be an integer in [0, 2^64)")
    if not isinstance(cfg.modes, int) or cfg.modes < 1:
        raise ParameterError("modes must be a positive integer")
    if cfg.amplitude is not None and not (
            isinstance(cfg.amplitude, (int, float)) and cfg.amplitude >= 0):
        raise ParameterError("amplitude must be a nonnegative number")
    if not isinstance(cfg.count, int) or cfg.count < 1:
        raise ParameterError("count must be a positive integer")

    unknown_tols = set(tols) - set(spec.tolerances)
    if unknown_tols:
        raise ParameterError(
            f"unknown tolerance keys for {name!r}: {sorted(unknown_tols)}; "
            f"known: {sorted(spec.tolerances)}")
    merged = dict(spec.tolerances)
    for key, value in tols.items():
        if not isinstance(value, (int, float)) or value < 0:
            raise ParameterError(f"tolerance {key!r} must be a nonnegative number")
        merged[key] = float(value)
    cfg.tolerances = merged
    return cfg


# ---------------------------------------------------------------------------
# shared helpers


def _fmt(value) -> str:
    return repr(float(value))


def trajectory_csv(bg, rows: list[dict]) -> str:
    cols = (["t", "c_t"] + [f"E_{k}" for k in range(bg.n + 1)]
            + ["I", "J", "lambda1_radial", "min_ricci"])
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
# scenario runners


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


def _run_fs_anchors(cfg, bg, report, art):
    t = cfg.tolerances
    ref = bg.reference
    if cfg.model == "cpn":
        dev = max(abs(ref.lam_r - 1.0).max(), abs(ref.lam_s - 1.0).max())
        report.add(CheckItem.identity(
            "round_eigenvalues", "round-metric Ricci eigenvalues all equal one",
            float(dev), 0.0, t["eigenvalue"]))
        f, defect = ricci_potential(ref)
        report.add(CheckItem.identity(
            "round_ricci_potential", "round-metric Ricci potential vanishes",
            float(np.abs(f).max()), 0.0, t["eigenvalue"],
            note=f"defining-identity defect {defect:.2e}"))
        for k in range(bg.n + 1):
            report.add(CheckItem.identity(
                f"class_constant_k{k}",
                "class constant with k+1 curvature factors equals one",
                mu_k(bg, k), 1.0, t["mu"]))
        for k in range(bg.n + 1):
            res = _energies.critical_residual(ref, k)
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
        dev = max(abs(ref.lam_r).max(), abs(ref.lam_s).max())
        report.add(CheckItem.identity(
            "flat_eigenvalues", "flat-metric curvature vanishes identically",
            float(dev), 0.0, t["eigenvalue"]))
        for k in range(bg.n + 1):
            report.add(CheckItem.identity(
                f"class_constant_k{k}", "flat-model class constants vanish",
                mu_k(bg, k), 0.0, t["mu"]))
    report.add(CheckItem.identity(
        "volume_quadrature", "reference volume reproduced by quadrature",
        bg.integrate(ref.rho) / bg.volume, 1.0, 1e-12))


def _run_ek_path_independence(cfg, bg, report, art):
    t = cfg.tolerances
    for idx, state in enumerate(_probes(bg, cfg)):
        for k in range(bg.n + 1):
            lin = e_k_path(state, k, "linear")
            quad = e_k_path(state, k, "quadratic")
            closed = e_k_closed(state, k)
            scale = max(abs(lin.value), abs(closed))
            report.add(CheckItem.identity(
                f"path_independence_s{idx}_k{k}",
                "energy value agrees along two admissible segments",
                lin.value, quad.value, t["path"], relative_to=scale))
            report.add(CheckItem.identity(
                f"path_vs_closed_s{idx}_k{k}",
                "segment integral agrees with the closed-form expression",
                lin.value, closed, t["closed"], relative_to=scale))


def _run_prop21_agreement(cfg, bg, report, art):
    t = cfg.tolerances
    probes = _probes(bg, cfg)
    rng = np.random.default_rng(cfg.seed)
    shifts = rng.uniform(-1.0, 1.0, size=len(probes))

    for k in range(bg.n + 1):
        zero = e_k_closed(bg.reference, k)
        report.add(CheckItem.identity(
            f"zero_potential_k{k}", "closed form vanishes at the reference",
            zero, 0.0, 1e-11))

    for idx, state in enumerate(probes):
        shifted_state = make_metric(bg, state.phi + shifts[idx])
        for k in range(bg.n + 1):
            closed = e_k_closed(state, k)
            path = e_k_path(state, k, "linear")
            scale = max(abs(closed), abs(path.value))
            report.add(CheckItem.identity(
                f"definition_agreement_s{idx}_k{k}",
                "closed-form expression reproduces the defining integral",
                path.value, closed, t["closed"], relative_to=scale))
            shifted = e_k_closed(shifted_state, k)
            report.add(CheckItem.identity(
                f"shift_invariance_s{idx}_k{k}",
                "energy unchanged by adding a constant to the potential",
                shifted, closed, t["shift"], relative_to=max(1.0, abs(closed))))


def _run_cocycle(cfg, bg, report, art):
    t = cfg.tolerances
    first = _probes(bg, cfg)
    second = _probes(bg, cfg, index_offset=cfg.count)

    for idx, (phi_state, psi_state) in enumerate(zip(first, second)):
        for k in range(bg.n + 1):
            direct = e_k_closed(phi_state, k)
            via = e_k_closed(psi_state, k) + e_k_closed(phi_state, k, psi_state)
            scale = max(abs(direct), abs(via))
            report.add(CheckItem.identity(
                f"cocycle_s{idx}_k{k}",
                "energy composes along intermediate metrics",
                direct, via, t["cocycle"], relative_to=scale))
            anti = e_k_closed(bg.reference, k, psi_state) + e_k_closed(psi_state, k)
            report.add(CheckItem.identity(
                f"antisymmetry_s{idx}_k{k}",
                "energy reverses sign when the endpoints swap",
                anti, 0.0, t["cocycle"]))


def _run_theorem1(cfg, bg, report, art):
    t = cfg.tolerances
    seeds = [bg.reference] + _probes(bg, cfg, count=cfg.count - 1)

    per_k = {k: [] for k in range(bg.n + 1)}
    for idx, theta in enumerate(seeds):
        state = ricci_positive_generator(theta)
        psi0 = state.phi - theta.phi  # potential of the probe over its Ricci form
        grad = slot_gradsq(bg, psi0)
        met = slot_metric(state)
        q0 = bg.integrate(wedge_density(bg, [grad] + [met] * (bg.n - 1))) / bg.volume
        dev = float(max(abs(state.lam_r - 1.0).max(), abs(state.lam_s - 1.0).max()))
        report.add(CheckItem.lower_bound(
            f"probe_positivity_s{idx}",
            "transported probe has positive curvature", state.min_ricci, 0.0, 0.0))
        for k in range(bg.n + 1):
            value = e_k_closed(state, k)
            per_k[k].append((value, dev))
            report.add(CheckItem.lower_bound(
                f"energy_floor_s{idx}_k{k}",
                "energy from the round metric to a positively curved probe "
                "is nonnegative",
                value, 0.0, t["energy_floor"]))
            if k >= 1:
                report.add(CheckItem.lower_bound(
                    f"gradient_refinement_s{idx}_k{k}",
                    "energy dominates the gradient term of the probe over "
                    "its curvature form",
                    value, k * q0, t["energy_floor"]))

    for k in range(bg.n + 1):
        vals = per_k[k]
        arg = min(range(len(vals)), key=lambda i: vals[i][0])
        report.add(CheckItem.upper_bound(
            f"minimizer_near_round_k{k}",
            "family minimizer sits at the round metric's eigenvalue profile",
            vals[arg][1], 0.0, t["argmin_deviation"],
            note=f"minimum at probe {arg}"))


def _run_theorem2(cfg, bg, report, art):
    t = cfg.tolerances
    for idx, probe in enumerate(_probes(bg, cfg)):
        direct = e_k_closed(probe, 1)
        report.add(CheckItem.lower_bound(
            f"energy_floor_s{idx}",
            "k = 1 energy from the round metric is nonnegative on arbitrary "
            "probes",
            direct, 0.0, t["energy_floor"]))
        if idx < 5:
            yau = solve_yau_path(probe, dt=0.05)
            end = yau.points[-1].state
            total = e_k_closed(end, 1)
            back = e_k_closed(end, 1, yau.ref_state)
            report.add(CheckItem.identity(
                f"split_cocycle_s{idx}",
                "energy splits through the curvature-inverted midpoint",
                direct, total - back, t["cocycle"],
                relative_to=max(abs(direct), abs(total))))
            report.add(CheckItem.lower_bound(
                f"split_positive_leg_s{idx}",
                "leg ending at a positively curved metric is nonnegative",
                total, 0.0, t["energy_floor"]))
            report.add(CheckItem.upper_bound(
                f"split_negative_leg_s{idx}",
                "prescribed-volume endpoint leg is nonpositive",
                back, 0.0, t["energy_floor"]))


def _run_lemma32_34(cfg, bg, report, art):
    for idx, probe in enumerate(_probes(bg, cfg)):
        traj = solve_aubin_path(probe)
        monitors = path_monitors(traj)
        report.extend(_suffixed(check_lemma_3_4(traj, monitors=monitors), idx))
        if not traj.completed:
            report.note(f"probe {idx}: path stalled at t = {traj.termination.t_last}"
                        f" ({traj.termination.reason})")
        art.write(f"trajectory_bending_{idx}.csv", trajectory_csv(bg, monitors))


def _run_lemma41(cfg, bg, report, art):
    for idx, probe in enumerate(_probes(bg, cfg)):
        traj = solve_yau_path(probe)
        report.extend(_suffixed(check_lemma_4_1(traj), idx))
        if idx == 0:
            art.write("trajectory_volume_0.csv", trajectory_csv(bg, path_monitors(traj)))


def _run_futaki(cfg, bg, report, art):
    t = cfg.tolerances
    probes = [bg.reference] + _probes(bg, cfg, count=cfg.count - 1)

    values = {k: [] for k in range(bg.n + 1)}
    for state in probes:
        for k in range(bg.n + 1):
            values[k].append(futaki_k(state, k) / bg.volume)

    for k in range(bg.n + 1):
        arr = np.array(values[k])
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
    base = probes[1] if len(probes) > 1 else probes[0]
    h = 0.02
    orbit = [make_metric(bg, orbit_potential(base, s))
             for s in 0.1 + h * np.arange(-2, 3)]
    for k in range(min(bg.n, 2) + 1):
        samples = np.array([[e_k_closed(point, k)] for point in orbit])
        deriv = float(spectral.fd_derivative(samples, h)[2, 0])
        report.add(CheckItem.identity(
            f"orbit_derivative_k{k}",
            "orbit derivative of the energy equals the normalized invariant",
            deriv, values[k][1] if len(probes) > 1 else values[k][0],
            t["orbit_derivative"]))


def _run_section5(cfg, bg, report, art):
    for idx, probe in enumerate(_probes(bg, cfg)):
        aubin = solve_aubin_path(probe)
        yau = solve_yau_path(probe)
        monitors = path_monitors(aubin)
        report.extend(_suffixed(check_section5(aubin, yau, monitors=monitors), idx))
        if not aubin.completed:
            report.note(f"probe {idx}: bending path stalled at "
                        f"t = {aubin.termination.t_last}")
        art.write(f"trajectory_bending_{idx}.csv", trajectory_csv(bg, monitors))


def _run_orbit_flatness(cfg, bg, report, art):
    t = cfg.tolerances
    s_values = [-1.2, -1.0, -0.7, -0.4, -0.2, -0.1, 0.1, 0.2, 0.4, 0.7, 1.0, 1.2]

    js, e_by_k, f_by_k = [], {k: [] for k in range(bg.n + 1)}, {k: [] for k in range(bg.n + 1)}
    for s in s_values:
        state = make_metric(bg, orbit_potential(bg.reference, s))
        js.append(i_and_j(state)[1])
        for k in range(bg.n + 1):
            e_by_k[k].append(e_k_closed(state, k))
            f_by_k[k].append(futaki_k(state, k) / bg.volume)

    report.add(CheckItem.lower_bound(
        "j_span", "orbit sweep spans a tenfold range of J",
        max(js) / min(js), 10.0, 0.0))
    for k in range(bg.n + 1):
        report.add(CheckItem.identity(
            f"orbit_energy_flat_k{k}",
            "energy vanishes along the full rotation orbit of the round metric",
            float(np.abs(e_by_k[k]).max()), 0.0, t["energy"]))
        arr = np.array(f_by_k[k])
        report.add(CheckItem.identity(
            f"orbit_invariant_k{k}",
            "rotation invariant vanishes at every orbit point",
            float(np.abs(arr).max()), 0.0, t["futaki"]))
        report.add(CheckItem.identity(
            f"orbit_invariant_spread_k{k}",
            "rotation invariant constant across the orbit sweep",
            float(arr.max() - arr.min()), 0.0, t["spread"]))

    probe = generate_probe(bg, cfg.seed, cfg.scenario, 0, cfg.modes, cfg.amplitude)
    base_e1 = e_k_closed(probe, 1)
    for s in (-0.6, 0.6):
        moved = make_metric(bg, orbit_potential(probe, s))
        report.add(CheckItem.identity(
            f"pullback_invariance_s{s:+.1f}",
            "energy of a probe unchanged under the rotation pullback",
            e_k_closed(moved, 1), base_e1, t["energy"],
            relative_to=max(1.0, abs(base_e1))))


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
        e1 = e_k_closed(state, 1)
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
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res_, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope = float(coef[0])
    resid = y - A @ coef
    dof = len(x) - 2
    se = float(np.sqrt(resid @ resid / dof / ((x - x.mean()) @ (x - x.mean()))))
    from scipy.special import stdtrit
    half = float(stdtrit(dof, 0.975)) * se
    report.add(CheckItem.info(
        "empirical_exponent",
        "least-squares growth exponent of log-energy against log-J", slope))
    report.add(CheckItem.info(
        "exponent_ci_low", "95% confidence lower bound", slope - half))
    report.add(CheckItem.info(
        "exponent_ci_high", "95% confidence upper bound", slope + half))


def _run_krf_monotone(cfg, bg, report, art):
    t = cfg.tolerances

    fs = run_flow(bg.reference, dt=1e-3, steps=400)
    drift = max(float(np.abs(s.state.phi).max()) for s in fs.samples)
    report.add(CheckItem.identity(
        "round_stationary", "round metric is an exact fixed point of the flow",
        drift, 0.0, t["stationary"]))

    for idx, start in enumerate(_probes(bg, cfg)):
        traj = run_flow(start, dt=1e-3, steps=1000)
        if idx == 0:
            rows = [monitor_row(s.t, 0.0, s.state) for s in traj.samples]
            art.write("trajectory_flow_0.csv", trajectory_csv(bg, rows))
        else:
            rows = [{f"E_{k}": e_k_closed(s.state, k) for k in (0, 1)}
                    for s in traj.samples]
        e0 = np.array([row["E_0"] for row in rows])
        e1 = np.array([row["E_1"] for row in rows])
        flags = np.array([s.state.min_ricci >= -1.0 for s in traj.samples])
        e1_incr = -np.inf
        for a in range(len(e1) - 1):
            if flags[a] and flags[a + 1]:
                e1_incr = max(e1_incr, e1[a + 1] - e1[a])
        vol = max(s.volume_defect for s in traj.samples)
        report.add(CheckItem.upper_bound(
            f"k0_decreasing_s{idx}",
            "k = 0 energy never increases between flow samples",
            float(np.diff(e0).max()), 0.0, t["monotone"]))
        if np.isfinite(e1_incr):
            report.add(CheckItem.upper_bound(
                f"k1_decreasing_s{idx}",
                "k = 1 energy never increases while curvature stays above "
                "minus the metric",
                e1_incr, 0.0, t["monotone"]))
        report.add(CheckItem.upper_bound(
            f"volume_conserved_s{idx}",
            "class volume conserved along the flow",
            vol, 0.0, t["volume"]))

    small = generate_probe(bg, cfg.seed, cfg.scenario, 10_000, cfg.modes, 0.03)
    long_run = run_flow(small, dt=1e-3, steps=10_000, sample_every=2000)
    final = long_run.samples[-1].state
    dev = max(abs(final.lam_r - 1.0).max(), abs(final.lam_s - 1.0).max())
    report.add(CheckItem.identity(
        "long_time_convergence",
        "small data flows to a unit-eigenvalue metric by time ten",
        float(dev), 0.0, t["convergence"]))


def _run_cy_torus(cfg, bg, report, art):
    t = cfg.tolerances
    ref = bg.reference
    report.add(CheckItem.identity(
        "flat_curvature", "flat reference has identically zero curvature",
        float(np.abs(ref.lam_r).max()), 0.0, 1e-12))
    for k in range(bg.n + 1):
        report.add(CheckItem.identity(
            f"class_constant_k{k}", "flat-model class constants vanish",
            mu_k(bg, k), 0.0, 1e-12))

    for idx, state in enumerate(_probes(bg, cfg)):
        cy = e1_cy(state)
        report.add(CheckItem.lower_bound(
            f"nonnegative_s{idx}",
            "flat-model k = 1 energy is a manifest square",
            cy, 0.0, t["floor"]))
        if idx < 5:
            closed = e_k_closed(state, 1)
            report.add(CheckItem.identity(
                f"closed_form_s{idx}",
                "general energy formula reduces to the squared-slope integral",
                closed, cy, t["agreement"], relative_to=max(1.0, cy)))
        if idx < 3:
            for k in range(bg.n + 1):
                lin = e_k_path(state, k, "linear")
                quad = e_k_path(state, k, "quadratic")
                report.add(CheckItem.identity(
                    f"path_independence_s{idx}_k{k}",
                    "flat-model energy agrees along two admissible segments",
                    lin.value, quad.value, t["path"],
                    relative_to=max(1.0, abs(lin.value))))


# ---------------------------------------------------------------------------
# registry and entry point


@dataclass
class ScenarioSpec:
    runner: object
    description: str
    default_model: str = "cpn"
    default_n: int = 2
    default_count: int = 10
    models: tuple = ("cpn",)
    tolerances: dict = field(default_factory=dict)
    needs_background: bool = True


_REGISTRY: dict[str, ScenarioSpec] = {
    "exact_identities": ScenarioSpec(
        _run_exact_identities,
        "exact integer/rational verification of the combinatorial identities",
        default_n=1, needs_background=False, models=("cpn",)),
    "fs_anchors": ScenarioSpec(
        _run_fs_anchors,
        "round-metric curvature, class-constant, and spectrum anchors",
        models=("cpn", "torus"),
        tolerances={"eigenvalue": 1e-9, "mu": 1e-10, "residual": 1e-8,
                    "lambda1": 1e-8}),
    "ek_path_independence": ScenarioSpec(
        _run_ek_path_independence,
        "energy agrees across segments and with the closed form",
        default_count=20,
        tolerances={"path": 1e-8, "closed": 1e-6}),
    "prop21_agreement": ScenarioSpec(
        _run_prop21_agreement,
        "closed-form energy: definition agreement and shift invariance",
        default_count=5,
        tolerances={"closed": 1e-6, "shift": 1e-9}),
    "cocycle": ScenarioSpec(
        _run_cocycle,
        "two-step composition and antisymmetry of the energy",
        default_count=20,
        tolerances={"cocycle": 1e-7}),
    "theorem1": ScenarioSpec(
        _run_theorem1,
        "nonnegativity over positively curved probes, minimum at the round metric",
        default_count=25,
        tolerances={"energy_floor": 1e-7, "argmin_deviation": 1e-2}),
    "theorem2": ScenarioSpec(
        _run_theorem2,
        "k = 1 energy floor over arbitrary probes with the two-leg split",
        default_count=50,
        tolerances={"energy_floor": 1e-7, "cocycle": 1e-7}),
    "lemma32_34": ScenarioSpec(
        _run_lemma32_34,
        "bending-path structure: rate equation, curvature identity, "
        "eigenvalue bound, monotonicity, endpoint identity",
        default_count=3,
        tolerances={}),
    "lemma41": ScenarioSpec(
        _run_lemma41,
        "prescribed-volume path: rate equation and endpoint energy identity",
        default_count=20,
        tolerances={}),
    "futaki": ScenarioSpec(
        _run_futaki,
        "rotation-field invariants vanish, metric-independently",
        default_count=10,
        tolerances={"futaki": 1e-6, "spread": 1e-6, "orbit_derivative": 1e-6}),
    "section5": ScenarioSpec(
        _run_section5,
        "growth control along both paths: two-time identity, bridge "
        "identity, decay bounds, boundedness monitor",
        default_count=2,
        tolerances={}),
    "orbit_flatness": ScenarioSpec(
        _run_orbit_flatness,
        "energies and invariants flat along the rotation orbit while J grows",
        default_count=1,
        tolerances={"energy": 1e-5, "futaki": 1e-6, "spread": 1e-6}),
    "properness_probe": ScenarioSpec(
        _run_properness_probe,
        "empirical growth exponent on a scaling family (documented "
        "substitute for the unverifiable polynomial bound)",
        default_count=1,
        tolerances={"energy_floor": 1e-7, "monotone_slack": 1e-9}),
    "krf_monotone": ScenarioSpec(
        _run_krf_monotone,
        "flow monitors: stationarity, energy monotonicity, volume "
        "conservation, long-time convergence",
        default_count=20,
        tolerances={"stationary": 1e-8, "monotone": 1e-7, "volume": 1e-9,
                    "convergence": 1e-3}),
    "cy_torus": ScenarioSpec(
        _run_cy_torus,
        "flat-model branch: manifest nonnegativity and formula reduction",
        default_model="torus", default_n=1, default_count=50,
        models=("torus",),
        tolerances={"floor": 1e-10, "agreement": 1e-9, "path": 1e-8}),
}

SCENARIO_NAMES = tuple(_REGISTRY)


class _Artifacts:
    def __init__(self, base: Path | None):
        self.base = base
        if base is not None:
            base.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str) -> None:
        if self.base is not None:
            (self.base / name).write_text(text)


def list_scenarios() -> list[tuple[str, str]]:
    return [(name, _REGISTRY[name].description) for name in SCENARIO_NAMES]


def run_scenario(cfg: ScenarioConfig, out_dir: str | None = None) -> CheckReport:
    """Execute one scenario and write its artifacts.

    Returns the in-memory report; report.json, checks.csv and any
    trajectory CSVs land under <out>/<scenario>/.
    """
    spec = _REGISTRY[cfg.scenario]
    base = out_dir if out_dir is not None else cfg.out_dir
    art = _Artifacts(Path(base) / cfg.scenario if base is not None else None)

    start = time.perf_counter()
    report = CheckReport(cfg.scenario)
    bg = None
    if spec.needs_background:
        bg = fs_background(cfg.model, cfg.n, cfg.grid_size)
    spec.runner(cfg, bg, report, art)
    runtime = time.perf_counter() - start

    payload = {
        "scenario": cfg.scenario,
        "config": asdict(cfg),
        "checks": [item.as_dict() for item in report.items],
        "aggregate": report.all_passed,
        "runtime_seconds": runtime,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "notes": list(report.notes),
    }
    art.write("report.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")

    lines = ["name,anchor,lhs,rhs,tol,margin,pass"]
    for item in report.items:
        anchor = item.anchor.replace('"', "'")
        lines.append(
            f'{item.name},"{anchor}",{_fmt(item.lhs)},{_fmt(item.rhs)},'
            f'{_fmt(item.tol)},{_fmt(item.margin)},{item.passed}')
    art.write("checks.csv", "\n".join(lines) + "\n")
    return report
