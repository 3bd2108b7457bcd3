"""Unit tests for the two continuation paths, the eigenvalue monitor, the
positivity transport step, and the structural check suites.

Solver oracles here recompute the defining equation residual of every
returned path point from scratch and pin the endpoint curvature states to
their closed-form characterizations (curvature form equals the start
metric, or the endpoint is a unit-eigenvalue metric).
"""

from __future__ import annotations

import numpy as np
import pytest

from kahler_lab import continuity, energies
from kahler_lab import flow as flow_module
from kahler_lab.continuity import (PathTrajectory, Termination, _solve_bending_t,
                                   _simpson_uniform, check_lemma_3_4, check_lemma_4_1,
                                   check_section5, lambda1_radial,
                                   path_monitors, ricci_positive_generator,
                                   solve_aubin_path, solve_yau_path)
from kahler_lab.errors import NotKahlerError, ParameterError, UnsupportedModelError
from kahler_lab.families import generate_probe
from kahler_lab.flow import run_flow
from kahler_lab.geometry import (fs_background, laplacian_matrix, make_metric,
                                 ricci_potential)


@pytest.fixture(scope="module")
def yau_cp2(bg_cp2):
    theta = generate_probe(bg_cp2, seed=3, scenario="paths", index=0)
    return theta, solve_yau_path(theta, dt=0.05)


@pytest.fixture(scope="module")
def aubin_cp2(bg_cp2):
    theta = generate_probe(bg_cp2, seed=3, scenario="paths", index=0)
    return theta, solve_aubin_path(theta, dt=0.05)


# the structural check suites difference the path in time before applying
# the Laplacian, so their default tolerances assume the production
# resolution (N >= 96, dt = 0.02); solve a pair at that scale for them
@pytest.fixture(scope="module")
def bg_cp2_fine():
    return fs_background("cpn", 2, 96)


@pytest.fixture(scope="module")
def path_pair_fine(bg_cp2_fine):
    bg = bg_cp2_fine
    theta = generate_probe(bg, seed=3, scenario="paths", index=0)
    return theta, solve_aubin_path(theta, dt=0.02), solve_yau_path(theta, dt=0.02)


# ---------------------------------------------------------------------------
# first nonzero eigenvalue


@pytest.mark.parametrize("fixture", ["bg_cp1", "bg_cp2", "bg_cp3", "bg_cp4"])
def test_round_first_eigenvalue_is_one(fixture, request):
    bg = request.getfixturevalue(fixture)
    assert lambda1_radial(bg.reference) == pytest.approx(1.0, abs=1e-9)


def test_flat_first_eigenvalue_is_unsupported(bg_torus):
    with pytest.raises(UnsupportedModelError):
        lambda1_radial(bg_torus.reference)


def test_first_eigenvalue_stable_under_trial_space_size():
    # the trial space is the grid's resolved band, 28 and 36 modes here;
    # the probe is the same polynomial potential on both grids
    values = []
    for size in (56, 72):
        bg = fs_background("cpn", 2, size)
        assert bg.band == size // 2
        probe = generate_probe(bg, seed=7, scenario="unit", index=0)
        values.append(lambda1_radial(probe))
    assert values[0] == pytest.approx(values[1], rel=1e-8)


def test_first_eigenvalue_grid_convergence():
    values = []
    for size in (48, 64):
        bg = fs_background("cpn", 2, size)
        values.append(lambda1_radial(generate_probe(bg, seed=9, scenario="eig", index=0)))
    assert values[0] == pytest.approx(values[1], rel=1e-7)


# ---------------------------------------------------------------------------
# prescribed-volume path


def test_prescribed_path_satisfies_its_equation_pointwise(bg_cp2, yau_cp2):
    theta, traj = yau_cp2
    assert traj.completed
    assert traj.ref_state is theta
    f = traj.f
    for p in traj.points:
        state = make_metric(bg_cp2, theta.phi + p.phi)
        res = state.log_rho - (p.t * f + p.c_t) - theta.log_rho
        assert np.abs(res).max() < 1e-9, f"t = {p.t}"


def test_prescribed_path_constant_matches_mass_normalization(bg_cp2, yau_cp2):
    theta, traj = yau_cp2
    for p in traj.points:
        mass = bg_cp2.integrate(np.exp(p.t * traj.f) * theta.rho)
        assert p.c_t == pytest.approx(-np.log(mass / bg_cp2.volume), abs=1e-12)


def test_prescribed_path_endpoint_inverts_curvature(bg_cp2, yau_cp2):
    # at the end of the path the curvature form of the new metric IS the
    # start metric; in moment profiles: G_end = m_start
    theta, traj = yau_cp2
    end = traj.points[-1].state
    assert np.abs(end.G - theta.m).max() < 1e-8


def test_prescribed_path_starts_at_reference(bg_cp2, yau_cp2):
    theta, traj = yau_cp2
    first = traj.points[0]
    assert first.t == 0.0
    assert np.abs(first.phi).max() < 1e-10
    assert abs(first.c_t) < 1e-12


# ---------------------------------------------------------------------------
# bending path


def test_bending_path_satisfies_its_equation_pointwise(bg_cp2, aubin_cp2):
    theta, traj = aubin_cp2
    assert traj.completed
    assert traj.ref_state is theta
    for p in traj.points:
        state = make_metric(bg_cp2, theta.phi + p.phi)
        res = (state.log_rho - theta.log_rho - traj.f
               + p.t * (p.phi + p.c_t))
        assert np.abs(res).max() < 1e-8, f"t = {p.t}"


def test_bending_path_ends_at_unit_eigenvalue_metric(bg_cp2, aubin_cp2):
    # the terminal equation forces curvature form = metric, so both
    # eigenvalue fields equal one
    theta, traj = aubin_cp2
    end = traj.points[-1].state
    assert np.abs(end.lam_r - 1.0).max() < 1e-7
    assert np.abs(end.lam_s - 1.0).max() < 1e-7


def test_bending_path_eigenvalue_dominates_parameter(bg_cp2, aubin_cp2):
    _, traj = aubin_cp2
    for p in traj.points:
        assert lambda1_radial(p.state) >= p.t - 1e-6


def test_bending_path_size_gap_nondecreasing(bg_cp2, aubin_cp2):
    _, traj = aubin_cp2
    rows = path_monitors(traj)
    gaps = [row["I_minus_J"] for row in rows]
    assert np.diff(gaps).min() > -1e-9


def test_paths_expose_uniform_time_grid(bg_cp2, yau_cp2, aubin_cp2):
    for _, traj in (yau_cp2, aubin_cp2):
        ts = traj.ts
        assert ts[0] == 0.0
        assert ts[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.diff(ts), traj.dt)


def test_trajectory_helpers_and_termination_semantics(bg_cp2, yau_cp2):
    _, traj = yau_cp2
    stacked = traj.stacked_exact()
    assert stacked.shape == (len(traj.points), bg_cp2.size)
    rate = traj.exact_rate()
    assert rate.shape == stacked.shape
    stalled = PathTrajectory("bending", bg_cp2, traj.ref_state, traj.f,
                             points=list(traj.points),
                             termination=Termination("stalled", 0.4, "test"))
    assert not stalled.completed


# ---------------------------------------------------------------------------
# positivity transport


def test_transport_step_inverts_curvature_exactly(probe_cp2):
    out = ricci_positive_generator(probe_cp2)
    # full-step output curvature form equals the input metric
    assert np.abs(out.G - probe_cp2.m).max() < 1e-8
    assert out.min_ricci > 0.0


# ---------------------------------------------------------------------------
# monitors and check suites


def test_path_monitor_rows_have_expected_fields(bg_cp2, yau_cp2):
    _, traj = yau_cp2
    rows = path_monitors(traj)
    assert len(rows) == len(traj.points)
    expected = {"t", "c_t", "E_0", "E_1", "E_2", "I", "J", "I_minus_J",
                "lambda1_radial", "min_ricci"}
    assert expected <= set(rows[0])
    # energies start at zero relative to the path's own reference
    assert abs(rows[0]["E_1"]) < 1e-10


def test_bending_suite_passes_on_solved_path(path_pair_fine):
    theta, aubin, _ = path_pair_fine
    items = check_lemma_3_4(aubin, monitors=path_monitors(aubin))
    failed = [i.name for i in items if not i.passed]
    assert not failed, failed


def _rate_equation_error(traj) -> float:
    (row,) = [i for i in check_lemma_3_4(traj, monitors=path_monitors(traj))
              if i.name == "rate_equation"]
    return abs(row.lhs - row.rhs)


def test_bending_rate_equation_converges_at_fourth_order(bg_cp2_fine):
    # the 5-point time stencil is fourth order, so each halving of dt
    # should cut the error ~16x; a misplaced t = 1 point caps it at ~4x
    theta = generate_probe(bg_cp2_fine, seed=3, scenario="paths", index=0)
    errs = [_rate_equation_error(solve_aubin_path(theta, dt=dt))
            for dt in (0.04, 0.02, 0.01)]
    assert errs[1] <= 1e-7, errs
    assert errs[0] >= 10.0 * errs[1], errs
    assert errs[1] >= 10.0 * errs[2], errs


def test_bending_path_endpoint_is_the_limit_of_the_path(bg_cp2_fine,
                                                        path_pair_fine):
    bg = bg_cp2_fine
    _, aubin, _ = path_pair_fine
    assert aubin.completed
    tilde = aubin.stacked_exact()
    end = aubin.points[-1].state
    # the t = 1 point continues the t < 1 points: quartic extrapolation
    # of the five before it, which never sees the endpoint solve
    extrapolated = (5.0 * tilde[-2] - 10.0 * tilde[-3] + 10.0 * tilde[-4]
                    - 5.0 * tilde[-5] + tilde[-6])
    assert np.abs(tilde[-1] - extrapolated).max() <= 1e-7
    # Lap + 1 at the endpoint annihilates the rotation potential u ...
    u = end.m - bg.moment_mean
    kernel = (laplacian_matrix(end) + np.eye(bg.size)) @ u
    assert np.abs(kernel).max() <= 1e-9 * np.abs(u).max()
    # ... and the endpoint potential is orthogonal to it
    gauge = bg.integrate(tilde[-1] * u * end.rho)
    assert abs(gauge) <= 1e-10


def test_prescribed_suite_passes_on_solved_path(path_pair_fine):
    theta, _, yau = path_pair_fine
    items = check_lemma_4_1(yau)
    failed = [i.name for i in items if not i.passed]
    assert not failed, failed


def test_growth_suite_passes_on_path_pair(path_pair_fine):
    theta, aubin, yau = path_pair_fine
    items = check_section5(aubin, yau, monitors=path_monitors(aubin))
    failed = [i.name for i in items if not i.passed]
    assert not failed, failed


def test_monitors_suites_and_functionals_build_no_metric(monkeypatch, bg_torus,
                                                        probe_torus):
    # every state the monitors and suites need is on the trajectories, and
    # the functionals take states: none of them may rebuild a metric
    bg = fs_background("cpn", 2, 48)
    theta = generate_probe(bg, seed=3, scenario="paths", index=0)
    aubin = solve_aubin_path(theta, dt=0.05)
    yau = solve_yau_path(theta, dt=0.05)
    assert aubin.completed and yau.completed

    def no_rebuild(*args, **kwargs):
        raise AssertionError("make_metric called")

    monkeypatch.setattr(continuity, "make_metric", no_rebuild)
    monkeypatch.setattr(energies, "make_metric", no_rebuild)
    monitors = path_monitors(aubin)
    assert len(monitors) == len(aubin.points)
    for items in (check_lemma_3_4(aubin, monitors=monitors), check_lemma_4_1(yau),
                  check_section5(aubin, yau, monitors=monitors)):
        assert items
    end = aubin.points[-1].state
    for k in range(bg.n + 1):
        energies.futaki_k(end, k)
        energies.e_k_closed(end, k, yau.points[-1].state)
    energies.i_and_j(end, aubin.ref_state)
    assert energies.e1_cy(probe_torus) >= 0.0


def _record_builds(monkeypatch, module) -> list:
    """Wrap `module.make_metric`; the list collects (potential, succeeded)."""
    calls = []
    original = module.make_metric

    def recording(bg, phi):
        try:
            state = original(bg, phi)
        except NotKahlerError:
            calls.append((np.array(phi), False))
            raise
        calls.append((np.array(phi), True))
        return state

    monkeypatch.setattr(module, "make_metric", recording)
    return calls


def test_solvers_and_flow_never_rebuild_the_state_they_were_handed(monkeypatch):
    bg = fs_background("cpn", 2, 48)
    probe = generate_probe(bg, seed=3, scenario="paths", index=0)
    calls = _record_builds(monkeypatch, continuity)
    flow_calls = _record_builds(monkeypatch, flow_module)
    assert solve_aubin_path(probe, dt=0.1).ref_state is probe
    assert solve_yau_path(probe, dt=0.1).ref_state is probe
    assert ricci_positive_generator(probe).min_ricci > 0.0
    assert run_flow(probe, steps=20, sample_every=10).bg is bg
    assert calls and flow_calls
    for phi, _ in calls + flow_calls:
        assert not np.array_equal(phi, probe.phi)


def test_bending_solve_builds_each_newton_iterate_once(monkeypatch):
    # every successful build but the first is a Newton iterate the
    # backtracking loop accepted, and the next step reuses its state
    bg = fs_background("cpn", 2, 48)
    probe = generate_probe(bg, seed=3, scenario="paths", index=0)
    f, _ = ricci_potential(probe)
    calls = _record_builds(monkeypatch, continuity)
    sweeps = []
    original = continuity.potential_from_density

    def counting(*args, **kwargs):
        sweeps.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(continuity, "potential_from_density", counting)
    phi, state, iterations, _ = _solve_bending_t(probe, f, 0.5, np.zeros(bg.size))
    steps = iterations - len(sweeps)
    assert steps >= 1
    assert sum(ok for _, ok in calls) == 1 + steps
    assert np.array_equal(state.phi, probe.phi + phi)


def test_suites_reject_mismatched_path_kinds(bg_cp2, yau_cp2, aubin_cp2):
    _, yau = yau_cp2
    _, aubin = aubin_cp2
    with pytest.raises(ParameterError):
        check_lemma_3_4(yau, monitors=path_monitors(yau))
    with pytest.raises(ParameterError):
        check_lemma_4_1(aubin)


# ---------------------------------------------------------------------------
# curvature potential round trip used by both solvers


def test_curvature_potential_drives_prescribed_equation(bg_cp2, probe_cp2):
    # the potential f with curvature-minus-metric as its complex Hessian,
    # fed back through the density equation, reproduces the state's density
    f, defect = ricci_potential(probe_cp2)
    assert defect < 1e-8
    mass = bg_cp2.integrate(probe_cp2.rho * np.exp(f))
    assert mass == pytest.approx(bg_cp2.volume, rel=1e-12)


# ---------------------------------------------------------------------------
# time quadrature of the check suites


def test_simpson_rule_matches_scipy_on_every_length():
    from scipy.integrate import simpson
    rng = np.random.default_rng(0)
    for size in range(2, 61):
        y = rng.standard_normal(size)
        for dt in (0.02, 0.25):
            scale = dt * np.abs(y).sum()
            assert _simpson_uniform(y, dt) == pytest.approx(
                float(simpson(y, dx=dt)), rel=0.0, abs=1e-14 * scale), size
