"""Unit tests for the two continuation paths, the eigenvalue monitor, the
positivity transport step, and the structural check suites.

Solver oracles here recompute the defining equation residual of every
returned path point from scratch and pin the endpoint curvature states to
their closed-form characterizations (curvature form equals the start
metric, or the endpoint is a unit-eigenvalue metric).
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from kahler_lab import continuity, energies
from kahler_lab import flow as flow_module
from kahler_lab.continuity import (NEWTON_TOL, PathTrajectory, Termination,
                                   _extrapolate, _newton_solve, _simpson_uniform,
                                   _solve_density, check_lemma_3_4, check_lemma_4_1,
                                   check_section5, lambda1_radial,
                                   path_monitors, ricci_positive_generator,
                                   solve_aubin_path, solve_yau_path)
from kahler_lab.errors import (NotKahlerError, ParameterError, SolverError,
                               UnsupportedModelError)
from kahler_lab.families import generate_probe
from kahler_lab.flow import run_flow
from kahler_lab.geometry import (MetricState, fs_background, laplacian_matrix,
                                 make_metric, potential_from_density, ricci_potential)


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


@pytest.mark.parametrize("size", [96, 384])
def test_first_eigenvalue_matches_scipy_generalized_eigh(size):
    from scipy.linalg import eigh
    bg = fs_background("cpn", 2, size)
    B, dB = bg.ritz_basis
    for seed in range(3):
        probe = generate_probe(bg, seed=seed, scenario="unit", index=0)
        wdiag = bg.ref_measure * bg.w0 * probe.m_over_x ** (bg.n - 1)
        mass = bg.ref_measure * probe.rho
        A = dB.T @ (wdiag[:, None] * dB)
        M = B.T @ (mass[:, None] * B)
        ref = eigh(0.5 * (A + A.T), 0.5 * (M + M.T), eigvals_only=True)[1]
        assert lambda1_radial(probe) == pytest.approx(ref, rel=1e-12, abs=0.0), seed


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


def test_prescribed_path_points_are_converged_newton_solves(yau_cp2):
    _, traj = yau_cp2
    for p in traj.points:
        assert p.iterations >= 1, f"t = {p.t}"
        assert p.residual <= NEWTON_TOL, f"t = {p.t}"


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
    stalled = PathTrajectory.from_points("bending", traj.ref_state, traj.f,
                                         traj.points[:3],
                                         Termination("stalled", "test"))
    assert not stalled.completed
    # the rate stencil needs five points: a short stalled path is a solver
    # failure, not a crash inside the stencil
    with pytest.raises(SolverError):
        check_lemma_3_4(stalled, monitors=path_monitors(stalled))


# ---------------------------------------------------------------------------
# density solve


def test_density_solve_round_trip_tightens_curvature(bg_cp2, probe_cp2):
    # a probe's own density over the background: the Newton solve recovers
    # the probe at every node, pole included, where the moment inversion
    # alone loses digits
    state = probe_cp2
    phi, out, steps, res = _solve_density(bg_cp2.reference, state.log_rho)
    target = state.phi - bg_cp2.mean(state.phi)
    assert steps >= 1 and res <= NEWTON_TOL
    assert np.abs(phi - bg_cp2.mean(phi) - target).max() <= 1e-12
    raw = make_metric(bg_cp2, potential_from_density(bg_cp2, state.rho))
    err_raw = np.abs(raw.lam_r - state.lam_r).max()
    err = np.abs(out.lam_r - state.lam_r).max()
    assert err <= err_raw + 1e-12
    assert err < 1e-7


@pytest.mark.parametrize("size", [48, 96, 192])
def test_density_solve_at_n1_is_the_inversion(size):
    # at n = 1 the inversion takes no root and is exact, and the t = 0
    # Newton matrix is singular, so the solve takes no step
    bg = fs_background("cpn", 1, size)
    state = generate_probe(bg, seed=7, scenario="unit", index=0)
    phi, _, steps, _ = _solve_density(bg.reference, state.log_rho)
    target = state.phi - bg.mean(state.phi)
    assert steps == 0
    assert np.abs(phi - bg.mean(phi) - target).max() <= 1e-12


# ---------------------------------------------------------------------------
# stacked solves


def _path_targets(ref_state, ts):
    """The prescribed-path targets t f + c_t at the times `ts`, one row each."""
    bg = ref_state.bg
    f, _ = ricci_potential(ref_state)
    c_t = [-np.log(bg.integrate(np.exp(t * f) * ref_state.rho) / bg.volume) for t in ts]
    return np.array([t * f + c for t, c in zip(ts, c_t)])


def _assert_rows_are_solo_solves(stacked, solos):
    """Each row of a stacked solve is bitwise its solo solve: potential,
    every state field, iterations and residual."""
    phi, states, iterations, residuals = stacked
    assert phi.shape == states.phi.shape == (len(solos), states.bg.size)
    for i, (solo_phi, solo_state, steps, res) in enumerate(solos):
        assert phi[i].tobytes() == solo_phi.tobytes(), i
        for f in dataclasses.fields(solo_state):
            want = getattr(solo_state, f.name)
            if isinstance(want, np.ndarray):
                assert getattr(states, f.name)[i].tobytes() == want.tobytes(), (i, f.name)
        assert (int(iterations[i]), float(residuals[i])) == (steps, res), i


@pytest.mark.parametrize("n,size,count", [(1, 96, 4), (2, 96, 1), (2, 96, 2), (2, 96, 4),
                                          (4, 96, 4), (2, 384, 2)])
def test_stacked_density_solve_rows_are_their_solo_solves(n, size, count):
    bg = fs_background("cpn", n, size)
    probe = generate_probe(bg, seed=3, scenario="paths", index=0)
    targets = _path_targets(probe, np.linspace(0.0, 1.0, count))
    _assert_rows_are_solo_solves(_solve_density(probe, targets),
                                 [_solve_density(probe, target) for target in targets])


def test_stacked_newton_row_that_backtracks_takes_its_solo_steps(monkeypatch):
    # the middle row starts near the edge of the cone, so its full Newton
    # step leaves it: the stacked trial build fails and the row halves its
    # step, and each row still takes the steps of its solo run.  At t = 1
    # the step is the bordered dense solve, and the solutions are the round
    # metric's orbit, one of which each row's gauge picks
    bg = fs_background("cpn", 2, 48)
    probes = [generate_probe(bg, seed=1, scenario="paths", index=i) for i in (0, 2, 1)]
    calls = _record_builds(monkeypatch, continuity)
    for t, targets, middle in (
            (0.5, np.array([p.log_rho + 0.5 * p.phi for p in probes]), 11.5),
            (1.0, np.array([np.full(bg.size, c) for c in (0.0, 0.1, -0.2)]), 12.0)):
        guesses = np.array([0.5 * probes[0].phi, middle * probes[1].phi, 0.5 * probes[2].phi])
        calls.clear()
        solo_builds, solos = [], []
        for target, guess in zip(targets, guesses):
            solos.append(_newton_solve(bg.reference, target, t, guess))
            solo_builds.append(calls[:])
            calls.clear()
        # a single row keeps its shape: the bending path and the transport
        # step read a potential, a state, a count and a residual
        for phi, state, steps, res in solos:
            assert phi.shape == state.phi.shape == state.m_x.shape == (bg.size,)
            assert type(steps) is int and type(res) is float
        stacked = _newton_solve(bg.reference, targets, t, guesses)
        _assert_rows_are_solo_solves(stacked, solos)
        halvings = [sum(not ok for _, ok in builds) for builds in solo_builds]
        assert halvings[0] == halvings[2] == 0 and halvings[1] >= 1, t
        # a solo run builds no potential twice: one failed build per halving
        assert len({phi.tobytes() for phi, _ in solo_builds[1]}) == len(solo_builds[1])
        # the stacked failures are the middle row's: its first failing full
        # step is the stack's, the rest are its own halvings
        assert sum(not ok for _, ok in calls) == halvings[1]
        accepted = {row.tobytes() for phi, ok in calls if ok for row in np.atleast_2d(phi)}
        assert all(phi.tobytes() in accepted for phi, ok in solo_builds[1] if ok)


def test_stacked_newton_halves_every_row_that_leaves_the_cone_at_once(monkeypatch):
    # four guesses along one probe whose full first steps all leave the
    # cone: a failed trial build halves every row that left, so the stack
    # fails as often as its most-halving row, not once per row and halving
    bg = fs_background("cpn", 2, 48)
    probe = generate_probe(bg, seed=1, scenario="paths", index=2)
    t = 0.5
    targets = np.array([probe.log_rho + t * probe.phi] * 4)
    guesses = np.array([scale * probe.phi for scale in (8.0, 10.0, 11.5, 12.0)])
    calls = _record_builds(monkeypatch, continuity)
    solos, halvings = [], []
    for target, guess in zip(targets, guesses):
        calls.clear()
        solos.append(_newton_solve(bg.reference, target, t, guess))
        # per Newton step, the failed builds before its accepted one
        halvings.append(np.diff(np.flatnonzero([ok for _, ok in calls])) - 1)
    assert all(h[0] >= 1 for h in halvings)
    calls.clear()
    _assert_rows_are_solo_solves(_newton_solve(bg.reference, targets, t, guesses), solos)
    steps = max(map(len, halvings))
    most = [max(h[k] for h in halvings if k < len(h)) for k in range(steps)]
    assert sum(not ok for _, ok in calls) == sum(most) < sum(map(sum, halvings))
    assert len(calls) == 1 + steps + sum(most)


def test_stacked_krylov_newton_rows_are_their_solo_solves():
    # at t = 0.5 on N = 192 every correction is a Krylov step; the middle
    # row starts at its solution, so it leaves the stack first and the
    # rows come back from two sub-stacks, in row order
    bg = fs_background("cpn", 2, 192)
    assert bg.size >= continuity.KRYLOV_MIN_SIZE
    probes = [generate_probe(bg, seed=3, scenario="paths", index=i) for i in range(3)]
    t = 0.5
    targets = np.array([p.log_rho + t * p.phi for p in probes])
    guesses = np.array([0.5 * probes[0].phi, probes[1].phi, 0.5 * probes[2].phi])
    solos = [_newton_solve(bg.reference, target, t, guess)
             for target, guess in zip(targets, guesses)]
    assert [steps for _, _, steps, _ in solos][1] == 0
    assert min(steps for i, (_, _, steps, _) in enumerate(solos) if i != 1) >= 1
    _assert_rows_are_solo_solves(_newton_solve(bg.reference, targets, t, guesses), solos)


def test_stacked_newton_names_the_row_that_leaves_the_cone():
    # row 1 fails while row 0 solves: first with a guess outside the cone,
    # then with a target so far away that seven halvings of its first step
    # all leave the cone
    bg = fs_background("cpn", 2, 48)
    probes = [generate_probe(bg, seed=1, scenario="paths", index=i) for i in (0, 2, 1)]
    t = 0.5
    targets = np.array([p.log_rho + t * p.phi for p in probes])
    guesses = np.array([0.5 * p.phi for p in probes])
    outside = guesses.copy()
    outside[1] = 50.0 * probes[1].phi
    with pytest.raises(NotKahlerError):
        make_metric(bg, outside[1])
    with pytest.raises(SolverError, match="left the admissible cone during solve") as exc:
        _newton_solve(bg.reference, targets, t, outside)
    assert (exc.value.row, exc.value.t, exc.value.residual) == (1, t, None)
    targets[1] = 1e4 * probes[1].log_rho
    message = "Newton step cannot stay admissible"
    with pytest.raises(SolverError, match=message) as solo:
        _newton_solve(bg.reference, targets[1], t, guesses[1])
    with pytest.raises(SolverError, match=message) as exc:
        _newton_solve(bg.reference, targets, t, guesses)
    assert (exc.value.row, exc.value.t) == (1, t)
    assert exc.value.residual == solo.value.residual


def test_prescribed_path_failure_names_its_point(monkeypatch):
    # on this probe point 0 converges in one Newton step and every later
    # point needs two; with two allowed, point 0 is solved and point 1 is
    # the earliest point that fails
    bg = fs_background("cpn", 3, 96)
    probe = generate_probe(bg, seed=0, scenario="paths", index=1)
    dt = 0.1
    assert solve_yau_path(probe, dt=dt).iterations[:2] == [1, 2]
    monkeypatch.setattr(continuity, "NEWTON_ITERS", 2)
    with pytest.raises(SolverError) as solo:
        _solve_density(probe, _path_targets(probe, [dt])[0])
    with pytest.raises(SolverError) as exc:
        solve_yau_path(probe, dt=dt)
    assert exc.value.t == dt and exc.value.row == 1
    assert exc.value.residual == solo.value.residual
    assert str(exc.value) == f"prescribed path point t = {dt:.6f}: {solo.value}"


@pytest.mark.parametrize("count", [1, 51])
@pytest.mark.parametrize("size", [96, 384])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_density_step_agrees_with_dense_bordered_solve(n, size, count):
    # the bordered residuals of a prescribed path's targets at a probe's
    # state: the Krylov correction is the dense bordered solve's, in few
    # iterations, so a weaker preconditioner shows up as a failing count
    bg = fs_background("cpn", n, size)
    probe = generate_probe(bg, seed=3, scenario="paths", index=0)
    targets = _path_targets(probe, np.linspace(0.0, 1.0, 51))[-count:]
    gauge = bg.integrate(probe.rho * probe.phi)
    R = np.concatenate((probe.log_rho - targets, np.full((count, 1), gauge)), axis=1)
    delta, steps = continuity._density_step(MetricState.stack([probe] * count), R)
    K = np.zeros((size + 1, size + 1))
    K[:size, :size] = laplacian_matrix(probe)
    K[:size, size] = 1.0
    K[size, :size] = bg.ref_measure * probe.rho
    dense = np.linalg.solve(K, -R.T)[:size].T
    err = np.abs(delta - dense).max(axis=1) / np.abs(dense).max(axis=1)
    assert err.max() <= 1e-10
    assert 1 <= steps.min() and steps.max() <= 10


@pytest.mark.parametrize("n,size", [(2, 192), (3, 192), (4, 192), (2, 384)])
def test_krylov_step_at_positive_t_agrees_with_dense_solve(n, size):
    # the bending path's first Newton step to each t from the point before
    # it: the Krylov correction, split into its gauge part and a constant,
    # is the dense solve of (Lap + t I) delta = -R
    bg = fs_background("cpn", n, size)
    probe = generate_probe(bg, seed=0, scenario="lemma32_34", index=0)
    f, _ = ricci_potential(probe)
    traj = solve_aubin_path(probe)
    assert traj.reached_end, traj.termination.reason
    for t in (0.02, 0.5, 0.98):
        i = int(round(t / traj.dt))
        state, tilde = traj.states[i - 1], traj.stacked_exact()[i - 1]
        R = state.log_rho - probe.log_rho - f + t * tilde
        delta, steps = continuity._density_step(state[None], R[None], t)
        dense = np.linalg.solve(laplacian_matrix(state) + t * np.eye(size), -R)
        err = np.abs(delta[0] - dense).max() / np.abs(dense).max()
        assert err <= 1e-9, (t, err)
        assert 1 <= steps[0] <= continuity.GMRES_ITERS, t


def test_density_solve_names_the_first_row_whose_gmres_fails(monkeypatch):
    bg = fs_background("cpn", 3, 96)
    probes = [generate_probe(bg, seed=0, scenario="paths", index=i) for i in range(3)]
    targets = np.array([p.log_rho for p in probes])
    # row 0 starts at its solution and takes no step; rows 1 and 2 need GMRES
    guesses = np.zeros_like(targets)
    guesses[0] = probes[0].phi - bg.mean(probes[0].phi, probes[0].rho)
    assert _newton_solve(bg.reference, targets, 0.0, guesses)[2].tolist() == [0, 5, 5]
    monkeypatch.setattr(continuity, "GMRES_ITERS", 1)
    with pytest.raises(SolverError, match="GMRES did not converge") as stacked:
        _newton_solve(bg.reference, targets, 0.0, guesses)
    assert stacked.value.row == 1
    # on a prescribed path every point needs GMRES: point 0 names the failure
    with pytest.raises(SolverError) as solo:
        _solve_density(probes[1], _path_targets(probes[1], [0.0])[0])
    with pytest.raises(SolverError) as exc:
        solve_yau_path(probes[1], dt=0.1)
    assert exc.value.t == 0.0 and exc.value.row == 0
    assert exc.value.residual == solo.value.residual
    assert str(exc.value) == f"prescribed path point t = {0.0:.6f}: {solo.value}"


def test_density_solves_at_n1_never_build_the_preconditioner():
    # the round bordered matrix is singular at n = 1: D_w0_D annihilates
    # T_{N-1} as well as the constants.  On N = 192 the bending path's
    # t > 0 steps would be Krylov at n >= 2, and stay dense here
    for size in (96, 192):
        bg = fs_background("cpn", 1, size)
        top = bg.cheb_synthesis[:, -1]
        assert np.abs(bg.D_w0_D @ top).max() <= 1e-12 * np.abs(bg.D_w0_D).max()
        probe = generate_probe(bg, seed=3, scenario="paths", index=0)
        solve_yau_path(probe, dt=0.1)
        assert solve_aubin_path(probe, dt=0.1).reached_end
        ricci_positive_generator(probe)
        assert "density_preconditioner" not in vars(bg)


def test_stacked_density_solve_holds_no_bordered_stack():
    # a 51-point prescribed path at N = 192: its bordered (51, 193, 193)
    # stack alone would be 15 MB
    bg = fs_background("cpn", 2, 192)
    probe = generate_probe(bg, seed=3, scenario="paths", index=0)
    targets = _path_targets(probe, np.linspace(0.0, 1.0, 51))
    tracemalloc.start()
    try:
        _solve_density(probe, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_prescribed_path_is_one_inversion_and_one_build_per_iteration(monkeypatch):
    bg = fs_background("cpn", 2, 48)
    probe = generate_probe(bg, seed=3, scenario="paths", index=0)
    calls = _record_builds(monkeypatch, continuity)
    inversions = []
    original = continuity.potential_from_density

    def counting(*args, **kwargs):
        inversions.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(continuity, "potential_from_density", counting)
    traj = solve_yau_path(probe, dt=0.1)
    assert len(inversions) == 1
    assert max(traj.iterations) >= 1
    assert 1 <= len(calls) <= 1 + max(traj.iterations)
    assert all(ok and np.shape(phi) == (len(traj.ts), bg.size) for phi, ok in calls[:1])
    assert all(ok and np.ndim(phi) == 2 for phi, ok in calls)


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
    assert expected <= set(rows.dtype.names)
    # energies start at zero relative to the path's own reference
    assert abs(rows[0]["E_1"]) < 1e-10


@pytest.mark.parametrize("fixture", ["yau_cp2", "aubin_cp2"])
def test_path_monitor_columns_are_the_single_state_values(fixture, request):
    # one stacked evaluation per column, bitwise the per-point values
    _, traj = request.getfixturevalue(fixture)
    rows = path_monitors(traj)
    ref = traj.ref_state
    for i, p in enumerate(traj.points):
        want = {"t": p.t, "c_t": p.c_t, "lambda1_radial": lambda1_radial(p.state),
                "min_ricci": p.state.min_ricci}
        want.update({f"E_{k}": energies.e_k_closed(p.state, k, ref)
                     for k in range(traj.bg.n + 1)})
        want["I"], want["J"], want["I_minus_J"] = energies.i_and_j(p.state, ref)
        assert set(rows.dtype.names) == set(want)
        for name, value in want.items():
            assert rows[name][i].tobytes() == np.float64(value).tobytes(), (i, name)


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


@pytest.mark.parametrize("n", [1, 4])
def test_bending_path_completes_in_extreme_dimensions(n):
    # the production grid and probe of lemma32_34 at seed 0
    bg = fs_background("cpn", n, 96)
    traj = solve_aubin_path(generate_probe(bg, seed=0, scenario="lemma32_34", index=0))
    assert traj.completed, traj.termination.reason
    assert traj.points[-1].t == pytest.approx(1.0, abs=1e-12)


def test_bending_path_takes_about_one_newton_step_per_point():
    # the production probe of lemma32_34 at seed 0: the quadratic warm start
    # takes 56 Newton steps over the 50 points past t = 0, the linear one
    # 103; at N = 384 the inexact Krylov steps take 58
    for size in (96, 384):
        bg = fs_background("cpn", 2, size)
        traj = solve_aubin_path(generate_probe(bg, seed=0, scenario="lemma32_34", index=0))
        assert traj.reached_end, traj.termination.reason
        assert sum(traj.iterations) <= 64, size


@pytest.mark.parametrize("size", [96, 192])
def test_bending_corrections_are_krylov_from_the_threshold_grid(monkeypatch, size):
    # each correction is tagged with its t: on N = 96 every t > 0 step is
    # a dense laplacian_matrix solve; from KRYLOV_MIN_SIZE on only the t = 1
    # steps are, and the rest are Krylov
    bg = fs_background("cpn", 2, size)
    probe = generate_probe(bg, seed=0, scenario="lemma32_34", index=0)
    solves, dense, krylov = [], [], []
    for name, log in (("_newton_rows", solves), ("laplacian_matrix", dense),
                      ("_density_step", krylov)):
        def tagged(*args, _original=getattr(continuity, name), _log=log):
            _log.append(args[2] if _log is solves else solves[-1])
            return _original(*args)
        monkeypatch.setattr(continuity, name, tagged)
    traj = solve_aubin_path(probe)
    assert traj.reached_end, traj.termination.reason
    # no substep: the corrections are the reported points' Newton steps
    assert len(solves) == len(traj.ts)
    assert set(krylov) >= {0.0} and len(dense) + len(krylov) == sum(traj.iterations)
    if size < continuity.KRYLOV_MIN_SIZE:
        assert len(dense) == sum(traj.iterations[1:]) and set(krylov) == {0.0}
    else:
        assert len(dense) == traj.iterations[-1] and set(dense) == {1.0}


def test_warm_start_extrapolation_is_lagrange_through_the_last_points():
    ts = [0.50, 0.52, 0.53]    # nonuniform, as after a halved substep
    grid = np.linspace(-1.0, 1.0, 7)

    def quadratic(t):
        return 0.3 - 1.7 * t + 2.9 * t ** 2 + grid * t ** 2

    values = [quadratic(t) for t in ts]
    np.testing.assert_allclose(_extrapolate(ts, values, 0.54), quadratic(0.54),
                               rtol=0, atol=1e-14)
    np.testing.assert_array_equal(_extrapolate(ts[:1], values[:1], 0.54), values[0])
    line = values[0] + (values[1] - values[0]) * (0.54 - 0.50) / (0.52 - 0.50)
    np.testing.assert_allclose(_extrapolate(ts[:2], values[:2], 0.54), line,
                               rtol=0, atol=1e-14)


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
    assert run_flow(probe, steps=20, sample_every=10).states.bg is bg
    assert calls and flow_calls
    for phi, _ in calls + flow_calls:
        # the flow builds its samples as one stack, a potential per row
        assert not any(np.array_equal(row, probe.phi) for row in np.atleast_2d(phi))


def test_bending_solve_builds_each_newton_iterate_once(monkeypatch):
    # every successful build but the first is a Newton iterate the
    # backtracking loop accepted, and the next step reuses its state; the
    # solve is Newton alone, with no density inversion
    bg = fs_background("cpn", 2, 48)
    probe = generate_probe(bg, seed=3, scenario="paths", index=0)
    f, _ = ricci_potential(probe)
    calls = _record_builds(monkeypatch, continuity)
    inversions = []
    original = continuity.potential_from_density

    def counting(*args, **kwargs):
        inversions.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(continuity, "potential_from_density", counting)
    phi, state, steps, _ = _newton_solve(probe, f, 0.5, np.zeros(bg.size))
    assert not inversions
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
    for size in range(1, 61):
        y = rng.standard_normal(size)
        for dt in (0.02, 0.25):
            scale = dt * np.abs(y).sum()
            assert _simpson_uniform(y, dt) == pytest.approx(
                float(simpson(y, dx=dt)), rel=0.0, abs=1e-14 * scale), size
