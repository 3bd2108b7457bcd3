"""Tests for the normalized Ricci flow.

The oracle is the same ETD2RK recursion stepped on grid values: every
stage evaluates the nonlinear remainder from a full metric state, projects
onto the leading Chebyshev modes on the grid and re-centers.  Its
exponentials come from `scipy.linalg.expm` of the linearization built from
the round metric's `laplacian_matrix`, so it shares neither the flow's
skinny operators nor its Pade exponential, and the two agree to rounding.
A stacked start is checked against the runs of its rows one at a time,
which it must reproduce bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from kahler_lab import flow
from kahler_lab.errors import (NotKahlerError, ParameterError,
                               UnsupportedModelError)
from kahler_lab.families import generate_probe
from kahler_lab.flow import run_flow
from kahler_lab.geometry import fs_background, laplacian_matrix, make_metric


def block_matrix(linear, h):
    """[[hL, I, 0], [0, 0, I], [0, 0, 0]], whose exponential's top block row
    is exp(hL), phi1(hL), phi2(hL)."""
    k = len(linear)
    block = np.zeros((3 * k, 3 * k))
    block[:k, :k] = h * linear
    block[:k, k:2 * k] = block[k:2 * k, 2 * k:] = np.eye(k)
    return block


def block_exponentials(linear, h):
    """exp(hL), h phi1(hL) and h phi2(hL) by scipy."""
    k = len(linear)
    top = scipy.linalg.expm(block_matrix(linear, h))[:k]
    return top[:, :k], h * top[:, k:2 * k], h * top[:, 2 * k:]


def round_linearization(bg, modes=24):
    """L in column form on the kept coefficients: C_m (I + Lap), then the
    reference-mean projection, with Lap the round metric's Laplacian."""
    analysis, synthesis = bg.cheb_analysis[:modes], bg.cheb_synthesis[:, :modes]
    lap = laplacian_matrix(bg.reference)
    linear = analysis @ (np.eye(bg.size) + lap) @ synthesis
    linear[0] -= bg.mean(synthesis.T) @ linear
    return linear, lap


def grid_space_flow(bg, phi0, dt, steps, modes=24):
    """Oracle: (phi after `steps` accepted ETD2RK steps, final dt,
    halvings), with the flow's halving limit."""
    analysis, synthesis = bg.cheb_analysis[:modes], bg.cheb_synthesis[:, :modes]
    linear, lap = round_linearization(bg, modes)

    def center(phi):
        phi = bg.lowpass(phi, modes)
        return phi - bg.mean(phi)

    def remainder(phi):
        # raises NotKahlerError outside the cone
        return make_metric(bg, phi).log_rho - lap @ phi

    def grid_operators(h):
        return [synthesis @ op @ analysis for op in block_exponentials(linear, h)]

    phi = center(np.asarray(phi0, dtype=float))
    nonlinear = remainder(phi)
    E, phi1, phi2 = grid_operators(dt)
    halvings = accepted = 0
    while accepted < steps:
        try:
            a = center(E @ phi + phi1 @ nonlinear)
            nonlinear_a = remainder(a)
            candidate = center(a + phi2 @ (nonlinear_a - nonlinear))
            nonlinear_c = remainder(candidate)
        except NotKahlerError:
            halvings += 1
            if halvings > flow.MAX_HALVINGS:
                raise
            dt *= 0.5
            E, phi1, phi2 = grid_operators(dt)
            continue
        phi, nonlinear = candidate, nonlinear_c
        accepted += 1
    return phi, dt, halvings


def near_boundary_start(bg):
    # phi = a x has m_x = 1 + a w0_x, which vanishes at the far pole for
    # a = 1; just inside, the first full-size step leaves the cone
    return (1.0 - 1e-4) * bg.x


@pytest.fixture(scope="module")
def bg48():
    return fs_background("cpn", 2, 48)


@pytest.fixture(scope="module")
def bg96():
    return fs_background("cpn", 2, 96)


def test_round_metric_is_bitwise_stationary(bg96):
    traj = run_flow(bg96.reference, dt=1e-3, steps=400, sample_every=25)
    assert traj.status == "completed" and traj.steps == 400
    assert traj.halvings == 0 and traj.dt_final == 1e-3
    assert len(traj.times) == 400 // 25 + 1
    for i in range(len(traj.times)):
        assert np.all(traj.states[i].phi == 0.0)
        assert traj.states[i].min_ricci == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("size", [48, 96])
def test_coefficient_steps_match_grid_space_loop(size):
    bg = fs_background("cpn", 2, size)
    start = generate_probe(bg, seed=3, scenario="krf_monotone", index=0)
    traj = run_flow(start, dt=1e-3, steps=200, sample_every=50)
    assert traj.status == "completed" and traj.halvings == 0
    assert traj.times[-1] == pytest.approx(0.2, abs=1e-12)
    expected, _, _ = grid_space_flow(bg, start.phi, 1e-3, 200)
    assert np.abs(traj.states.phi[-1] - expected).max() <= 1e-13
    # the flow moves the potential, so the agreement is not vacuous
    assert np.abs(expected - traj.states.phi[0]).max() > 1e-3


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_linearization_is_the_round_laplacian_on_the_kept_modes(n):
    bg = fs_background("cpn", n, 96)
    linear = flow._operators(bg)[-1]
    expected = round_linearization(bg)[0].T  # the flow acts on row vectors
    assert np.abs(linear - expected).max() <= 1e-14 * np.abs(expected).max()
    # the stiff mode an explicit step would have to resolve
    stiffest = {1: -275.0, 2: -190.667, 3: -148.5, 4: -123.2}[n]
    assert np.linalg.eigvals(linear).real.min() == pytest.approx(stiffest, rel=1e-5)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pade_exponential_matches_scipy_on_the_flow_blocks(n):
    linear = flow._operators(fs_background("cpn", n, 96))[-1]
    for h in (0.025, 0.25, 0.125):
        block = block_matrix(linear, h)
        expected = scipy.linalg.expm(block)
        assert np.abs(flow._expm(block) - expected).max() <= 1e-13 * np.abs(expected).max()
        for ours, theirs in zip(flow._etd_operators(linear, h),
                                block_exponentials(linear, h)):
            assert np.abs(ours - theirs).max() <= 1e-13 * np.abs(theirs).max()


def test_steps_converge_at_second_order(bg96):
    start = generate_probe(bg96, seed=0, scenario="krf_monotone", index=0)

    def at_time_one(h):
        steps = round(1.0 / h)
        return run_flow(start, dt=h, steps=steps, sample_every=steps).states.phi[-1]

    reference = at_time_one(0.0125 / 16)
    errors = [np.abs(at_time_one(h) - reference).max() for h in (0.05, 0.025, 0.0125)]
    assert errors[2] > 0.0
    assert errors[1] <= errors[0] / 3 and errors[2] <= errors[1] / 3


def test_volume_is_conserved(bg96):
    start = generate_probe(bg96, seed=1, scenario="krf_monotone", index=0)
    traj = run_flow(start, dt=1e-3, steps=500, sample_every=100)
    assert traj.volume_defects.max() <= 1e-12


def test_near_boundary_start_halves_step_stickily(bg48):
    phi0 = near_boundary_start(bg48)
    traj = run_flow(make_metric(bg48, phi0), dt=1e-3, steps=50, sample_every=10)
    assert traj.status == "completed" and traj.steps == 50
    assert traj.halvings > 0
    assert traj.dt_final == 1e-3 / 2 ** traj.halvings
    _, dt_oracle, halvings_oracle = grid_space_flow(bg48, phi0, 1e-3, 50)
    assert (traj.halvings, traj.dt_final) == (halvings_oracle, dt_oracle)
    assert 50 * traj.dt_final <= traj.times[-1] <= 50 * 1e-3


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_collapsed_step_truncates_with_reason(bg48, sign, monkeypatch):
    monkeypatch.setattr(flow, "MAX_HALVINGS", 0)
    phi0 = sign * near_boundary_start(bg48)
    traj = run_flow(make_metric(bg48, phi0), dt=1e-3, steps=50)
    assert traj.status == "truncated"
    assert traj.steps == 0
    assert traj.times.tolist() == [0.0, 0.0]
    # the cone test reports the node and value make_metric reports
    with pytest.raises(NotKahlerError) as grid_exc:
        grid_space_flow(bg48, phi0, 1e-3, 1)
    assert traj.reason == (
        f"step size collapsed after 0 halvings: {grid_exc.value}")


def test_inadmissible_start_raises(bg48):
    # the flow starts from a state, and an inadmissible potential has none
    with pytest.raises(NotKahlerError):
        run_flow(make_metric(bg48, 1.01 * bg48.x), steps=10)


def test_parameter_and_model_errors(bg48):
    with pytest.raises(ParameterError):
        run_flow(bg48.reference, dt=0.5, steps=21)
    with pytest.raises(ParameterError):
        run_flow(bg48.reference, dt=1e-3, steps=20_000)
    with pytest.raises(ParameterError):
        run_flow(make_metric(bg48, np.full(bg48.size, np.nan)), steps=10)
    # a step that does not move forward, and a run or sampling with no steps
    for kwargs in ({"dt": 0.0}, {"dt": -1e-3}, {"dt": np.nan}, {"steps": 0},
                   {"sample_every": 0}):
        with pytest.raises(ParameterError):
            run_flow(bg48.reference, **{"steps": 10, **kwargs})
    torus = fs_background("torus", 1, 32)
    with pytest.raises(UnsupportedModelError):
        run_flow(torus.reference, steps=10)


def assert_same_run(row, alone):
    """Every field of a stacked row's trajectory is bitwise that of the
    row run alone."""
    assert row.times.tobytes() == alone.times.tobytes()
    assert row.volume_defects.tobytes() == alone.volume_defects.tobytes()
    for name, value in vars(alone.states).items():
        if isinstance(value, np.ndarray):
            assert getattr(row.states, name).tobytes() == value.tobytes(), name
    assert ((row.dt_final, row.halvings, row.steps, row.status, row.reason)
            == (alone.dt_final, alone.halvings, alone.steps, alone.status,
                alone.reason))


def stack(bg, phis):
    return make_metric(bg, np.array(phis))


def test_stacked_rows_match_their_single_runs(bg48):
    probe = generate_probe(bg48, seed=3, scenario="krf_monotone", index=0)
    phis = [probe.phi, near_boundary_start(bg48), bg48.reference.phi]
    runs = run_flow(stack(bg48, phis), dt=1e-3, steps=50, sample_every=10)
    assert len(runs.rows) == 3
    for row, phi in zip(runs.rows, phis):
        assert_same_run(row, run_flow(make_metric(bg48, phi), dt=1e-3, steps=50,
                                      sample_every=10))
    # the boundary row splits off and halves; the other two never do
    assert [row.halvings > 0 for row in runs.rows] == [False, True, False]
    assert runs.rows[1].dt_final < runs.rows[0].dt_final == 1e-3
    # the rows' samples are consecutive slices of one stacked state
    for row, a, b in zip(runs.rows, runs.offsets[:-1], runs.offsets[1:]):
        assert row.states.phi.tobytes() == runs.states.phi[a:b].tobytes()


def test_stack_with_one_truncating_row(bg48, monkeypatch):
    monkeypatch.setattr(flow, "MAX_HALVINGS", 0)
    phis = [near_boundary_start(bg48), bg48.reference.phi]
    runs = run_flow(stack(bg48, phis), dt=1e-3, steps=50)
    assert [row.status for row in runs.rows] == ["truncated", "completed"]
    assert [row.steps for row in runs.rows] == [0, 50]
    for row, phi in zip(runs.rows, phis):
        assert_same_run(row, run_flow(make_metric(bg48, phi), dt=1e-3, steps=50))


def test_stack_counts_are_row_sums(bg48):
    phis = [near_boundary_start(bg48), -near_boundary_start(bg48),
            bg48.reference.phi]
    runs = run_flow(stack(bg48, phis), dt=1e-3, steps=30)
    assert type(runs.steps) is int and type(runs.halvings) is int
    assert runs.steps == sum(row.steps for row in runs.rows) == 90
    assert runs.halvings == sum(row.halvings for row in runs.rows) > 0


@pytest.mark.parametrize("max_halvings", [flow.MAX_HALVINGS, 0])
def test_single_start_is_its_one_row_stack(bg48, max_halvings, monkeypatch):
    # a probe, a start that halves its step and, with no halvings allowed,
    # one that truncates: each single run is the row of its one-row stack
    monkeypatch.setattr(flow, "MAX_HALVINGS", max_halvings)
    probe = generate_probe(bg48, seed=5, scenario="krf_monotone", index=1)
    for phi in (probe.phi, near_boundary_start(bg48)):
        alone = run_flow(make_metric(bg48, phi), dt=1e-3, steps=50, sample_every=10)
        runs = run_flow(stack(bg48, [phi]), dt=1e-3, steps=50, sample_every=10)
        assert isinstance(alone, flow.FlowTrajectory) and isinstance(runs, flow.FlowStack)
        assert len(runs.rows) == 1 and runs.offsets.tolist() == [0, len(alone.times)]
        assert_same_run(runs.rows[0], alone)
