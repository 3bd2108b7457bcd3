"""Tests for the normalized Ricci flow.

The oracle is the straightforward grid-space loop: every step evaluates
the right-hand side from a full metric state, projects the update onto
the leading Chebyshev modes on the grid and re-centers it.  The flow
proper steps the same recursion on the coefficients, so the two agree to
rounding.
"""

from __future__ import annotations

import numpy as np
import pytest

from kahler_lab.errors import (NotKahlerError, ParameterError,
                               UnsupportedModelError)
from kahler_lab.families import generate_probe
from kahler_lab.flow import run_flow
from kahler_lab.geometry import fs_background, make_metric


def grid_space_flow(bg, phi0, dt, steps, modes=24, max_halvings=12):
    """Oracle: (phi after `steps` accepted steps, final dt, halvings)."""
    phi = bg.lowpass(np.asarray(phi0, dtype=float), modes)
    phi = phi - bg.mean(phi)
    state = make_metric(bg, phi)
    halvings = 0
    accepted = 0
    while accepted < steps:
        candidate = bg.lowpass(phi + dt * (state.log_rho + phi), modes)
        candidate = candidate - bg.mean(candidate)
        try:
            new_state = make_metric(bg, candidate)
        except NotKahlerError:
            halvings += 1
            if halvings > max_halvings:
                raise
            dt *= 0.5
            continue
        phi, state = candidate, new_state
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
    traj = run_flow(bg96, np.zeros(bg96.size), dt=1e-3, steps=400)
    assert traj.status == "completed" and traj.steps == 400
    assert traj.halvings == 0 and traj.dt_final == 1e-3
    assert len(traj.samples) == 400 // 25 + 1
    for s in traj.samples:
        assert np.all(s.phi == 0.0)
        assert s.min_ricci == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("size", [48, 96])
def test_coefficient_steps_match_grid_space_loop(size):
    bg = fs_background("cpn", 2, size)
    phi0 = generate_probe(bg, seed=3, scenario="krf_monotone", index=0)
    traj = run_flow(bg, phi0, dt=1e-3, steps=200, sample_every=50)
    assert traj.status == "completed" and traj.halvings == 0
    assert traj.times[-1] == pytest.approx(0.2, abs=1e-12)
    expected, _, _ = grid_space_flow(bg, phi0, 1e-3, 200)
    assert np.abs(traj.samples[-1].phi - expected).max() <= 1e-13
    # the flow moves the potential, so the agreement is not vacuous
    assert np.abs(expected - traj.samples[0].phi).max() > 1e-3


def test_volume_is_conserved(bg96):
    phi0 = generate_probe(bg96, seed=1, scenario="krf_monotone", index=0)
    traj = run_flow(bg96, phi0, dt=1e-3, steps=500, sample_every=100)
    assert max(s.volume_defect for s in traj.samples) <= 1e-12


def test_near_boundary_start_halves_step_stickily(bg48):
    phi0 = near_boundary_start(bg48)
    traj = run_flow(bg48, phi0, dt=1e-3, steps=50, sample_every=10)
    assert traj.status == "completed" and traj.steps == 50
    assert traj.halvings > 0
    assert traj.dt_final == 1e-3 / 2 ** traj.halvings
    _, dt_oracle, halvings_oracle = grid_space_flow(bg48, phi0, 1e-3, 50)
    assert (traj.halvings, traj.dt_final) == (halvings_oracle, dt_oracle)
    assert 50 * traj.dt_final <= traj.times[-1] <= 50 * 1e-3


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_collapsed_step_truncates_with_reason(bg48, sign):
    phi0 = sign * near_boundary_start(bg48)
    traj = run_flow(bg48, phi0, dt=1e-3, steps=50, max_halvings=0)
    assert traj.status == "truncated"
    assert traj.steps == 0
    assert [s.t for s in traj.samples] == [0.0, 0.0]
    # the cone test reports the node and value make_metric reports
    with pytest.raises(NotKahlerError) as grid_exc:
        grid_space_flow(bg48, phi0, 1e-3, 1, max_halvings=0)
    assert traj.reason == (
        f"step size collapsed after 0 halvings: {grid_exc.value}")


def test_inadmissible_start_raises(bg48):
    with pytest.raises(NotKahlerError):
        run_flow(bg48, 1.01 * bg48.x, steps=10)


def test_parameter_and_model_errors(bg48):
    with pytest.raises(ParameterError):
        run_flow(bg48, np.zeros(bg48.size), dt=2e-3, steps=10)
    with pytest.raises(ParameterError):
        run_flow(bg48, np.zeros(bg48.size), dt=1e-3, steps=20_000)
    with pytest.raises(ParameterError):
        run_flow(bg48, np.full(bg48.size, np.nan), steps=10)
    torus = fs_background("torus", 1, 32)
    with pytest.raises(UnsupportedModelError):
        run_flow(torus, np.zeros(torus.size), steps=10)
