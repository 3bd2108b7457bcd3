"""Unit tests for the energy hierarchy, the size functionals, and the
rotation-field invariants.

Oracles:
* the closed-form energy is differentiated by finite differences along a
  segment and compared against the defining first-variation density,
  evaluated directly from curvature slots;
* the first size functional is recomputed through the integration-by-parts
  identity  I = (1/V) int phi (1 - rho);
* rotation-field invariants are compared against finite differences of the
  energy along the pullback orbit.
"""

from __future__ import annotations

import numpy as np
import pytest

from kahler_lab import spectral
from kahler_lab.energies import (EnergyValue, critical_residual, e1_cy,
                                 e_k_closed, e_k_path, futaki_k, i_and_j,
                                 mu_k, orbit_potential)
from kahler_lab.errors import ParameterError, UnsupportedModelError
from kahler_lab.families import generate_probe
from kahler_lab.geometry import (laplacian, make_metric, slot_metric,
                                 slot_ricci, wedge_density)


def _fd5(f, t0: float, h: float) -> float:
    """Five-point centered derivative of a scalar-valued function."""
    vals = [f(t0 + k * h) for k in (-2, -1, 1, 2)]
    return (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * h)


# ---------------------------------------------------------------------------
# defining first variation as the derivative of the closed form


def _first_variation(bg, phi, t0: float, k: int) -> float:
    """Rate of the energy along t -> t phi, straight from its definition:

        (1/V) [ (k+1) int (Lap phi) Ric^k ^ w^{n-k}
                - (n-k) int phi (Ric^{k+1} ^ w^{n-k-1} - mu w^n) ]

    evaluated at the metric of t0 phi.
    """
    n = bg.n
    state = make_metric(bg, t0 * phi)
    ric = slot_ricci(state)
    met = slot_metric(state)
    lap = laplacian(state, phi)
    d1 = wedge_density(bg, [ric] * k + [met] * (n - k))
    total = (k + 1) * bg.integrate(lap * d1)
    if k < n:
        d2 = wedge_density(bg, [ric] * (k + 1) + [met] * (n - k - 1))
        total -= (n - k) * bg.integrate(phi * (d2 - mu_k(bg, k) * state.rho))
    return total / bg.volume


@pytest.mark.parametrize("fixture,k", [
    ("bg_cp1", 0), ("bg_cp1", 1),
    ("bg_cp2", 0), ("bg_cp2", 1), ("bg_cp2", 2),
])
def test_closed_form_derivative_matches_first_variation(fixture, k, request):
    bg = request.getfixturevalue(fixture)
    phi = generate_probe(bg, seed=13, scenario="energy", index=0).phi
    t0 = 0.55
    lhs = _fd5(lambda t: e_k_closed(make_metric(bg, t * phi), k), t0, 1e-3)
    rhs = _first_variation(bg, phi, t0, k)
    assert lhs == pytest.approx(rhs, abs=1e-8 * max(1.0, abs(rhs)))


def test_torus_closed_form_derivative_matches_first_variation(bg_torus,
                                                              probe_torus):
    lhs = _fd5(lambda t: e_k_closed(make_metric(bg_torus, t * probe_torus.phi), 1),
               0.6, 1e-3)
    rhs = _first_variation(bg_torus, probe_torus.phi, 0.6, 1)
    assert lhs == pytest.approx(rhs, abs=1e-7 * max(1.0, abs(rhs)))


# ---------------------------------------------------------------------------
# the two quadrature routes and the closed form agree


@pytest.mark.parametrize("fixture", ["bg_cp1", "bg_cp2", "bg_torus"])
def test_path_routes_and_closed_form_agree(fixture, request):
    bg = request.getfixturevalue(fixture)
    state = generate_probe(bg, seed=21, scenario="routes", index=3)
    for k in range(bg.n + 1):
        lin = e_k_path(state, k, "linear")
        quad = e_k_path(state, k, "quadratic")
        closed = e_k_closed(state, k)
        scale = max(1.0, abs(closed))
        assert abs(lin.value - quad.value) < 1e-10 * scale
        assert abs(lin.value - closed) < 1e-9 * scale


def test_energy_of_zero_potential_vanishes(bg_cp2):
    zero = make_metric(bg_cp2, np.zeros(bg_cp2.size))
    for k in range(3):
        assert e_k_closed(zero, k) == pytest.approx(0.0, abs=1e-12)
        assert e_k_path(zero, k).value == pytest.approx(0.0, abs=1e-12)


def test_energy_value_carries_metadata(probe_cp1):
    out = e_k_path(probe_cp1, 1)
    assert isinstance(out, EnergyValue)
    assert out.intervals >= 24
    assert out.est_error < 1e-10 * max(1.0, abs(out.value))


def test_constant_shift_invariance(bg_cp2, probe_cp2):
    state = probe_cp2
    shifted = make_metric(bg_cp2, probe_cp2.phi + 11.0)
    for k in range(3):
        a = e_k_closed(state, k)
        b = e_k_closed(shifted, k)
        assert a == pytest.approx(b, abs=1e-9 * max(1.0, abs(a)))
    # a state/ref pair whose potentials carry different additive constants,
    # as the bending path's equation-exact potentials do
    ref = generate_probe(bg_cp2, seed=31, scenario="cocycle", index=0)
    ref_shifted = make_metric(bg_cp2, ref.phi - 4.5)
    for k in range(3):
        a = e_k_closed(state, k, ref)
        b = e_k_closed(shifted, k, ref_shifted)
        assert a == pytest.approx(b, abs=1e-9 * max(1.0, abs(a)))
    for a, b in zip(i_and_j(state, ref), i_and_j(shifted, ref_shifted)):
        assert a == pytest.approx(b, abs=1e-9 * max(1.0, abs(a)))


def test_cocycle_and_antisymmetry(bg_cp2):
    state_a = generate_probe(bg_cp2, seed=31, scenario="cocycle", index=0)
    b = 0.6 * generate_probe(bg_cp2, seed=31, scenario="cocycle", index=1).phi
    state_ab = make_metric(bg_cp2, state_a.phi + b)
    for k in range(3):
        whole = e_k_closed(state_ab, k)
        first = e_k_closed(state_a, k)
        second = e_k_closed(state_ab, k, ref=state_a)
        scale = max(1.0, abs(whole))
        assert abs(whole - (first + second)) < 1e-9 * scale
        # traversing a leg backwards negates it
        back = e_k_closed(state_a, k, ref=state_ab)
        assert abs(second + back) < 1e-9 * scale


def test_bad_indices_and_paths_raise(bg_cp2, probe_cp2):
    state = probe_cp2
    with pytest.raises(ParameterError):
        e_k_closed(state, 3)
    with pytest.raises(ParameterError):
        e_k_path(state, -1)
    with pytest.raises(ParameterError):
        e_k_path(state, 1, path="cubic")
    with pytest.raises(ParameterError):
        mu_k(bg_cp2, 5)


# ---------------------------------------------------------------------------
# size functionals


def test_i_functional_matches_integration_by_parts(bg_cp2, probe_cp2):
    state = probe_cp2
    i_val, _, _ = i_and_j(state)
    oracle = bg_cp2.integrate(state.phi * (1.0 - state.rho)) / bg_cp2.volume
    assert i_val == pytest.approx(oracle, abs=1e-11 * max(1.0, abs(oracle)))


def test_i_functional_matches_integration_by_parts_n1(bg_cp1, probe_cp1):
    state = probe_cp1
    i_val, _, _ = i_and_j(state)
    oracle = bg_cp1.integrate(state.phi * (1.0 - state.rho)) / bg_cp1.volume
    assert i_val == pytest.approx(oracle, abs=1e-11 * max(1.0, abs(oracle)))


def test_j_is_half_of_i_in_dimension_one(probe_cp1):
    i_val, j_val, imj = i_and_j(probe_cp1)
    assert j_val == pytest.approx(0.5 * i_val, rel=1e-12)
    assert imj == pytest.approx(i_val - j_val, rel=1e-10)


def test_size_functionals_nonnegative_and_sandwiched(bg_cp2):
    for idx in range(4):
        i_val, j_val, imj = i_and_j(
            generate_probe(bg_cp2, seed=41, scenario="size", index=idx))
        n = bg_cp2.n
        assert i_val > 0.0
        assert j_val > 0.0
        assert imj == pytest.approx(i_val - j_val, abs=1e-12 * i_val)
        # classical sandwich: I/(n+1) <= I - J <= n I/(n+1)
        assert imj >= i_val / (n + 1) - 1e-12
        assert imj <= n * i_val / (n + 1) + 1e-12


def d_dt_i_minus_j_check(bg, phi, t0: float = 0.6,
                         h: float = 1e-3) -> tuple[float, float]:
    """Derivative identity for I - J along the linear segment t -> t phi.

    Returns (finite-difference lhs, analytic rhs) of

        d/dt (I - J)(phi_t) = -(1/V) int phi_t (Lap_t d/dt phi_t) w_t^n.
    """
    ts = t0 + h * np.arange(-2, 3)
    samples = np.array([[i_and_j(make_metric(bg, t * phi))[2]] for t in ts])
    lhs = float(spectral.fd_derivative(samples, h)[2, 0])

    state = make_metric(bg, t0 * phi)
    lap_dot = laplacian(state, phi)
    rhs = -bg.integrate(t0 * phi * lap_dot * state.rho) / bg.volume
    return lhs, rhs


def test_i_minus_j_time_derivative_identity(bg_cp2, probe_cp2):
    lhs, rhs = d_dt_i_minus_j_check(bg_cp2, probe_cp2.phi)
    assert lhs == pytest.approx(rhs, abs=1e-8 * max(1.0, abs(rhs)))


def test_i_minus_j_nondecreasing_along_segment(bg_cp2, probe_cp2):
    values = [i_and_j(make_metric(bg_cp2, t * probe_cp2.phi))[2]
              for t in np.linspace(0.0, 1.0, 6)]
    assert values[0] == pytest.approx(0.0, abs=1e-13)
    assert np.diff(values).min() > -1e-12


# ---------------------------------------------------------------------------
# critical equation residual


def test_round_metric_is_critical_for_every_index(bg_cp2):
    for k in range(3):
        res = critical_residual(bg_cp2.reference, k)
        assert np.abs(res).max() < 1e-9


def test_critical_residual_nonzero_off_round(probe_cp2):
    assert np.abs(critical_residual(probe_cp2, 1)).max() > 1e-4


# ---------------------------------------------------------------------------
# rotation orbit and its invariants


def test_orbit_potential_recenters_the_round_metric(bg_cp2):
    # the pullback of the round metric is again round: its state matches
    # the reference after the moment profile is recomputed
    s = 0.45
    shifted = orbit_potential(bg_cp2.reference, s)
    state = make_metric(bg_cp2, shifted)
    assert np.abs(state.lam_r - 1.0).max() < 1e-7
    assert np.abs(state.lam_s - 1.0).max() < 1e-7


def test_orbit_composition_is_additive(bg_cp2, probe_cp2):
    a = orbit_potential(probe_cp2, 0.3)
    ab = orbit_potential(make_metric(bg_cp2, a), 0.2)
    direct = orbit_potential(probe_cp2, 0.5)
    assert np.abs(ab - direct)[1:-1].max() < 1e-9


def test_rotation_invariant_matches_orbit_energy_derivative(bg_cp2, probe_cp2):
    s0 = 0.12
    h = 0.02
    for k in range(3):
        lhs = _fd5(lambda s: e_k_closed(make_metric(
            bg_cp2, orbit_potential(probe_cp2, s)), k), s0, h)
        base = orbit_potential(probe_cp2, s0)
        rhs = futaki_k(make_metric(bg_cp2, base), k) / bg_cp2.volume
        assert lhs == pytest.approx(rhs, abs=2e-7 * max(1.0, abs(rhs)))


def test_rotation_invariant_vanishes_on_round_and_probes(bg_cp2, probe_cp2):
    for k in range(3):
        round_state = make_metric(bg_cp2, np.zeros(bg_cp2.size))
        assert abs(futaki_k(round_state, k)) < 1e-9 * bg_cp2.volume
        # the invariant is metric-independent and zero in this class
        assert abs(futaki_k(probe_cp2, k)) < 1e-7 * bg_cp2.volume


def test_rotation_invariant_requires_projective_model(probe_torus):
    with pytest.raises(UnsupportedModelError):
        futaki_k(probe_torus, 1)
    with pytest.raises(UnsupportedModelError):
        orbit_potential(probe_torus, 0.3)


# ---------------------------------------------------------------------------
# flat-model closed form


def test_flat_closed_form_matches_general_formula(probe_torus):
    state = probe_torus
    cy = e1_cy(state)
    closed = e_k_closed(state, 1)
    assert cy >= 0.0
    assert closed == pytest.approx(cy, rel=1e-8)


def test_flat_closed_form_against_quadrature_oracle(bg_torus, probe_torus):
    # independent route: squared slope of log rho integrated by the exact
    # trapezoid rule for periodic functions, slopes from the FFT symbol
    state = probe_torus
    c = np.fft.rfft(state.log_rho)
    kfreq = 2.0 * np.pi * np.arange(len(c))
    slope = np.fft.irfft(1j * kfreq * c, bg_torus.size)
    oracle = float(np.mean(slope * slope))
    assert e1_cy(state) == pytest.approx(oracle, rel=1e-10)


def test_flat_closed_form_rejects_projective_model(probe_cp1):
    with pytest.raises(UnsupportedModelError):
        e1_cy(probe_cp1)
