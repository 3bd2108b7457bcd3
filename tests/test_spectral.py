"""Unit tests for the one-dimensional spectral toolkit.

Oracles: closed-form calculus on polynomials and trigonometric functions,
evaluated independently of the matrices under test.
"""

from __future__ import annotations

import numpy as np
import pytest

from kahler_lab import spectral


# ---------------------------------------------------------------------------
# Chebyshev-Lobatto grid


def test_cheb_nodes_are_increasing_with_exact_endpoints():
    x = spectral.cheb_nodes(33, 3.0)
    assert x.shape == (33,)
    assert x[0] == 0.0
    assert x[-1] == 3.0
    assert np.all(np.diff(x) > 0)


def test_cheb_nodes_frozen_values_size_five():
    # 0.5 * L * (1 - cos(j pi / 4)) for j = 0..4 with L = 2:
    # 0, 1 - sqrt(2)/2, 1, 1 + sqrt(2)/2, 2
    x = spectral.cheb_nodes(5, 2.0)
    expected = np.array([0.0, 1.0 - np.sqrt(0.5), 1.0, 1.0 + np.sqrt(0.5), 2.0])
    assert np.allclose(x, expected, atol=1e-15)


def test_cheb_nodes_reject_degenerate_grid():
    with pytest.raises(ValueError):
        spectral.cheb_nodes(1, 1.0)


def test_diff_matrix_exact_on_polynomials():
    L = 2.5
    x = spectral.cheb_nodes(24, L)
    w = spectral.cheb_bary_weights(24)
    D = spectral.diff_matrix(x, w)
    p = x ** 5 - 2.0 * x ** 3 + 7.0 * x - 4.0
    dp = 5.0 * x ** 4 - 6.0 * x ** 2 + 7.0
    assert np.abs(D @ p - dp).max() < 1e-10


def test_diff_matrix_annihilates_constants():
    x = spectral.cheb_nodes(40, 3.0)
    w = spectral.cheb_bary_weights(40)
    D = spectral.diff_matrix(x, w)
    # the negative-sum diagonal cancels the rows analytically; the dot
    # product re-sums in a different order, leaving only roundoff
    assert np.abs(D @ np.ones(40)).max() < 1e-12


def test_diff_matrix_spectrally_accurate_on_smooth_function():
    L = 2.0
    x = spectral.cheb_nodes(48, L)
    w = spectral.cheb_bary_weights(48)
    D = spectral.diff_matrix(x, w)
    f = np.exp(np.sin(2.0 * x))
    df = 2.0 * np.cos(2.0 * x) * f
    assert np.abs(D @ f - df).max() < 1e-10


def test_clenshaw_curtis_exact_on_monomials():
    L = 3.0
    size = 20
    wq = spectral.clenshaw_curtis(size, L)
    x = spectral.cheb_nodes(size, L)
    for k in range(size - 1):
        exact = L ** (k + 1) / (k + 1)
        assert abs(wq @ x ** k - exact) < 1e-12 * max(1.0, exact)


def test_clenshaw_curtis_weights_positive_both_parities():
    for size in (17, 18):
        wq = spectral.clenshaw_curtis(size, 1.0)
        assert wq.min() > 0.0
        assert abs(wq.sum() - 1.0) < 1e-14


def test_antiderivative_matches_sine_integral():
    L = 2.0
    x = spectral.cheb_nodes(40, L)
    w = spectral.cheb_bary_weights(40)
    D = spectral.diff_matrix(x, w)
    F = spectral.Antiderivative(D)
    out = F(np.cos(x))
    assert out[0] == 0.0
    assert np.abs(out - np.sin(x)).max() < 1e-12


def test_antiderivative_exact_on_polynomials():
    L = 1.5
    x = spectral.cheb_nodes(16, L)
    w = spectral.cheb_bary_weights(16)
    F = spectral.Antiderivative(spectral.diff_matrix(x, w))
    out = F(3.0 * x ** 2)
    assert np.abs(out - x ** 3).max() < 1e-12


def test_cheb_transform_round_trip_and_coefficient_pickout():
    size = 33
    C, V = spectral.cheb_transform(size)
    assert np.abs(V @ C - np.eye(size)).max() < 1e-11
    # sampling T_3(2x/L - 1) must give the unit coefficient vector e_3
    L = 2.0
    x = spectral.cheb_nodes(size, L)
    u = 2.0 * x / L - 1.0
    t3 = 4.0 * u ** 3 - 3.0 * u
    coeffs = C @ t3
    expected = np.zeros(size)
    expected[3] = 1.0
    assert np.abs(coeffs - expected).max() < 1e-12


def test_bary_interp_reproduces_polynomial_and_node_values():
    L = 2.0
    size = 20
    x = spectral.cheb_nodes(size, L)
    w = spectral.cheb_bary_weights(size)
    vals = x ** 4 - x
    xq = np.linspace(0.05, L - 0.05, 37)
    out = spectral.bary_interp(x, w, vals, xq)
    assert np.abs(out - (xq ** 4 - xq)).max() < 1e-12
    # exactly at a node the interpolant returns the stored value
    assert spectral.bary_interp(x, w, vals, float(x[7])) == vals[7]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bary_interp_node_hits_raise_no_warning():
    x = spectral.cheb_nodes(16, 3.0)
    w = spectral.cheb_bary_weights(16)
    vals = np.exp(x)
    xq = np.array([x[0], 0.5 * (x[3] + x[4]), x[9], x[-1]])
    out = spectral.bary_interp(x, w, vals, xq)
    assert out[0] == vals[0] and out[2] == vals[9] and out[3] == vals[-1]
    assert abs(out[1] - np.exp(xq[1])) < 1e-10
    assert spectral.bary_interp(x, w, vals, float(x[5])) == vals[5]


def test_bary_interp_scalar_query_returns_scalar():
    x = spectral.cheb_nodes(12, 1.0)
    w = spectral.cheb_bary_weights(12)
    out = spectral.bary_interp(x, w, x ** 2, 0.3)
    assert isinstance(out, float)
    assert abs(out - 0.09) < 1e-13


# ---------------------------------------------------------------------------
# periodic grid


def test_fourier_nodes_uniform_on_unit_interval():
    x = spectral.fourier_nodes(8)
    assert np.allclose(x, np.arange(8) / 8.0)


def test_fourier_diff_exact_on_trig_modes():
    size = 32
    x = spectral.fourier_nodes(size)
    D = spectral.fourier_diff(size, 1)
    f = np.sin(2.0 * np.pi * 3.0 * x)
    df = 6.0 * np.pi * np.cos(2.0 * np.pi * 3.0 * x)
    assert np.abs(D @ f - df).max() < 1e-10


def test_fourier_second_derivative_matches_squared_symbol():
    size = 32
    x = spectral.fourier_nodes(size)
    D2 = spectral.fourier_diff(size, 2)
    f = np.cos(2.0 * np.pi * 2.0 * x)
    assert np.abs(D2 @ f + (4.0 * np.pi) ** 2 * f).max() < 1e-9


# ---------------------------------------------------------------------------
# finite differences in an external parameter


def test_fd_derivative_fourth_order_on_exponential():
    h = 0.05
    t = np.arange(9) * h
    y = np.exp(t)[:, None]
    out = spectral.fd_derivative(y, h)
    # five-point stencils have h^4 error; the one-sided end rows carry a
    # visibly larger constant than the centered interior (h^4 f^(5) / 30)
    assert np.abs(out - y).max() < 5e-6
    assert np.abs(out[2:-2] - y[2:-2]).max() < 5e-7


def test_fd_derivative_exact_on_quartics():
    h = 0.1
    t = np.arange(7) * h
    y = t ** 4 - 2.0 * t ** 2
    out = spectral.fd_derivative(y, h)
    assert np.abs(out - (4.0 * t ** 3 - 4.0 * t)).max() < 1e-10


def test_fd_derivative_requires_five_samples():
    with pytest.raises(ValueError):
        spectral.fd_derivative(np.zeros((4, 3)), 0.1)
