"""One-dimensional spectral toolkit.

Chebyshev-Lobatto grids (with endpoint clustering) carry the rotation-invariant
calculus on the projective models; uniform periodic grids carry the torus
branch.  Everything here is dense and small: differentiation matrices,
Clenshaw-Curtis quadrature, spectral antiderivatives, coefficient transforms,
barycentric interpolation, and high-order finite differences in an external
(path) parameter.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lu_factor, lu_solve

Array = np.ndarray


def cheb_nodes(size: int, length: float) -> Array:
    """Chebyshev-Lobatto nodes mapped to [0, length], in increasing order."""
    if size < 2:
        raise ValueError("grid needs at least two nodes")
    theta = np.pi * np.arange(size) / (size - 1)
    return 0.5 * length * (1.0 - np.cos(theta))


def cheb_bary_weights(size: int) -> Array:
    """Barycentric weights for the Lobatto grid (sign-alternating, halved ends)."""
    w = np.ones(size)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def diff_matrix(x: Array, w: Array) -> Array:
    """Barycentric differentiation matrix with the negative-sum diagonal.

    The diagonal rule D_ii = -sum_j D_ij makes the matrix annihilate
    constants exactly, which keeps perturbation-form computations clean.
    """
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    D = (w[None, :] / w[:, None]) / dx
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def clenshaw_curtis(size: int, length: float) -> Array:
    """Clenshaw-Curtis quadrature weights on [0, length] for cheb_nodes.

    Exact for polynomials up to the grid order; all weights positive.
    """
    n = size - 1
    w = np.zeros(size)
    theta = np.pi * np.arange(1, n) / n
    v = np.ones(n - 1)
    if n % 2 == 0:
        w[0] = w[-1] = 1.0 / (n * n - 1)
        for k in range(1, n // 2):
            v -= 2.0 * np.cos(2.0 * k * theta) / (4.0 * k * k - 1.0)
        v -= np.cos(n * theta) / (n * n - 1.0)
    else:
        w[0] = w[-1] = 1.0 / (n * n)
        for k in range(1, (n - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * k * theta) / (4.0 * k * k - 1.0)
    w[1:-1] = 2.0 * v / n
    return 0.5 * length * w


class Antiderivative:
    """Spectral antiderivative F(x) = int_0^x f on a Lobatto grid.

    Solves D F = f with F(x_0) = 0.  The square subsystem obtained by
    pinning the first node is nonsingular, and the construction is exact
    whenever f is a polynomial of degree below the grid order.
    """

    def __init__(self, D: Array):
        self._lu = lu_factor(D[1:, 1:])

    def __call__(self, f: Array) -> Array:
        F = np.empty_like(np.asarray(f, dtype=float))
        F[0] = 0.0
        F[1:] = lu_solve(self._lu, np.asarray(f, dtype=float)[1:])
        return F


def cheb_transform(size: int) -> tuple[Array, Array]:
    """Analysis/synthesis pair for Chebyshev coefficients on cheb_nodes.

    Returns (C, V) with coeffs = C @ values and values = V @ coeffs, the
    coefficients being taken in T_k of the mapped variable u = 2x/L - 1.
    """
    n = size - 1
    jj = np.arange(size)
    M = np.cos(np.outer(jj, jj) * np.pi / n)  # M[k, j] = T_k at cos(j pi/n)
    c = np.ones(size)
    c[0] = c[-1] = 2.0
    A = (2.0 / n) * M / np.outer(c, c)
    # our increasing grid reverses the standard Lobatto ordering
    # contiguous copies keep the matvecs on the BLAS path
    C = np.ascontiguousarray(A[:, ::-1])
    V = np.ascontiguousarray(M.T[::-1, :])
    return C, V


def bary_interp(x: Array, w: Array, vals: Array, xq) -> Array:
    """Stable barycentric interpolation from grid values to query points."""
    xq_arr = np.atleast_1d(np.asarray(xq, dtype=float))
    diff = xq_arr[:, None] - x[None, :]
    hit = np.abs(diff) < 1e-14
    hit_row, hit_col = np.nonzero(hit)
    miss = ~hit.any(axis=1)
    out = np.empty(len(xq_arr))
    tmp = w[None, :] / diff[miss]
    out[miss] = (tmp @ vals) / tmp.sum(axis=1)
    out[hit_row] = vals[hit_col]
    return out if np.ndim(xq) else float(out[0])


def fourier_nodes(size: int) -> Array:
    """Uniform periodic grid on [0, 1)."""
    return np.arange(size) / size


def fourier_diff(size: int, order: int = 1) -> Array:
    """Dense spectral differentiation matrix for 1-periodic functions."""
    k = np.fft.fftfreq(size, d=1.0 / size)
    mult = (2j * np.pi * k) ** order
    if order % 2 == 1 and size % 2 == 0:
        mult[size // 2] = 0.0  # odd derivative of the sawtooth mode
    eye = np.eye(size)
    return np.real(np.fft.ifft(mult[:, None] * np.fft.fft(eye, axis=0), axis=0))


def fd_derivative(series: Array, h: float) -> Array:
    """Fourth-order derivative along axis 0 of uniformly spaced samples.

    Centered in the interior, one-sided five-point stencils at the ends;
    needs at least five samples.
    """
    y = np.asarray(series, dtype=float)
    if y.shape[0] < 5:
        raise ValueError("fourth-order differences need at least five samples")
    out = np.empty_like(y)
    out[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    out[0] = (-25.0 * y[0] + 48.0 * y[1] - 36.0 * y[2] + 16.0 * y[3] - 3.0 * y[4]) / (12.0 * h)
    out[1] = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[4]) / (12.0 * h)
    out[-2] = (3.0 * y[-1] + 10.0 * y[-2] - 18.0 * y[-3] + 6.0 * y[-4] - y[-5]) / (12.0 * h)
    out[-1] = (25.0 * y[-1] - 48.0 * y[-2] + 36.0 * y[-3] - 16.0 * y[-4] + 3.0 * y[-5]) / (12.0 * h)
    return out
