"""Energy functionals on radial Kahler potentials.

The hierarchy E_0 .. E_n is defined through a path integral over a segment
phi_t joining 0 to phi in the space of admissible potentials:

    E_k(phi) = (k+1)/V  int_0^1 int  (Lap_t d/dt phi_t) Ric_t^k ^ w_t^{n-k} dt
             - (n-k)/V  int_0^1 int  (d/dt phi_t) (Ric_t^{k+1}
                                       - mu_k w_t^{k+1}) ^ w_t^{n-k-1} dt,

where w_t is the metric of phi_t, Ric_t its Ricci form, Lap_t its Laplacian,
and mu_k the class constant normalizing k+1 Ricci factors.  The value is
path independent; this module evaluates it along two different segments
(linear and quadratic time reparametrizations) plus through an equivalent
closed-form expression with no time integration, so independence is a
checkable claim rather than an assumption.

Every functional takes metric states, never bare potentials.  `state` is the
MetricState of the metric w_phi being measured and `ref` the MetricState of
the metric w it is measured from (the background reference when omitted);
the potential between them is  phi = state.phi - ref.phi .  Callers hold
both states already, so no functional rebuilds one.  The two potentials may
carry different additive constants (the bending path stores equation-exact
potentials, for one), and none of that matters: a constant changes no
metric, I and J see phi only through its gradient, and in the closed form of
E_k the two phi-linear sums move by c (n-k) mu_k V and c (n+1) V under
phi -> phi + c, which their prefactors cancel.

Also here: the classical normalized functionals I and J, their difference,
the critical-equation residual sigma_{k+1} - Lap sigma_k - const, the
degree-k Futaki-type invariants of the generating holomorphic field, the
one-parameter pullback orbit of that field, and the explicit nonnegative
closed form the k = 1 energy reduces to on the Ricci-flat torus model.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ParameterError, SolverError, UnsupportedModelError
from .geometry import (
    Background,
    MetricState,
    make_metric,
    laplacian,
    sigma_k,
    slot_gradsq,
    slot_metric,
    slot_ricci,
    wedge_density,
)

Array = np.ndarray

PATHS = ("linear", "quadratic")
GAUSS_ORDERS = (24, 48, 96, 192, 384)   # time-quadrature escalation
GAUSS_TOL = 1e-10                       # relative change that stops it


@dataclass
class EnergyValue:
    """Energy by time quadrature: converged Gauss order and error estimate."""

    value: float
    intervals: int
    est_error: float


def mu_k(bg: Background, k: int) -> float:
    """Class constant: (1/V) integral of k+1 Ricci factors wedged against
    n-k-1 metric factors.  Computed once per background from the reference."""
    _check_k(bg, k)
    return bg.mu[k]


def _check_k(bg: Background, k: int) -> None:
    if not 0 <= k <= bg.n:
        raise ParameterError(f"energy index must lie in [0, {bg.n}], got {k}")


# ---------------------------------------------------------------------------
# path-integral route


def _path_point(path: str, t: float, phi: Array) -> tuple[Array, Array]:
    """(phi_t, d/dt phi_t) for the named segment."""
    if path == "linear":
        return t * phi, phi
    if path == "quadratic":
        return (t * t) * phi, (2.0 * t) * phi
    raise ParameterError(f"unknown path {path!r}; expected one of {PATHS}")


def _ek_integrand(bg: Background, state: MetricState, dot: Array, k: int,
                  mu: float) -> float:
    n = bg.n
    lap_dot = laplacian(state, dot)
    ric = slot_ricci(state)
    met = slot_metric(state)
    d1 = wedge_density(bg, [ric] * k + [met] * (n - k))
    first = (k + 1) * bg.integrate(lap_dot * d1)
    if k == n:
        return first / bg.volume
    d2 = wedge_density(bg, [ric] * (k + 1) + [met] * (n - k - 1))
    second = (n - k) * bg.integrate(dot * (d2 - mu * state.rho))
    return (first - second) / bg.volume


def _gauss_adaptive(f) -> tuple[float, int, float]:
    """Gauss-Legendre on [0, 1] with order escalation.

    The integrands here are analytic in the segment parameter, so the
    rule converges geometrically; successive orders act as the error
    estimate.
    """
    prev = None
    err = float("inf")
    for m in GAUSS_ORDERS:
        nodes, weights = np.polynomial.legendre.leggauss(m)
        nodes = 0.5 * (nodes + 1.0)
        weights = 0.5 * weights
        s = float(sum(w * f(t) for t, w in zip(nodes, weights)))
        if prev is not None:
            err = abs(s - prev)
            if err <= GAUSS_TOL * max(1.0, abs(s)):
                return s, m, err
        prev = s
    raise SolverError("time quadrature failed to converge", residual=err)


def e_k_path(state: MetricState, k: int, path: str = "linear") -> EnergyValue:
    """Energy E_k of the state's metric relative to the background
    reference, through the time integral along the named segment."""
    bg = state.bg
    _check_k(bg, k)
    values = state.phi - bg.reference.phi
    mu = mu_k(bg, k)

    def integrand(t: float) -> float:
        phi_t, dot_t = _path_point(path, t, values)
        return _ek_integrand(bg, make_metric(bg, phi_t), dot_t, k, mu)

    total, order, err = _gauss_adaptive(integrand)
    return EnergyValue(total, order, err)


# ---------------------------------------------------------------------------
# closed-form route


def e_k_closed(state: MetricState, k: int,
               ref: MetricState | None = None) -> float:
    """Energy E_k of the metric of `state` relative to the metric of `ref`
    (the background reference when None), without time integration.

    With w the metric of `ref`, w_phi that of `state`, phi = state.phi -
    ref.phi and L = log(w^n / w_phi^n):

        E_k = -(1/V) [  sum_{j=0}^{n-k-1} int phi  w_phi^j ^ Ric(w)^{k+1}
                                                   ^ w^{n-j-k-1}
                      + sum_{j=0}^{k}     int L  Ric(w_phi)^j ^ Ric(w)^{k-j}
                                                   ^ w_phi^{n-k} ]
              + (n-k) mu_k / ((n+1) V)  sum_{i=0}^{n} int phi  w_phi^i ^ w^{n-i}

    Each wedge in the phi-linear sums integrates to a class constant, so a
    constant c added to phi moves the first sum by c (n-k) mu_k V and the
    last by c (n+1) V, and the two cancel: the value does not depend on the
    constants the two states' potentials carry.
    """
    bg = state.bg
    _check_k(bg, k)
    if ref is None:
        ref = bg.reference
    n = bg.n
    values = state.phi - ref.phi
    mu = mu_k(bg, k)

    w_ref = slot_metric(ref)
    w_phi = slot_metric(state)
    ric_ref = slot_ricci(ref)
    ric_phi = slot_ricci(state)
    log_ratio = ref.log_rho - state.log_rho

    a = 0.0
    for j in range(n - k):
        slots = [w_phi] * j + [ric_ref] * (k + 1) + [w_ref] * (n - j - k - 1)
        a += bg.integrate(values * wedge_density(bg, slots))
    for j in range(k + 1):
        slots = [ric_phi] * j + [ric_ref] * (k - j) + [w_phi] * (n - k)
        a += bg.integrate(log_ratio * wedge_density(bg, slots))

    b = 0.0
    for i in range(n + 1):
        slots = [w_phi] * i + [w_ref] * (n - i)
        b += bg.integrate(values * wedge_density(bg, slots))

    return -a / bg.volume + (n - k) * mu * b / ((n + 1) * bg.volume)


# ---------------------------------------------------------------------------
# I and J


def _gradient_wedges(state: MetricState, ref: MetricState) -> list[float]:
    """The gradient-square wedges  int i dphi ^ dbar phi ^ w^i ^ w_phi^{n-1-i}
    for i = 0 .. n-1 (not divided by V), with w the metric of `ref`, w_phi
    that of `state` and phi = state.phi - ref.phi."""
    bg = state.bg
    n = bg.n
    w_ref = slot_metric(ref)
    w_phi = slot_metric(state)
    grad = slot_gradsq(bg, state.phi - ref.phi)
    return [bg.integrate(wedge_density(
        bg, [grad] + [w_ref] * i + [w_phi] * (n - 1 - i))) for i in range(n)]


def i_and_j(state: MetricState,
            ref: MetricState | None = None) -> tuple[float, float, float]:
    """The normalized functionals (I, J, I - J) of the metric of `state`
    relative to the metric of `ref` (the background reference when None).

    I is the sum over i of the gradient-square wedge against w^i ^
    w_phi^{n-1-i}; J carries weights (i+1)/(n+1), and I - J is evaluated
    with its own weights (n-i)/(n+1) rather than by subtraction.
    """
    bg = state.bg
    if ref is None:
        ref = bg.reference
    n = bg.n
    i_val = j_val = imj_val = 0.0
    for i, q in enumerate(_gradient_wedges(state, ref)):
        i_val += q
        j_val += q * (i + 1) / (n + 1)
        imj_val += q * (n - i) / (n + 1)
    v = bg.volume
    return i_val / v, j_val / v, imj_val / v


# ---------------------------------------------------------------------------
# critical-equation residual


def critical_residual(state: MetricState, k: int) -> Array:
    """Residual of the critical equation for E_k at the state's metric:

        sigma_{k+1} - Lap sigma_k - C(n, k+1) mu_k

    (the top symmetric function is taken as zero beyond degree n, and the
    binomial factor kills the constant at k = n).  Identically zero at a
    critical metric; exactly zero on the round reference.
    """
    bg = state.bg
    _check_k(bg, k)
    n = bg.n
    s_next = sigma_k(state, k + 1) if k < n else np.zeros(bg.size)
    # sigma_k of a smooth admissible state is analytic; truncating its
    # coefficient tail keeps the Laplacian from amplifying the roundoff
    # floor of the pointwise curvature eigenvalues
    smooth = bg.lowpass(sigma_k(state, k), bg.band)
    lap_s = laplacian(state, smooth)
    const = comb(n, k + 1) * mu_k(bg, k) if k < n else 0.0
    return s_next - lap_s - const


# ---------------------------------------------------------------------------
# Futaki-type invariants and the pullback orbit


def futaki_k(state: MetricState, k: int) -> float:
    """Degree-k invariant of the generating rotation field at a metric.

    The Hamiltonian is the moment profile of the state, normalized to zero
    average in the state's own volume form:

        F_k = (n-k) int h w_phi^n
              + (k+1) int (Lap h) Ric^k ^ w_phi^{n-k}
              - (n-k) int h Ric^{k+1} ^ w_phi^{n-k-1}
    """
    bg = state.bg
    _check_k(bg, k)
    if bg.model != "cpn":
        raise UnsupportedModelError("the rotation field lives on the projective model")
    n = bg.n
    h = state.m - bg.mean(state.m, state.rho)

    ric = slot_ricci(state)
    met = slot_metric(state)
    total = (n - k) * bg.integrate(h * state.rho)
    d1 = wedge_density(bg, [ric] * k + [met] * (n - k))
    total += (k + 1) * bg.integrate(laplacian(state, h) * d1)
    if k < n:
        d2 = wedge_density(bg, [ric] * (k + 1) + [met] * (n - k - 1))
        total -= (n - k) * bg.integrate(h * d2)
    return total


def orbit_potential(base: MetricState, s: float) -> Array:
    """Potential of the pullback of the metric of `base` under the time-s
    rotation flow, relative to the background reference.

    In the cylinder variable the flow is the shift t -> t + s; the
    background potential transforms by (n+1)(softplus(t+s) - softplus(t))
    and the perturbation composes with the shifted moment coordinate, so
    the result is that shift term plus `base.phi` evaluated at the moved
    points.
    """
    bg = base.bg
    if bg.model != "cpn":
        raise UnsupportedModelError("the rotation orbit lives on the projective model")
    values = base.phi
    length = bg.length
    x = bg.x

    out = np.empty(bg.size)
    interior = slice(1, bg.size - 1)
    xi = x[interior]
    t = np.log(xi) - np.log(length - xi)
    base = length * (np.logaddexp(0.0, t + s) - np.logaddexp(0.0, t))
    x_shift = length / (1.0 + np.exp(-(t + s)))
    out[interior] = base + bg.interp(values, x_shift)
    out[0] = values[0]
    out[-1] = length * s + values[-1]
    return out


# ---------------------------------------------------------------------------
# torus closed form


def e1_cy(state: MetricState) -> float:
    """Closed form of the k = 1 energy on the Ricci-flat torus model,
    relative to the flat reference: the integral of the squared derivative
    of the log volume ratio.  Manifestly nonnegative."""
    bg = state.bg
    if bg.model != "torus":
        raise UnsupportedModelError("closed form specific to the flat model")
    slope = bg.D @ state.log_rho
    return bg.integrate(slope * slope)
