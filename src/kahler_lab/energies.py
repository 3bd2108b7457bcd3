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
checkable claim rather than an assumption.  The segment route returns all
of E_0 .. E_n at once: the metrics at one Gauss order's nodes are built as
one stacked state shared by every k, and all k escalate together to the
first order at which every one of them converges.

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
`e_k_closed`, `futaki_k` and `critical_residual` return all k in one
array, k on the leading axis: (n+1,) for one state, (n+1, B) for a stack
of B states, and the grid last for the residual.  `i_and_j` takes stacks
too, and each row of a stacked result is bitwise its state's value alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb

import numpy as np

from .errors import ParameterError, SolverError, UnsupportedModelError
from .geometry import (
    MetricState,
    make_metric,
    laplacian,
    ricci_wedges,
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
class PathEnergies:
    """E_0 .. E_n by time quadrature along one segment: their values, the
    Gauss order at which all of them converged and each one's error
    estimate, its change from the previous order."""

    values: tuple[float, ...]
    intervals: int
    est_errors: tuple[float, ...]


# ---------------------------------------------------------------------------
# path-integral route


@cache
def _gauss_rule(order: int) -> tuple[Array, Array]:
    """Gauss-Legendre nodes and weights on [0, 1], built on first use."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _path_stack(path: str, t: Array, phi: Array) -> tuple[Array, Array]:
    """(phi_t, d/dt phi_t) at the times t of the named segment, one row
    per time (the linear segment's constant rate is a single row)."""
    if path == "linear":
        return t[:, None] * phi, phi
    return (t * t)[:, None] * phi, (2.0 * t)[:, None] * phi


def _ek_integrands(state: MetricState, dot: Array) -> list[Array]:
    """The E_k integrand at every node of a stacked state, for k = 0 .. n."""
    bg = state.bg
    n = bg.n
    lap_dot = laplacian(state, dot)
    # the zero wedge[n + 1] meets the factor n - k = 0 of the k = n term
    wedge = ricci_wedges(state) + [0.0]
    return [((k + 1) * bg.integrate(lap_dot * wedge[k])
             - (n - k) * bg.integrate(dot * (wedge[k + 1] - bg.mu[k] * state.rho)))
            / bg.volume for k in range(n + 1)]


def e_k_path(state: MetricState, path: str) -> PathEnergies:
    """Energies E_0 .. E_n of the state's metric relative to the background
    reference, through the time integral along the named segment.

    Gauss-Legendre on [0, 1] with order escalation: the integrands are
    analytic in the segment parameter, so the rule converges geometrically
    and successive orders act as the error estimate.  Every order's nodes
    are one stacked `make_metric` build shared by all k, and the rule stops
    at the first order at which every k's change from the previous order
    is within GAUSS_TOL.
    """
    if path not in PATHS:
        raise ParameterError(f"unknown path {path!r}; expected one of {PATHS}")
    bg = state.bg
    values = state.phi - bg.reference.phi
    prev = None
    for order in GAUSS_ORDERS:
        nodes, weights = _gauss_rule(order)
        phi_t, dot_t = _path_stack(path, nodes, values)
        s = np.array([weights @ f for f in _ek_integrands(make_metric(bg, phi_t), dot_t)])
        if prev is not None:
            err = np.abs(s - prev)
            if (err <= GAUSS_TOL * np.maximum(1.0, np.abs(s))).all():
                return PathEnergies(tuple(s.tolist()), order, tuple(err.tolist()))
        prev = s
    raise SolverError("time quadrature failed to converge", residual=float(err.max()))


# ---------------------------------------------------------------------------
# closed-form route


def e_k_closed(state: MetricState, ref: MetricState | None = None) -> Array:
    """Energies E_0 .. E_n of the metric of `state` relative to the metric
    of `ref` (the background reference when None), without time
    integration: shape (n+1,), or (n+1, B) for a stack of B states, each
    row bitwise the value of that state alone.

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
    constants the two states' potentials carry.  The last sum is taken
    once for all k.
    """
    bg = state.bg
    if ref is None:
        ref = bg.reference
    n = bg.n
    values = state.phi - ref.phi

    w_ref = slot_metric(ref)
    w_phi = slot_metric(state)
    ric_ref = slot_ricci(ref)
    ric_phi = slot_ricci(state)
    log_ratio = ref.log_rho - state.log_rho

    b = sum(bg.integrate(values * wedge_density(bg, [w_phi] * i + [w_ref] * (n - i)))
            for i in range(n + 1))
    out = []
    for k in range(n + 1):
        terms = [(values, [w_phi] * j + [ric_ref] * (k + 1) + [w_ref] * (n - j - k - 1))
                 for j in range(n - k)]
        terms += [(log_ratio, [ric_phi] * j + [ric_ref] * (k - j) + [w_phi] * (n - k))
                  for j in range(k + 1)]
        a = sum(bg.integrate(f * wedge_density(bg, slots)) for f, slots in terms)
        out.append(-a / bg.volume + (n - k) * bg.mu[k] * b / ((n + 1) * bg.volume))
    return np.array(out)


# ---------------------------------------------------------------------------
# I and J


def _gradient_wedges(state: MetricState, ref: MetricState) -> list[float]:
    """The gradient-square wedges  int i dphi ^ dbar phi ^ w^i ^ w_phi^{n-1-i}
    for i = 0 .. n-1 (not divided by V), with w the metric of `ref`, w_phi
    that of `state` and phi = state.phi - ref.phi."""
    bg = state.bg
    if bg.model != "cpn":
        raise UnsupportedModelError("the gradient wedges live on the projective model")
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


def critical_residual(state: MetricState) -> Array:
    """Residuals of the critical equations for E_0 .. E_n at the state's
    metric, one per k on the leading axis, the grid on the last, and a
    stack's rows between them:

        sigma_{k+1} - Lap sigma_k - C(n, k+1) mu_k

    (the top symmetric function is taken as zero beyond degree n, and the
    binomial factor kills the constant at k = n).  Identically zero at a
    critical metric; exactly zero on the round reference.  Each sigma_j is
    taken once for all k.
    """
    bg = state.bg
    if bg.model != "cpn":
        raise UnsupportedModelError("the critical residual is for the projective model")
    n = bg.n
    sigmas = [sigma_k(state, j) for j in range(n + 1)] + [np.zeros(bg.size)]
    out = []
    for k in range(n + 1):
        # sigma_k of a smooth admissible state is analytic; truncating its
        # coefficient tail keeps the Laplacian from amplifying the roundoff
        # floor of the pointwise curvature eigenvalues
        lap_s = laplacian(state, bg.lowpass(sigmas[k], bg.band))
        const = comb(n, k + 1) * bg.mu[k] if k < n else 0.0
        out.append(sigmas[k + 1] - lap_s - const)
    return np.array(out)


# ---------------------------------------------------------------------------
# Futaki-type invariants and the pullback orbit


def futaki_k(state: MetricState) -> Array:
    """Invariants F_0 .. F_n of the generating rotation field at a metric:
    shape (n+1,), or (n+1, B) for a stack of B states, each row bitwise
    that state's values alone.

    The Hamiltonian is the moment profile of the state, normalized to zero
    average in the state's own volume form:

        F_k = (n-k) int h w_phi^n
              + (k+1) int (Lap h) Ric^k ^ w_phi^{n-k}
              - (n-k) int h Ric^{k+1} ^ w_phi^{n-k-1}

    Lap h, int h w_phi^n and the Ricci wedges are taken once for all k.
    """
    bg = state.bg
    if bg.model != "cpn":
        raise UnsupportedModelError("the rotation field lives on the projective model")
    n = bg.n
    h = state.m - np.asarray(bg.mean(state.m, state.rho))[..., None]
    h_mass = bg.integrate(h * state.rho)
    lap_h = laplacian(state, h)
    wedge = ricci_wedges(state)
    out = []
    for k in range(n + 1):
        total = (n - k) * h_mass + (k + 1) * bg.integrate(lap_h * wedge[k])
        if k < n:
            total -= (n - k) * bg.integrate(h * wedge[k + 1])
        out.append(total)
    return np.array(out)


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
