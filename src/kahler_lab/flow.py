"""Normalized potential-level Ricci flow on the projective model.

The flow evolved here is

    d/dt phi  =  log(w_phi^n / w^n) + phi - f,

with w the round reference (whose Ricci potential f vanishes), so the
round metric is an exact stationary point and the flow preserves the
class volume identically.

The state is the row vector c of the FLOW_MODES leading Chebyshev
coefficients of phi, kept at zero reference mean by the projection Pi.
Its right-hand side is c L + N(c), with L = (I + (P_r + (n-1) P_s) C_m) Pi
the linearization at the round metric (C_m the truncated analysis
operator, P_r and P_s the skinny maps of c to m_x - 1 and m/x - 1 on the
grid) and N(c) = (log(rho) - its linear part) C_m.  L is stiff, so a step
of size h is ETD2RK (Cox & Matthews, J. Comput. Phys. 176, 2002):

    a  =  Pi(c E + N(c) Phi1),    c'  =  Pi(a + (N(a) - N(c)) Phi2),

with E = exp(hL), Phi1 = h phi1(hL) and Phi2 = h phi2(hL) from one matrix
exponential.  N(0) = 0 keeps the round metric a bitwise fixed point.  The
moment profiles give log(rho) and `make_metric`'s cone tests and errors;
a step whose predictor or candidate leaves the cone is retried with a
halved (sticky) step size.

`run_flow` steps one start state, or a (B, N) stack of them, in one
lockstep loop (its docstring states how a stack is stepped, rerun and
returned), and builds every sample of every row in one stacked
`make_metric` at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import NotKahlerError, ParameterError, UnsupportedModelError
from .geometry import MetricState, _rows, check_moment_profile, make_metric

Array = np.ndarray

FLOW_MODES = 24  # Chebyshev coefficients the flow steps
MAX_HALVINGS = 12  # step halvings before a run is truncated
# the [13/13] Pade coefficients of exp, and the 1-norm up to which they are
# accurate to double precision (Higham, SIAM J. Matrix Anal. Appl. 26, 2005)
_PADE13 = np.array([factorial(26 - j) / (factorial(j) * factorial(13 - j)) for j in range(14)])
_THETA13 = 5.371920351148152


@dataclass
class FlowTrajectory:
    """One row's flow: its samples as a stacked metric state with their
    times and volume defects, and how the stepping ended."""

    times: Array
    states: MetricState
    volume_defects: Array
    dt_final: float
    halvings: int
    steps: int
    status: str = "completed"
    reason: str = ""


@dataclass
class FlowStack:
    """The flows of a stacked start, one trajectory per row.  Row r's
    samples are rows offsets[r]:offsets[r + 1] of `states`."""

    rows: list[FlowTrajectory]
    states: MetricState
    offsets: Array

    @property
    def steps(self) -> int:
        return sum(row.steps for row in self.rows)

    @property
    def halvings(self) -> int:
        return sum(row.halvings for row in self.rows)


def run_flow(start: MetricState, dt: float = 0.025, steps: int = 40,
             sample_every: int = 1) -> FlowTrajectory | FlowStack:
    """Integrate the normalized flow from the metric of `start`, or from
    each row of a stacked `start`, for `steps` accepted ETD2RK steps of
    size dt.

    The start potential is projected onto the first FLOW_MODES Chebyshev
    modes and re-centered to zero reference mean.  Samples (metric state,
    volume defect) every `sample_every` accepted steps and at both
    endpoints.  After more than MAX_HALVINGS halvings the trajectory is
    returned truncated, with the reason recorded, rather than raising.

    The rows of a stacked start step in lockstep, sharing the step size,
    time, step count and halving count.  Their coefficients are a (B, 1, K)
    stack, a single start being the one-row stack, and each product takes
    it against a skinny operator, which numpy evaluates as one
    matrix-vector product per row.  The first time any row of a stack of
    two or more leaves the cone, each row is rerun alone, so rows halve and
    truncate independently (a truncated row's reason quotes its own cone
    error).  A stack returns a FlowStack whose steps and halvings are the
    sums over its rows; each row's trajectory equals, field by field and
    bitwise, the FlowTrajectory of that row run alone.

    Raises ParameterError unless dt is positive, steps and sample_every
    are at least 1 and the flow time dt * steps is at most 10.
    """
    bg = start.bg
    if bg.model != "cpn":
        raise UnsupportedModelError("the normalized flow is for the projective model")
    if not (dt > 0.0 and steps >= 1 and sample_every >= 1):
        raise ParameterError(f"need dt > 0 and steps, sample_every >= 1, got "
                             f"dt = {dt}, steps = {steps}, sample_every = {sample_every}")
    if dt * steps > 10.0 + 1e-9:
        raise ParameterError("total flow time must not exceed 10")

    n, size = bg.n, bg.size
    analysis_t, synthesis, profiles_t, mean_row, linear = _operators(bg)

    def recenter(c: Array) -> Array:
        c[..., 0] -= c @ mean_row  # the constant mode
        if not np.isfinite(c).all():
            raise ParameterError("potential contains non-finite values")
        return c

    def remainder(c: Array) -> Array:
        """N(c); raises the error `make_metric` would once a row of c
        leaves the cone."""
        u = c @ profiles_t  # (m_x - 1, m/x - 1)
        if u.min() <= -1.0:
            q = (1.0 + u).reshape(-1, 2 * size)
            check_moment_profile(q[:, :size], q[:, size:])
        u = np.log1p(u) - u
        return (u[..., :size] + (n - 1) * u[..., size:]) @ analysis_t

    E, phi1, phi2 = _etd_operators(linear, dt)
    c = recenter(np.atleast_2d(start.phi)[:, None, :] @ analysis_t)  # (B, 1, K)
    nonlinear = remainder(c)
    samples = [(0.0, c)]
    t, accepted, halvings, status, reason = 0.0, 0, 0, "completed", ""
    while accepted < steps:
        try:
            a = recenter(c @ E + nonlinear @ phi1)
            candidate = recenter(a + (remainder(a) - nonlinear) @ phi2)
            nonlinear_c = remainder(candidate)
        except NotKahlerError as exc:
            if len(c) > 1:
                rows = [run_flow(start[r], dt, steps, sample_every)
                        for r in range(len(start.phi))]
                return FlowStack(rows, MetricState.stack([row.states for row in rows]),
                                 np.cumsum([0] + [len(row.times) for row in rows]))
            halvings += 1
            if halvings > MAX_HALVINGS:
                status = "truncated"
                reason = f"step size collapsed after {MAX_HALVINGS} halvings: {exc}"
                break
            dt *= 0.5  # sticky: the run stays at the smaller step
            E, phi1, phi2 = _etd_operators(linear, dt)
            continue
        c, nonlinear = candidate, nonlinear_c
        t += dt
        accepted += 1
        if accepted % sample_every == 0:
            samples.append((t, c))
    if samples[-1][0] < t - 1e-12 or accepted == 0:
        samples.append((t, c))

    times, coefs = zip(*samples)
    times = np.array(times)
    # each row's samples are consecutive rows of one stacked build
    coefs = np.concatenate(coefs, axis=-2).reshape(-1, c.shape[-1])
    states = make_metric(bg, _rows(synthesis, coefs))
    defects = np.abs(bg.integrate(states.rho) - bg.volume) / bg.volume
    per_row = len(times)
    rows = [FlowTrajectory(times, states[a:a + per_row], defects[a:a + per_row], dt,
                           halvings, accepted, status, reason)
            for a in range(0, len(coefs), per_row)]
    if start.phi.ndim == 1:
        return rows[0]
    return FlowStack(rows, states, np.arange(len(rows) + 1) * per_row)


def _operators(bg) -> tuple[Array, Array, Array, Array, Array]:
    """C_m transposed, the kept modes' synthesis, the map of c to (m_x - 1,
    m/x - 1), the kept modes' reference means and L, for row vectors c."""
    size = bg.size
    analysis_t = bg.cheb_analysis[:FLOW_MODES].T
    synthesis = np.ascontiguousarray(bg.cheb_synthesis[:, :FLOW_MODES])
    # the first `size` columns map c to m_x - 1 = (w0 phi_x)_x, the rest to
    # m/x - 1 = w0 phi_x / x
    profiles_t = np.vstack([bg.D_w0_D @ synthesis,
                            bg.w0_over_x[:, None] * (bg.D @ synthesis)]).T
    mean_row = (bg.ref_measure @ synthesis) / bg.volume
    linear = np.eye(len(mean_row)) + (
        profiles_t[:, :size] + (bg.n - 1) * profiles_t[:, size:]) @ analysis_t
    linear[:, 0] -= linear @ mean_row  # Pi, on each row
    return analysis_t, synthesis, profiles_t, mean_row, linear


def _etd_operators(linear: Array, h: float) -> tuple[Array, Array, Array]:
    """exp(hL), h phi1(hL) and h phi2(hL), the top block row of the
    exponential of [[hL, I, 0], [0, 0, I], [0, 0, 0]]."""
    k = len(linear)
    block = np.zeros((3 * k, 3 * k))
    block[:k, :k] = h * linear
    block[:k, k:2 * k] = block[k:2 * k, 2 * k:] = np.eye(k)
    top = _expm(block)[:k]
    return top[:, :k], h * top[:, k:2 * k], h * top[:, 2 * k:]


def _expm(A: Array) -> Array:
    """exp(A) by scaling and squaring with the [13/13] Pade approximant."""
    squarings = max(0, int(np.frexp(np.linalg.norm(A, 1) / _THETA13)[1]))
    A = A / 2.0 ** squarings
    A2 = A @ A
    P = np.array([np.eye(len(A)), A2, A2 @ A2, A2 @ A2 @ A2])  # the even powers
    U = A @ (P[3] @ np.tensordot(_PADE13[7::2], P, 1) + np.tensordot(_PADE13[1:7:2], P[:3], 1))
    V = P[3] @ np.tensordot(_PADE13[6::2], P, 1) + np.tensordot(_PADE13[0:6:2], P[:3], 1)
    X = np.linalg.solve(V - U, V + U)
    for _ in range(squarings):
        X = X @ X
    return X

