"""Normalized potential-level Ricci flow on the projective model.

The flow evolved here is

    d/dt phi  =  log(w_phi^n / w^n) + phi - f,

with w the round reference (whose Ricci potential f vanishes), so the
round metric is an exact stationary point and the flow preserves the
class volume identically.

Explicit time stepping at full collocation resolution is hopeless -- the
spectral Laplacian carries eigenvalues growing like the fourth power of
the grid size -- so the flow lives in a fixed low-order subspace: the
state is the vector of the FLOW_MODES leading Chebyshev coefficients of
phi, and each explicit Euler step updates those coefficients directly,

    c'  =  (1 + dt) c + dt C_m log(rho),    c'[0] -= <reference mean of c'>,

with C_m the truncated analysis operator.  The stationary point stays
machine-exact.  The step size is capped at MAX_DT = 5e-3, inside the
explicit Euler stability bound 2/|lambda_min|, with lambda_min the most
negative eigenvalue of the flow's linearization at the round metric in
the FLOW_MODES modes.  The bound rises with n and is smallest at n = 1,
about 0.0073.  It is a bound near the round metric only: a start farther
out relies on step halving once a candidate leaves the cone.

The grid is touched only through skinny operators built once per call:
the synthesis restricted to the kept modes, composed with the first and
the weighted second derivative, maps the coefficients to m_x and m/x on
the grid.  Those give the right-hand side log(rho) and the positivity
tests of `make_metric`, with its errors.  A candidate that leaves the
admissible cone is retried with a halved (sticky) step size.

`run_flow` takes the MetricState of one start metric, or a (B, N) stack
of them, and steps every row through one lockstep loop; its docstring
states how a stack is stepped, rerun and returned.  Only the samples
build full metric states on the grid, every sample of every row in one
stacked `make_metric` at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotKahlerError, ParameterError, UnsupportedModelError
from .geometry import MetricState, _rows, check_moment_profile, make_metric

Array = np.ndarray

FLOW_MODES = 24  # Chebyshev coefficients the flow steps
MAX_DT = 5e-3    # inside the explicit stability bound of those modes at the round metric
MAX_HALVINGS = 12  # step halvings before a run is truncated


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


def run_flow(start: MetricState, dt: float = 1e-3, steps: int = 1000,
             sample_every: int = 25) -> FlowTrajectory | FlowStack:
    """Integrate the normalized flow from the metric of `start`, or from
    each row of a stacked `start`, for `steps` accepted steps of size dt.

    The start potential is projected onto the first FLOW_MODES Chebyshev
    modes and re-centered to zero reference mean.  dt may not exceed
    MAX_DT, nor dt * steps the flow time 10.  MAX_DT lies inside the
    explicit Euler stability bound of the flow linearized at the round
    metric, for every n; that bound covers starts near the round metric,
    and a start farther out relies on the step halving below once a
    candidate leaves the cone.  Samples (metric state, volume defect) every
    `sample_every` accepted steps and at both endpoints.  After more than
    MAX_HALVINGS halvings the trajectory is returned truncated, with the
    reason recorded, rather than raising.

    The rows of a stacked start step in lockstep, sharing the step size,
    time, step count and halving count.  Their coefficients are a (B, 1, K)
    stack (a single start keeps its (K,) vector), and each product takes it
    against a transposed view of a skinny operator, which numpy evaluates
    as one matrix-vector product per row, the product a single start
    makes.  The first time any row leaves the cone, each row is rerun
    alone, so rows halve and truncate independently (a truncated row's
    reason quotes its own cone error).  A stack returns a FlowStack whose
    steps and halvings are the sums over its rows; each row's trajectory
    equals, field by field and bitwise, the FlowTrajectory of that row run
    alone.

    Raises ParameterError unless dt is positive, steps and sample_every
    are at least 1 and the limits above hold.
    """
    bg = start.bg
    if bg.model != "cpn":
        raise UnsupportedModelError("the normalized flow is for the projective model")
    if not (0.0 < dt <= MAX_DT + 1e-15 and steps >= 1 and sample_every >= 1):
        raise ParameterError(f"need 0 < dt <= {MAX_DT:g} and steps, sample_every >= 1, got "
                             f"dt = {dt}, steps = {steps}, sample_every = {sample_every}")
    if dt * steps > 10.0 + 1e-9:
        raise ParameterError("total flow time must not exceed 10")

    n, size = bg.n, bg.size
    analysis_t = bg.cheb_analysis[:FLOW_MODES].T
    synthesis = np.ascontiguousarray(bg.cheb_synthesis[:, :FLOW_MODES])
    # the first `size` rows map c to m_x - 1 = (w0 phi_x)_x, the rest to
    # m/x - 1 = w0 phi_x / x
    profiles_t = np.vstack([bg.D_w0_D @ synthesis,
                            bg.w0_over_x[:, None] * (bg.D @ synthesis)]).T
    mean_row = (bg.ref_measure @ synthesis) / bg.volume

    def recenter(c: Array) -> Array:
        c.T[0] -= (c @ mean_row).T  # the constant mode, a scalar for one start
        if not np.isfinite(c).all():
            raise ParameterError("potential contains non-finite values")
        return c

    def log_density(q: Array) -> Array:
        """log(rho) from the moment profiles q = (m_x, m/x) of admissible
        rows, overwriting q."""
        log_q = np.log(q, out=q)
        return log_q[..., :size] + (n - 1) * log_q[..., size:]

    # coefficients are (K,) for a single start and (B, 1, K) for a stack
    stacked = start.phi.ndim == 2
    phi0 = start.phi[:, None, :] if stacked else start.phi
    c = recenter(phi0 @ analysis_t)
    q = 1.0 + c @ profiles_t
    if q.min() <= 0.0:
        raise _cone_error(q, size)
    log_rho = log_density(q)
    samples = [(0.0, c)]
    t, accepted, halvings, status, reason = 0.0, 0, 0, "completed", ""
    while accepted < steps:
        candidate = recenter((1.0 + dt) * c + dt * (log_rho @ analysis_t))
        q = 1.0 + candidate @ profiles_t
        if q.min() <= 0.0:
            if stacked:
                rows = [run_flow(start[r], dt, steps, sample_every)
                        for r in range(len(start.phi))]
                return FlowStack(rows, MetricState.stack([row.states for row in rows]),
                                 np.cumsum([0] + [len(row.times) for row in rows]))
            halvings += 1
            if halvings > MAX_HALVINGS:
                status = "truncated"
                reason = (f"step size collapsed after {MAX_HALVINGS} halvings: "
                          f"{_cone_error(q, size)}")
                break
            dt *= 0.5  # sticky: the run stays at the smaller step
            continue
        c, log_rho = candidate, log_density(q)
        t += dt
        accepted += 1
        if accepted % sample_every == 0:
            samples.append((t, c))
    if samples[-1][0] < t - 1e-12 or accepted == 0:
        samples.append((t, c))

    times, coefs = zip(*samples)
    times = np.array(times)
    # each row's samples are consecutive rows of one stacked build
    coefs = np.stack(coefs, axis=-2).reshape(-1, c.shape[-1])
    states = make_metric(bg, _rows(synthesis, coefs))
    defects = np.abs(bg.integrate(states.rho) - bg.volume) / bg.volume
    if not stacked:
        return FlowTrajectory(times, states, defects, dt, halvings, accepted,
                              status, reason)
    per_row = len(times)
    rows = [FlowTrajectory(times, states[a:a + per_row], defects[a:a + per_row], dt,
                           halvings, accepted) for a in range(0, len(coefs), per_row)]
    return FlowStack(rows, states, np.arange(len(rows) + 1) * per_row)


def _cone_error(q: Array, size: int) -> NotKahlerError:
    """The error `make_metric` raises for the moment profiles q = (m_x, m/x)
    of the rows of a start or candidate, some row of which leaves the cone."""
    rows = q.reshape(-1, 2 * size)
    try:
        check_moment_profile(rows[:, :size], rows[:, size:])
    except NotKahlerError as exc:
        return exc
