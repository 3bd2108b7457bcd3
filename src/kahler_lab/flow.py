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

with C_m the truncated analysis operator.  Within that subspace the
explicit step is stable for ordinary step sizes, and the stationary point
stays machine-exact.

The grid is touched only through skinny operators built once per call:
the synthesis restricted to the kept modes, composed with the first and
the weighted second derivative, maps the coefficients to m_x and m/x on
the grid.  Those give the right-hand side log(rho) and the positivity
tests of `make_metric`, with its errors.  A candidate that leaves the
admissible cone is retried with a halved (sticky) step size.

`run_flow` takes the MetricState of the start metric and reads the
background from it.  Only the samples build a full metric state on the
grid; a sample keeps that state and its volume defect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotKahlerError, ParameterError, UnsupportedModelError
from .geometry import Background, MetricState, check_moment_profile, make_metric

Array = np.ndarray

FLOW_MODES = 24  # Chebyshev coefficients the flow steps


@dataclass
class FlowSample:
    t: float
    state: MetricState
    volume_defect: float


@dataclass
class FlowTrajectory:
    bg: Background
    samples: list[FlowSample] = field(default_factory=list)
    dt_final: float = 0.0
    halvings: int = 0
    steps: int = 0
    status: str = "completed"
    reason: str = ""

    @property
    def times(self) -> Array:
        return np.array([s.t for s in self.samples])


def run_flow(start: MetricState, dt: float = 1e-3, steps: int = 1000,
             sample_every: int = 25, max_halvings: int = 12) -> FlowTrajectory:
    """Integrate the normalized flow from the metric of `start` for `steps`
    accepted steps of size dt.

    The start potential is projected onto the first FLOW_MODES Chebyshev
    modes and re-centered to zero reference mean.  Samples (metric state,
    volume defect) every `sample_every` accepted steps and at both
    endpoints.  If the step size collapses entirely the trajectory is
    returned truncated, with the reason recorded, rather than raising.
    """
    bg = start.bg
    if bg.model != "cpn":
        raise UnsupportedModelError("the normalized flow is for the projective model")
    if dt > 1e-3 + 1e-15:
        raise ParameterError(f"step size must not exceed 1e-3, got {dt}")
    if dt * steps > 10.0 + 1e-9:
        raise ParameterError("total flow time must not exceed 10")

    n, size = bg.n, bg.size
    analysis = bg.cheb_analysis[:FLOW_MODES]
    synthesis = np.ascontiguousarray(bg.cheb_synthesis[:, :FLOW_MODES])
    # the first `size` rows map c to m_x - 1 = (w0 phi_x)_x, the rest to
    # m/x - 1 = w0 phi_x / x
    profiles = np.vstack([bg.D_w0_D @ synthesis,
                          bg.w0_over_x[:, None] * (bg.D @ synthesis)])
    mean_row = (bg.ref_measure @ synthesis) / bg.volume

    def log_density(c: Array) -> Array:
        """log(rho) of the potential with coefficients c, on the grid.

        Applies the positivity tests of `make_metric`, with the same
        errors, without assembling the rest of the metric state.
        """
        if not np.isfinite(c).all():
            raise ParameterError("potential contains non-finite values")
        q = 1.0 + profiles @ c
        if q.min() <= 0.0:
            check_moment_profile(q[:size], q[size:])
        log_q = np.log(q)
        return log_q[:size] + (n - 1) * log_q[size:]

    traj = FlowTrajectory(bg)

    def record(t: float, c: Array) -> None:
        state = make_metric(bg, synthesis @ c)
        vol = bg.integrate(state.rho)
        traj.samples.append(FlowSample(t, state, abs(vol - bg.volume) / bg.volume))

    c = analysis @ start.phi
    c[0] -= mean_row @ c
    record(0.0, c)
    log_rho = log_density(c)

    t = 0.0
    halvings = 0
    accepted = 0
    while accepted < steps:
        candidate = (1.0 + dt) * c + dt * (analysis @ log_rho)
        candidate[0] -= mean_row @ candidate
        try:
            new_log_rho = log_density(candidate)
        except NotKahlerError as exc:
            halvings += 1
            if halvings > max_halvings:
                traj.status = "truncated"
                traj.reason = f"step size collapsed after {max_halvings} halvings: {exc}"
                break
            dt *= 0.5  # sticky: stay at the smaller step from here on
            continue
        c, log_rho = candidate, new_log_rho
        t += dt
        accepted += 1
        if accepted % sample_every == 0:
            record(t, c)

    if traj.samples[-1].t < t - 1e-12 or accepted == 0:
        record(t, c)
    traj.dt_final = dt
    traj.halvings = halvings
    traj.steps = accepted
    return traj
