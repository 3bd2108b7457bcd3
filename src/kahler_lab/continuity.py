"""Two Monge-Ampere continuity paths and their verification suites.

Both paths start from a radial reference metric w with normalized Ricci
potential f, and are parametrized by t in [0, 1]:

* the bending path          w_phi_t^n = e^{f - t phi_t} w^n,
  which deforms the Ricci condition Ric = t w_phi + (1-t) w and ends, when
  it reaches t = 1, at an Einstein metric;

* the prescribed-volume path  w_psi_t^n = e^{t f + c_t} w^n,
  which needs no iteration at all (each t is a monotone moment inversion)
  and ends at the metric whose Ricci form equals w.

The bending path is solved by damped fixed-point sweeps with a Newton
finisher on (Lap + t I).  At t = 1 that linearization has a one-dimensional
kernel, the rotation potential u = m - n of the endpoint metric, so the
t = 1 equation alone leaves the solution free along u.  The endpoint solve
fixes that direction by the gauge  int phi_1 u w_1^n = 0 : differentiating
the path equation gives (Lap_t + t) d/dt phi = -phi_t, which at t = 1 is
solvable only when phi_1 is orthogonal to u, so the gauge selects the limit
of the path.  Failed steps trigger internal substepping; reported points
always stay on the requested uniform grid, and a path that cannot reach the
requested end is returned truncated with a stall record rather than raising.

The solvers take the MetricState of the reference metric (a probe, say)
and read the background from it; the trajectory keeps that same state as
`ref_state`, and every path point carries the state its solve built.
`ricci_positive_generator` likewise takes a state and returns the state of
its output metric.

The verification suites turn the structural facts of these paths --
derivative identities, eigenvalue bounds, monotone quantities, endpoint
energy identities and inequalities -- into CheckItem rows.  They read the
states and the per-point `path_monitors` rows the caller already holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np
import scipy.linalg

from .checks import CheckItem
from .errors import (
    GeneratorError,
    NotKahlerError,
    ParameterError,
    SolverError,
    UnsupportedModelError,
)
from .geometry import (
    Background,
    MetricState,
    laplacian,
    laplacian_matrix,
    make_metric,
    osc,
    potential_from_density,
    ricci_potential,
    slot_hessian,
    slot_metric,
    wedge_density,
)
from .energies import _gradient_wedges, e_k_closed, i_and_j
from . import spectral

Array = np.ndarray

# bending solve: fixed-point sweeps, Newton iterations, residual and gauge
# tolerance, and the smallest internal substep before a path stalls
PICARD_ITERS = 50
NEWTON_ITERS = 40
NEWTON_TOL = 1e-11
MIN_SUBSTEP = 1e-4

# tolerances of the verification suites
RATE_TOL = 1e-5         # differentiated path equations
RICCI_TOL = 1e-6        # bent Ricci identity
LAMBDA1_SLACK = 1e-6    # first eigenvalue against the path parameter
IDENTITY_TOL = 1e-5     # endpoint, two-time and bridge energy identities
ENDPOINT_SLACK = 1e-7   # sign of the prescribed-path endpoint energy
BOUND_SLACK = 1e-7      # growth bounds along the bending path
T_PAIR = (0.2, 0.8)     # times of the two-time identity


@dataclass
class PathPoint:
    t: float
    phi: Array          # reference-mean-zero representative
    c_t: float          # constant making phi + c_t solve the equation exactly
    state: MetricState
    iterations: int = 0
    residual: float = 0.0

    @property
    def phi_exact(self) -> Array:
        """The equation-exact potential (mean-zero part plus its constant)."""
        return self.phi + self.c_t


@dataclass
class Termination:
    status: str           # "completed" | "stalled"
    t_last: float
    reason: str = ""


@dataclass
class PathTrajectory:
    kind: str             # "bending" | "prescribed"
    bg: Background
    ref_state: MetricState
    f: Array
    points: list[PathPoint] = field(default_factory=list)
    termination: Termination | None = None

    @property
    def completed(self) -> bool:
        return self.termination is not None and self.termination.status == "completed"

    @property
    def ts(self) -> Array:
        return np.array([p.t for p in self.points])

    @property
    def dt(self) -> float:
        if len(self.points) < 2:
            raise SolverError("trajectory has fewer than two points")
        return self.points[1].t - self.points[0].t

    def stacked_exact(self) -> Array:
        return np.stack([p.phi_exact for p in self.points])

    def exact_rate(self) -> Array:
        """Time derivative of the equation-exact potential on the grid."""
        return spectral.fd_derivative(self.stacked_exact(), self.dt)


# ---------------------------------------------------------------------------
# first nonzero eigenvalue of the metric Laplacian


def lambda1_radial(state: MetricState) -> float:
    """Smallest nonzero eigenvalue of minus the Laplacian of the state.

    Rayleigh-Ritz on the symmetric Dirichlet form: stiffness D^T W D with
    the metric-weighted quadrature W and the state's volume weights as
    mass, both projected onto the span of the Chebyshev polynomials of the
    grid's resolved band (`Background.band`) in the moment coordinate.
    Restricting to smooth trial functions excludes the grid's
    weight-degenerate directions -- the full-grid form is rank deficient
    near the coordinate pole -- while the smooth eigenfunctions of the
    reduced problem converge spectrally.  Constants lie in the trial
    space, so the projected pencil has exactly one zero eigenvalue and the
    first physical one is next.  Projective model only.
    """
    bg = state.bg
    if bg.model != "cpn":
        raise UnsupportedModelError("the radial eigenvalue is for the projective model")
    wdiag = bg.ref_measure * bg.w0 * state.m_over_x ** (bg.n - 1)
    mass = bg.ref_measure * state.rho
    s = np.clip(2.0 * bg.x / bg.length - 1.0, -1.0, 1.0)
    B = np.cos(np.arccos(s)[:, None] * np.arange(bg.band)[None, :])
    dB = bg.D @ B
    A_m = dB.T @ (wdiag[:, None] * dB)
    M_m = B.T @ (mass[:, None] * B)
    evals = scipy.linalg.eigh(
        0.5 * (A_m + A_m.T), 0.5 * (M_m + M_m.T), eigvals_only=True)
    return float(evals[1])


# ---------------------------------------------------------------------------
# the prescribed-volume path (direct inversion at every t)


def _ref_mean(bg: Background, values: Array, rho_ref: Array) -> float:
    return float((bg.ref_measure * rho_ref) @ values) / bg.volume


def solve_yau_path(ref_state: MetricState, dt: float = 0.02) -> PathTrajectory:
    """Solve the prescribed-volume path from the metric of `ref_state` on a
    uniform grid in t over [0, 1].

    Every point is a single monotone moment inversion; the path always
    completes.  Stored potentials have zero reference mean; the recorded
    c_t makes the volume identity exact.
    """
    bg = ref_state.bg
    theta = ref_state.phi
    f, _ = ricci_potential(ref_state)

    traj = PathTrajectory("prescribed", bg, ref_state, f)
    steps = int(round(1.0 / dt))
    for i in range(steps + 1):
        t = i * dt
        mass = float(bg.ref_measure @ (np.exp(t * f) * ref_state.rho))
        c_t = -np.log(mass / bg.volume)
        density = np.exp(t * f + c_t) * ref_state.rho
        total = potential_from_density(bg, density, polish=1)
        psi = total - theta
        psi = psi - _ref_mean(bg, psi, ref_state.rho)
        state = make_metric(bg, theta + psi)
        traj.points.append(PathPoint(t, psi, float(c_t), state))
    traj.termination = Termination("completed", traj.points[-1].t)
    return traj


# ---------------------------------------------------------------------------
# the bending path (fixed point + Newton, with substepping)


def _solve_bending_t(ref_state: MetricState, f: Array, t: float, guess: Array):
    """Solve the bending equation at fixed t > 0 from a warm start.

    At t = 1, Lap + I is singular along u = m - n, and the Newton step
    solves the bordered system  [J u; l^T 0] [delta; mu] = [-R; -l.phi]
    with l = u w^n, imposing  int phi u w^n = 0 : the solvability condition
    of the differentiated equation at t = 1, which makes the solution the
    limit of the path.  The solve returns only once both the residual and
    that gauge defect are within NEWTON_TOL.

    Each accepted Newton iterate's state is the one its admissibility test
    built.  Returns (phi_tilde, state, iterations, residual), where the
    iterations count the fixed-point sweeps plus the Newton steps, or raises
    SolverError.
    """
    bg = ref_state.bg
    theta = ref_state.phi
    log_rho_ref = ref_state.log_rho
    phi = guess.copy()
    iters = 0
    beta = 0.5
    prev_step = np.inf
    for _ in range(PICARD_ITERS):
        iters += 1
        density = np.exp(f + log_rho_ref - t * phi)
        density *= bg.volume / float(bg.ref_measure @ density)
        total = potential_from_density(bg, density)
        candidate = total - theta
        # re-attach the constant the mass normalization absorbed
        mass = float(bg.ref_measure @ (np.exp(f - t * candidate) * ref_state.rho))
        candidate = candidate + np.log(mass / bg.volume) / t
        step = float(np.abs(candidate - phi).max())
        if step > prev_step:
            beta = max(0.05, 0.5 * beta)
        prev_step = step
        phi = (1.0 - beta) * phi + beta * candidate
        if step < 1e-4:
            break

    endpoint = abs(t - 1.0) < 1e-12
    try:
        state = make_metric(bg, theta + phi)
    except NotKahlerError as exc:
        raise SolverError(f"left the admissible cone during solve: {exc}", t=t)
    for _ in range(NEWTON_ITERS):
        R = state.log_rho - log_rho_ref - f + t * phi
        res = float(np.abs(R).max())
        gauge = 0.0
        if endpoint:
            u = state.m - bg.moment_mean
            ell = bg.ref_measure * state.rho * u
            gauge = float(ell @ phi)
        if res <= NEWTON_TOL and abs(gauge) <= NEWTON_TOL:
            return phi, state, iters, res
        iters += 1
        J = laplacian_matrix(state) + t * np.eye(bg.size)
        if endpoint:
            # J is singular along u: border it with u as an extra unknown
            # and the gauge ell . phi = 0 as an extra equation
            K = np.block([[J, u[:, None]], [ell[None, :], np.zeros((1, 1))]])
            delta = np.linalg.solve(K, np.append(-R, -gauge))[:-1]
        else:
            delta = np.linalg.solve(J, -R)
        # backtrack if the full step leaves the admissible cone
        scale = 1.0
        for _ in range(8):
            trial = phi + scale * delta
            try:
                state = make_metric(bg, theta + trial)
                break
            except NotKahlerError:
                scale *= 0.5
        else:
            raise SolverError("Newton step cannot stay admissible", t=t, residual=res)
        phi = trial

    raise SolverError("Newton did not converge", t=t, residual=res)


def solve_aubin_path(ref_state: MetricState, dt: float = 0.02) -> PathTrajectory:
    """March the bending path from the metric of `ref_state` over a uniform
    reported grid in t over [0, 1].

    Internal substeps (not reported) bridge hard stretches; if progress
    stalls below MIN_SUBSTEP the trajectory is returned truncated with a
    stall record.
    """
    bg = ref_state.bg
    theta = ref_state.phi
    f, _ = ricci_potential(ref_state)
    rho_ref = ref_state.rho

    traj = PathTrajectory("bending", bg, ref_state, f)

    # t = 0: direct inversion; the constant is fixed by smooth continuation
    # (zero weighted mean of the exact potential against e^f w^n)
    density0 = np.exp(f) * rho_ref
    total0 = potential_from_density(bg, density0, polish=1)
    phi0 = total0 - theta
    phi0 = phi0 - _ref_mean(bg, phi0, rho_ref)
    weight = bg.ref_measure * np.exp(f) * rho_ref
    c0 = -float(weight @ phi0) / float(weight.sum())
    state0 = make_metric(bg, theta + phi0)
    traj.points.append(PathPoint(0.0, phi0, c0, state0))

    steps = int(round(1.0 / dt))
    # (t_a, tilde_a) is the most recent solved point, (t_b, tilde_b) the one
    # before it; both feed the linear warm-start extrapolation
    t_a, tilde_a = 0.0, phi0 + c0
    t_b = tilde_b = None
    for i in range(1, steps + 1):
        t_target = i * dt
        sub = t_target - t_a
        while t_a < t_target - 1e-12:
            t_try = min(t_a + sub, t_target)
            if tilde_b is not None:
                slope = (tilde_a - tilde_b) / (t_a - t_b)
                guess = tilde_a + slope * (t_try - t_a)
            else:
                guess = tilde_a
            try:
                tilde_new, state, iters, res = _solve_bending_t(
                    ref_state, f, t_try, guess)
            except SolverError as exc:
                sub *= 0.5
                if sub < MIN_SUBSTEP:
                    traj.termination = Termination(
                        "stalled", traj.points[-1].t,
                        f"no progress past t = {t_a:.6f}: {exc}")
                    return traj
                continue
            t_b, tilde_b = t_a, tilde_a
            t_a, tilde_a = t_try, tilde_new

        c_t = _ref_mean(bg, tilde_a, rho_ref)
        phi = tilde_a - c_t
        traj.points.append(PathPoint(t_target, phi, float(c_t), state, iters, res))

    traj.termination = Termination("completed", traj.points[-1].t)
    return traj


# ---------------------------------------------------------------------------
# positivity transport


def ricci_positive_generator(state: MetricState) -> MetricState:
    """The state of a metric with positive Ricci curvature, made from the
    metric of `state`.

    One full prescribed-volume step turns the metric into the one whose
    Ricci form IS the input metric, hence strictly positive for any
    admissible input.  Raises GeneratorError if the output curvature is
    not positive.
    """
    bg = state.bg
    f, _ = ricci_potential(state)
    out = make_metric(bg, potential_from_density(bg, np.exp(f) * state.rho, polish=2))
    if out.min_ricci <= 0.0:
        raise GeneratorError("transport step failed to reach positive curvature",
                             out.min_ricci)
    return out


# ---------------------------------------------------------------------------
# monitors


def monitor_row(t: float, c_t: float, state: MetricState,
                ref: MetricState | None = None) -> dict:
    """Scalar diagnostics of one metric state: every energy, I, J, first
    eigenvalue, curvature minimum.  Energies, I and J are relative to the
    state `ref` (the background reference when None)."""
    row = {"t": t, "c_t": c_t}
    for k in range(state.bg.n + 1):
        row[f"E_{k}"] = e_k_closed(state, k, ref)
    row["I"], row["J"], row["I_minus_J"] = i_and_j(state, ref)
    row["lambda1_radial"] = lambda1_radial(state)
    row["min_ricci"] = state.min_ricci
    return row


def path_monitors(traj: PathTrajectory) -> list[dict]:
    """Per-point `monitor_row`s, energies relative to the path's own
    reference."""
    return [monitor_row(p.t, p.c_t, p.state, traj.ref_state) for p in traj.points]


def _simpson_uniform(values, dt: float) -> float:
    """Composite Simpson on uniform samples, as scipy.integrate.simpson.

    An odd number of points is plain composite Simpson.  Two points use the
    trapezoid rule.  Any other even number applies Simpson to all points but
    the last and closes the last interval with the three-point correction
    h (5/12 y[-1] + 2/3 y[-2] - 1/12 y[-3]).
    """
    y = np.asarray(values, dtype=float)
    if len(y) == 2:
        return float(0.5 * dt * (y[0] + y[1]))
    odd = y if len(y) % 2 else y[:-1]
    total = np.sum(odd[:-2:2] + 4.0 * odd[1:-1:2] + odd[2::2]) * (dt / 3.0)
    if len(y) % 2 == 0:
        total += dt * (5.0 / 12.0 * y[-1] + 2.0 / 3.0 * y[-2] - 1.0 / 12.0 * y[-3])
    return float(total)


def _rate_residual(traj: PathTrajectory, rate: Array, rhs) -> float:
    """Largest residual of a differentiated path equation  Lap r = rhs(idx, r)
    over the path's points, with r the time derivative `rate` truncated to the
    resolved band: the derivative is exact to O(dt^4) but carries the
    solver's noise floor in its top coefficients, which the smooth rate of
    an analytic-in-t path does not have."""
    bg = traj.bg
    worst = 0.0
    for idx, p in enumerate(traj.points):
        smooth = bg.lowpass(rate[idx], bg.band)
        lhs = laplacian(p.state, smooth)
        worst = max(worst, float(np.abs(lhs - rhs(idx, smooth)).max()))
    return worst


def _squared_rate_integral(traj: PathTrajectory, rate: Array) -> float:
    """int_0^1 (1 - t) int (Lap_t d/dt phi_t)^2 w_t^n dt  over the path, by
    Simpson's rule on its grid (not divided by V)."""
    bg = traj.bg
    sq = np.empty(len(traj.points))
    for idx, p in enumerate(traj.points):
        lap_rate = laplacian(p.state, rate[idx])
        sq[idx] = (1.0 - p.t) * bg.integrate(lap_rate * lap_rate * p.state.rho)
    return _simpson_uniform(sq, traj.dt)


# ---------------------------------------------------------------------------
# verification suites


def check_lemma_3_4(traj: PathTrajectory, *,
                    monitors: list[dict]) -> list[CheckItem]:
    """Structural checks along the bending path.

    Covers the differentiated equation, the bent Ricci identity, the
    eigenvalue lower bound, the sign of the pairing integral, monotonicity
    of I - J, and the endpoint energy identity and inequality for every k
    (the latter two only on a completed path).  `monitors` are the path's
    `path_monitors`.
    """
    if traj.kind != "bending":
        raise ParameterError("this suite applies to the bending path")
    bg = traj.bg
    ref_state = traj.ref_state
    items: list[CheckItem] = []
    ts = traj.ts
    dt = traj.dt
    tilde = traj.stacked_exact()
    rate = traj.exact_rate()

    # differentiated equation:  Lap (d/dt phi) = -t d/dt phi - phi
    worst = _rate_residual(traj, rate, lambda idx, r: -ts[idx] * r - tilde[idx])
    items.append(CheckItem.identity(
        "rate_equation", "time derivative of the path equation",
        worst, 0.0, RATE_TOL))

    # bent Ricci identity:  Ric_t = t w_t + (1-t) w, compared at the level
    # of the curvature moment map (one derivative below the eigenvalues,
    # where the solver residual is not amplified by differentiation)
    worst = 0.0
    for p in traj.points:
        res_r = p.state.G - (p.t * p.state.m + (1.0 - p.t) * ref_state.m)
        worst = max(worst, float(np.abs(res_r).max()))
        if bg.n > 1:
            res_s = p.state.G_over_x - (
                p.t * p.state.m_over_x + (1.0 - p.t) * ref_state.m_over_x)
            worst = max(worst, float(np.abs(res_s).max()))
    items.append(CheckItem.identity(
        "bent_ricci_identity", "interpolated curvature along the path",
        worst, 0.0, RICCI_TOL))

    # eigenvalue bound lambda_1 >= t
    lam_margin = min(row["lambda1_radial"] - row["t"] for row in monitors)
    items.append(CheckItem.lower_bound(
        "eigenvalue_bound", "first eigenvalue dominates the path parameter",
        lam_margin, 0.0, LAMBDA1_SLACK))

    # pairing integral nonpositive:  (1/V) int phi (Lap d/dt phi) <= 0; the
    # same integrals, weighted by 1 - t, feed the endpoint identity below
    pair = np.array([bg.integrate(tilde[idx] * laplacian(p.state, rate[idx])
                                  * p.state.rho)
                     for idx, p in enumerate(traj.points)])
    items.append(CheckItem.upper_bound(
        "pairing_sign", "nonpositive pairing of potential with its rate",
        float((pair / bg.volume).max()), 0.0, 1e-8))

    # I - J nondecreasing
    imj = np.array([row["I_minus_J"] for row in monitors])
    items.append(CheckItem.lower_bound(
        "i_minus_j_monotone", "I - J nondecreasing along the path",
        float(np.diff(imj).min()), 0.0, 1e-9))

    if traj.completed and abs(ts[-1] - 1.0) < 1e-12:
        # endpoint energy identity, one row per k
        pairing_integral = _simpson_uniform((1.0 - ts) * pair, dt)
        q0 = _gradient_wedges(traj.points[0].state, ref_state)
        for k in range(bg.n + 1):
            e_start = monitors[0][f"E_{k}"]
            e_end = monitors[-1][f"E_{k}"]
            lhs = e_end - e_start
            time_term = (k + 1) / bg.volume * pairing_integral
            boundary = sum((k - i) * q0[i] for i in range(k))
            rhs = time_term - boundary / bg.volume

            scale = max(abs(e_start), abs(e_end))
            items.append(CheckItem.identity(
                f"endpoint_identity_k{k}",
                "energy drop equals weighted pairing integral minus start-point "
                "gradient terms",
                lhs, rhs, IDENTITY_TOL, relative_to=scale))
            items.append(CheckItem.upper_bound(
                f"endpoint_monotone_k{k}",
                "energy at the far end does not exceed the start",
                e_end, e_start, IDENTITY_TOL))
    else:
        items.append(CheckItem.info(
            "endpoint_identity_skipped", "path did not complete; endpoint "
            "rows need the full parameter range",
            traj.points[-1].t, note="stalled" if not traj.completed else "partial"))
    return items


def check_lemma_4_1(traj: PathTrajectory) -> list[CheckItem]:
    """Endpoint energy identity for the prescribed-volume path.

    The energy of the endpoint splits into two nonpositive gradient sums,
    a nonpositive squared-rate integral, and a reference-only term; for
    k = 1 the reference term is nonpositive too, giving the sign of the
    endpoint energy.  Rows cover k = 1 and, where n >= 2, k = 2.
    """
    if traj.kind != "prescribed":
        raise ParameterError("this suite applies to the prescribed-volume path")
    bg = traj.bg
    n = bg.n
    items: list[CheckItem] = []
    dt = traj.dt
    rate = traj.exact_rate()
    c_rate = spectral.fd_derivative(np.array([p.c_t for p in traj.points]), dt)

    # differentiated equation:  Lap (d/dt psi) = f + d/dt c_t
    worst = _rate_residual(traj, rate, lambda idx, r: traj.f + c_rate[idx])
    items.append(CheckItem.identity(
        "rate_equation", "time derivative of the prescribed-volume equation",
        worst, 0.0, RATE_TOL))

    w_ref = slot_metric(traj.ref_state)
    f_hess = slot_hessian(bg, traj.f)
    end = traj.points[-1]
    sq_integral = _squared_rate_integral(traj, rate)
    q_end = _gradient_wedges(end.state, traj.ref_state)

    for k in range(1, min(n, 2) + 1):
        lhs = e_k_closed(end.state, k, traj.ref_state)

        t1 = -sum((n - k) * (i + 1) / (n + 1) * q_end[i] for i in range(k))
        t2 = -sum((k + 1) * (n - i) / (n + 1) * q_end[i] for i in range(k, n))
        t3 = -(k + 1) * sq_integral
        t4 = 0.0
        for i in range(1, k + 1):
            slots = [f_hess] * i + [w_ref] * (n - i)
            t4 += comb(k + 1, i + 1) * bg.integrate(
                traj.f * wedge_density(bg, slots))
        rhs = (t1 + t2 + t3 + t4) / bg.volume

        items.append(CheckItem.identity(
            f"endpoint_identity_k{k}",
            "endpoint energy equals gradient sums plus squared-rate integral "
            "plus reference term",
            lhs, rhs, IDENTITY_TOL, relative_to=lhs))
        if k == 1:
            items.append(CheckItem.upper_bound(
                "endpoint_sign_k1", "endpoint energy nonpositive at k = 1",
                lhs, 0.0, ENDPOINT_SLACK))
    return items


def check_section5(aubin: PathTrajectory, yau: PathTrajectory, *,
                   monitors: list[dict]) -> list[CheckItem]:
    """Growth-control suite built on both paths from the same reference.

    Includes the exact two-time energy identity, the bridge identity
    expressing the background-relative energy of the reference potential
    through both paths, lower/upper growth bounds along the way, and the
    boundedness monitor for the k = 1 energy.  `monitors` are the bending
    path's `path_monitors`.
    """
    bg = aubin.bg
    ref_state = aubin.ref_state
    items: list[CheckItem] = []
    n = bg.n
    ts = aubin.ts
    dt = aubin.dt
    imj = np.array([row["I_minus_J"] for row in monitors])
    e1_path = np.array([row["E_1"] for row in monitors])

    items.append(CheckItem.lower_bound(
        "path_reach", "bending path advances beyond t = 0.9",
        float(ts[-1]), 0.9, 0.0))

    # gradient-square boundary quantity (1/V) int gradsq(phi_t) ^ w_t^{n-1}
    def grad_term(p: PathPoint) -> float:
        return _gradient_wedges(p.state, ref_state)[0] / bg.volume

    # two-time identity for the k = 1 energy
    i1 = int(round(T_PAIR[0] / dt))
    i2 = int(round(T_PAIR[1] / dt))
    if i2 < len(aubin.points):
        pa, pb = aubin.points[i1], aubin.points[i2]
        lhs = e1_path[i2] - e1_path[i1]
        rhs = (-2.0 * (1.0 - pb.t) * imj[i2] + 2.0 * (1.0 - pa.t) * imj[i1]
               - 2.0 * _simpson_uniform(imj[i1:i2 + 1], dt)
               + (1.0 - pb.t) ** 2 * grad_term(pb)
               - (1.0 - pa.t) ** 2 * grad_term(pa))
        items.append(CheckItem.identity(
            "two_time_identity",
            "energy increment between two path times matches its closed form",
            lhs, rhs, IDENTITY_TOL, relative_to=max(abs(lhs), abs(e1_path[i2]))))
    else:
        items.append(CheckItem.info(
            "two_time_identity_skipped",
            "path too short for the requested time pair", float(ts[-1])))

    # lower bound by the accumulated I - J integral (valid on any range)
    e1_theta = e_k_closed(ref_state, 1)
    partial = _simpson_uniform(imj, dt)
    items.append(CheckItem.lower_bound(
        "energy_vs_accumulated_imj",
        "background-relative energy dominates twice the accumulated I - J",
        e1_theta, 2.0 * partial, BOUND_SLACK,
        note="" if aubin.completed else "partial range (valid: integrand >= 0)"))
    items.append(CheckItem.info(
        "accumulated_imj", "value of the accumulated I - J integral", partial))

    # bridge identity through both paths (needs the complete bending path)
    if aubin.completed and abs(ts[-1] - 1.0) < 1e-12:
        sq_integral = _squared_rate_integral(yau, yau.exact_rate())
        w_ref = slot_metric(ref_state)
        f_hess = slot_hessian(bg, yau.f)
        # the k = 1 reference term; its one binomial factor C(2, 2) is 1
        d_term = bg.integrate(yau.f * wedge_density(bg, [f_hess] + [w_ref] * (n - 1)))
        rhs = 2.0 * partial + 2.0 * sq_integral / bg.volume - d_term / bg.volume
        items.append(CheckItem.identity(
            "bridge_identity",
            "background-relative energy through both paths",
            e1_theta, rhs, IDENTITY_TOL, relative_to=max(1.0, abs(e1_theta))))

        # decay bound from a late time onward, and oscillation control
        end = aubin.points[-1]
        imj_end = imj[-1]
        worst_decay = -np.inf
        worst_tail = -np.inf
        ratio = 0.0
        for idx, p in enumerate(aubin.points):
            if p.t < 0.5 - 1e-12:
                continue
            # E_1 between the endpoint metric and the time-t metric
            e_between = e_k_closed(p.state, 1, end.state)
            tail = 2.0 * _simpson_uniform(imj[idx:], dt) if idx < len(imj) - 1 else 0.0
            worst_tail = max(worst_tail, e_between - tail)
            worst_decay = max(
                worst_decay,
                e_between - 2.0 * n * (1.0 - p.t) * imj_end)
            o = osc(p.phi_exact - end.phi_exact)
            j_between = i_and_j(p.state, end.state)[1]
            ratio = max(ratio, o / (1.0 + j_between))
        items.append(CheckItem.upper_bound(
            "late_energy_vs_tail",
            "late-time energy to the endpoint bounded by the tail integral",
            worst_tail, 0.0, BOUND_SLACK))
        items.append(CheckItem.upper_bound(
            "late_energy_decay",
            "late-time energy to the endpoint decays linearly in 1 - t",
            worst_decay, 0.0, BOUND_SLACK))
        items.append(CheckItem.info(
            "oscillation_ratio",
            "largest oscillation of the gap over 1 + J of the gap", ratio))
        items.append(CheckItem.info(
            "endpoint_imj_vs_reference_j",
            "I - J at the endpoint minus J of the reference potential "
            "(drift diagnostic)",
            imj_end - i_and_j(ref_state)[1]))

        # accumulated integral versus endpoint I - J and oscillation
        worst_gap = -np.inf
        full = _simpson_uniform(imj, dt)
        for idx, p in enumerate(aubin.points):
            o = osc(p.phi_exact - end.phi_exact)
            bound = (1.0 - p.t) * imj_end - 2.0 * n * (1.0 - p.t) * o
            worst_gap = max(worst_gap, bound - full)
        items.append(CheckItem.upper_bound(
            "integral_vs_endpoint",
            "accumulated I - J dominates its endpoint lower bound",
            worst_gap, 0.0, BOUND_SLACK))
    else:
        items.append(CheckItem.info(
            "bridge_identity_skipped",
            "bending path did not complete; bridge rows need the endpoint",
            float(ts[-1])))

    # boundedness monitor for the k = 1 energy along the path
    p0 = aubin.points[0]
    cap0 = e1_path[0] + 2.0 * imj[0] - grad_term(p0)
    worst_cap = -np.inf
    for idx in range(len(aubin.points)):
        running = _simpson_uniform(imj[:idx + 1], dt) if idx > 0 else 0.0
        worst_cap = max(worst_cap, e1_path[idx] - (cap0 - 2.0 * running))
    items.append(CheckItem.upper_bound(
        "energy_bounded_above",
        "k = 1 energy stays under its start-time cap along the path",
        worst_cap, 0.0, BOUND_SLACK))
    return items
