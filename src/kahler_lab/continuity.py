"""Two Monge-Ampere continuity paths and their verification suites.

Both paths start from a radial reference metric w with normalized Ricci
potential f, and are parametrized by t in [0, 1]:

* the bending path          w_phi_t^n = e^{f - t phi_t} w^n,
  which deforms the Ricci condition Ric = t w_phi + (1-t) w and ends, when
  it reaches t = 1, at an Einstein metric;

* the prescribed-volume path  w_psi_t^n = e^{t f + c_t} w^n,
  whose points are independent, solved as one stack, and which ends at
  the metric whose Ricci form equals w.

One Newton solve of  log(w_phi^n / w^n) + t phi = target  on (Lap + t I)
serves both (`_newton_solve`, whose docstring states its gauge, its
choice of step and its halving).  It works on a (B, N) stack of points
sharing t, a single point being the one-row stack, warm-started from the
moment inversion at t = 0 (the prescribed-volume points, the bending
path's start) and from the quadratic extrapolation through the last three
solved points at t > 0.  The bending paths of several references march
in lockstep, one stacked solve per grid time (`solve_aubin_paths`, whose
one-row case is `solve_aubin_path`); a row whose step fails leaves the
lockstep and substeps alone.  Reported points always stay on the
requested uniform grid (`_time_grid`), and a path that cannot reach the
requested end is returned truncated with a stall record rather than
raising.

The solvers take the MetricState of the reference metric (a probe, say)
and read the background from it; the trajectory keeps that same state as
`ref_state`, and holds the states its solves built as one stacked state,
one row per point, as a flow holds its samples.
`ricci_positive_generator` likewise takes a state, or a stack of them,
and returns the state of its output metric.  Every stacked result here,
`lambda1_radial`'s included, is bitwise its row's result alone.

`monitors` tabulates the energies, I, J, first eigenvalue and curvature
minimum of every row of a stacked state, a path's or a flow's.  The
verification suites turn the structural facts of these paths --
derivative identities, eigenvalue bounds, monotone quantities, endpoint
energy identities and inequalities -- into CheckItem rows.  They read the
stacked states and the `path_monitors` columns the caller already holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod

import numpy as np

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
    _dots,
    _rows,
    laplacian,
    laplacian_matrix,
    make_metric,
    potential_from_density,
    ricci_potential,
    slot_hessian,
    slot_metric,
    wedge_density,
)
from .energies import _gradient_wedges, e_k_closed, i_and_j
from . import spectral

Array = np.ndarray

# bending solve: Newton iterations, residual and gauge tolerance, and the
# smallest internal substep before a path stalls
NEWTON_ITERS = 40
NEWTON_TOL = 1e-11
MIN_SUBSTEP = 1e-4
# Krylov Newton corrections: GMRES iteration cap, the floor of its relative
# tolerance on the scaled bordered residual, and the smallest grid on which
# the steps at 0 < t <= 1 are Krylov too (below it the dense solve is faster)
GMRES_ITERS = 20
GMRES_TOL = 1e-13
KRYLOV_MIN_SIZE = 192

# tolerances of the verification suites
RATE_TOL = 1e-5         # differentiated path equations
RICCI_TOL = 1e-6        # bent Ricci identity
LAMBDA1_SLACK = 1e-6    # first eigenvalue against the path parameter
LAMBDA1_RITZ_TOL = 1e-12  # relative estimated drop that moves the Ritz basis to the band
IDENTITY_TOL = 1e-5     # endpoint, two-time and bridge energy identities
ENDPOINT_SLACK = 1e-7   # sign of the prescribed-path endpoint energy
BOUND_SLACK = 1e-7      # growth bounds along the bending path
T_PAIR = (0.2, 0.8)     # times of the two-time identity


@dataclass
class PathPoint:
    """One point of a path, as `PathTrajectory.points` lists it: the
    benchmark tracer's per-point view."""

    t: float
    phi: Array          # reference-mean-zero representative
    c_t: float          # constant making phi + c_t solve the equation exactly
    state: MetricState
    iterations: int = 0
    residual: float = 0.0


@dataclass
class PathTrajectory:
    """A solved path: per point its time, reference-mean-zero potential phi
    (phi + c_t solves the path equation exactly), Newton iterations and
    residual, with the points' metric states as one stacked state.  A path
    ends "completed" at the end of its grid, or "stalled" at its last
    solved point, with the reason."""

    kind: str             # "bending" | "prescribed"
    bg: Background
    ref_state: MetricState
    f: Array
    ts: Array
    phi: Array
    c_t: Array
    states: MetricState
    iterations: list[int]
    residuals: list[float]
    status: str = "completed"   # "completed" | "stalled"
    reason: str = ""

    @property
    def points(self) -> list[PathPoint]:
        """The points one by one, each with its row of `states`."""
        return [PathPoint(t, self.phi[i], c_t, self.states[i], self.iterations[i],
                          self.residuals[i])
                for i, (t, c_t) in enumerate(zip(self.ts.tolist(), self.c_t.tolist()))]

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    @property
    def dt(self) -> float:
        if len(self.ts) < 2:
            raise SolverError("trajectory has fewer than two points")
        return float(self.ts[1] - self.ts[0])

    def stacked_exact(self) -> Array:
        """The equation-exact potentials phi + c_t, one row per point."""
        return self.phi + self.c_t[:, None]

    def exact_rate(self) -> Array:
        """Time derivative of the equation-exact potential on the grid, by
        the five-point stencil; a path of fewer points raises SolverError."""
        if len(self.ts) < 5:
            raise SolverError("trajectory has fewer than five points")
        return spectral.fd_derivative(self.stacked_exact(), self.dt)


# ---------------------------------------------------------------------------
# first nonzero eigenvalue of the metric Laplacian


def lambda1_radial(state: MetricState) -> float | Array:
    """Smallest nonzero eigenvalue of minus the Laplacian of the state; one
    value per row of a stacked state, each bitwise that row's value alone.

    Rayleigh-Ritz on the symmetric Dirichlet form: stiffness D^T W D with
    the metric-weighted quadrature W and the state's volume weights as
    mass, both projected onto the span of the leading Chebyshev
    polynomials of the grid's resolved band (`Background.band`) in the
    moment coordinate.  Restricting to smooth trial functions excludes the
    grid's weight-degenerate directions -- the full-grid form is rank
    deficient near the coordinate pole -- while the smooth eigenfunctions
    of the reduced problem converge spectrally.  Constants lie in every
    trial space, so the projected pencil has exactly one zero eigenvalue
    and the first physical one is next.

    The trial space is the first 32 polynomials, or the band if that is
    smaller, and the band itself for the rows whose estimated drop from the
    32-function value to the band's (see `_ritz_lambda1`) exceeds
    LAMBDA1_RITZ_TOL relative to that value; those rows re-solve together.
    The trial spaces are nested, so the smaller one's value bounds the
    band's from above: unchecked, it would overestimate the eigenvalue and
    bias the check lambda_1 >= t toward passing.  Projective model only.
    """
    bg = state.bg
    if bg.model != "cpn":
        raise UnsupportedModelError("the radial eigenvalue is for the projective model")
    wdiag = np.atleast_2d(bg.ref_measure * bg.w0 * state.m_over_x ** (bg.n - 1))
    mass = np.atleast_2d(bg.ref_measure * state.rho)
    lam, drop = _ritz_lambda1(bg, wdiag, mass, min(32, bg.band))
    wide = np.flatnonzero(drop > LAMBDA1_RITZ_TOL * np.abs(lam))
    if wide.size:
        lam[wide] = _ritz_lambda1(bg, wdiag[wide], mass[wide], bg.band)[0]
    return float(lam[0]) if state.phi.ndim == 1 else lam


def _ritz_lambda1(bg: Background, wdiag: Array, mass: Array,
                  size: int) -> tuple[Array, Array]:
    """The first nonzero Ritz value of the pencil (stiffness, mass) with the
    diagonal weights wdiag and mass, one row of each per pencil of a (B, N)
    stack, on the first `size` functions of `bg.ritz_basis`, and its
    estimated drop to the band's value (0 at the band); one of each per
    row.  Every product and factorization is batched over the (B, size,
    size) stack, one matrix at a time, so each row is bitwise its pencil
    alone.  The Cholesky factor M = L L^T reduces the pencil to the
    symmetric L^-1 A L^-T.  The Ritz vector u, M-normalized, is one step of
    inverse iteration shifted below the value by a millionth of the gap
    above it.  The drop is the first-order Schur complement r^T S^-1 r
    over the band functions beyond the basis: r is the residual
    (A - lam M) u there, and S the diagonal of A - lam M there (the drop
    is infinite if that diagonal is not positive).  The diagonal ignores
    the coupling among those functions, so this estimates the drop rather
    than bounding it."""
    B, dB = bg.ritz_basis
    B, B_out, dB, dB_out = B[:, :size], B[:, size:], dB[:, :size], dB[:, size:]
    A_m = dB.T @ (wdiag[:, :, None] * dB)
    M_m = B.T @ (mass[:, :, None] * B)
    L_inv = np.linalg.inv(np.linalg.cholesky(0.5 * (M_m + M_m.mT)))
    H = L_inv @ A_m @ L_inv.mT
    vals = np.linalg.eigvalsh(H)
    lam = vals[:, 1]
    if size == bg.band:
        return lam, np.zeros(len(lam))
    shift = (lam - 1e-6 * (vals[:, 2] - lam))[:, None, None] * np.eye(size)
    v = np.linalg.solve(H - shift, np.ones((len(lam), size, 1)))[..., 0]
    u = (L_inv.mT @ (v / np.sqrt(_dots(v, v))[:, None])[..., None])[..., 0]
    r = (_rows(dB_out.T, wdiag * _rows(dB, u))
         - lam[:, None] * _rows(B_out.T, mass * _rows(B, u)))
    s = _rows((dB_out ** 2).T, wdiag) - lam[:, None] * _rows((B_out ** 2).T, mass)
    drop = np.full(len(lam), np.inf)
    ok = (s > 0).all(axis=1)
    drop[ok] = _dots(r[ok], r[ok] / s[ok])
    return lam, drop


# ---------------------------------------------------------------------------
# the Monge-Ampere solve


def _newton_solve(ref_state: MetricState, target: Array, t: float, guess: Array):
    """Solve  log(w_phi^n / w^n) + t phi = target  for the potential phi
    over the metric w of `ref_state` from the warm start `guess`, by
    Newton's method on J = Lap + t I for each row of a (B, N) stack of
    targets and guesses in lockstep, each row bitwise its solve alone; a
    single (N,) target and guess are the one-row stack.  The reference is
    one state for every row or a stacked state, one reference row per row,
    whose rows leave the solve with their iterates.  Returns (phi,
    state, iterations, residual), per row in stack order, and for a single
    target that row's (a 1-d phi, its state, an int and a float).

    At t = 0 and t = 1, J is singular along its kernel u (1, resp. the
    rotation potential m - n of the endpoint metric), and the step solves
    the bordered system [J u; l^T 0] [delta; mu] = [-R; -l.phi] with
    l = u w_phi^n, imposing the gauge  int phi u w_phi^n = 0.  At t = 0
    that is the constant which continues the path smoothly.  At t = 1,
    differentiating the path equation gives (Lap_t + t) d/dt phi = -phi_t,
    solvable only when phi_1 is orthogonal to u, so the gauge selects the
    limit of the path.  A row is solved once both its residual and its
    gauge defect are within NEWTON_TOL.  The step is `_density_step`'s
    matrix-free GMRES solve at t = 0, and at 0 < t <= 1 when n >= 2 on grids
    of at least KRYLOV_MIN_SIZE nodes.  Otherwise (n = 1, whose round
    preconditioner is singular; smaller grids, where an LU of the N x N
    matrix is cheaper than the GMRES iterations) it is the dense J of
    `laplacian_matrix`, bordered at t = 1, by `np.linalg.solve`.  A row's
    GMRES tolerance is the inexact-Newton forcing term  max(GMRES_TOL,
    NEWTON_TOL / (100 max|R|))  (Eisenstat & Walker 1996): the step need
    only take the residual well below NEWTON_TOL, not to GMRES_TOL of a
    large R.  Its gauge defect counts times the volume, as GMRES sees it
    divided by the volume; unweighted, a t = 1 Krylov step at n = 4 stalls
    with the defect above NEWTON_TOL.

    When a trial step leaves the cone, every row that left halves its step
    and the stack is built again, so each row takes the largest admissible
    power-of-two part of its step (at least 2^-7), and each accepted
    iterate's state is the one its admissibility test built.
    Raises SolverError for the first row that fails: to start in the cone,
    to stay admissible, to converge its GMRES step or to converge in
    NEWTON_ITERS steps.
    """
    bg = ref_state.bg
    size = bg.size
    single = np.ndim(guess) == 1
    phi = np.array(guess, dtype=float, ndmin=2)  # the iterates of the rows solving
    rows = np.arange(len(phi))                   # their rows in the stack
    target = np.atleast_2d(target)
    # the reference potential and log-density of each row solving
    ref_phi, ref_log_rho = (np.broadcast_to(a, phi.shape)
                            for a in (ref_state.phi, ref_state.log_rho))
    at_one = abs(t - 1.0) < 1e-12
    krylov = t == 0.0 or (bg.n > 1 and size >= KRYLOV_MIN_SIZE)
    solved = []  # (rows, phi, state, steps, residuals) of each iteration that solved rows
    error = None

    def gauge(state):
        """The gauge row l = u w_phi^n of each row, at t = 0 and t = 1."""
        return bg.ref_measure * state.rho * (state.m - bg.n if t else 1.0)

    def fail(j, message, residual):
        """Fail row rows[j]; only the rows before it solve on."""
        nonlocal error, rows, phi, target, ref_phi, ref_log_rho
        error = SolverError(message, t=t, residual=residual, row=int(rows[j]))
        rows, phi, target, ref_phi, ref_log_rho = (
            a[:j] for a in (rows, phi, target, ref_phi, ref_log_rho))

    try:
        state = make_metric(bg, ref_phi + phi)
    except NotKahlerError as exc:
        fail(exc.row, f"left the admissible cone during solve: {exc}", None)
        state = make_metric(bg, ref_phi + phi) if len(rows) else None
    for iters in range(NEWTON_ITERS):
        if not len(rows):
            break
        R = state.log_rho - ref_log_rho - target + t * phi
        res = np.abs(R).max(axis=1)
        done = res <= NEWTON_TOL
        if t == 0.0 or at_one:
            R = np.concatenate((R, _dots(gauge(state), phi)[:, None]), axis=1)
            done &= np.abs(R[:, size]) <= NEWTON_TOL
        if done.any():
            # the last rows to solve leave as they are, with no copy
            solved.append((rows, phi, state, iters, res) if done.all() else
                          (rows[done], phi[done], state[done], iters, res[done]))
            rows, keep = rows[~done], ~done
            if not len(rows):
                break
            phi, target, state, R, res, ref_phi, ref_log_rho = (
                a[keep] for a in (phi, target, state, R, res, ref_phi, ref_log_rho))
        if krylov:
            weighted = np.abs(R)
            weighted[:, size:] *= bg.volume
            eta = np.maximum(GMRES_TOL, NEWTON_TOL / (100.0 * weighted.max(axis=1)))
            delta, steps = _density_step(state, R, t, eta)
            if not steps.all():
                j = int(np.argmin(steps))
                fail(j, "GMRES did not converge", float(res[j]))
                delta = delta[:j]
        else:
            J = laplacian_matrix(state)
            np.einsum("bii->bi", J)[...] += t
            if at_one:
                u = (state.m - bg.n)[:, :, None]
                J = np.block([[J, u], [gauge(state)[:, None], np.zeros((len(rows), 1, 1))]])
            delta = np.linalg.solve(J, -R[:, :, None])[:, :size, 0]
        scale = np.ones((len(rows), 1))
        while len(rows):
            trial = phi + scale * delta
            try:
                state = make_metric(bg, ref_phi + trial)
            except NotKahlerError as exc:
                scale[exc.rows] *= 0.5
                if scale.min() < 2.0 ** -7:
                    j = int(np.argmax(scale[:, 0] < 2.0 ** -7))
                    fail(j, "Newton step cannot stay admissible", float(res[j]))
                    delta, scale = delta[:j], scale[:j]
            else:
                phi = trial
                break
    if len(rows):
        fail(0, "Newton did not converge", float(res[0]))
    if error is not None:
        raise error
    rows, phi, states, iters, res = zip(*solved)
    iters = np.repeat(iters, [len(r) for r in rows])
    if len(solved) == 1:    # the rows as their last iteration built them
        phi, state, res = phi[0], states[0], res[0]
    else:
        order = np.argsort(np.concatenate(rows))
        phi, state = np.concatenate(phi)[order], MetricState.stack(states)[order]
        iters, res = iters[order], np.concatenate(res)[order]
    if single:
        return phi[0], state[0], int(iters[0]), float(res[0])
    return phi, state, iters, res


def _density_step(state: MetricState, R: Array, t: float, tol):
    """The Newton correction delta on J = Lap + t I of each row of the
    (B, N) stacked `state`, by GMRES: from its row of the (B, N+1)
    bordered residual R = [log-density residual, gauge defect] at t = 0
    and t = 1, and of the (B, N) residual at 0 < t < 1.

    The bordered system [J u; l^T 0] [delta; mu] = -R, with the kernel
    u = 1 at t = 0 and the rotation potential m - n at t = 1 (as in
    `_newton_solve`), is applied matrix-free as K: its first N rows scaled
    by m_x, so that its principal part is the round D_w0_D, and its gauge
    row divided by the volume, a mean; unscaled, the n = 4 preconditioned
    operator is ill-conditioned and GMRES stalls.  At 0 < t < 1 the
    correction splits as delta_0 + c, with delta_0 in the t = 0 gauge
    l.delta_0 = 0 , and Lap annihilates the constant c, so J delta = -R is
    the system bordered by u = 1, with mu = t c and a zero gauge defect;
    the correction is delta_0 + mu / t.  At t = 0 and t = 1 it is delta
    itself.

    K is right-preconditioned by the inverse P of K0, the t = 0 K of the
    round metric (`Background.density_preconditioner`).  With z = P v,
    K P v = K0 z + (K - K0) z = v + (K - K0) z, up to the rounding of
    K0 P = I.  K - K0 is diagonal but for its coupling
    (n - 1)(m_x r - w0/x) D, its border column and its gauge row, so an
    iteration takes one product with P and one with D, where K itself would
    stream D_w0_D as well.  The rows iterate in lockstep, each leaves once
    its residual estimate is within its relative tolerance `tol` (one
    value, or one per row) of its right-hand side, and every product is
    row by row, so a row of a stack is bitwise its solve alone.  Returns
    delta and the iterations per row, 0 for a row not converged in
    GMRES_ITERS.
    """
    bg = state.bg
    size = bg.size
    P = bg.density_preconditioner
    bordered = R.shape[1] > size
    kernel = state.m - bg.n if bordered and t else 1.0
    # K - K0 row by row: the coupling to D, the diagonal shift, the border
    # column and the gauge row, each less its round value
    coupling = (bg.n - 1) * (state.m_x * state.r - bg.w0_over_x)
    shift = t * state.m_x
    edge = state.m_x * kernel - 1.0
    l = bg.ref_measure / bg.volume * (state.rho * kernel - 1.0)
    b = np.zeros((len(R), size + 1))
    b[:, :R.shape[1]] = -R
    b[:, :size] *= state.m_x
    b[:, size] /= bg.volume
    beta = np.sqrt(_dots(b, b))
    tol = np.broadcast_to(tol, beta.shape)
    count, cap = len(b), GMRES_ITERS
    rows = np.arange(count)         # the rows iterating, in the stack
    V = np.zeros((count, cap + 1, size + 1))    # Krylov basis
    H = np.zeros((count, cap, cap))             # the rotated Hessenberg matrix
    Qt = np.broadcast_to(np.eye(cap + 1), (count, cap + 1, cap + 1)).copy()
    V[:, 0] = b / beta[:, None]
    delta, steps = np.zeros((count, size)), np.zeros(count, dtype=int)
    for k in range(cap):
        z = _rows(P, V[:, k])
        w = V[:, k].copy()
        w[:, :size] += (coupling * _rows(bg.D, z[:, :size]) + shift * z[:, :size]
                        + edge * z[:, size:])
        w[:, size] += _dots(l, z[:, :size])
        # classical Gram-Schmidt
        basis = V[:, :k + 1]
        h = (basis @ w[..., None])[..., 0]
        w -= (h[:, None, :] @ basis)[:, 0]
        norm = np.sqrt(_dots(w, w))
        V[:, k + 1] = w / norm[:, None]
        # one Givens rotation takes the new column to triangular form
        col = (Qt[:, :k + 1, :k + 1] @ h[..., None])[..., 0]
        rad = np.hypot(col[:, k], norm)
        c, s = col[:, k] / rad, norm / rad
        col[:, k] = rad
        H[:, :k + 1, k] = col
        q = Qt[:, k, :k + 2].copy()
        Qt[:, k, :k + 2], Qt[:, k + 1, :k + 2] = c[:, None] * q, -s[:, None] * q
        Qt[:, k, k + 1], Qt[:, k + 1, k + 1] = s, c
        done = np.abs(Qt[:, k + 1, 0]) <= tol
        if done.any():
            g = beta[done, None] * Qt[done, :k + 1, 0]
            y = np.linalg.solve(H[done, :k + 1, :k + 1], g[..., None])
            u = _rows(P, (y.transpose(0, 2, 1) @ V[done, :k + 1])[:, 0])
            delta[rows[done]] = u[:, :size] if bordered else u[:, :size] + u[:, size:] / t
            steps[rows[done]] = k + 1
            if done.all():
                break
            rows, V, H, Qt, beta, coupling, shift, edge, l, tol = (
                a[~done] for a in (rows, V, H, Qt, beta, coupling, shift, edge, l, tol))
    return delta, steps


def _solve_density(ref_state: MetricState, target: Array):
    """Solve  w_phi^n = e^target w^n  over the metric w of `ref_state`, row
    by row for a stack: the t = 0 Newton solve, warm-started from the moment
    inversion shifted to its gauge, each correction by matrix-free GMRES
    (`_density_step`).  Returns what `_newton_solve` returns.

    At n = 1 the inversion takes no root and is exact, while the t = 0
    Newton matrix is singular: the metric does not see a potential's top
    Chebyshev mode (w0 D T_{N-1} vanishes at every node).  There the
    inversion is returned as it is, and the round preconditioner, singular
    for the same reason, is never built.
    """
    bg = ref_state.bg
    density = np.exp(target) * ref_state.rho
    guess = potential_from_density(bg, density) - ref_state.phi
    guess = guess - np.asarray(bg.mean(guess, density))[..., None]
    if bg.n > 1:
        return _newton_solve(ref_state, target, 0.0, guess)
    state = make_metric(bg, ref_state.phi + guess)
    res = np.abs(state.log_rho - ref_state.log_rho - target).max(axis=-1)
    return guess, state, np.zeros_like(res, dtype=int)[()], res[()]


# ---------------------------------------------------------------------------
# the prescribed-volume path


def _time_grid(dt: float) -> Array:
    """The reported path times 0, dt, ..., ending at exactly t = 1.  Raises
    ParameterError unless dt is positive and splits [0, 1] into whole steps."""
    if not (dt > 0.0 and abs(round(1.0 / dt) * dt - 1.0) <= 1e-9):
        raise ParameterError(f"path step must be positive and divide [0, 1], got {dt}")
    return np.linspace(0.0, 1.0, round(1.0 / dt) + 1)


def solve_yau_path(ref_state: MetricState, dt: float = 0.02) -> PathTrajectory:
    """Solve the prescribed-volume path from the metric of `ref_state` on a
    uniform grid in t over [0, 1].

    All points are one stacked density solve; the earliest point that
    fails raises SolverError with its path time.  Stored potentials have
    zero reference mean; the recorded c_t makes the volume identity exact.
    """
    bg = ref_state.bg
    ts = _time_grid(dt)
    f, _ = ricci_potential(ref_state)
    c_t = -np.log(bg.integrate(np.exp(ts[:, None] * f) * ref_state.rho) / bg.volume)
    try:
        psi, states, iters, res = _solve_density(ref_state, ts[:, None] * f + c_t[:, None])
    except SolverError as exc:
        t = float(ts[exc.row])
        raise SolverError(f"prescribed path point t = {t:.6f}: {exc}", t=t,
                          residual=exc.residual, row=exc.row) from exc
    psi = psi - bg.mean(psi, ref_state.rho)[:, None]
    return PathTrajectory("prescribed", bg, ref_state, f, ts, psi, c_t, states,
                          iters.tolist(), res.tolist())


# ---------------------------------------------------------------------------
# the bending path (Newton, with substepping)


def _extrapolate(ts, values, t: float):
    """The Lagrange polynomial through the pairs (ts[j], values[j]) at t:
    the constant for one pair, the line for two, the parabola for three.
    The nodes need not be uniform."""
    return sum(prod((t - t_k) / (t_j - t_k) for t_k in ts[:j] + ts[j + 1:]) * value
               for j, (t_j, value) in enumerate(zip(ts, values)))


def solve_aubin_path(ref_state: MetricState, dt: float = 0.02) -> PathTrajectory:
    """March the bending path from the metric of `ref_state` over a uniform
    reported grid in t over [0, 1]: the one-row case of
    `solve_aubin_paths`."""
    return solve_aubin_paths([ref_state], dt)[0]


def solve_aubin_paths(ref_states: list[MetricState],
                      dt: float = 0.02) -> list[PathTrajectory]:
    """March the bending paths from the metrics of `ref_states` in lockstep
    over a uniform reported grid in t over [0, 1], one trajectory each,
    each bitwise the path of its metric alone.

    The references are stacked into one state, and every grid time is one
    stacked `_newton_solve`.  The t = 0 point is a density solve; a
    failure there raises SolverError naming its row.  A row whose stacked
    solve fails leaves the lockstep and marches alone from its last three
    accepted points, while the other rows retry the same time without it.
    A lone row bridges hard stretches with internal substeps (not
    reported); if progress stalls below MIN_SUBSTEP its trajectory is
    returned truncated with a stall record.
    """
    ref = MetricState.stack(ref_states)
    bg = ref.bg
    f, _ = ricci_potential(ref)
    tilde, state, iters, res = _solve_density(ref, f)
    rows = np.arange(len(ref_states))
    # the reported points of each group of rows marching together, as
    # (t, rows, tilde, state, iterations, residual), a row per row
    points = [(np.zeros(len(rows)), rows, tilde, state, iters, res)]
    reasons = {}  # the reason of each stalled row

    def march(ref, f, rows, grid, ts, tildes):
        """Advance the stacked rows `rows`, references `ref` and targets
        `f`, over the reported times `grid` from their last three accepted
        times `ts` and potentials `tildes`, substeps included, newest last;
        they feed the quadratic warm-start extrapolation."""
        for i, t_target in enumerate(grid):
            sub = t_target - ts[-1]
            while ts[-1] < t_target - 1e-12:
                t_try = min(ts[-1] + sub, t_target)
                try:
                    tilde, state, iters, res = _newton_solve(
                        ref, f, t_try, _extrapolate(ts, tildes, t_try))
                except SolverError as exc:
                    if len(rows) > 1:
                        # the failing row marches alone; the others retry
                        j = exc.row
                        alone = slice(j, j + 1)
                        march(ref[alone], f[alone], rows[alone], grid[i:], ts,
                              [a[alone] for a in tildes])
                        keep = rows != rows[j]
                        ref, f, rows = ref[keep], f[keep], rows[keep]
                        tildes = [a[keep] for a in tildes]
                        continue
                    sub *= 0.5
                    if sub < MIN_SUBSTEP:
                        reasons[int(rows[0])] = f"no progress past t = {ts[-1]:.6f}: {exc}"
                        return
                    continue
                ts, tildes = ts[-2:] + [t_try], tildes[-2:] + [tilde]
            points.append((np.full(len(rows), t_target), rows, tildes[-1], state, iters, res))

    march(ref, f, rows, _time_grid(dt).tolist()[1:], [0.0], [tilde])
    t, rows, tilde, states, iters, res = zip(*points)
    t, rows, tilde, iters, res = map(np.concatenate, (t, rows, tilde, iters, res))
    states = MetricState.stack(states)
    trajectories = []
    for row, ref_state in enumerate(ref_states):
        mine = np.flatnonzero(rows == row)   # its points, in time order
        c_t = bg.mean(tilde[mine], ref_state.rho)
        reason = reasons.get(row, "")
        trajectories.append(PathTrajectory(
            "bending", bg, ref_state, f[row], t[mine], tilde[mine] - c_t[:, None], c_t,
            states[mine], iters[mine].tolist(), res[mine].tolist(),
            "stalled" if reason else "completed", reason))
    return trajectories


# ---------------------------------------------------------------------------
# positivity transport


def ricci_positive_generator(state: MetricState) -> MetricState:
    """The state of a metric with positive Ricci curvature, made from the
    metric of `state`; a stacked state transports row by row in one
    stacked density solve, each row bitwise its transport alone.

    One full prescribed-volume step turns the metric into the one whose
    Ricci form IS the input metric, hence strictly positive for any
    admissible input.  Raises GeneratorError, naming the first row whose
    output curvature is not positive.
    """
    f, _ = ricci_potential(state)
    _, out, _, _ = _solve_density(state, f)
    low = np.atleast_1d(out.min_ricci)
    if (low <= 0.0).any():
        row = int(np.argmax(low <= 0.0))
        raise GeneratorError("transport step failed to reach positive curvature",
                             float(low[row]), row)
    return out


# ---------------------------------------------------------------------------
# monitors


def monitors(states: MetricState, ref: MetricState | None = None,
             **columns) -> np.recarray:
    """Scalar diagnostics of each row of a stacked state, one record per
    row: the given `columns` (t and c_t, say) first, then every energy, I,
    J, I - J, the first eigenvalue and the curvature minimum.  Energies, I
    and J are relative to the state `ref` (the background reference when
    None), from one stacked evaluation each, bitwise the per-row values."""
    columns.update({f"E_{k}": e for k, e in enumerate(e_k_closed(states, ref))})
    columns["I"], columns["J"], columns["I_minus_J"] = i_and_j(states, ref)
    columns["lambda1_radial"] = lambda1_radial(states)
    columns["min_ricci"] = states.min_ricci
    return np.rec.fromarrays(list(columns.values()), names=list(columns))


def path_monitors(traj: PathTrajectory) -> np.recarray:
    """The `monitors` of a path's points, energies relative to the path's
    own reference."""
    return monitors(traj.states, traj.ref_state, t=traj.ts, c_t=traj.c_t)


def _cumulative_simpson(values, dt: float) -> Array:
    """Integrals of uniform samples from the first sample to each sample;
    each entry is what scipy.integrate.simpson gives for that prefix.

    Pairs of intervals take Simpson's rule.  A first interval on its own
    takes the trapezoid rule, and a trailing odd interval after two or more
    closes with the three-point correction
    h (5/12 y[k] + 2/3 y[k-1] - 1/12 y[k-2]).
    """
    y = np.asarray(values, dtype=float)
    out = np.zeros(len(y))
    out[1:2] = 0.5 * dt * (y[:1] + y[1:2])
    out[2::2] = np.cumsum(y[:-2:2] + 4.0 * y[1:-1:2] + y[2::2]) * (dt / 3.0)
    out[3::2] = out[2:-1:2] + dt * (5.0 / 12.0 * y[3::2] + 2.0 / 3.0 * y[2:-1:2]
                                    - 1.0 / 12.0 * y[1:-2:2])
    return out


def _rate_residual(traj: PathTrajectory, rate: Array, rhs) -> float:
    """Largest residual of a differentiated path equation  Lap r = rhs(r)
    over the path's points, with r the stacked time derivative `rate`
    truncated to the resolved band: the derivative is exact to O(dt^4) but
    carries the solver's noise floor in its top coefficients, which the
    smooth rate of an analytic-in-t path does not have."""
    smooth = traj.bg.lowpass(rate, traj.bg.band)
    return float(np.abs(laplacian(traj.states, smooth) - rhs(smooth)).max())


def _squared_rate_integral(traj: PathTrajectory, rate: Array) -> float:
    """int_0^1 (1 - t) int (Lap_t d/dt phi_t)^2 w_t^n dt  over the path, by
    Simpson's rule on its grid (not divided by V)."""
    lap_rate = laplacian(traj.states, rate)
    sq = (1.0 - traj.ts) * traj.bg.integrate(lap_rate * lap_rate * traj.states.rho)
    return _cumulative_simpson(sq, traj.dt)[-1]


def _reference_term(traj: PathTrajectory, k: int) -> float:
    """The reference-only term of the prescribed path's endpoint identity
    for E_k (not divided by V): the sum over i = 1 .. k of
    C(k+1, i+1) int f (i ddbar f)^i ^ w^{n-i}, with w the path's reference
    metric."""
    bg = traj.bg
    f_hess = slot_hessian(bg, traj.f)
    w_ref = slot_metric(traj.ref_state)
    return sum(comb(k + 1, i + 1) * bg.integrate(
        traj.f * wedge_density(bg, [f_hess] * i + [w_ref] * (bg.n - i)))
        for i in range(1, k + 1))


# ---------------------------------------------------------------------------
# verification suites


def check_lemma_3_4(traj: PathTrajectory, *,
                    monitors: np.recarray) -> list[CheckItem]:
    """Structural checks along the bending path.

    Covers the differentiated equation, the bent Ricci identity, the
    eigenvalue lower bound, the sign of the pairing integral, monotonicity
    of I - J, and the endpoint energy identity and inequality for every k
    (the latter two only on a path that reached t = 1).  `monitors` are
    the path's `path_monitors`.
    """
    if traj.kind != "bending":
        raise ParameterError("this suite applies to the bending path")
    bg = traj.bg
    ref_state = traj.ref_state
    states = traj.states
    items: list[CheckItem] = []
    ts = traj.ts
    t = ts[:, None]
    tilde = traj.stacked_exact()
    rate = traj.exact_rate()

    # differentiated equation:  Lap (d/dt phi) = -t d/dt phi - phi
    worst = _rate_residual(traj, rate, lambda r: -t * r - tilde)
    items.append(CheckItem.identity(
        "rate_equation", "time derivative of the path equation",
        worst, 0.0, RATE_TOL))

    # bent Ricci identity:  Ric_t = t w_t + (1-t) w, compared at the level
    # of the curvature moment map (one derivative below the eigenvalues,
    # where the solver residual is not amplified by differentiation)
    worst = float(np.abs(states.G - (t * states.m + (1.0 - t) * ref_state.m)).max())
    if bg.n > 1:
        worst = max(worst, float(np.abs(states.G_over_x - (
            t * states.m_over_x + (1.0 - t) * ref_state.m_over_x)).max()))
    items.append(CheckItem.identity(
        "bent_ricci_identity", "interpolated curvature along the path",
        worst, 0.0, RICCI_TOL))

    # eigenvalue bound lambda_1 >= t
    lam_margin = float((monitors["lambda1_radial"] - monitors["t"]).min())
    items.append(CheckItem.lower_bound(
        "eigenvalue_bound", "first eigenvalue dominates the path parameter",
        lam_margin, 0.0, LAMBDA1_SLACK))

    # pairing integral nonpositive:  (1/V) int phi (Lap d/dt phi) <= 0; the
    # same integrals, weighted by 1 - t, feed the endpoint identity below
    pair = bg.integrate(tilde * laplacian(states, rate) * states.rho)
    items.append(CheckItem.upper_bound(
        "pairing_sign", "nonpositive pairing of potential with its rate",
        float((pair / bg.volume).max()), 0.0, 1e-8))

    # I - J nondecreasing
    items.append(CheckItem.lower_bound(
        "i_minus_j_monotone", "I - J nondecreasing along the path",
        float(np.diff(monitors["I_minus_J"]).min()), 0.0, 1e-9))

    if traj.completed:
        # endpoint energy identity, one row per k
        pairing_integral = _cumulative_simpson((1.0 - ts) * pair, traj.dt)[-1]
        q0 = _gradient_wedges(states[0], ref_state)
        for k in range(bg.n + 1):
            e_start, e_end = monitors[f"E_{k}"][[0, -1]]
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
            ts[-1], note="stalled"))
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
    rate = traj.exact_rate()
    c_rate = spectral.fd_derivative(traj.c_t, traj.dt)

    # differentiated equation:  Lap (d/dt psi) = f + d/dt c_t
    worst = _rate_residual(traj, rate, lambda r: traj.f + c_rate[:, None])
    items.append(CheckItem.identity(
        "rate_equation", "time derivative of the prescribed-volume equation",
        worst, 0.0, RATE_TOL))

    end = traj.states[-1]
    sq_integral = _squared_rate_integral(traj, rate)
    q_end = _gradient_wedges(end, traj.ref_state)
    energies = e_k_closed(end, traj.ref_state)

    for k in range(1, min(n, 2) + 1):
        lhs = energies[k]

        t1 = -sum((n - k) * (i + 1) / (n + 1) * q_end[i] for i in range(k))
        t2 = -sum((k + 1) * (n - i) / (n + 1) * q_end[i] for i in range(k, n))
        t3 = -(k + 1) * sq_integral
        rhs = (t1 + t2 + t3 + _reference_term(traj, k)) / bg.volume

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
                   monitors: np.recarray) -> list[CheckItem]:
    """Growth-control suite built on both paths from the same reference.

    Includes the exact two-time energy identity, the bridge identity
    expressing the background-relative energy of the reference potential
    through both paths, lower/upper growth bounds along the way, and the
    boundedness monitor for the k = 1 energy.  `monitors` are the bending
    path's `path_monitors`.
    """
    bg = aubin.bg
    ref_state = aubin.ref_state
    states = aubin.states
    items: list[CheckItem] = []
    n = bg.n
    ts = aubin.ts
    dt = aubin.dt
    imj = monitors["I_minus_J"]
    e1_path = monitors["E_1"]
    running = _cumulative_simpson(imj, dt)  # I - J integrated from t = 0
    partial = running[-1]

    items.append(CheckItem.lower_bound(
        "path_reach", "bending path advances beyond t = 0.9",
        ts[-1], 0.9, 0.0))

    # gradient-square boundary quantity (1/V) int gradsq(phi_t) ^ w_t^{n-1}
    grad = _gradient_wedges(states, ref_state)[0] / bg.volume

    # two-time identity for the k = 1 energy
    i1 = int(round(T_PAIR[0] / dt))
    i2 = int(round(T_PAIR[1] / dt))
    if i2 < len(ts):
        ta, tb = ts[i1], ts[i2]
        lhs = e1_path[i2] - e1_path[i1]
        rhs = (-2.0 * (1.0 - tb) * imj[i2] + 2.0 * (1.0 - ta) * imj[i1]
               - 2.0 * (running[i2] - running[i1])
               + (1.0 - tb) ** 2 * grad[i2]
               - (1.0 - ta) ** 2 * grad[i1])
        items.append(CheckItem.identity(
            "two_time_identity",
            "energy increment between two path times matches its closed form",
            lhs, rhs, IDENTITY_TOL, relative_to=max(abs(lhs), abs(e1_path[i2]))))
    else:
        items.append(CheckItem.info(
            "two_time_identity_skipped",
            "path too short for the requested time pair", ts[-1]))

    # lower bound by the accumulated I - J integral (valid on any range)
    e1_theta = e_k_closed(ref_state)[1]
    items.append(CheckItem.lower_bound(
        "energy_vs_accumulated_imj",
        "background-relative energy dominates twice the accumulated I - J",
        e1_theta, 2.0 * partial, BOUND_SLACK,
        note="" if aubin.completed else "partial range (valid: integrand >= 0)"))
    items.append(CheckItem.info(
        "accumulated_imj", "value of the accumulated I - J integral", partial))

    # bridge identity through both paths (needs the complete bending path)
    if aubin.completed:
        sq_integral = _squared_rate_integral(yau, yau.exact_rate())
        rhs = (2.0 * partial + 2.0 * sq_integral / bg.volume
               - _reference_term(yau, 1) / bg.volume)
        items.append(CheckItem.identity(
            "bridge_identity",
            "background-relative energy through both paths",
            e1_theta, rhs, IDENTITY_TOL, relative_to=max(1.0, abs(e1_theta))))

        # decay bound from a late time onward, and oscillation control
        end = states[-1]
        imj_end = imj[-1]
        tilde = aubin.stacked_exact()
        gap_osc = np.ptp(tilde - tilde[-1], axis=-1)  # oscillation of each row
        late = int(np.searchsorted(ts, 0.5 - 1e-12))
        # E_1 and J between the endpoint metric and the time-t metrics
        e_between = e_k_closed(states[late:], end)[1]
        j_between = i_and_j(states[late:], end)[1]
        tails = 2.0 * (partial - running[late:])
        items.append(CheckItem.upper_bound(
            "late_energy_vs_tail",
            "late-time energy to the endpoint bounded by the tail integral",
            (e_between - tails).max(), 0.0, BOUND_SLACK))
        items.append(CheckItem.upper_bound(
            "late_energy_decay",
            "late-time energy to the endpoint decays linearly in 1 - t",
            (e_between - 2.0 * n * (1.0 - ts[late:]) * imj_end).max(), 0.0,
            BOUND_SLACK))
        items.append(CheckItem.info(
            "oscillation_ratio",
            "largest oscillation of the gap over 1 + J of the gap",
            (gap_osc[late:] / (1.0 + j_between)).max()))
        items.append(CheckItem.info(
            "endpoint_imj_vs_reference_j",
            "I - J at the endpoint minus J of the reference potential "
            "(drift diagnostic)",
            imj_end - i_and_j(ref_state)[1]))

        # accumulated integral versus endpoint I - J and oscillation
        bound = (1.0 - ts) * imj_end - 2.0 * n * (1.0 - ts) * gap_osc
        items.append(CheckItem.upper_bound(
            "integral_vs_endpoint",
            "accumulated I - J dominates its endpoint lower bound",
            (bound - partial).max(), 0.0, BOUND_SLACK))
    else:
        items.append(CheckItem.info(
            "bridge_identity_skipped",
            "bending path did not complete; bridge rows need the endpoint",
            ts[-1]))

    # boundedness monitor for the k = 1 energy along the path
    cap0 = e1_path[0] + 2.0 * imj[0] - grad[0]
    items.append(CheckItem.upper_bound(
        "energy_bounded_above",
        "k = 1 energy stays under its start-time cap along the path",
        (e1_path - (cap0 - 2.0 * running)).max(), 0.0, BOUND_SLACK))
    return items
