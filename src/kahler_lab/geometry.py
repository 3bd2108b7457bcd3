"""Radial Kahler calculus on desk-scale 1D grids.

Rotation-invariant metrics on CP^n (1 <= n <= 4) are encoded by potentials
phi(x) in the background moment coordinate x in [0, n+1]; every curvature
quantity and wedge-product integrand collapses to one-dimensional algebra in
x.  A flat-torus branch (n = 1, periodic unit cell) provides the
zero-first-Chern-class model.  It supports `fs_background`, `make_metric`,
`slot_metric`, `slot_ricci`, `wedge_density`, `sigma_k`, `laplacian` and
`spectral_tail`; every other call here is for the projective model only,
and `ricci_potential` and `potential_from_density` raise
UnsupportedModelError on the torus.

Conventions, all pinned by the round-metric anchor:

* background profile  w0(x) = x(n+1-x)/(n+1)  with  d/dt = w0 d/dx  for the
  cylinder variable t = log|z|^2;
* a metric potential phi gives moment profile m = x + w0 phi_x, velocity
  w = w0 m_x, and volume density rho = m_x (m/x)^{n-1} relative to the
  reference;
* the Ricci form of a radial metric is radial with moment profile
  G = n - w0 (log(w m^{n-1}))_x; its eigenvalues relative to the metric are
  lam_s = G/m (transverse, multiplicity n-1) and lam_r = G_x/m_x (radial);
* the Laplacian is the complex trace g^{ij} d_i d_jbar (nonpositive
  spectrum), which on radial functions reads
  (w0 u_x)_x / m_x + (n-1) u_x w0/m.

On the round reference all of lam_r, lam_s equal 1 and the moment function
x has Laplacian n - x; both facts are validated at construction time.

The computations are arranged in perturbation form (differentiating only
phi-dependent quantities, never the identity profile) so the reference
state is exact to rounding and endpoint 0/0 ratios are removable without
L'Hopital gymnastics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import NotKahlerError, ParameterError, UnsupportedModelError
from . import spectral

Array = np.ndarray

MODELS = ("cpn", "torus")
MAX_N = {"cpn": 4, "torus": 1}
MIN_GRID = 16
# resolved Chebyshev modes: where derivative consumers truncate, and the
# Ritz trial space of the first eigenvalue
BAND_MODES = 64


@dataclass
class Background:
    """Immutable grid-plus-reference-metric bundle.

    Built once and passed to every computation on its grid; all arrays are
    frozen after construction.
    """

    model: str
    n: int
    size: int
    x: Array
    wq: Array                 # plain quadrature weights for dx
    D: Array                  # spectral differentiation matrix
    ref_measure: Array        # weights integrating densities against omega^n
    volume: float
    moment_mean: float
    w0: Array | None = None
    w0_x: Array | None = None
    w0_over_x: Array | None = None
    D2: Array | None = None   # torus second derivative
    D_w0_D: Array | None = None  # D diag(w0) D, the weighted second derivative
    mu: tuple[float, ...] = ()
    antider: spectral.Antiderivative | None = None
    bary_w: Array | None = None
    cheb_analysis: Array | None = None
    cheb_synthesis: Array | None = None
    reference: "MetricState | None" = field(default=None, repr=False)

    @property
    def length(self) -> float:
        return float(self.n + 1) if self.model == "cpn" else 1.0

    def integrate(self, density: Array) -> float:
        """Integral of a density (relative to the reference volume form)."""
        return float(self.ref_measure @ np.asarray(density, dtype=float))

    def mean(self, values: Array, density: Array | None = None) -> float:
        """Average against the reference (or a supplied) volume density."""
        if density is None:
            return self.integrate(values) / self.volume
        w = self.ref_measure * density
        return float(w @ values) / float(w.sum())

    def interp(self, values: Array, xq):
        return spectral.bary_interp(self.x, self.bary_w, values, xq)

    @property
    def band(self) -> int:
        """Resolved Chebyshev modes on this grid."""
        return min(BAND_MODES, self.size // 2)

    def lowpass(self, values: Array, modes: int) -> Array:
        """Project onto the first `modes` Chebyshev coefficients."""
        coeffs = self.cheb_analysis @ values
        coeffs[modes:] = 0.0
        return self.cheb_synthesis @ coeffs


@dataclass
class FormSlot:
    """One factor of an n-fold wedge product, as an eigenvalue pair field.

    Eigenvalues are taken relative to the reference frame, so the reference
    metric slot is identically (1, 1).  `ar` is the radial eigenvalue
    (multiplicity one), `as_` the transverse one (multiplicity n-1, unused
    when n = 1).
    """

    ar: Array
    as_: Array


@dataclass
class MetricState:
    """A validated radial metric with its curvature data cached."""

    bg: Background
    phi: Array
    rho: Array
    log_rho: Array
    lam_r: Array
    lam_s: Array
    # projective-model fields (None on the torus)
    m: Array | None = None
    m_x: Array | None = None
    m_over_x: Array | None = None
    r: Array | None = None            # w0/m, regular on the closed interval
    G: Array | None = None            # Ricci moment profile
    G_x: Array | None = None
    G_over_x: Array | None = None
    # torus field
    ric_flat: Array | None = None     # Ricci eigenvalue relative to the flat frame

    @property
    def min_ricci(self) -> float:
        return float(min(self.lam_r.min(), self.lam_s.min()))


def _freeze(*arrays: Array | None) -> None:
    for a in arrays:
        if a is not None:
            a.setflags(write=False)


def _validate_request(model: str, n: int, grid_size: int) -> None:
    if model not in MODELS:
        raise ParameterError(f"unknown model {model!r}; expected one of {MODELS}")
    if not 1 <= n <= MAX_N[model]:
        raise ParameterError(f"model {model!r} supports 1 <= n <= {MAX_N[model]}, got {n}")
    if grid_size < MIN_GRID:
        raise ParameterError(f"grid_size must be at least {MIN_GRID}, got {grid_size}")


def fs_background(model: str, n: int, grid_size: int) -> Background:
    """Build the reference background and validate its curvature anchors.

    For the projective model the reference is the round metric in the
    anticanonical normalization (moment interval [0, n+1], volume
    (2 pi)^n (n+1)^n); construction fails loudly if the computed Ricci
    eigenvalues are not identically 1 to tight tolerance, so every
    convention drift is caught here before anything else runs.
    """
    _validate_request(model, n, grid_size)

    if model == "cpn":
        length = float(n + 1)
        x = spectral.cheb_nodes(grid_size, length)
        bary_w = spectral.cheb_bary_weights(grid_size)
        D = spectral.diff_matrix(x, bary_w)
        wq = spectral.clenshaw_curtis(grid_size, length)
        w0 = x * (length - x) / length
        w0_x = (length - 2.0 * x) / length
        w0_over_x = (length - x) / length
        c_norm = n * (2.0 * np.pi) ** n
        ref_measure = c_norm * wq * x ** (n - 1)
        volume = (2.0 * np.pi) ** n * length ** n
        C, V = spectral.cheb_transform(grid_size)
        bg = Background(
            model=model, n=n, size=grid_size, x=x, wq=wq, D=D,
            ref_measure=ref_measure, volume=volume, moment_mean=float(n),
            w0=w0, w0_x=w0_x, w0_over_x=w0_over_x,
            D_w0_D=D @ (w0[:, None] * D),
            antider=spectral.Antiderivative(D), bary_w=bary_w,
            cheb_analysis=C, cheb_synthesis=V,
        )
    else:
        if grid_size % 2:
            grid_size += 1  # even periodic grids keep the Nyquist mode tidy
        x = spectral.fourier_nodes(grid_size)
        D = spectral.fourier_diff(grid_size, 1)
        D2 = spectral.fourier_diff(grid_size, 2)
        wq = np.full(grid_size, 1.0 / grid_size)
        bg = Background(
            model=model, n=n, size=grid_size, x=x, wq=wq, D=D,
            ref_measure=wq.copy(), volume=1.0, moment_mean=0.0, D2=D2,
        )

    _freeze(bg.x, bg.wq, bg.D, bg.ref_measure, bg.w0, bg.w0_x, bg.w0_over_x,
            bg.D2, bg.D_w0_D, bg.bary_w, bg.cheb_analysis, bg.cheb_synthesis)

    ref = make_metric(bg, np.zeros(bg.size))
    bg.reference = ref

    lam = 1.0 if model == "cpn" else 0.0
    dev = max(abs(ref.lam_r - lam).max(), abs(ref.lam_s - lam).max())
    if dev > 1e-8:
        raise RuntimeError(
            f"reference curvature anchor failed: eigenvalue deviation {dev:.3e}"
        )

    bg.mu = tuple(_mu_from_reference(bg, k) for k in range(n + 1))
    return bg


def _mu_from_reference(bg: Background, k: int) -> float:
    """Class constant from the reference metric by quadrature.

    The defining wedge carries k+1 Ricci factors against n-k-1 metric
    factors; at the top index k = n the metric exponent would be -1, so we
    integrate the full Ricci wedge instead (the value never enters any
    functional there, every prefactor multiplying it vanishes).
    """
    ref = bg.reference
    ric = slot_ricci(ref)
    met = slot_metric(ref)
    if k < bg.n:
        slots = [ric] * (k + 1) + [met] * (bg.n - k - 1)
    else:
        slots = [ric] * bg.n
    return bg.integrate(wedge_density(bg, slots)) / bg.volume


# ---------------------------------------------------------------------------
# metric construction


def _potential_values(phi) -> Array:
    arr = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ParameterError("potential contains non-finite values")
    return arr


def _div_by_x(bg: Background, v: Array) -> Array:
    """v/x for vectors vanishing at x = 0, with the spectral limit at the pole."""
    out = np.empty_like(v)
    out[1:] = v[1:] / bg.x[1:]
    out[0] = float(bg.D[0] @ v)
    return out


def _div_by_w0(bg: Background, v: Array) -> Array:
    """v/w0 for vectors vanishing at both endpoints."""
    out = np.empty_like(v)
    out[1:-1] = v[1:-1] / bg.w0[1:-1]
    out[0] = float(bg.D[0] @ v) / bg.w0_x[0]
    out[-1] = float(bg.D[-1] @ v) / bg.w0_x[-1]
    return out


def make_metric(bg: Background, phi) -> MetricState:
    """Validate a potential and assemble the full metric state.

    Raises NotKahlerError at the first node where positivity fails.  Adding
    a constant to phi returns an identical state (the differentiation
    matrix annihilates constants exactly).
    """
    values = _potential_values(phi)
    if values.shape != (bg.size,):
        raise ParameterError(f"potential shape {values.shape} != ({bg.size},)")

    if bg.model == "torus":
        return _make_metric_torus(bg, values)

    n = bg.n
    phi_x = bg.D @ values
    delta = bg.w0 * phi_x
    delta_x = bg.D @ delta
    m_x = 1.0 + delta_x
    m_over_x = 1.0 + bg.w0_over_x * phi_x
    check_moment_profile(m_x, m_over_x)

    m = bg.x + delta
    rho = m_x * m_over_x ** (n - 1)
    log_rho = np.log(m_x) + (n - 1) * np.log(m_over_x)
    r = bg.w0_over_x / m_over_x

    delta_xx = bg.D @ delta_x
    G = n - bg.w0_x - bg.w0 * delta_xx / m_x - (n - 1) * m_x * r
    G_x = bg.D @ G
    G_over_x = 1.0 + _div_by_x(bg, G - bg.x)

    lam_r = G_x / m_x
    if n == 1:
        # no transverse directions; report the radial value for both so
        # min/max monitors stay well defined
        lam_s = lam_r.copy()
    else:
        lam_s = G_over_x / m_over_x

    state = MetricState(
        bg=bg, phi=values.copy(), rho=rho, log_rho=log_rho,
        lam_r=lam_r, lam_s=lam_s,
        m=m, m_x=m_x, m_over_x=m_over_x, r=r,
        G=G, G_x=G_x, G_over_x=G_over_x,
    )
    _freeze(state.phi, state.rho, state.log_rho, state.lam_r, state.lam_s,
            state.m, state.m_x, state.m_over_x, state.r, state.G, state.G_x,
            state.G_over_x)
    return state


def check_moment_profile(m_x: Array, m_over_x: Array) -> None:
    """Raise NotKahlerError where a moment profile fails to increase or be positive."""
    for values, what in ((m_x, "increasing"), (m_over_x, "positive")):
        if values.min() <= 0.0:
            node = int(np.argmin(values))
            raise NotKahlerError(f"moment profile not {what}", node, float(values[node]))


def _make_metric_torus(bg: Background, values: Array) -> MetricState:
    phi_xx = bg.D2 @ values
    rho = 1.0 + phi_xx
    if rho.min() <= 0.0:
        node = int(np.argmin(rho))
        raise NotKahlerError("flat-frame density not positive", node, float(rho[node]))
    log_rho = np.log(rho)
    ric_flat = -(bg.D2 @ log_rho)
    lam = ric_flat / rho
    state = MetricState(
        bg=bg, phi=values.copy(), rho=rho, log_rho=log_rho,
        lam_r=lam, lam_s=lam.copy(), ric_flat=ric_flat,
    )
    _freeze(state.phi, state.rho, state.log_rho, state.lam_r, state.lam_s,
            state.ric_flat)
    return state


# ---------------------------------------------------------------------------
# wedge calculus


def slot_metric(state: MetricState) -> FormSlot:
    if state.bg.model == "torus":
        return FormSlot(state.rho, np.zeros(state.bg.size))
    return FormSlot(state.m_x, state.m_over_x)


def slot_ricci(state: MetricState) -> FormSlot:
    if state.bg.model == "torus":
        return FormSlot(state.ric_flat, np.zeros(state.bg.size))
    return FormSlot(state.G_x, state.G_over_x)


def slot_hessian(bg: Background, u) -> FormSlot:
    """Complex Hessian of a radial function as a (1,1)-form slot."""
    u_x = bg.D @ _potential_values(u)
    return FormSlot(bg.D @ (bg.w0 * u_x), bg.w0_over_x * u_x)


def slot_gradsq(bg: Background, u) -> FormSlot:
    """The rank-one form  i du ^ dubar  of a radial function."""
    u_x = bg.D @ _potential_values(u)
    return FormSlot(bg.w0 * u_x * u_x, np.zeros(bg.size))


def wedge_density(bg: Background, slots: list[FormSlot]) -> Array:
    """Density of an n-fold wedge of radial (1,1)-forms against omega^n.

    With simultaneous eigenpairs (a_r, a_s) the normalized density is
    (1/n) sum_j a_r^j prod_{l != j} a_s^l.  A rank-one (gradient-square)
    slot has a_s = 0, so a wedge of two of them is correctly zero.
    """
    if len(slots) != bg.n:
        raise ParameterError(f"wedge of degree {len(slots)} on an n = {bg.n} model")

    n = bg.n
    if n == 1:
        return slots[0].ar.copy()
    total = np.zeros(bg.size)
    for j in range(n):
        term = slots[j].ar.copy()
        for l in range(n):
            if l != j:
                term = term * slots[l].as_
        total += term
    return total / n


# ---------------------------------------------------------------------------
# curvature scalars and the Laplacian


def sigma_k(state: MetricState, k: int) -> Array:
    """k-th elementary symmetric function of the Ricci eigenvalues.

    Two distinct eigenvalues with multiplicities (1, n-1) give the closed
    form  C(n-1,k) lam_s^k + C(n-1,k-1) lam_s^{k-1} lam_r.
    """
    n = state.bg.n
    if not 0 <= k <= n:
        raise ParameterError(f"sigma index must lie in [0, {n}], got {k}")
    if k == 0:
        return np.ones(state.bg.size)
    out = np.zeros(state.bg.size)
    if comb(n - 1, k):
        out += comb(n - 1, k) * state.lam_s ** k
    out += comb(n - 1, k - 1) * state.lam_s ** (k - 1) * state.lam_r
    return out


def laplacian(state: MetricState, u) -> Array:
    """Complex Laplacian of a radial function in the metric of `state`."""
    bg = state.bg
    vals = _potential_values(u)
    u_x = bg.D @ vals
    if bg.model == "torus":
        return (bg.D2 @ vals) / state.rho
    q_x = bg.D @ (bg.w0 * u_x)
    return q_x / state.m_x + (bg.n - 1) * u_x * state.r


def laplacian_matrix(state: MetricState) -> Array:
    """Dense matrix of the Laplacian acting on grid samples."""
    bg = state.bg
    A = bg.D_w0_D / state.m_x[:, None]
    if bg.n > 1:
        A = A + (bg.n - 1) * state.r[:, None] * bg.D
    return A


# ---------------------------------------------------------------------------
# Ricci potential and prescribed-density inversion


def ricci_potential(state: MetricState) -> tuple[Array, float]:
    """Potential f with Ric - omega = i ddbar f, e^f averaging to one.

    Returns (f, defect) where the defect is the max-node residual of the
    defining identity across both eigenvalue components.  Only the
    positive-first-Chern-class model carries such a potential.
    """
    bg = state.bg
    if bg.model != "cpn":
        raise UnsupportedModelError("Ricci potentials require the positive model")
    f_x = _div_by_w0(bg, state.G - state.m)
    f_raw = bg.antider(f_x)
    mass = float(bg.ref_measure @ (state.rho * np.exp(f_raw)))
    f = f_raw - np.log(mass / bg.volume)

    hess = slot_hessian(bg, f)
    defect_r = np.abs(hess.ar - (state.G_x - state.m_x))
    defect_s = np.abs(hess.as_ - (state.G_over_x - state.m_over_x))
    defect = float(max(defect_r.max(), defect_s.max()))
    return f, defect


def potential_from_density(bg: Background, rho_target: Array,
                           polish: int = 0) -> Array:
    """Solve the prescribed-density problem  omega_phi^n = rho omega^n.

    In the radial reduction this is monotone moment inversion: the new
    moment profile is M = (n int_0^x rho s^{n-1} ds)^{1/n}, obtained by a
    single spectral quadrature, no iteration.  The target is renormalized
    to unit mass, and the returned potential has reference average zero.

    The n-th-root extraction loses ~eps/x^n relative digits next to the
    coordinate pole, which pointwise curvature consumers then amplify
    through two derivatives.  `polish` runs that many Newton sweeps on
    the log-density equation afterwards (the log-determinant linearizes
    exactly to the Laplacian), scrubbing the pole noise down to the
    interior floor.  Callers that only integrate the result can skip it.
    """
    if bg.model != "cpn":
        raise UnsupportedModelError("density inversion requires the projective model")
    rho_arr = np.asarray(rho_target, dtype=float)
    if rho_arr.min() <= 0.0:
        node = int(np.argmin(rho_arr))
        raise NotKahlerError("target density not positive", node, float(rho_arr[node]))

    n = bg.n
    mass = bg.integrate(rho_arr)
    rho_n = rho_arr * (bg.volume / mass)
    A = bg.antider(rho_n * bg.x ** (n - 1))
    A[0] = 0.0
    A = np.maximum(A, 0.0)
    M = (n * A) ** (1.0 / n)
    M[0] = 0.0
    M[-1] = bg.length
    phi_x = _div_by_w0(bg, M - bg.x)
    phi = bg.antider(phi_x)
    phi = phi - bg.mean(phi)

    if polish > 0:
        target_log = np.log(rho_n)
        weight = bg.ref_measure / bg.volume
        for _ in range(polish):
            state = make_metric(bg, phi)
            res = state.log_rho - target_log
            K = laplacian_matrix(state)
            # pin the constant nullspace with the volume-mean functional
            K = K + np.outer(np.ones(bg.size), weight * state.rho)
            phi = phi - np.linalg.solve(K, res)
            phi = phi - bg.mean(phi)
    return phi


# ---------------------------------------------------------------------------
# diagnostics


def spectral_tail(bg: Background, values) -> float:
    """Relative magnitude of the last tenth of the coefficient spectrum."""
    vals = _potential_values(values)
    if bg.model == "torus":
        coeffs = np.abs(np.fft.rfft(vals))
    else:
        coeffs = np.abs(bg.cheb_analysis @ vals)
    scale = coeffs.max()
    if scale == 0.0:
        return 0.0
    tail = max(1, len(coeffs) // 10)
    return float(coeffs[-tail:].max() / scale)


def osc(values: Array) -> float:
    """Oscillation (max minus min) of a sample vector."""
    vals = np.asarray(values, dtype=float)
    return float(vals.max() - vals.min())
