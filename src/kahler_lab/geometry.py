"""Radial Kahler calculus on desk-scale 1D grids.

Rotation-invariant metrics on CP^n (1 <= n <= 4) are encoded by potentials
phi(x) in the background moment coordinate x in [0, n+1]; every curvature
quantity and wedge-product integrand collapses to one-dimensional algebra in
x.  A flat-torus branch (n = 1, periodic unit cell) provides the
zero-first-Chern-class model.  It supports `check_grid`, `fs_background`,
`make_metric`, `slot_metric`, `slot_ricci`, `wedge_density`, `ricci_wedges`,
`sigma_k`, `laplacian` and `spectral_tail`; every other call here is for the
projective model only, and `ricci_potential` and `potential_from_density`
raise UnsupportedModelError on the torus.  `check_grid` holds every rule
on which grids exist, for `fs_background` and the config reader alike.

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
`MetricState.einstein_defect` measures the first from any state: the
largest distance of lam_r, lam_s from the reference's value (1 on the
projective model, 0 on the torus).

`make_metric` takes one potential of shape (N,) or a stack of B potentials
of shape (B, N) and returns a MetricState whose fields have the same
leading shape.  Stacks are batch-first: the grid is the last axis,
derivatives act row by row and background fields broadcast against it,
so a single potential is the B = 1 case of the same code, and each row of
a stacked state is bitwise the state of that row alone.
`laplacian`, `laplacian_matrix`, `wedge_density`, the `slot_*` builders,
`ricci_potential`, `potential_from_density` and `Background.integrate` and
`.mean` take stacks too; a single density integrates to a Python float, a stack to one
value per row.  A stacked integral takes one dot product per row, never one
matrix-vector product over the stack (which sums in another order), so
each value is bitwise the integral of that row alone.  No field of a
Background or a MetricState can be reassigned, and every array it holds is
read-only; a Background builds its reference and class constants on first
read.  Indexing a stacked state gives views for a basic index (`state[i]`,
`state[a:b]`) and read-only copies for an index array or a mask, and
`MetricState.stack` joins states into one stack without rebuilding them.

The computations are arranged in perturbation form (differentiating only
phi-dependent quantities, never the identity profile) so the reference
state is exact to rounding and endpoint 0/0 ratios are removable without
L'Hopital gymnastics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .errors import NotKahlerError, ParameterError, UnsupportedModelError
from . import spectral

Array = np.ndarray

MODELS = ("cpn", "torus")
MAX_N = {"cpn": 4, "torus": 1}
MIN_GRID = 16
MAX_GRID = 1024
# resolved Chebyshev modes: where derivative consumers truncate, and the
# Ritz trial space of the first eigenvalue
BAND_MODES = 64


@dataclass(frozen=True)
class Background:
    """Immutable grid-plus-reference-metric bundle.

    Built once and passed to every computation on its grid.  Its fields
    cannot be reassigned, every array it holds or caches is read-only, and
    `reference` and `mu` are built on first read.
    """

    model: str
    n: int
    size: int
    x: Array
    D: Array                  # spectral differentiation matrix
    ref_measure: Array        # weights integrating densities against omega^n
    volume: float
    w0: Array | None = None
    w0_x: Array | None = None
    w0_over_x: Array | None = None
    D2: Array | None = None   # torus second derivative
    D_w0_D: Array | None = None  # D diag(w0) D, the weighted second derivative
    antider: spectral.Antiderivative | None = None
    bary_w: Array | None = None
    cheb_analysis: Array | None = None
    cheb_synthesis: Array | None = None

    def __post_init__(self):
        _freeze(*vars(self).values())

    @cached_property
    def reference(self) -> "MetricState":
        """The reference metric: the round one, or the flat one on the torus."""
        return make_metric(self, np.zeros(self.size))

    @cached_property
    def mu(self) -> tuple[float, ...]:
        """Class constants mu_k, k = 0..n, from the reference by quadrature:
        the wedge of k+1 Ricci factors and n-k-1 metric factors, and at k = n
        the full Ricci wedge (no functional reads that value; every
        prefactor multiplying it vanishes)."""
        wedges = ricci_wedges(self.reference)
        return tuple(self.integrate(wedges[min(k + 1, self.n)]) / self.volume
                     for k in range(self.n + 1))

    @property
    def length(self) -> float:
        return float(self.n + 1) if self.model == "cpn" else 1.0

    def integrate(self, density: Array) -> float | Array:
        """Integral of a density (relative to the reference volume form);
        one value per row of a (B, N) stack."""
        total = _dots(self.ref_measure, np.asarray(density, dtype=float))
        return float(total) if total.ndim == 0 else total

    def mean(self, values: Array, density: Array | None = None) -> float | Array:
        """Average against the reference (or a supplied) volume density;
        one value per row of a (B, N) stack of values or densities."""
        if density is None:
            return self.integrate(values) / self.volume
        w = self.ref_measure * density
        avg = _dots(w, values) / w.sum(axis=-1)
        return float(avg) if avg.ndim == 0 else avg

    def interp(self, values: Array, xq):
        return spectral.bary_interp(self.x, self.bary_w, values, xq)

    @property
    def band(self) -> int:
        """Resolved Chebyshev modes on this grid."""
        return min(BAND_MODES, self.size // 2)

    @cached_property
    def ritz_basis(self) -> tuple[Array, Array]:
        """The resolved band's Chebyshev polynomials on the grid and their
        derivatives: the first eigenvalue's Ritz basis, built on first use."""
        B = np.ascontiguousarray(self.cheb_synthesis[:, :self.band])
        dB = self.D @ B
        _freeze(B, dB)
        return B, dB

    @cached_property
    def density_preconditioner(self) -> Array:
        """The inverse of the round metric's bordered t = 0 Newton matrix
        [Lap 1; ref_measure/volume 0], with Lap the `laplacian_matrix` of
        the reference, built on first use.  At n = 1 Lap also annihilates
        T_{N-1}, and the bordered matrix is singular."""
        size = self.size
        K = np.zeros((size + 1, size + 1))
        K[:size, :size] = laplacian_matrix(self.reference)
        K[:size, size] = 1.0
        K[size, :size] = self.ref_measure / self.volume
        P = np.linalg.inv(K)
        _freeze(P)
        return P

    def lowpass(self, values: Array, modes: int) -> Array:
        """Project onto the first `modes` Chebyshev coefficients; each row
        of a (B, N) stack bitwise as that row alone."""
        coeffs = _rows(self.cheb_analysis, values)
        coeffs[..., modes:] = 0.0
        return _rows(self.cheb_synthesis, coeffs)


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


@dataclass(frozen=True)
class MetricState:
    """A validated radial metric with its curvature data cached, read-only."""

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
    def min_ricci(self) -> float | Array:
        """The smallest Ricci eigenvalue; one per row of a stack."""
        low = np.minimum(self.lam_r.min(axis=-1), self.lam_s.min(axis=-1))
        return float(low) if low.ndim == 0 else low

    @property
    def einstein_defect(self) -> float | Array:
        """The largest distance of a Ricci eigenvalue from the reference's
        (1 on the projective model, 0 on the torus); one per row of a
        stack."""
        lam = 1.0 if self.bg.model == "cpn" else 0.0
        dev = np.maximum(abs(self.lam_r - lam).max(axis=-1),
                         abs(self.lam_s - lam).max(axis=-1))
        return float(dev) if dev.ndim == 0 else dev

    def __post_init__(self):
        _freeze(*vars(self).values())

    def __getitem__(self, index) -> "MetricState":
        """Rows of a stacked state, read-only like every state: views for a
        basic index (`state[i]`, `state[a:b]`), copies for an index array
        or a mask."""
        return MetricState(**{k: v if k == "bg" or v is None else v[index]
                              for k, v in vars(self).items()})

    @staticmethod
    def stack(states: list["MetricState"]) -> "MetricState":
        """One stacked state whose rows are the rows of `states` (single or
        stacked states of one background) in order: their arrays joined, no
        metric rebuilt, so each row is bitwise its source."""
        return MetricState(**{
            k: v if k == "bg" or v is None
            else np.concatenate([np.atleast_2d(getattr(s, k)) for s in states])
            for k, v in vars(states[0]).items()})


def _freeze(*values) -> None:
    for a in values:
        # a view of a frozen array is read-only already and skips the call
        if isinstance(a, np.ndarray) and a.flags.writeable:
            a.setflags(write=False)


def check_grid(model: str, n: int, grid_size: int) -> None:
    """Raise ParameterError unless the model is known, 1 <= n <= MAX_N of
    the model, MIN_GRID <= grid_size <= MAX_GRID, and a torus grid is
    even."""
    if model not in MODELS:
        raise ParameterError(f"unknown model {model!r}; expected one of {MODELS}")
    if not 1 <= n <= MAX_N[model]:
        raise ParameterError(f"model {model!r} supports 1 <= n <= {MAX_N[model]}, got {n}")
    if not MIN_GRID <= grid_size <= MAX_GRID:
        raise ParameterError(f"grid_size must be in [{MIN_GRID}, {MAX_GRID}], got {grid_size}")
    if model == "torus" and grid_size % 2:
        raise ParameterError(f"torus grid_size must be even, got {grid_size}")


@lru_cache(maxsize=4)
def fs_background(model: str, n: int, grid_size: int) -> Background:
    """Build the reference background and validate its curvature anchors.

    For the projective model the reference is the round metric in the
    anticanonical normalization (moment interval [0, n+1], volume
    (2 pi)^n (n+1)^n); construction fails loudly if the computed Ricci
    eigenvalues are not identically 1 to tight tolerance, so every
    convention drift is caught here before anything else runs.  Cached per
    (model, n, grid_size), the four latest per process, so the callers of
    a grid share one read-only instance; a request `check_grid` rejects
    raises ParameterError and is not cached.
    """
    check_grid(model, n, grid_size)
    if model == "cpn":
        length = float(n + 1)
        x = spectral.cheb_nodes(grid_size, length)
        bary_w = spectral.cheb_bary_weights(grid_size)
        D = spectral.diff_matrix(x, bary_w)
        w0 = x * (length - x) / length
        w0_x = (length - 2.0 * x) / length
        w0_over_x = (length - x) / length
        quadrature = spectral.clenshaw_curtis(grid_size, length)
        ref_measure = n * (2.0 * np.pi) ** n * quadrature * x ** (n - 1)
        volume = (2.0 * np.pi) ** n * length ** n
        C, V = spectral.cheb_transform(grid_size)
        bg = Background(
            model=model, n=n, size=grid_size, x=x, D=D,
            ref_measure=ref_measure, volume=volume,
            w0=w0, w0_x=w0_x, w0_over_x=w0_over_x,
            D_w0_D=D @ (w0[:, None] * D),
            antider=spectral.Antiderivative(D), bary_w=bary_w,
            cheb_analysis=C, cheb_synthesis=V,
        )
    else:
        x = spectral.fourier_nodes(grid_size)
        D = spectral.fourier_diff(grid_size, 1)
        D2 = spectral.fourier_diff(grid_size, 2)
        bg = Background(
            model=model, n=n, size=grid_size, x=x, D=D,
            ref_measure=np.full(grid_size, 1.0 / grid_size), volume=1.0, D2=D2,
        )

    dev = bg.reference.einstein_defect
    if dev > 1e-8:
        raise RuntimeError(
            f"reference curvature anchor failed: eigenvalue deviation {dev:.3e}"
        )

    return bg


# ---------------------------------------------------------------------------
# metric construction


def _potential_values(phi) -> Array:
    arr = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ParameterError("potential contains non-finite values")
    return arr


def _rows(M: Array, v: Array) -> Array:
    """M applied to v, or to each row of a (B, N) stack v.

    numpy runs a stack of vector-matrix products one matrix-vector product
    per row, so each row comes out bitwise equal to the product of that
    row alone.  One matrix-matrix product over the stack sums in another
    order, and the three derivatives of a metric state amplify that last
    bit far beyond rounding in lam_s.
    """
    return (v[..., None, :] @ M.T)[..., 0, :]


def _dots(a: Array, b: Array) -> Array:
    """Row-by-row dot products of a and b, either one vector or a (B, N)
    stack, each bitwise the dot of that row alone (0-d for two vectors)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _div_by_x(bg: Background, v: Array) -> Array:
    """v/x for vectors vanishing at x = 0, with the spectral limit at the pole."""
    out = np.empty_like(v)
    out[..., 1:] = v[..., 1:] / bg.x[1:]
    out[..., :1] = _rows(bg.D[:1], v)
    return out


def _div_by_w0(bg: Background, v: Array) -> Array:
    """v/w0 for vectors, or rows of a (B, N) stack, vanishing at both ends."""
    out = np.empty_like(v)
    out[..., 1:-1] = v[..., 1:-1] / bg.w0[1:-1]
    out[..., 0] = _dots(bg.D[0], v) / bg.w0_x[0]
    out[..., -1] = _dots(bg.D[-1], v) / bg.w0_x[-1]
    return out


def make_metric(bg: Background, phi) -> MetricState:
    """Validate a potential, or a (B, N) stack of them, and assemble the
    full metric state; a stack gives a state whose fields are (B, N).

    Raises NotKahlerError at the first node where positivity fails (in a
    stack, at the first failing row, with the node index within it, and
    listing every failing row).
    Adding a constant to phi returns an identical state (the
    differentiation matrix annihilates constants exactly).
    """
    values = _potential_values(phi)
    if values.ndim not in (1, 2) or values.shape[-1] != bg.size:
        raise ParameterError(
            f"potential shape {values.shape} is neither ({bg.size},) nor (B, {bg.size})")

    if bg.model == "torus":
        return _make_metric_torus(bg, values)

    n = bg.n
    phi_x = _rows(bg.D, values)
    delta = bg.w0 * phi_x
    delta_x = _rows(bg.D, delta)
    m_x = 1.0 + delta_x
    m_over_x = 1.0 + bg.w0_over_x * phi_x
    check_moment_profile(m_x, m_over_x)

    m = bg.x + delta
    rho = m_x * m_over_x ** (n - 1)
    log_rho = np.log(m_x) + (n - 1) * np.log(m_over_x)
    r = bg.w0_over_x / m_over_x

    delta_xx = _rows(bg.D, delta_x)
    G = n - bg.w0_x - bg.w0 * delta_xx / m_x - (n - 1) * m_x * r
    G_x = _rows(bg.D, G)
    G_over_x = 1.0 + _div_by_x(bg, G - bg.x)

    lam_r = G_x / m_x
    if n == 1:
        # no transverse directions; report the radial value for both so
        # min/max monitors stay well defined
        lam_s = lam_r.copy()
    else:
        lam_s = G_over_x / m_over_x

    return MetricState(
        bg=bg, phi=values.copy(), rho=rho, log_rho=log_rho,
        lam_r=lam_r, lam_s=lam_s,
        m=m, m_x=m_x, m_over_x=m_over_x, r=r,
        G=G, G_x=G_x, G_over_x=G_over_x,
    )


def check_moment_profile(m_x: Array, m_over_x: Array) -> None:
    """Raise NotKahlerError where a moment profile fails to increase or be
    positive; for a (B, N) stack, at the first row that fails."""
    _check_positive(((m_x, "moment profile not increasing"),
                     (m_over_x, "moment profile not positive")))


def _check_positive(fields) -> None:
    """Raise NotKahlerError at the first nonpositive node of the first
    failing row, testing each row's (values, message) pairs in order; the
    error lists every failing row of a stack."""
    if min(values.min() for values, _ in fields) > 0.0:
        return
    stacks = [(np.atleast_2d(values), message) for values, message in fields]
    failing = np.flatnonzero(np.any([values.min(axis=1) <= 0.0 for values, _ in stacks],
                                    axis=0)).tolist()
    if failing:
        row = failing[0]
        values, message = next((v, m) for v, m in stacks if v[row].min() <= 0.0)
        node = int(np.argmin(values[row]))
        raise NotKahlerError(message, node, float(values[row, node]), row, failing)


def _make_metric_torus(bg: Background, values: Array) -> MetricState:
    phi_xx = _rows(bg.D2, values)
    rho = 1.0 + phi_xx
    _check_positive(((rho, "flat-frame density not positive"),))
    log_rho = np.log(rho)
    ric_flat = -_rows(bg.D2, log_rho)
    lam = ric_flat / rho
    return MetricState(
        bg=bg, phi=values.copy(), rho=rho, log_rho=log_rho,
        lam_r=lam, lam_s=lam.copy(), ric_flat=ric_flat,
    )


# ---------------------------------------------------------------------------
# wedge calculus


def slot_metric(state: MetricState) -> FormSlot:
    if state.bg.model == "torus":
        return FormSlot(state.rho, np.zeros_like(state.rho))
    return FormSlot(state.m_x, state.m_over_x)


def slot_ricci(state: MetricState) -> FormSlot:
    if state.bg.model == "torus":
        return FormSlot(state.ric_flat, np.zeros_like(state.ric_flat))
    return FormSlot(state.G_x, state.G_over_x)


def slot_hessian(bg: Background, u) -> FormSlot:
    """Complex Hessian of a radial function as a (1,1)-form slot."""
    u_x = _rows(bg.D, _potential_values(u))
    return FormSlot(_rows(bg.D, bg.w0 * u_x), bg.w0_over_x * u_x)


def slot_gradsq(bg: Background, u) -> FormSlot:
    """The rank-one form  i du ^ dubar  of a radial function."""
    u_x = _rows(bg.D, _potential_values(u))
    return FormSlot(bg.w0 * u_x * u_x, np.zeros_like(u_x))


def wedge_density(bg: Background, slots: list[FormSlot]) -> Array:
    """Density of an n-fold wedge of radial (1,1)-forms against omega^n.

    With simultaneous eigenpairs (a_r, a_s) the normalized density is
    (1/n) sum_j a_r^j prod_{l != j} a_s^l.  A rank-one (gradient-square)
    slot has a_s = 0, so a wedge of two of them is correctly zero.
    """
    if len(slots) != bg.n:
        raise ParameterError(f"wedge of degree {len(slots)} on an n = {bg.n} model")

    n = bg.n
    total = 0.0
    for j in range(n):
        term = slots[j].ar
        for l in range(n):
            if l != j:
                term = term * slots[l].as_
        total = total + term
    return total / n


def ricci_wedges(state: MetricState) -> list[Array]:
    """The densities of Ric^j ^ w^{n-j}, j = 0..n, of the state's metric."""
    n = state.bg.n
    ric, met = slot_ricci(state), slot_metric(state)
    return [wedge_density(state.bg, [ric] * j + [met] * (n - j)) for j in range(n + 1)]


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
    # C(n-1, k) = 0 at k = n: no transverse term
    return (comb(n - 1, k) * state.lam_s ** k
            + comb(n - 1, k - 1) * state.lam_s ** (k - 1) * state.lam_r)


def laplacian(state: MetricState, u) -> Array:
    """Complex Laplacian of a radial function in the metric of `state`;
    either may be a (B, N) stack, and a single function broadcasts."""
    bg = state.bg
    vals = _potential_values(u)
    if bg.model == "torus":
        return _rows(bg.D2, vals) / state.rho
    u_x = _rows(bg.D, vals)
    q_x = _rows(bg.D, bg.w0 * u_x)
    return q_x / state.m_x + (bg.n - 1) * u_x * state.r


def laplacian_matrix(state: MetricState) -> Array:
    """Dense matrix of the Laplacian acting on grid samples; a (B, N, N)
    stack for a stacked state."""
    bg = state.bg
    A = bg.D_w0_D / state.m_x[..., None]
    A += (bg.n - 1) * state.r[..., None] * bg.D
    return A


# ---------------------------------------------------------------------------
# Ricci potential and prescribed-density inversion


def ricci_potential(state: MetricState) -> tuple[Array, float]:
    """Potential f with Ric - omega = i ddbar f, e^f averaging to one.

    The round background is Kahler-Einstein, Ric(omega) = omega, so
    Ric(omega_phi) - omega_phi = -i ddbar(log rho + phi): f is -(log rho +
    phi) plus the normalizing constant, in closed form.  Returns (f, defect)
    where the defect is the max-node residual of the defining identity
    across both eigenvalue components; a stacked state gives one f and one
    defect per row.  Only the positive-first-Chern-class model carries such
    a potential.
    """
    bg = state.bg
    if bg.model != "cpn":
        raise UnsupportedModelError("Ricci potentials require the positive model")
    f_raw = -(state.log_rho + state.phi)
    mass = np.asarray(bg.integrate(state.rho * np.exp(f_raw)))
    f = f_raw - np.log(mass / bg.volume)[..., None]

    hess = slot_hessian(bg, f)
    defect_r = np.abs(hess.ar - (state.G_x - state.m_x))
    defect_s = np.abs(hess.as_ - (state.G_over_x - state.m_over_x))
    defect = np.maximum(defect_r.max(axis=-1), defect_s.max(axis=-1))
    return f, float(defect) if defect.ndim == 0 else defect


def potential_from_density(bg: Background, rho_target: Array) -> Array:
    """Invert the prescribed-density problem  omega_phi^n = rho omega^n
    by moment inversion: the new moment profile is
    M = (n int_0^x rho s^{n-1} ds)^{1/n}, one spectral quadrature.  The
    target is renormalized to unit mass, and the returned potential has
    reference average zero.  A (B, N) stack of targets inverts row by row,
    bitwise, raising NotKahlerError at its first nonpositive row.

    At n = 1 no root is taken and the inversion is exact.  For n >= 2 the
    root loses ~eps/x^n relative digits next to the coordinate pole, which
    curvature amplifies through two derivatives; the continuity solvers'
    Newton solve, warm-started here, recovers them.
    """
    if bg.model != "cpn":
        raise UnsupportedModelError("density inversion requires the projective model")
    rho_arr = np.asarray(rho_target, dtype=float)
    _check_positive(((rho_arr, "target density not positive"),))

    n = bg.n
    mass = np.asarray(bg.integrate(rho_arr))[..., None]
    rho_n = rho_arr * (bg.volume / mass)
    A = np.maximum(bg.antider(rho_n * bg.x ** (n - 1)), 0.0)
    M = (n * A) ** (1.0 / n)
    M[..., -1] = bg.length
    phi_x = _div_by_w0(bg, M - bg.x)
    phi = bg.antider(phi_x)
    return phi - np.asarray(bg.mean(phi))[..., None]


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
