"""Unit tests for backgrounds, metric states, curvature, and inversion.

The heavyweight oracle here recomputes Ricci eigenvalues in the cylinder
coordinate by plain five-point finite differences, with its own derivative
of the interpolated potential -- no shared differentiation matrices, no
eigenvalue bookkeeping from the package.  Everything else is anchored to
closed forms of the round reference or to brute-force enumeration.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

from kahler_lab.errors import (NotKahlerError, ParameterError,
                               UnsupportedModelError)
from kahler_lab.families import generate_probe
from kahler_lab.geometry import (MAX_GRID, FormSlot, MetricState, _div_by_w0, fs_background,
                                 laplacian, laplacian_matrix, make_metric,
                                 potential_from_density,
                                 ricci_potential, sigma_k, slot_gradsq,
                                 slot_hessian, slot_metric, slot_ricci,
                                 spectral_tail, wedge_density)


# ---------------------------------------------------------------------------
# frozen anchors of the round reference


@pytest.mark.parametrize("n,size", [(1, 64), (2, 72), (3, 80), (4, 96)])
def test_round_reference_frozen_anchors(n, size):
    bg = fs_background("cpn", n, size)
    # volume of the anticanonical class: (2 pi)^n (n+1)^n
    assert abs(bg.volume - (2.0 * np.pi) ** n * (n + 1) ** n) < 1e-9 * bg.volume
    # average of the moment coordinate against x^{n-1} dx on [0, n+1] is n
    assert bg.mean(bg.x) == pytest.approx(float(n), abs=1e-11)
    # quadrature of the constant density recovers the volume
    assert bg.integrate(np.ones(size)) == pytest.approx(bg.volume, rel=1e-13)
    # unit curvature: both eigenvalue fields identically one
    ref = bg.reference
    assert np.abs(ref.lam_r - 1.0).max() < 1e-10
    assert np.abs(ref.lam_s - 1.0).max() < 1e-10
    # class constants all equal one
    assert len(bg.mu) == n + 1
    assert max(abs(m - 1.0) for m in bg.mu) < 1e-11


@pytest.mark.parametrize("n,size", [(1, 64), (2, 72), (4, 96)])
def test_round_laplacian_of_moment_coordinate(n, size):
    # closed form: applying the reference Laplacian to x gives n - x
    bg = fs_background("cpn", n, size)
    out = laplacian(bg.reference, bg.x)
    assert np.abs(out - (n - bg.x)).max() < 5e-11


def test_round_ricci_potential_vanishes(bg_cp2):
    f, defect = ricci_potential(bg_cp2.reference)
    assert np.abs(f).max() < 1e-11
    assert defect < 1e-10
    # normalization: exp(f) averages to one in the reference volume
    mass = bg_cp2.integrate(bg_cp2.reference.rho * np.exp(f))
    assert mass == pytest.approx(bg_cp2.volume, rel=1e-12)


def test_flat_torus_background_anchors(bg_torus):
    assert bg_torus.volume == 1.0
    assert bg_torus.length == 1.0
    ref = bg_torus.reference
    assert np.abs(ref.lam_r).max() < 1e-12
    assert np.abs(ref.rho - 1.0).max() < 1e-12


def test_odd_torus_grid_size_is_rejected():
    with pytest.raises(ParameterError, match="even"):
        fs_background("torus", 1, 33)


def test_background_request_validation():
    with pytest.raises(ParameterError):
        fs_background("cpn", 5, 64)
    with pytest.raises(ParameterError):
        fs_background("torus", 2, 64)
    with pytest.raises(ParameterError):
        fs_background("cpn", 2, 8)
    with pytest.raises((ParameterError, UnsupportedModelError)):
        fs_background("sphere", 1, 64)


def test_einstein_defect_of_references_and_stacks(bg_cp1, bg_cp2, bg_cp3, bg_cp4,
                                                 bg_torus):
    assert bg_torus.reference.einstein_defect == 0.0
    for bg in (bg_cp1, bg_cp2, bg_cp3, bg_cp4, bg_torus):
        if bg.model == "cpn":
            assert bg.reference.einstein_defect <= 1e-12
        states = [bg.reference] + [generate_probe(bg, seed=6, scenario="unit", index=i)
                                   for i in range(3)]
        defects = MetricState.stack(states).einstein_defect
        assert defects.tolist() == [s.einstein_defect for s in states]
        assert type(states[1].einstein_defect) is float and defects.shape == (4,)


def test_backgrounds_are_shared_per_grid():
    fs_background.cache_clear()
    bg = fs_background("cpn", 2, 48)
    assert fs_background("cpn", 2, 48) is bg
    assert fs_background("cpn", 3, 48) is not bg
    assert fs_background("torus", 1, 48) is not bg


def test_fifth_grid_evicts_the_oldest_background():
    fs_background.cache_clear()
    grids = [("cpn", 1, size) for size in (16, 20, 24, 28, 32)]
    first, *kept = [fs_background(*grid) for grid in grids]
    assert fs_background.cache_info().currsize == 4
    assert all(fs_background(*grid) is bg for grid, bg in zip(grids[1:], kept))
    assert fs_background(*grids[0]) is not first


def test_background_requests_that_raise_are_not_cached():
    fs_background.cache_clear()
    for size in (10 ** 6, MAX_GRID + 1, 10 ** 6):
        with pytest.raises(ParameterError, match="grid_size"):
            fs_background("cpn", 2, size)
    info = fs_background.cache_info()
    assert (info.misses, info.currsize) == (3, 0)


def test_background_arrays_are_frozen(bg_cp2, bg_torus):
    # every array a background holds or caches, its reference state's too
    for bg in (bg_cp2, bg_torus):
        arrays = [v for obj in (bg, bg.reference) for v in vars(obj).values()
                  if isinstance(v, np.ndarray)]
        if bg.model == "cpn":
            arrays += [bg.antider._inv, *bg.ritz_basis, bg.density_preconditioner]
        assert len(arrays) > 6 and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        bg_cp2.x[0] = 1.0
    with pytest.raises(ValueError):
        bg_cp2.reference.rho[0] = 2.0


def test_backgrounds_and_states_reject_reassignment(bg_cp2, probe_cp2):
    for obj, name, value in ((bg_cp2, "n", 7), (bg_cp2, "reference", None),
                             (bg_cp2, "mu", ()), (probe_cp2, "rho", 0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, value)
    assert bg_cp2.n == 2 and bg_cp2.reference is not None and probe_cp2.rho.shape == (72,)


# ---------------------------------------------------------------------------
# finite-difference curvature oracle (cylinder coordinate)


def _fd1(y: np.ndarray, h: float) -> np.ndarray:
    """Interior five-point first derivative; output loses two points per end."""
    return (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)


def _fd_ricci_oracle(bg, phi, t_grid):
    """Ricci eigenvalues relative to the metric, from scratch.

    Work in the cylinder coordinate t with x(t) = L e^t / (1 + e^t).  The
    moment profile of the perturbed metric is m(t) = x(t) + dPhi/dt with
    Phi(t) = phi(x(t)); the volume density along the axis is W m^{n-1}
    with W = dm/dt, up to the flat factor e^{-nt}.  Taking q = log(W
    m^{n-1}), the eigenvalues of the curvature form relative to the metric
    are -q'' / W radially and (n - q') / m transversely.  All derivatives
    here are five-point stencils in t on a uniform grid.
    """
    h = t_grid[1] - t_grid[0]
    L = bg.length
    x_t = L / (1.0 + np.exp(-t_grid))
    phi_t = bg.interp(np.asarray(phi, dtype=float), x_t)

    m = x_t[2:-2] + _fd1(phi_t, h)                # valid on t[2:-2]
    W = _fd1(m, h)                                # valid on t[4:-4]
    q = np.log(W) + (bg.n - 1) * np.log(m[2:-2])  # on t[4:-4]
    qp = _fd1(q, h)                               # valid on t[6:-6]
    qpp = _fd1(qp, h)                             # valid on t[8:-8]

    lam_r = -qpp / W[4:-4]                        # aligned with t[8:-8]
    lam_s = (bg.n - qp[2:-2]) / m[6:-6]           # aligned with t[8:-8]
    return x_t[8:-8], lam_r, lam_s


@pytest.mark.parametrize("fixture", ["bg_cp1", "bg_cp2", "bg_cp3", "bg_cp4"])
def test_ricci_eigenvalues_match_finite_difference_oracle(fixture, request):
    bg = request.getfixturevalue(fixture)
    state = generate_probe(bg, seed=11, scenario="oracle", index=2)
    phi = state.phi

    t_grid = np.arange(-4.5, 4.5 + 1e-9, 0.01)
    xq, lam_r_o, lam_s_o = _fd_ricci_oracle(bg, phi, t_grid)

    lam_r_pkg = bg.interp(state.lam_r, xq)
    assert np.abs(lam_r_pkg - lam_r_o).max() < 1e-4
    if bg.n > 1:
        lam_s_pkg = bg.interp(state.lam_s, xq)
        assert np.abs(lam_s_pkg - lam_s_o).max() < 1e-4


def test_round_metric_passes_finite_difference_oracle(bg_cp2):
    t_grid = np.arange(-4.5, 4.5 + 1e-9, 0.01)
    _, lam_r_o, lam_s_o = _fd_ricci_oracle(bg_cp2, np.zeros(bg_cp2.size), t_grid)
    assert np.abs(lam_r_o - 1.0).max() < 1e-5
    assert np.abs(lam_s_o - 1.0).max() < 1e-5


def test_torus_curvature_matches_periodic_finite_differences(bg_torus, probe_torus):
    # the probe's top mode has only ~10 grid points per wavelength, so a
    # five-point stencil at the native spacing is too coarse; refine by
    # trigonometric zero-padding (plain numpy FFT, no package machinery)
    # before differencing
    state = probe_torus
    N = bg_torus.size
    K = 16 * N
    h = 1.0 / K

    def refine(y):
        c = np.fft.rfft(y)
        out = np.zeros(K // 2 + 1, dtype=complex)
        out[:len(c)] = c
        out[len(c) - 1] *= 0.5  # split the even-grid Nyquist bin
        return np.fft.irfft(out, K) * (K / N)

    def pfd2(y):
        return (-np.roll(y, 2) + 16.0 * np.roll(y, 1) - 30.0 * y
                + 16.0 * np.roll(y, -1) - np.roll(y, -2)) / (12.0 * h * h)

    lr_fine = refine(state.log_rho)
    rho_fine = refine(state.rho)
    oracle = (-pfd2(lr_fine) / rho_fine)[:: K // N]
    assert np.abs(state.lam_r - oracle).max() < 1e-3


# ---------------------------------------------------------------------------
# metric-state structure


def test_moment_profile_endpoints_pinned(bg_cp2, probe_cp2):
    state = probe_cp2
    L = bg_cp2.length
    assert abs(state.m[0]) < 1e-12
    assert abs(state.m[-1] - L) < 1e-12
    # the curvature moment profile shares the endpoint normalization
    assert abs(state.G[0]) < 1e-9
    assert abs(state.G[-1] - L) < 1e-9


def test_constant_shift_leaves_state_unchanged(bg_cp2, probe_cp2):
    # the differentiation matrix annihilates constants to ~1e-12; two more
    # derivative passes amplify that roundoff into the curvature fields
    a = probe_cp2
    b = make_metric(bg_cp2, probe_cp2.phi + 17.25)
    assert np.abs(a.rho - b.rho).max() < 1e-10
    assert np.abs(a.lam_r - b.lam_r).max() < 1e-6


def test_n1_transverse_eigenvalue_mirrors_radial(bg_cp1, probe_cp1):
    state = probe_cp1
    assert np.array_equal(state.lam_r, state.lam_s)


def test_inadmissible_potential_raises(bg_cp2):
    s = 2.0 * bg_cp2.x / bg_cp2.length - 1.0
    with pytest.raises(NotKahlerError):
        make_metric(bg_cp2, 5.0 * s ** 2)


def test_wrong_shape_raises(bg_cp2):
    with pytest.raises(ParameterError):
        make_metric(bg_cp2, np.zeros(bg_cp2.size + 1))


def test_torus_inadmissible_potential_raises(bg_torus):
    bad = 0.2 * np.cos(2.0 * np.pi * bg_torus.x)  # rho dips below zero
    with pytest.raises(NotKahlerError):
        make_metric(bg_torus, bad)


# ---------------------------------------------------------------------------
# stacked builds: a (B, N) potential is B states in one call

MODELS = ["bg_cp1", "bg_cp2", "bg_cp3", "bg_cp4", "bg_torus"]


def _stack(bg) -> np.ndarray:
    """Rows like an energy segment's nodes (scalings of one probe,
    including zero), plus two other probes."""
    probes = [generate_probe(bg, seed=7, scenario="stack", index=i).phi
              for i in range(3)]
    return np.stack([t * probes[0] for t in (0.0, 0.2, 0.7, 1.0)] + probes[1:])


def _close(a, b) -> bool:
    return np.abs(a - b).max() <= 1e-15 * np.abs(b).max()


@pytest.mark.parametrize("fixture", MODELS)
def test_stacked_build_rows_match_single_builds(fixture, request):
    bg = request.getfixturevalue(fixture)
    rows = _stack(bg)
    stacked = make_metric(bg, rows)
    for i, row in enumerate(rows):
        single = make_metric(bg, row)
        for f in dataclasses.fields(single):
            want = getattr(single, f.name)
            if not isinstance(want, np.ndarray):
                continue  # the background, and fields the model leaves None
            got = getattr(stacked, f.name)
            assert got.shape == rows.shape, f.name
            assert _close(got[i], want), (i, f.name)


@pytest.mark.parametrize("fixture", MODELS)
def test_stacked_consumers_match_single_calls(fixture, request):
    bg = request.getfixturevalue(fixture)
    rows = _stack(bg)
    stacked = make_metric(bg, rows)
    u = np.cos(bg.x)
    lap = laplacian(stacked, u)
    slots = [slot_ricci(stacked)] + [slot_metric(stacked)] * (bg.n - 1)
    density = wedge_density(bg, slots)
    total = bg.integrate(density)
    assert lap.shape == density.shape == rows.shape
    assert total.shape == (len(rows),)
    for i, row in enumerate(rows):
        single = make_metric(bg, row)
        assert _close(lap[i], laplacian(single, u))
        want = wedge_density(bg, [slot_ricci(single)] + [slot_metric(single)] * (bg.n - 1))
        assert _close(density[i], want)
        # one dot per row against a matrix-vector product: the sums differ
        # in order, so compare on the scale of the integrand's magnitude
        assert abs(total[i] - bg.integrate(want)) <= 1e-14 * bg.integrate(np.abs(want))
        assert isinstance(bg.integrate(want), float)
    if bg.model == "cpn":  # the slot builders are projective-only
        for build in (slot_hessian, slot_gradsq):
            stacked_slot = build(bg, rows)
            for i, row in enumerate(rows):
                single_slot = build(bg, row)
                assert _close(stacked_slot.ar[i], single_slot.ar)
                assert _close(stacked_slot.as_[i], single_slot.as_)


@pytest.mark.parametrize("fixture", MODELS)
def test_metric_state_stack_rows_are_their_sources(fixture, request):
    # single states and stacked ones join in order, every field bitwise
    bg = request.getfixturevalue(fixture)
    rows = _stack(bg)
    singles = [make_metric(bg, row) for row in rows[:2]]
    tail = make_metric(bg, rows[2:])
    joined = MetricState.stack(singles + [tail])
    sources = singles + [tail[i] for i in range(len(rows) - 2)]
    for f in dataclasses.fields(joined):
        got = getattr(joined, f.name)
        if f.name == "bg":
            assert got is bg
        elif got is None:
            assert getattr(tail, f.name) is None
        else:
            assert got.shape == rows.shape and not got.flags.writeable, f.name
            for i, source in enumerate(sources):
                want = getattr(source, f.name)
                assert got[i].tobytes() == want.tobytes(), (i, f.name)
    assert joined.min_ricci.tolist() == [s.min_ricci for s in sources]


@pytest.mark.parametrize("fixture", MODELS)
def test_metric_state_rows_by_index_array_or_mask_are_read_only(fixture, request):
    bg = request.getfixturevalue(fixture)
    state = make_metric(bg, _stack(bg))
    size = len(state.phi)
    for index in (np.array([4, 1, 4]), np.arange(size) % 2 == 0):
        picked = state[index]
        sources = np.arange(size)[index]
        for name, got in vars(picked).items():
            if isinstance(got, np.ndarray):
                assert not got.flags.writeable, name
                for i, source in enumerate(sources):
                    assert got[i].tobytes() == getattr(state[source], name).tobytes()


def _inadmissible(bg):
    """Two inadmissible potentials failing at different nodes; the second
    has the more negative value, so a stack-wide minimum would pick it."""
    if bg.model == "torus":
        return (0.2 * np.cos(2.0 * np.pi * bg.x), 0.3 * np.sin(2.0 * np.pi * bg.x))
    s = 2.0 * bg.x / bg.length - 1.0
    return -5.0 * s ** 2, 8.0 * s ** 3


@pytest.mark.parametrize("fixture", ["bg_cp2", "bg_torus"])
def test_stack_raises_the_error_of_its_first_inadmissible_row(fixture, request):
    bg = request.getfixturevalue(fixture)
    good = generate_probe(bg, seed=7, scenario="stack", index=0).phi
    first, later = _inadmissible(bg)
    with pytest.raises(NotKahlerError) as single:
        make_metric(bg, first)
    want = (str(single.value), single.value.node, single.value.value)
    with pytest.raises(NotKahlerError) as other:
        make_metric(bg, later)
    assert (other.value.node, other.value.value) != want[1:]
    # the error is the first failing row's, and lists every failing row
    for rows, failing in (([good, first], [1]), ([good, first, later], [1, 2]),
                          ([first, good, later], [0, 2])):
        with pytest.raises(NotKahlerError) as stacked:
            make_metric(bg, np.stack(rows))
        assert (str(stacked.value), stacked.value.node, stacked.value.value) == want
        assert (stacked.value.row, stacked.value.rows) == (failing[0], failing)
    assert single.value.rows == [0]


def test_stack_of_wrong_shape_raises(bg_cp2):
    for shape in ((2, bg_cp2.size + 1), (2, 2, bg_cp2.size)):
        with pytest.raises(ParameterError):
            make_metric(bg_cp2, np.zeros(shape))


# ---------------------------------------------------------------------------
# wedge products against brute-force permanents


def _permanent(rows) -> float:
    size = len(rows)
    return sum(
        math.prod(rows[i][perm[i]] for i in range(size))
        for perm in itertools.permutations(range(size)))


@pytest.mark.parametrize("fixture", ["bg_cp1", "bg_cp2", "bg_cp3", "bg_cp4"])
def test_wedge_density_matches_permanent_oracle(fixture, request):
    bg = request.getfixturevalue(fixture)
    n = bg.n
    rng = np.random.default_rng(5)
    slots = [FormSlot(rng.uniform(0.5, 2.0, bg.size), rng.uniform(0.5, 2.0, bg.size))
             for _ in range(n)]
    density = wedge_density(bg, slots)

    # a rotation-invariant (1,1)-form has one radial eigenvalue and n-1
    # equal transverse ones; the wedge of n of them, relative to the
    # reference frame, is the permanent of the eigenvalue rows over n!
    for idx in rng.integers(0, bg.size, 6):
        rows = [[s.ar[idx]] + [s.as_[idx]] * (n - 1) for s in slots]
        expected = _permanent(rows) / math.factorial(n)
        assert density[idx] == pytest.approx(expected, rel=1e-12)


def test_wedge_of_references_is_unit_density(bg_cp3):
    slots = [slot_metric(bg_cp3.reference)] * bg_cp3.n
    assert np.abs(wedge_density(bg_cp3, slots) - 1.0).max() < 1e-14


def test_wedge_of_metric_slots_is_volume_density(bg_cp2, probe_cp2):
    state = probe_cp2
    density = wedge_density(bg_cp2, [slot_metric(state)] * bg_cp2.n)
    assert np.abs(density - state.rho).max() < 1e-12


def test_wedge_density_requires_exactly_n_slots(bg_cp2):
    with pytest.raises(ParameterError):
        wedge_density(bg_cp2, [slot_metric(bg_cp2.reference)])


def test_hessian_slot_closed_form_on_moment_coordinate(bg_cp2):
    bg = bg_cp2
    slot = slot_hessian(bg, bg.x)
    L = bg.length
    assert np.abs(slot.ar - (L - 2.0 * bg.x) / L).max() < 1e-10
    assert np.abs(slot.as_ - (L - bg.x) / L).max() < 1e-10


def test_gradsq_slot_structure(bg_cp2, probe_cp2):
    slot = slot_gradsq(bg_cp2, probe_cp2.phi)
    phi_x = bg_cp2.D @ probe_cp2.phi
    assert np.abs(slot.ar - bg_cp2.w0 * phi_x ** 2).max() < 1e-12
    assert np.abs(slot.as_).max() == 0.0


def test_ricci_slot_of_round_metric_is_reference(bg_cp2):
    slot = slot_ricci(bg_cp2.reference)
    assert np.abs(slot.ar - 1.0).max() < 1e-10
    assert np.abs(slot.as_ - 1.0).max() < 1e-10


# ---------------------------------------------------------------------------
# symmetric curvature functions


@pytest.mark.parametrize("fixture", ["bg_cp2", "bg_cp3", "bg_cp4"])
def test_sigma_k_matches_subset_enumeration(fixture, request):
    bg = request.getfixturevalue(fixture)
    state = generate_probe(bg, seed=4, scenario="sigma", index=1)
    n = bg.n
    for idx in (3, bg.size // 2, bg.size - 4):
        eigs = [state.lam_r[idx]] + [state.lam_s[idx]] * (n - 1)
        for k in range(n + 1):
            expected = sum(math.prod(sub)
                           for sub in itertools.combinations(eigs, k))
            assert sigma_k(state, k)[idx] == pytest.approx(expected, rel=1e-10)


def test_sigma_zero_is_one_and_bad_index_raises(bg_cp2):
    state = bg_cp2.reference
    assert np.all(sigma_k(state, 0) == 1.0)
    with pytest.raises(ParameterError):
        sigma_k(state, 3)
    with pytest.raises(ParameterError):
        sigma_k(state, -1)


def test_round_scalar_curvature_is_n(bg_cp3):
    # sigma_1 of n unit eigenvalues
    assert np.abs(sigma_k(bg_cp3.reference, 1) - 3.0).max() < 1e-9


# ---------------------------------------------------------------------------
# Laplacian


def test_laplacian_self_adjoint_in_state_volume(bg_cp2, probe_cp2):
    bg = bg_cp2
    state = probe_cp2
    weight = bg.ref_measure * state.rho
    u = bg.x ** 2
    v = np.sin(bg.x)
    lhs = float(weight @ (u * laplacian(state, v)))
    rhs = float(weight @ (v * laplacian(state, u)))
    assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(lhs)))


def test_laplacian_annihilates_constants(bg_cp2, probe_cp2):
    state = probe_cp2
    assert np.abs(laplacian(state, np.ones(bg_cp2.size))).max() < 1e-11


def test_laplacian_integrates_to_zero(bg_cp2, probe_cp2):
    # divergence structure: the Laplacian of anything has zero mean in the
    # state's own volume form
    state = probe_cp2
    u = np.cos(bg_cp2.x)
    total = bg_cp2.integrate(laplacian(state, u) * state.rho)
    assert abs(total) < 1e-9


def test_laplacian_matrix_agrees_with_apply(bg_cp2, probe_cp2):
    state = probe_cp2
    u = bg_cp2.x ** 3 - bg_cp2.x
    A = laplacian_matrix(state)
    assert np.abs(A @ u - laplacian(state, u)).max() < 1e-10


@pytest.mark.parametrize("name", ["bg_cp1", "bg_cp2"])
def test_laplacian_matrix_matches_uncached_formula(name, request):
    bg = request.getfixturevalue(name)
    state = generate_probe(bg, seed=5, scenario="unit", index=0)
    expected = (bg.D @ (bg.w0[:, None] * bg.D)) / state.m_x[:, None]
    if bg.n > 1:
        expected = expected + (bg.n - 1) * state.r[:, None] * bg.D
    assert np.array_equal(laplacian_matrix(state), expected)


def test_torus_laplacian_is_flat_second_derivative_over_density(
        bg_torus, probe_torus):
    state = probe_torus
    u = np.sin(2.0 * np.pi * bg_torus.x)
    expected = (bg_torus.D2 @ u) / state.rho
    assert np.abs(laplacian(state, u) - expected).max() < 1e-12


# ---------------------------------------------------------------------------
# Ricci potential: closed form against the integrated oracle


def _integrated_ricci_potential(state):
    # f_x = (G - m)/w0 integrated from the pole, then normalized: the route
    # that holds on any background, not only a Kahler-Einstein one
    bg = state.bg
    f = bg.antider(_div_by_w0(bg, state.G - state.m))
    return f - np.log(bg.integrate(state.rho * np.exp(f)) / bg.volume)


@pytest.mark.parametrize("size,tol", [(96, 1e-12), (384, 5e-11)])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_ricci_potential_closed_form_matches_integrated_oracle(n, size, tol):
    bg = fs_background("cpn", n, size)
    for seed in range(3):
        state = generate_probe(bg, seed=seed, scenario="unit", index=0)
        f, _ = ricci_potential(state)
        assert np.abs(f - _integrated_ricci_potential(state)).max() < tol, seed


@pytest.mark.parametrize("count", [16, 5])
def test_stacked_ricci_potential_rows_are_their_solo_potentials(count):
    # a stack as tall as the grid is wide once normalized every column by
    # the row masses, silently, and any other stack raised; each row's f
    # and defect are its own.  Three modes are resolved on 16 nodes
    bg = fs_background("cpn", 2, 16)
    states = [generate_probe(bg, seed=5, scenario="ricci", index=i, modes=3, amplitude=0.02)
              for i in range(count)]
    f, defect = ricci_potential(MetricState.stack(states))
    assert f.shape == (count, bg.size) and defect.shape == (count,)
    for i, state in enumerate(states):
        solo_f, solo_defect = ricci_potential(state)
        assert type(solo_defect) is float
        assert f[i].tobytes() == solo_f.tobytes(), i
        assert defect[i].tobytes() == np.float64(solo_defect).tobytes(), i
        assert solo_defect < 1e-6, i


@pytest.mark.parametrize("n", [2, 4])
def test_antiderivative_is_the_inverse_of_d_on_probes(n):
    # a state built from the moment inversion differences its potential
    # again, so D must give the integrand back to rounding
    bg = fs_background("cpn", n, 384)
    for seed in range(3):
        state = generate_probe(bg, seed=seed, scenario="unit", index=0)
        f_x = _div_by_w0(bg, state.G - state.m)
        F = bg.antider(f_x)
        assert F[0] == 0.0
        resid = np.abs(bg.D[1:] @ F - f_x[1:]).max() / np.abs(f_x).max()
        assert resid <= 5e-11, seed


# ---------------------------------------------------------------------------
# prescribed-density inversion


def test_density_inversion_round_trip(bg_cp2, probe_cp2):
    state = probe_cp2
    recovered = potential_from_density(bg_cp2, state.rho)
    target = state.phi - bg_cp2.mean(state.phi)
    assert np.abs(recovered - target).max() < 1e-8


def test_density_inversion_rescales_mass(bg_cp2, probe_cp2):
    # a mis-normalized target is projected back into the class
    state = probe_cp2
    recovered = potential_from_density(bg_cp2, 3.7 * state.rho)
    target = state.phi - bg_cp2.mean(state.phi)
    assert np.abs(recovered - target).max() < 1e-8


def test_density_inversion_rejects_sign_changing_target(bg_cp2):
    bad = np.linspace(-0.5, 2.0, bg_cp2.size)
    with pytest.raises(NotKahlerError):
        potential_from_density(bg_cp2, bad)


@pytest.mark.parametrize("size", [96, 385])
def test_stacked_inversion_and_newton_helpers_match_rows_bitwise(size):
    bg = fs_background("cpn", 2, size)
    states = make_metric(bg, np.array(
        [generate_probe(bg, seed=7, scenario="stack", index=i).phi for i in range(4)]))
    rows = [states[i] for i in range(4)]
    gap = states.m - bg.x    # vanishes at both ends
    for name, stacked, singles in (
            ("antiderivative", bg.antider(states.rho), [bg.antider(r.rho) for r in rows]),
            ("div_by_w0", _div_by_w0(bg, gap), [_div_by_w0(bg, g) for g in gap]),
            ("inversion", potential_from_density(bg, states.rho),
             [potential_from_density(bg, r.rho) for r in rows]),
            ("laplacian_matrix", laplacian_matrix(states), [laplacian_matrix(r) for r in rows])):
        assert stacked.shape == (4,) + singles[0].shape, name
        for i, single in enumerate(singles):
            assert stacked[i].tobytes() == single.tobytes(), (name, i)
    assert bg.mean(states.phi, states.rho).tolist() == [bg.mean(r.phi, r.rho) for r in rows]
    shared = bg.mean(states.phi, rows[0].rho)
    assert shared.tolist() == [bg.mean(r.phi, rows[0].rho) for r in rows]
    assert isinstance(bg.mean(rows[0].phi, rows[0].rho), float)


def test_stacked_density_inversion_raises_at_its_first_failing_row(bg_cp2, probe_cp2):
    # as make_metric does: the first failing row's first minimum, not the
    # stack-wide minimum, which the later row holds
    good = probe_cp2.rho
    first, later = good.copy(), good.copy()
    first[10], later[30] = -0.1, -5.0
    with pytest.raises(NotKahlerError) as single:
        potential_from_density(bg_cp2, first)
    want = (str(single.value), single.value.node, single.value.value)
    assert want[1:] == (10, -0.1)
    for rows, row in (([good, first, later], 1), ([first, good, later], 0)):
        with pytest.raises(NotKahlerError) as stacked:
            potential_from_density(bg_cp2, np.stack(rows))
        got = stacked.value
        assert (str(got), got.node, got.value, got.row) == want + (row,)


def test_torus_density_inversion_is_unsupported(bg_torus, probe_torus):
    with pytest.raises(UnsupportedModelError):
        potential_from_density(bg_torus, probe_torus.rho)


# ---------------------------------------------------------------------------
# small diagnostics


def test_spectral_tail_separates_smooth_from_noise(bg_cp2):
    smooth = np.sin(bg_cp2.x)
    noisy = smooth + 1e-3 * np.random.default_rng(0).standard_normal(bg_cp2.size)
    assert spectral_tail(bg_cp2, smooth) < 1e-12
    assert spectral_tail(bg_cp2, noisy) > 1e-6


def test_lowpass_keeps_low_modes_exactly(bg_cp2):
    u = 2.0 * bg_cp2.x / bg_cp2.length - 1.0
    vals = 1.0 + u + (2.0 * u ** 2 - 1.0)  # T_0 + T_1 + T_2
    assert np.abs(bg_cp2.lowpass(vals, 8) - vals).max() < 1e-12
    # truncating everything but the constant leaves the mean alone
    flat = bg_cp2.lowpass(vals, 1)
    assert np.abs(flat - flat[0]).max() < 1e-12
    # a stack projects row by row, each row bitwise its own projection
    noise = np.random.default_rng(0).standard_normal((3, bg_cp2.size))
    rows = np.vstack([vals, noise])
    projected = bg_cp2.lowpass(rows, 8)
    assert projected.shape == rows.shape
    for got, row in zip(projected, rows):
        assert got.tobytes() == bg_cp2.lowpass(row, 8).tobytes()
