"""The spectral-operator layer: transforms per operator application, and
the spectral identities on random band-limited fields."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcsvortex import (
    GridSpec,
    ScalarField,
    VortexConfig,
    all_reports,
    compute_u0,
    gradient,
    integrate,
    l2_norm,
    laplacian,
    poisson_solve,
    sobolev_norm,
    solve_coupled,
    solve_limit,
)
from mcsvortex import solver

from conftest import count_transforms, smooth_field
from test_solver import counting, make_spec, reference_minres

TWO_PI = 2.0 * np.pi


class _Captured(Exception):
    pass


def _capture_driver(monkeypatch, solve, spec, **kwargs):
    """Run solve up to the Newton-Krylov driver on spec.grid and return the
    equation eq and the initial iterate u it was handed.  Coarse-grid
    solves of the grid sequencing run through the real driver."""
    captured = {}
    real = solver._newton_krylov

    def capture(eq, u, sub, uh=None):
        if sub.grid != spec.grid:
            return real(eq, u, sub, uh)
        captured.update(eq=eq, u=u)
        raise _Captured

    monkeypatch.setattr(solver, "_newton_krylov", capture)
    with pytest.raises(_Captured):
        solve(spec, **kwargs)
    monkeypatch.undo()
    return captured


@pytest.fixture(scope="module")
def drivers():
    """The equations handed to the driver, and their first iterates, at
    one vortex, N = 32."""
    spec = make_spec(N=32, q=40.0)
    with pytest.MonkeyPatch.context() as mp:
        limit = _capture_driver(mp, solve_limit, spec)
        init = ScalarField(spec.grid, limit["u"])
        coupled = _capture_driver(mp, solve_coupled, spec, init=init)
    return {"coupled": coupled, "limit": limit}


def _state(driver, u=None):
    """The pointwise state the driver builds at u, by default its first
    iterate, with the residual evaluated there, as the driver does before
    it linearizes; returns (state, residual)."""
    eq = driver["eq"]
    u = driver["u"] if u is None else u
    st_u = solver._pointwise_state(eq.model, eq.bg, u)
    return st_u, eq.residual(st_u)


def _applications(driver):
    eq, u = driver["eq"], driver["u"]
    st_u, _ = _state(driver)
    phi = np.cos(TWO_PI * np.arange(u.size) / 7.0).reshape(u.shape)
    H, M = eq.linearize(st_u, eq.potential(st_u))
    ph = np.fft.rfft2(phi)
    return {
        # on a new state, which has derived nothing yet
        "residual": lambda: eq.residual(solver._pointwise_state(eq.model, eq.bg, u)),
        "matvec": lambda: H(phi),
        # the half spectrum of phi handed over, as _minres does
        "matvec with spectrum": lambda: H(phi, ph),
        "preconditioner": lambda: M(phi),
    }


def test_transform_counter_sees_a_laplacian(monkeypatch):
    # one forward and one inverse transform: a counter blind to the
    # package's transforms reads 0 and fails here, not as a wrong pin
    field = smooth_field(GridSpec(16), np.random.default_rng(3), kmax=3)
    counts = count_transforms(monkeypatch)
    laplacian(field)
    assert counts["transforms"] == 2


@pytest.mark.parametrize(
    "equation,operation,expected",
    [
        ("coupled", "residual", 4),
        ("coupled", "matvec", 4),
        ("coupled", "matvec with spectrum", 3),
        ("coupled", "preconditioner", 2),
        ("limit", "residual", 2),
        ("limit", "matvec", 2),
        ("limit", "matvec with spectrum", 1),
        ("limit", "preconditioner", 2),
    ],
)
def test_transforms_per_application(drivers, monkeypatch, equation, operation, expected):
    apply = _applications(drivers[equation])[operation]
    counts = count_transforms(monkeypatch)
    apply()
    assert counts["transforms"] == expected


def test_transform_counter_splits_by_grid_size(monkeypatch):
    coarse = smooth_field(GridSpec(16), np.random.default_rng(4), kmax=3)
    counts = count_transforms(monkeypatch)
    GridSpec(32).prolong(coarse)  # a forward transform on 16, an inverse on 32
    laplacian(coarse)
    assert counts == {"transforms": 4, ("transforms", 16): 3, ("transforms", 32): 1}


def test_compute_u0_costs_one_transform(monkeypatch):
    # the Poisson solve 1, the inverse: the source's half spectrum comes from
    # its bumps' 1-D transforms; on first read, one forward transform of
    # e^{u0} shared by the weight's Laplacian (1 inverse) and the gradient
    # (2 inverses), and nothing on a second read
    grid = GridSpec(32)
    config = VortexConfig(points=((0.3, 0.4),), multiplicities=(1,), sigma=4 * grid.h)
    counts = count_transforms(monkeypatch)
    bg = compute_u0(config, grid)
    assert counts["transforms"] == 1
    bg.weight, bg.grad_exp_u0
    assert counts["transforms"] == 5
    bg.weight, bg.grad_exp_u0
    assert counts["transforms"] == 5


def _newton_system(driver):
    st_u, r = _state(driver)
    eq = driver["eq"]
    H, M = eq.linearize(st_u, eq.potential(st_u))
    return H, M, -r


@pytest.mark.parametrize("equation", ["coupled", "limit"])
def test_minres_matches_scipy_on_the_newton_system(drivers, equation):
    # a preconditioner without its spectrum attribute hides the hand-off
    H, M, b = _newton_system(drivers[equation])
    counted, applied = counting(H)
    x, istop, itn = solver._minres(counted, lambda r: M(r), b, 1e-8, maxiter=400)
    x_ref, info_ref = reference_minres(H, M, b, 1e-8, maxiter=400)
    assert info_ref == 0 and istop in (1, 2)
    assert itn == len(applied)
    assert np.array_equal(x, x_ref)


@pytest.mark.parametrize("equation", ["coupled", "limit"])
def test_minres_tracks_the_true_residual(drivers, equation):
    # given a target, _minres returns b - A x in place of b, from its
    # one-vector recurrence; a zero target stops no iteration, so maxiter
    # = k gives the k-th iterate
    H, M, b = _newton_system(drivers[equation])
    for k in range(1, 11):
        residual = b.copy()
        counted, applied = counting(H)
        x, istop, itn = solver._minres(counted, M, residual, 1e-14, maxiter=k, target=0.0)
        assert istop == 6 and itn == len(applied) == k
        explicit = b - H(x)
        assert np.linalg.norm(residual - explicit) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("equation", ["coupled", "limit"])
def test_spectrum_hand_off_agrees_to_roundoff(drivers, equation):
    # with the preconditioner's spectrum, every matvec gets the half
    # spectrum of its argument and skips that forward transform.  The
    # iterates then move at roundoff level, which MINRES amplifies where it
    # stagnates: on the limit system the 8th iterate moves by 1.1e-9
    # relative (5e-15 on the coupled one), both leaving a relative residual
    # of 8.26e-10
    H, M, b = _newton_system(drivers[equation])
    rtol = 1e-8
    handed = []

    def recorded(phi, *ph):
        handed.append(len(ph))
        return H(phi, *ph)

    x_ref, istop_ref, itn_ref = solver._minres(
        recorded, lambda r: M(r), b, rtol, maxiter=400
    )
    assert handed and not any(handed) and itn_ref == len(handed)
    del handed[:]
    x, istop, itn = solver._minres(recorded, M, b, rtol, maxiter=400)
    assert handed and all(handed) and itn == len(handed)
    assert istop in (1, 2) and istop_ref in (1, 2)
    assert np.linalg.norm(x - x_ref) <= rtol * np.linalg.norm(x_ref)
    res, res_ref = (np.linalg.norm(b - H(z)) for z in (x, x_ref))
    assert abs(res - res_ref) <= 0.01 * res_ref


@pytest.mark.parametrize("equation", ["coupled", "limit"])
def test_linearize_after_residual_costs_no_transform(drivers, monkeypatch, equation):
    driver = drivers[equation]
    st_u, _ = _state(driver)  # the driver's order: residual, then linearize
    eq = driver["eq"]
    counts = count_transforms(monkeypatch)
    eq.linearize(st_u, eq.potential(st_u))
    assert counts["transforms"] == 0


@pytest.mark.parametrize("equation", ["coupled", "limit"])
def test_linearize_before_residual_gives_the_same_floats(drivers, equation):
    # the state derives the Laplacian linearize reads on first read, so
    # the order of the two calls does not matter
    eq, u = drivers[equation]["eq"], drivers[equation]["u"]
    phi = smooth_field(eq.bg.grid, np.random.default_rng(5), kmax=5).values
    first = solver._pointwise_state(eq.model, eq.bg, u)
    before = eq.linearize(first, eq.potential(first))[0](phi)
    second = _state(drivers[equation])[0]
    after = eq.linearize(second, eq.potential(second))[0](phi)
    assert np.array_equal(before, after)
    assert np.array_equal(eq.residual(first), _state(drivers[equation])[1])


@pytest.mark.parametrize("field", ["u", "v"])
def test_full_read_of_a_bundle_transforms_each_field_once(monkeypatch, field):
    # the residual norms, the energy and every report share the half
    # spectrum of u on the bundle's one state and the bundle's half
    # spectrum of v
    from dataclasses import replace

    bundle = replace(solve_coupled(make_spec(N=32, q=40.0)))
    values, forwards = getattr(bundle, field).values, []
    forward = GridSpec.forward

    def recorded(grid, array, *args, **kwargs):
        forwards.append(np.array_equal(array, values))
        return forward(grid, array, *args, **kwargs)

    monkeypatch.setattr(GridSpec, "forward", recorded)
    bundle.residual_norms, bundle.energy_value, all_reports(bundle)
    assert forwards and sum(forwards) == 1


@pytest.mark.parametrize("equation", ["coupled", "limit"])
def test_linearization_is_the_derivative_of_the_residual(drivers, equation):
    # H phi against the central difference of the residual along phi
    driver, h = drivers[equation], 1e-4
    eq, u = driver["eq"], driver["u"]
    phi = smooth_field(eq.bg.grid, np.random.default_rng(7), kmax=5).values
    st_u = _state(driver)[0]
    H, _ = eq.linearize(st_u, eq.potential(st_u))
    hphi = H(phi)
    ahead, behind = (_state(driver, u + sign * h * phi)[1] for sign in (1.0, -1.0))
    difference = (ahead - behind) / (2.0 * h)
    assert np.linalg.norm(hphi - difference) <= 1e-7 * np.linalg.norm(hphi)


@pytest.mark.parametrize("equation", ["coupled", "limit"])
def test_linearization_and_preconditioner_are_symmetric(drivers, equation):
    # MINRES needs both symmetric in the Euclidean inner product
    driver = drivers[equation]
    eq, st_u = driver["eq"], _state(driver)[0]
    H, M = eq.linearize(st_u, eq.potential(st_u))
    grid, rng = driver["eq"].bg.grid, np.random.default_rng(11)
    phi, psi = (smooth_field(grid, rng, kmax=12).values for _ in range(2))
    for A in (H, M):
        left, right = np.vdot(A(phi), psi), np.vdot(phi, A(psi))
        assert abs(left - right) <= 1e-12 * abs(left)


def test_sweep_row_norms_one_transform_per_field(monkeypatch):
    # a row's H^k norms of u and v read the spectra the bundle's residuals
    # and reports already made: only the two differences to the limit
    # profile are transformed
    from mcsvortex import SweepRow

    spec = make_spec(N=32, q=40.0)
    bundle = solve_coupled(spec)
    limit = solve_limit(spec)
    bundle.residual_norms, bundle.energy_value, all_reports(bundle), limit._pointwise
    counts = count_transforms(monkeypatch)
    row = SweepRow.of(spec.q, bundle, limit)
    assert counts["transforms"] == 2
    monkeypatch.undo()
    du = bundle.u - limit.u_inf
    dv = ScalarField(spec.grid, bundle.v.values - limit._pointwise.f)
    for norms, field in (
        (row.h_u, du), (row.h_v, dv), (row.sob_u, bundle.u), (row.sob_v, bundle.v)
    ):
        assert norms == tuple(sobolev_norm(field, k) for k in (0, 1, 2))


# -- spectral identities on random band-limited fields ------------------------

fields = st.builds(
    lambda N, seed, kmax, amp: smooth_field(
        GridSpec(N), np.random.default_rng(seed), kmax=min(kmax, N // 2 - 1), amp=amp
    ),
    N=st.sampled_from((8, 16, 32, 48)),
    seed=st.integers(0, 2**32 - 1),
    kmax=st.integers(1, 12),
    amp=st.floats(0.1, 100.0),
)

identities = settings(max_examples=40, deadline=None, database=None)


def _reference_symbols(grid):
    """Full-spectrum symbols of Lap, d/dx and d/dy for complex fft2."""
    k = np.fft.fftfreq(grid.N, d=grid.h)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    kd = k.copy()
    kd[grid.N // 2] = 0.0
    kdx, kdy = np.meshgrid(kd, kd, indexing="ij")
    return -(TWO_PI**2) * (kx**2 + ky**2), 1j * TWO_PI * kdx, 1j * TWO_PI * kdy


@identities
@given(fields)
def test_parseval(u):
    assert sobolev_norm(u, 0) == pytest.approx(l2_norm(u), rel=1e-12)


@identities
@given(fields)
def test_poisson_inverts_negative_laplacian(u):
    back = poisson_solve(-laplacian(u)).values
    mean_free = u.values - integrate(u)
    assert np.abs(back - mean_free).max() <= 1e-12 * np.abs(u.values).max()


@identities
@given(fields)
def test_laplacian_and_gradient_match_complex_reference(u):
    lap_symbol, dx_symbol, dy_symbol = _reference_symbols(u.grid)
    uh = np.fft.fft2(u.values)
    references = [np.real(np.fft.ifft2(s * uh)) for s in (lap_symbol, dx_symbol, dy_symbol)]
    gx, gy = gradient(u)
    # roundoff relative to each operator's norm, (2 pi N)^2 and 2 pi N
    k_max, u_max = TWO_PI * u.grid.N, np.abs(u.values).max()
    for got, ref, norm in zip((laplacian(u), gx, gy), references, (k_max**2, k_max, k_max)):
        assert np.abs(got.values - ref).max() <= 1e-14 * norm * u_max
