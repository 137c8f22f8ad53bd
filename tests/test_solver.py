import collections
import copy
import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from mcsvortex import (
    GridSpec,
    NoConvergence,
    ProblemSpec,
    QTooSmall,
    VortexConfig,
    all_reports,
    coefficient_fields,
    compute_u0,
    cp1_model,
    energy,
    energy_gradient,
    helmholtz_solve,
    integrate,
    l2_norm,
    laplacian,
    no_vortices,
    q_sweep,
    recover_v,
    solve_coupled,
    solve_limit,
    sup_norm,
    u1_model,
)

from mcsvortex import solver
from mcsvortex.errors import BoundsViolation, GridMismatch, SolveFailure

from conftest import count_transforms, peak_fields, smooth_field

FOUR_PI = 4.0 * np.pi
TWO_PI = 2.0 * np.pi

# the linear model carries nonzero vortex flux on the unit torus only if
# max_t t(s-t) = s^2/4 clears 4*pi*n; s values below keep a >= 25% margin
S_ONE_VORTEX = 9.0


def one_vortex(grid, sigma_cells=4.0):
    return VortexConfig(
        points=((0.5, 0.5),), multiplicities=(1,), sigma=sigma_cells * grid.h
    )


def make_spec(N=64, s=S_ONE_VORTEX, q=20.0, vortices=None, **kw):
    grid = GridSpec(N)
    return ProblemSpec(
        model=u1_model(s),
        vortices=vortices if vortices is not None else one_vortex(grid),
        q=q,
        grid=grid,
        **kw,
    )


def three_vortex_spec():
    """Three unit vortices at N = 64, sigma = 4h: the benchmark sweep's layout."""
    vortices = VortexConfig(
        points=((0.25, 0.25), (0.75, 0.25), (0.5, 0.75)),
        multiplicities=(1, 1, 1),
        sigma=4.0 * GridSpec(64).h,
    )
    return make_spec(N=64, s=16.0, vortices=vortices)


class TestProblemSpecValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("q", 0.0),
            ("q", -1.0),
            ("q", float("nan")),
            ("q", float("inf")),
            ("newton_tol", -1.0),
            ("newton_tol", 0.0),
            ("newton_tol", float("nan")),
            ("newton_tol", float("inf")),
            ("max_newton_iters", 0),
            ("max_newton_iters", 2.5),
            ("max_newton_iters", float("nan")),
            ("q", "40"),
            ("q", None),
            ("newton_tol", "1e-6"),
            # a bool is a Real, but True is not the number 1 here
            ("q", True),
            ("newton_tol", True),
            ("max_newton_iters", True),
        ],
    )
    def test_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_spec(N=32, **{field: value})

    def test_whole_float_iteration_limit_is_kept_as_int(self):
        # the Newton loop runs over range(1, max_newton_iters + 1)
        spec = make_spec(N=32, max_newton_iters=3.0)
        assert spec.max_newton_iters == 3 and isinstance(spec.max_newton_iters, int)


class TestCoefficientFields:
    def test_linear_model_c_is_exponential(self, rng):
        spec = make_spec(N=32)
        bg = compute_u0(spec.vortices, spec.grid)
        u = smooth_field(spec.grid, rng, kmax=3, amp=0.4)
        c, f_q, _ = coefficient_fields(u, spec)
        e_star = np.exp(bg.u0.values + u.values)
        assert np.max(np.abs(c.values - e_star)) <= 1e-12 * e_star.max()
        expected_fq = e_star + (spec.model.s / spec.q) * e_star
        assert np.max(np.abs(f_q.values - expected_fq)) <= 1e-12 * expected_fq.max()

    def test_constant_state_no_vortices(self):
        grid = GridSpec(32)
        spec = ProblemSpec(model=u1_model(1.0), vortices=no_vortices(), q=10.0, grid=grid)
        a = -0.3
        c, f_q, _ = coefficient_fields(grid.constant(a), spec)
        assert np.allclose(c.values, np.exp(a), atol=1e-14)
        assert np.allclose(f_q.values, np.exp(a) + 0.1 * np.exp(a), atol=1e-14)

    def test_gq_vanishes_at_flat_state(self):
        grid = GridSpec(32)
        model = u1_model(1.0)
        spec = ProblemSpec(model=model, vortices=no_vortices(), q=10.0, grid=grid)
        u = grid.constant(0.2)
        _, _, g_q = coefficient_fields(u, spec)
        out = g_q(grid.constant(model.s))
        assert sup_norm(out) <= 1e-13

    def test_overflowing_state_is_a_value_error(self):
        # the same error recover_v and energy_gradient raise
        spec = make_spec(N=32)
        u = spec.grid.constant(800.0)
        for undefined in (
            lambda: coefficient_fields(u, spec),
            lambda: recover_v(u, spec),
            lambda: energy_gradient(u, spec),
        ):
            with pytest.raises(ValueError, match=r"e\^\{u0\+u\} overflows"):
                undefined()

    def test_overflowing_bundle_has_no_residuals(self):
        # a hand-built bundle raises the same error, not a TypeError from
        # indexing its missing state; its energy is inf, as energy's is
        spec = make_spec(N=32)
        bg = compute_u0(spec.vortices, spec.grid)
        u = spec.grid.constant(800.0)
        bundle = solver.SolutionBundle(
            spec=spec, background=bg, u=u, v=u, w=u, newton_iters=0
        )
        undefined = r"^residuals undefined: e\^\{u0\+u\} overflows$"
        with pytest.raises(ValueError, match=undefined):
            bundle.residual_norms
        assert bundle.energy_value == energy(u, spec) == np.inf


class TestRecoverV:
    def test_constant_solution(self):
        grid = GridSpec(32)
        model = u1_model(1.0)
        spec = ProblemSpec(model=model, vortices=no_vortices(), q=7.0, grid=grid)
        u = grid.constant(np.log(model.inverse(model.s)))
        v = recover_v(u, spec)
        assert np.max(np.abs(v.values - model.s)) <= 1e-12

    def test_first_equation_identity_by_construction(self, rng):
        spec = make_spec(N=64)
        bg = compute_u0(spec.vortices, spec.grid)
        u = smooth_field(spec.grid, rng, kmax=5, amp=0.7)
        v = recover_v(u, spec)
        t = bg.exp_u0.values * np.exp(u.values)
        f, _, _ = spec.model._eval_arrays(t)
        res = -laplacian(u).values - spec.q * (v.values - f) + FOUR_PI * bg.n
        assert l2_norm(spec.grid.field(res)) <= 1e-12 * spec.q

    def test_matches_helmholtz_route_on_converged_solve(self):
        spec = make_spec(N=64, q=40.0, newton_tol=1e-8)
        bundle = solve_coupled(spec)
        c, f_q, _ = coefficient_fields(bundle.u, spec)
        v_helm = helmholtz_solve(c, f_q, spec.q, tol=1e-12)
        assert sup_norm(bundle.v - v_helm) <= 10 * spec.newton_tol


def _oracle_energy(u, spec, bg):
    """Term-by-term quadrature with an independent rfft2 derivative code."""
    grid = spec.grid
    model, q, n = spec.model, spec.q, bg.n
    kx = 2 * np.pi * np.fft.fftfreq(grid.N, d=grid.h)[:, None]
    ky = 2 * np.pi * np.fft.rfftfreq(grid.N, d=grid.h)[None, :]

    def deriv(vals):
        vh = np.fft.rfft2(vals)
        return (
            np.fft.irfft2(1j * kx * vh, s=vals.shape),
            np.fft.irfft2(1j * ky * vh, s=vals.shape),
            np.fft.irfft2(-(kx**2 + ky**2) * vh, s=vals.shape),
        )

    u_star = bg.u0.values + u.values
    t = np.exp(u_star)
    f, fp, _ = model._eval_arrays(t)
    ux, uy, lap_u = deriv(u.values)
    sx, sy, _ = deriv(u_star)
    h2 = grid.h**2
    return h2 * (
        0.5 / q**2 * np.sum(lap_u**2)
        + 0.5 * np.sum(ux**2 + uy**2)
        + (1.0 / q) * np.sum(fp * t * (sx**2 + sy**2))
        + 0.5 * np.sum((f - model.s) ** 2)
        + FOUR_PI * n * np.sum(u.values)
        + (FOUR_PI / q) * np.sum(bg.source.values * f)
    )


class TestEnergy:
    def test_zero_at_flat_critical_point(self):
        grid = GridSpec(32)
        model = u1_model(1.0)
        spec = ProblemSpec(model=model, vortices=no_vortices(), q=9.0, grid=grid)
        u = grid.constant(np.log(model.inverse(model.s)))
        assert abs(energy(u, spec)) <= 1e-13

    def test_constant_offset_value(self):
        # only the misfit term survives: I(a) = 0.5*(e^a - 1)^2 on unit measure
        grid = GridSpec(32)
        model = u1_model(1.0)
        spec = ProblemSpec(model=model, vortices=no_vortices(), q=5.0, grid=grid)
        for a in (-0.4, 0.1, 0.35):
            expected = 0.5 * (np.exp(a) - 1.0) ** 2
            assert energy(grid.constant(a), spec) == pytest.approx(expected, rel=1e-12)

    def test_matches_independent_quadrature_oracle(self, rng):
        spec = make_spec(N=64)
        bg = compute_u0(spec.vortices, spec.grid)
        u = smooth_field(spec.grid, rng, kmax=5, amp=0.5)
        lib = energy(u, spec)
        oracle = _oracle_energy(u, spec, bg)
        assert lib == pytest.approx(oracle, rel=1e-8)


class TestEnergyGradient:
    def test_zero_at_flat_critical_point(self):
        grid = GridSpec(32)
        model = u1_model(1.0)
        spec = ProblemSpec(model=model, vortices=no_vortices(), q=9.0, grid=grid)
        u = grid.constant(np.log(model.inverse(model.s)))
        assert sup_norm(energy_gradient(u, spec)) <= 1e-10

    def test_directional_derivative_oracle(self, rng):
        spec = make_spec(N=64, q=20.0)
        u = smooth_field(spec.grid, rng, kmax=4, amp=0.5)
        g = energy_gradient(u, spec)
        step = 1e-5
        for _ in range(10):
            phi = smooth_field(spec.grid, rng, kmax=4, amp=1.0)
            fd = (energy(u + step * phi, spec) - energy(u - step * phi, spec)) / (2 * step)
            assert integrate(g * phi) == pytest.approx(fd, rel=1e-5)

    def test_linear_model_bracket_simplification(self, rng):
        # for f(t) = t the (1/q) bracket collapses to
        # Lap(e^{u*}) + e^{u*} (Lap(u) - 4 pi n)
        spec = make_spec(N=64)
        bg = compute_u0(spec.vortices, spec.grid)
        u = smooth_field(spec.grid, rng, kmax=4, amp=0.5)
        t_field = spec.grid.field(bg.exp_u0.values * np.exp(u.values))
        f, fp, _ = spec.model._eval_arrays(t_field.values)
        lap_u = laplacian(u)
        generic = laplacian(spec.grid.field(f)).values + fp * t_field.values * (
            lap_u.values - FOUR_PI * bg.n
        )
        direct = laplacian(t_field).values + t_field.values * (
            lap_u.values - FOUR_PI * bg.n
        )
        assert np.max(np.abs(generic - direct)) <= 1e-10 * np.abs(direct).max()


class TestSolveCoupled:
    @pytest.mark.parametrize("model_fn,s", [(u1_model, 1.0), (cp1_model, 0.5)])
    @pytest.mark.parametrize("q", [5.0, 50.0])
    def test_no_vortex_constants(self, model_fn, s, q):
        grid = GridSpec(32)
        model = model_fn(s)
        spec = ProblemSpec(model=model, vortices=no_vortices(), q=q, grid=grid)
        bundle = solve_coupled(spec)
        target = model.inverse(s)
        assert np.max(np.abs(np.exp(bundle.u_star.values) - target)) <= 1e-9
        assert np.max(np.abs(bundle.v.values - s)) <= 1e-9
        assert sup_norm(bundle.w) <= 1e-8

    @pytest.mark.parametrize("n", [1071, 1072, 1092])
    def test_vortex_number_near_overflow_does_not_converge(self, n):
        # from n = 1072 on, the weight of the N = 48 background overflows,
        # but no solve reads it: the solve runs and fails as it does at 1071
        grid = GridSpec(48)
        cfg = VortexConfig(points=((0.5, 0.5),), multiplicities=(n,), sigma=4 * grid.h)
        with pytest.raises(NoConvergence):
            solve_coupled(make_spec(N=48, vortices=cfg))

    def test_constant_start_without_vortices(self):
        # every Newton system's right side is constant, an eigenvector of
        # M A: each MINRES solve ends with beta = 0 after one iteration
        grid = GridSpec(16)
        model = cp1_model(0.5)
        spec = ProblemSpec(model=model, vortices=no_vortices(), q=10.0, grid=grid)
        bundle = solve_coupled(spec, init=grid.constant(0.3))
        assert bundle.newton_iters == 5
        assert bundle.residual_norms["genmcsb"] <= spec.newton_tol
        assert np.max(np.abs(np.exp(bundle.u_star.values) - model.inverse(0.5))) <= 1e-6

    def test_manufactured_solution(self, rng):
        spec = make_spec(N=64, q=20.0, newton_tol=3e-8)
        bg = compute_u0(spec.vortices, spec.grid)
        lim = solve_limit(spec)
        u_m = lim.u_inf + smooth_field(spec.grid, rng, kmax=3, amp=0.3)
        # the coupled gradient less its value at u_m has the root u_m; the
        # driver finds it from the limit profile, as a cold solve would
        forcing = energy_gradient(u_m, spec).values

        class Manufactured(solver._Coupled):
            what = "manufactured solution"

            def residual(self, st):
                return super().residual(st) - forcing

        st, _, _ = solver._newton_krylov(
            Manufactured(spec, bg), np.array(lim.u_inf.values, dtype=float), spec
        )
        assert sup_norm(spec.grid.field(st.u) - u_m) <= 1e-7

    def test_single_vortex_large_coupling(self):
        spec = make_spec(N=128, q=80.0)
        bundle = solve_coupled(spec)
        limit = solve_limit(spec)
        t = np.exp(bundle.u_star.values)
        f, _, _ = spec.model._eval_arrays(t)
        # v - f(e^{u*}) = w/q is O(1/q)
        assert sup_norm(spec.grid.field(bundle.v.values - f)) <= 2.0 * (
            sup_norm(bundle.w) / spec.q
        )
        t_lim = np.exp(limit.u_star.values)
        f_lim, _, _ = spec.model._eval_arrays(t_lim)
        assert np.abs(bundle.v.values - f_lim).max() <= 0.5

    def test_nonlinearity_evaluated_only_by_the_driver(self, monkeypatch):
        # v is formed from the driver's final state: no evaluation beyond
        # the one per state the Newton-Krylov driver asks for
        from mcsvortex import NonlinearityModel, solver

        spec = make_spec(N=32, q=40.0)
        init = solve_limit(spec).u_inf
        calls = {"evals": 0, "states": 0}
        eval_arrays, state = NonlinearityModel._eval_arrays, solver._pointwise_state

        def counted_eval(model, t):
            calls["evals"] += 1
            return eval_arrays(model, t)

        def counted_state(model, bg, u, uh=None):
            calls["states"] += 1
            return state(model, bg, u, uh)

        monkeypatch.setattr(NonlinearityModel, "_eval_arrays", counted_eval)
        monkeypatch.setattr(solver, "_pointwise_state", counted_state)
        solve_coupled(spec, init=init)
        assert calls["states"] > 0
        assert calls["evals"] == calls["states"]

    def test_flux_quantization_exact(self):
        spec = make_spec(N=64, q=40.0)
        bundle = solve_coupled(spec)
        assert integrate(bundle.w) == pytest.approx(FOUR_PI, rel=1e-8)

    def test_w_definition_consistency(self):
        spec = make_spec(N=64, q=40.0)
        bundle = solve_coupled(spec)
        t = bundle.background.exp_u0.values * np.exp(bundle.u.values)
        f, _, _ = spec.model._eval_arrays(t)
        gap = np.abs(bundle.w.values - spec.q * (bundle.v.values - f)).max()
        assert gap <= 1e-12 * spec.q

    def test_multiplicity_two_carries_double_flux(self):
        grid = GridSpec(64)
        cfg = VortexConfig(points=((0.5, 0.5),), multiplicities=(2,), sigma=4 * grid.h)
        spec = ProblemSpec(model=u1_model(13.0), vortices=cfg, q=40.0, grid=grid)
        bundle = solve_coupled(spec)
        assert integrate(bundle.w) == pytest.approx(2 * FOUR_PI, rel=1e-8)

    def test_tabulated_model_reproduces_linear_model(self):
        # PCHIP through exactly linear samples is exactly linear, so the
        # custom route must land on the u1 solution
        from mcsvortex import tabulated_model

        grid = GridSpec(48)
        cfg = one_vortex(grid)
        ts = np.linspace(0.0, 30.0, 61)
        custom = tabulated_model(ts, ts.copy(), s=S_ONE_VORTEX)
        spec_custom = ProblemSpec(model=custom, vortices=cfg, q=40.0, grid=grid)
        spec_linear = ProblemSpec(
            model=u1_model(S_ONE_VORTEX), vortices=cfg, q=40.0, grid=grid
        )
        a = solve_coupled(spec_custom)
        b = solve_coupled(spec_linear)
        assert sup_norm(a.u - b.u) <= 1e-6
        assert integrate(a.w) == pytest.approx(FOUR_PI, rel=1e-8)

    def test_q_too_small_raises(self):
        # sup c ~ s = 9 exceeds q = 3
        spec = make_spec(N=32, q=3.0)
        with pytest.raises((QTooSmall, NoConvergence)):
            solve_coupled(spec)

    def test_insensitive_to_doubling_truncation_threshold(self):
        # solutions never visit the flattened range, so moving the
        # threshold out by 2x must not change them
        spec = make_spec(N=48, q=40.0, newton_tol=2e-8)
        base = solve_coupled(spec)
        wide_model = replace(
            spec.model, T=2 * spec.model.T, f_upper=2 * spec.model.T
        )
        wide = solve_coupled(replace(spec, model=wide_model))
        assert sup_norm(base.u - wide.u) <= 1e-7
        assert sup_norm(base.v - wide.v) <= 1e-7

    def test_residual_norms_within_tolerance(self):
        spec = make_spec(N=64, q=40.0)
        bundle = solve_coupled(spec)
        assert bundle.residual_norms["genmcsa"] <= 1e-12 * spec.q
        assert bundle.residual_norms["genmcsb"] <= spec.newton_tol

    def test_triangular_form_consistency(self):
        # converged bundle satisfies the triangular system as well
        spec = make_spec(N=64, q=20.0, newton_tol=5e-8)
        bundle = solve_coupled(spec)
        grid = spec.grid
        c, f_q, g_q = coefficient_fields(bundle.u, spec)
        q = spec.q
        res_u = -laplacian(bundle.u).values - (bundle.w.values - FOUR_PI * bundle.background.n)
        res_v = (
            -laplacian(bundle.v).values
            + q**2 * (1 + c.values / q) * bundle.v.values
            - q**2 * f_q.values
        )
        res_w = (
            -laplacian(bundle.w).values
            + q**2 * (1 + c.values / q) * bundle.w.values
            - q**2 * g_q(bundle.v).values
        )
        assert l2_norm(grid.field(res_u)) <= 10 * spec.newton_tol
        assert l2_norm(grid.field(res_v)) <= 10 * spec.newton_tol
        assert l2_norm(grid.field(res_w)) <= 10 * spec.newton_tol * q


class TestForeignInputs:
    """An init or u on another grid than the problem's is a GridMismatch,
    never a silently wrong answer or a raw numpy error."""

    def test_init_on_another_grid(self):
        spec = make_spec(N=32, q=40.0)
        with pytest.raises(GridMismatch):
            solve_coupled(spec, init=GridSpec(64).field(np.zeros((64, 64))))

    @pytest.mark.parametrize(
        "call", ["energy", "gradient", "recover_v", "coefficient_fields"]
    )
    def test_u_on_another_grid(self, call):
        spec = make_spec(N=32, q=40.0)
        u = GridSpec(64).field(np.zeros((64, 64)))
        run = {
            "energy": lambda: energy(u, spec),
            "gradient": lambda: energy_gradient(u, spec),
            "recover_v": lambda: recover_v(u, spec),
            "coefficient_fields": lambda: coefficient_fields(u, spec),
        }[call]
        with pytest.raises(GridMismatch):
            run()


def reference_minres(A, M, b, rtol, maxiter):
    """scipy's MINRES on the raveled system: the reference for
    solver._minres, which must return the same floats, and istop 6 where
    scipy's info is maxiter."""
    from scipy.sparse.linalg import LinearOperator, minres

    shape, n = b.shape, b.size

    def operator(apply):
        return LinearOperator(
            (n, n), matvec=lambda z: apply(z.reshape(shape)).ravel(), dtype=float
        )

    x, info = minres(operator(A), b.ravel(), rtol=rtol, maxiter=maxiter, M=operator(M))
    return x.reshape(shape), info


def _random_system(seed, N, kind):
    """A random symmetric operator on N x N arrays (positive definite,
    indefinite, or singular, where b has no exact solution and MINRES stops
    at a least-squares solution), a positive diagonal preconditioner and a
    right side."""
    rng = np.random.default_rng(seed)
    n = N * N
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(0.5, 50.0, n)
    if kind != "definite":
        eigs[: n // 3] *= -1.0
    if kind == "singular":
        eigs[:3] = 0.0
    matrix = (basis * eigs) @ basis.T
    matrix = 0.5 * (matrix + matrix.T)
    diag = rng.uniform(0.2, 2.0, (N, N))
    b = rng.standard_normal((N, N))
    return (lambda x: (matrix @ x.ravel()).reshape(N, N)), (lambda x: diag * x), b


def counting(A):
    """A, and the list its wrapper grows by one entry per application."""
    applied = []

    def counted(*operand):
        applied.append(1)
        return A(*operand)

    return counted, applied


class TestMinres:
    @pytest.mark.parametrize("kind", ["definite", "indefinite", "singular"])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("rtol", [1e-4, 1e-10])
    def test_matches_scipy(self, kind, seed, rtol):
        A, M, b = _random_system(seed, 6, kind)
        counted, applied = counting(A)
        x, istop, itn = solver._minres(counted, M, b, rtol, maxiter=400)
        x_ref, info_ref = reference_minres(A, M, b, rtol, maxiter=400)
        assert info_ref == 0 and istop in (1, 2)
        assert itn == len(applied)
        assert x.shape == b.shape and np.array_equal(x, x_ref)

    @pytest.mark.parametrize("kind", ["definite", "indefinite"])
    def test_iteration_limit_matches_scipy(self, kind):
        A, M, b = _random_system(7, 6, kind)
        counted, applied = counting(A)
        x, istop, itn = solver._minres(counted, M, b, 1e-12, maxiter=5)
        x_ref, info_ref = reference_minres(A, M, b, 1e-12, maxiter=5)
        assert info_ref == 5 and istop == 6
        assert itn == len(applied) == 5
        assert np.array_equal(x, x_ref)

    @pytest.mark.parametrize("kind", ["definite", "indefinite"])
    def test_target_ends_the_same_iterates_earlier(self, kind):
        # the target stops the first iterate whose residual b - A x meets
        # it, and that iterate is scipy's, the same floats
        A, M, b = _random_system(3, 6, kind)
        target = 0.1 * np.linalg.norm(b)
        counted, applied = counting(A)
        x, istop, k = solver._minres(
            counted, M, b.copy(), 1e-10, maxiter=400, target=target
        )
        assert istop == 7 and k == len(applied) and k > 1
        x_ref, info_ref = reference_minres(A, M, b, 1e-10, maxiter=k)
        assert info_ref == k and np.array_equal(x, x_ref)
        before, _ = reference_minres(A, M, b, 1e-10, maxiter=k - 1)
        assert np.linalg.norm(b - A(before)) > target >= np.linalg.norm(b - A(x))

    def test_zero_right_side(self):
        A, M, b = _random_system(0, 4, "definite")
        counted, applied = counting(A)
        x, istop, itn = solver._minres(counted, M, np.zeros_like(b), 1e-8, maxiter=400)
        assert istop == itn == len(applied) == 0 and not x.any()

    def test_eigenvector_right_side(self):
        # b is an eigenvector of M A: the Lanczos step ends with beta = 0,
        # and the tracked residual b - A x, which comes back in b, is zero
        grid = GridSpec(16)
        symbol = grid.k2 + 9.0

        def A(x, xh=None):
            return grid.inverse(symbol * (grid.forward(x) if xh is None else xh))

        M = solver._SpectralInverse(grid, symbol, solver._half_spectrum(grid))
        b = np.full((16, 16), 9.0)
        counted, applied = counting(A)
        x, istop, itn = solver._minres(counted, M, b, 0.0, maxiter=400, target=1e-10)
        assert istop == -1 and itn == len(applied) == 1
        assert np.max(np.abs(x - 1.0)) <= 1e-14
        assert not b.any()


def _record_levels(monkeypatch, fail_on=None):
    """Record (grid size, equation) of every Newton-Krylov driver call, and
    the Newton steps of each call that returns; calls on the grid of size
    fail_on raise NoConvergence instead."""
    levels, steps = [], []
    real = solver._newton_krylov

    def recorded(eq, u, spec, uh=None):
        levels.append((spec.grid.N, eq.what))
        if spec.grid.N == fail_on:
            raise NoConvergence(0, np.inf, what=eq.what)
        result = real(eq, u, spec, uh)
        steps.append(result[-1])
        return result

    monkeypatch.setattr(solver, "_newton_krylov", recorded)
    return levels, steps


def _record_krylov(monkeypatch):
    """Record the Krylov iterations, MINRES's itn, of each Newton-Krylov
    driver call and each LimitSolution.u1 solve, as (grid size, equation
    or "u1", iterations) in call order."""
    rungs, current = [], []
    real_newton, real_minres = solver._newton_krylov, solver._minres

    def newton(eq, u, spec, uh=None):
        rungs.append((spec.grid.N, eq.what, 0))
        current.append(len(rungs) - 1)
        try:
            return real_newton(eq, u, spec, uh)
        finally:
            current.pop()

    def minres(A, M, b, *args, **kwargs):
        result = real_minres(A, M, b, *args, **kwargs)
        itn = result[2]
        if current:
            N, what, iters = rungs[current[-1]]
            rungs[current[-1]] = (N, what, iters + itn)
        else:
            rungs.append((b.shape[0], "u1", itn))
        return result

    monkeypatch.setattr(solver, "_newton_krylov", newton)
    monkeypatch.setattr(solver, "_minres", minres)
    return rungs


class TestGridSequencing:
    @pytest.mark.parametrize(
        "N,sigma_cells,grids",
        [
            (64, 4.0, [32, 32, 64]),
            (64, 2.0, [32, 64]),  # sigma is below 2h on the half grid: widened
            (36, 4.0, [18, 18, 36]),  # sigma is exactly 2h on the half grid
            (18, 4.0, [18, 18]),  # half grid 9 is odd
            (12, 3.0, [12, 12]),  # half grid 6 is below 8 (sigma <= 1/4 caps it at 3h)
        ],
    )
    def test_levels_of_a_cold_solve(self, monkeypatch, N, sigma_cells, grids):
        spec = make_spec(N=N, q=40.0, vortices=one_vortex(GridSpec(N), sigma_cells))
        levels, steps = _record_levels(monkeypatch)
        bundle = solve_coupled(spec)
        assert [n for n, _ in levels] == grids
        # newton_iters counts the steps on the requested grid only
        assert bundle.newton_iters == steps[-1] < sum(steps)

    @pytest.mark.parametrize(
        "N,sigma_cells,route",
        [
            # floor N = 32: a widened rung would be N = 16, under the cut-off
            (64, 4.0, [(32, "limit equation"), (32, "Newton"), (64, "Newton")]),
            # floors N = 64, 128 and 64: the limit equation runs only on the
            # widened rung under the floor, at sigma = 2h there
            (128, 4.0, [(32, "limit equation"), (64, "Newton"), (128, "Newton")]),
            (256, 4.0, [(64, "limit equation"), (128, "Newton"), (256, "Newton")]),
            (64, 2.0, [(32, "limit equation"), (64, "Newton")]),
        ],
    )
    def test_route_of_a_cold_solve(self, monkeypatch, N, sigma_cells, route):
        grid = GridSpec(N)
        spec = make_spec(
            N=N, q=40.0, vortices=one_vortex(grid, sigma_cells),
            newton_tol=8e-6 if N == 256 else 1e-6,
        )
        ladder = solver._Ladder(spec, predictor_only=True)
        floor = ladder.rungs[ladder.floor][0].grid.N
        widened = [
            (rung.grid.N, rung.vortices.sigma) for rung, _ in ladder.rungs[ladder.floor + 1 :]
        ]
        levels, _ = _record_levels(monkeypatch)
        bundle = solve_coupled(spec)
        assert levels == route
        assert widened == ([] if floor == 32 else [(floor // 2, 4.0 / floor)])
        if widened:
            assert (floor, "limit equation") not in levels
        assert bundle.residual_norms["genmcsb"] <= spec.newton_tol

    def test_cold_limit_solve_starts_on_half_grid(self, monkeypatch):
        levels, steps = _record_levels(monkeypatch)
        limit = solve_limit(make_spec(N=64))
        assert levels == [(32, "limit equation"), (64, "limit equation")]
        assert limit.newton_iters == steps[-1]

    def test_failed_coarse_solve_falls_back_to_limit_start(self, monkeypatch):
        spec = make_spec(N=64, q=40.0)
        sequenced = solve_coupled(spec)
        levels, _ = _record_levels(monkeypatch, fail_on=32)
        fallback = solve_coupled(spec)
        # the fine limit fallback reuses the failed half-grid limit solve
        assert levels == [
            (32, "limit equation"), (32, "Newton"), (64, "limit equation"), (64, "Newton")
        ]
        assert fallback.newton_iters > sequenced.newton_iters
        assert sup_norm(fallback.u - sequenced.u) <= spec.newton_tol
        assert sup_norm(fallback.v - sequenced.v) <= spec.newton_tol

    def test_failed_middle_level_falls_back_to_fine_limit(self, monkeypatch):
        # sigma = 8h leaves two coarser levels under N = 128; the N = 64
        # limit solve starts from the kept N = 32 one, and the fine limit
        # solve from the ansatz once the N = 64 one has failed
        spec = make_spec(N=128, q=40.0, vortices=one_vortex(GridSpec(128), 8.0))
        levels, steps = _record_levels(monkeypatch, fail_on=64)
        bundle = solve_coupled(spec)
        assert levels == [
            (32, "limit equation"), (32, "Newton"), (64, "Newton"),
            (64, "limit equation"), (128, "limit equation"), (128, "Newton"),
        ]
        assert bundle.newton_iters == steps[-1]

    @pytest.mark.parametrize(
        "case",
        [
            "cold solve", "limit solve", "sweep", "fallback", "widened",
            "limit solve at 3h", "sweep at 3h",
        ],
    )
    def test_each_background_is_built_once(self, monkeypatch, case):
        # sigma = 8h: N = 128 over two coarser levels.  In the fallback the
        # N = 64 coupled solve fails, and the N = 128 limit solve climbs
        # through N = 64 again, on the background that rung built.  At
        # sigma = 3h the cold solve's limit rung climbs from N = 64 with the
        # vortex widened to 2h there, whose background is built once too; a
        # limit solve or a sweep has no widened rung, so N = 128 stands alone
        at_3h = {"widened": [128, 64], "limit solve at 3h": [128], "sweep at 3h": [128]}
        sigma_cells = 3.0 if case in at_3h else 8.0
        spec = make_spec(N=128, q=40.0, vortices=one_vortex(GridSpec(128), sigma_cells))
        real_u0, real_newton = solver.compute_u0, solver._newton_krylov
        built = []

        def counted(vortices, grid):
            built.append(grid.N)
            return real_u0(vortices, grid)

        def newton(eq, u, sub, uh=None):
            if (sub.grid.N, eq.what) == (64, "Newton"):
                raise NoConvergence(0, np.inf, what=eq.what)
            return real_newton(eq, u, sub, uh)

        monkeypatch.setattr(solver, "compute_u0", counted)
        if case == "fallback":
            monkeypatch.setattr(solver, "_newton_krylov", newton)
        run = {
            "cold solve": lambda: solve_coupled(spec),
            "limit solve": lambda: solve_limit(spec),
            "sweep": lambda: q_sweep(spec, [20.0, 40.0]),
            "fallback": lambda: solve_coupled(spec),
            "widened": lambda: solve_coupled(spec),
            "limit solve at 3h": lambda: solve_limit(spec),
            "sweep at 3h": lambda: q_sweep(spec, [20.0, 40.0]),
        }[case]
        run()
        assert built == at_3h.get(case, [128, 64, 32])

    @pytest.mark.parametrize("case", ["cold solve", "sweep"])
    def test_each_half_grid_is_built_once(self, monkeypatch, case):
        # three vortices, sigma = 4h at N = 128: N = 64 is the only half
        # grid, and N = 32 fails the sigma floor before it is built; a cold
        # solve builds N = 32 once more, for its widened rung
        grid = GridSpec(128)
        vortices = VortexConfig(
            points=((0.25, 0.25), (0.75, 0.25), (0.5, 0.75)),
            multiplicities=(1, 1, 1),
            sigma=4.0 * grid.h,
        )
        spec = ProblemSpec(model=u1_model(16.0), vortices=vortices, q=20.0, grid=grid)
        real_init, built = GridSpec.__init__, []

        def counted(self, N):
            built.append(N)
            real_init(self, N)

        monkeypatch.setattr(GridSpec, "__init__", counted)
        if case == "cold solve":
            solve_coupled(spec)
        else:
            table = q_sweep(spec, [20.0, 40.0, 80.0, 160.0])
            assert all(row.status == "converged" for row in table.rows)
        assert built == ([64, 32] if case == "cold solve" else [64])

    def test_sweep_and_cold_solve_climb_one_ladder(self, monkeypatch):
        # a one-coupling sweep is a cold solve plus the fine limit solve
        # that its d_* columns are measured against
        spec = make_spec(N=64, q=40.0)
        levels, steps = _record_levels(monkeypatch)
        bundle = solve_coupled(spec)
        cold = list(zip(levels, steps))
        del levels[:], steps[:]
        (row,) = q_sweep(spec, [spec.q]).rows
        swept = list(zip(levels, steps))
        assert swept.pop(1) == ((64, "limit equation"), 2)
        # the same rungs; only the cold solve's limit rung, which just feeds
        # the predictor, stops early (solver._PREDICTOR_SLACK)
        assert swept == [
            ((32, "limit equation"), 6), ((32, "Newton"), 4), ((64, "Newton"), 2)
        ]
        assert cold == [
            ((32, "limit equation"), 5), ((32, "Newton"), 4), ((64, "Newton"), 2)
        ]
        assert row.status == "converged"
        # the looser limit moves the cold solve's N = 32 start, so the two
        # fine solutions agree to the solve's tolerance, not bit for bit
        assert row.energy == pytest.approx(bundle.energy_value, rel=1e-12)
        assert row.newton_iters == bundle.newton_iters == 2

    def test_failed_half_grid_coupling_falls_back_alone(self, monkeypatch):
        # the N = 32 solve at q = 40 fails: only that coupling starts N = 64
        # from the predictor, through the last coupling converged there
        spec = make_spec(N=64)
        real_newton, real_predict = solver._newton_krylov, solver._predict
        predicted = []

        def newton(eq, u, sub, uh=None):
            if (sub.grid.N, sub.q, eq.what) == (32, 40.0, "Newton"):
                raise NoConvergence(0, np.inf, what=eq.what)
            return real_newton(eq, u, sub, uh)

        def predict(limit, q, last=None):
            predicted.append((limit.grid.N, q, None if last is None else last[0]))
            return real_predict(limit, q, last)

        monkeypatch.setattr(solver, "_newton_krylov", newton)
        monkeypatch.setattr(solver, "_predict", predict)
        table = q_sweep(spec, [20.0, 40.0, 80.0])
        assert predicted == [
            (32, 80.0, None), (32, 40.0, 80.0), (32, 20.0, 80.0), (64, 40.0, 80.0)
        ]
        assert all(row.status == "converged" for row in table.rows)
        d_v = [row.d_v for row in table.rows]
        assert all(b < a for a, b in zip(d_v, d_v[1:]))

    def test_failed_half_grid_limit_starts_from_ansatz(self, monkeypatch):
        spec = make_spec(N=64)
        bg = compute_u0(spec.vortices, spec.grid)
        starts = []

        def failing(eq, u, sub, uh=None):
            starts.append((sub.grid.N, u.copy()))
            raise NoConvergence(sub.grid.N, np.inf, what=eq.what)

        monkeypatch.setattr(solver, "_newton_krylov", failing)
        with pytest.raises(NoConvergence) as raised:
            solve_limit(spec)
        # the fine grid's failure is the one raised, after a start from the ansatz
        assert raised.value.iterations == 64
        assert [n for n, _ in starts] == [32, 64]
        assert np.array_equal(starts[1][1], solver.initial_guess(bg, spec.model).values)


class TestPredictorOnlyRungs:
    """A cold solve_coupled's limit solves only feed _predict: they stop at
    _PREDICTOR_SLACK newton_tol, and below the sigma floor one runs on a
    widened half grid, whose prediction, prolonged, starts the floor.
    Returned limit solutions keep newton_tol, and coarse coupled rungs hand
    up only (q, u)."""

    def _record_calls(self, monkeypatch, fail=None):
        """Record (grid size, equation, newton_tol, sigma) of every driver
        call and the start u of each; calls for which fail(what, spec)
        holds raise NoConvergence."""
        calls, starts = [], []
        real = solver._newton_krylov

        def recorded(eq, u, spec, uh=None):
            calls.append((spec.grid.N, eq.what, spec.newton_tol, spec.vortices.sigma))
            starts.append(u.copy())
            if fail is not None and fail(eq.what, spec):
                raise NoConvergence(0, np.inf, what=eq.what)
            return real(eq, u, spec, uh)

        monkeypatch.setattr(solver, "_newton_krylov", recorded)
        return calls, starts

    def _floor_spec(self):
        # sigma = 3h at N = 128 is below 2h on N = 64: no coupled half grid
        return make_spec(N=128, q=40.0, vortices=one_vortex(GridSpec(128), 3.0))

    def _record_u1(self, monkeypatch, u1=None):
        """Record every LimitSolution and the u1 it gives, which is the real
        one or, where u1 is given, u1(limit)."""
        solved, real_u1 = [], solver.LimitSolution.u1.func
        corrector = real_u1 if u1 is None else u1

        def recorded(limit):
            solved.append((limit, corrector(limit)))
            return solved[-1][1]

        monkeypatch.setattr(solver.LimitSolution, "u1", property(recorded))
        return solved

    def test_cold_solve_starts_below_the_sigma_floor(self, monkeypatch):
        # neither the limit equation nor u1 is solved on the floor grid: the
        # widened rung's u_inf + u1/q, prolonged, starts the floor
        spec = self._floor_spec()
        calls, starts = self._record_calls(monkeypatch)
        solved = self._record_u1(monkeypatch)
        bundle = solve_coupled(spec)
        loose, sigma = spec.newton_tol * solver._PREDICTOR_SLACK, spec.vortices.sigma
        assert calls == [
            (64, "limit equation", loose, 2.0 / 64),
            (128, "Newton", spec.newton_tol, sigma),
        ]
        (limit, u1), = solved
        assert limit.grid == GridSpec(64) and u1 is not None
        predicted = spec.grid.prolong(limit.u_inf + (1.0 / spec.q) * u1)
        assert np.array_equal(starts[1], predicted.values)
        assert bundle.residual_norms["genmcsb"] <= spec.newton_tol

    def test_widened_start_without_u1_is_the_prolonged_limit(self, monkeypatch):
        # where the widened rung's u1 solve fails, its u_inf alone, prolonged
        spec = self._floor_spec()
        calls, starts = self._record_calls(monkeypatch)
        solved = self._record_u1(monkeypatch, lambda limit: None)
        bundle = solve_coupled(spec)
        assert [(N, what) for N, what, *_ in calls] == [
            (64, "limit equation"), (128, "Newton")
        ]
        (limit, u1), = solved
        assert limit.grid == GridSpec(64) and u1 is None
        assert np.array_equal(starts[1], spec.grid.prolong(limit.u_inf).values)
        assert bundle.residual_norms["genmcsb"] <= spec.newton_tol

    def test_exactly_one_widened_rung(self, monkeypatch):
        # sigma = 3h at N = 256: the widened N = 128 rung, at sigma = 2h
        # there, fails the floor on N = 64 too, but it is not widened again:
        # it starts from the ansatz
        grid = GridSpec(256)
        spec = make_spec(N=256, q=40.0, vortices=one_vortex(grid, 3.0), newton_tol=8e-6)
        calls, _ = self._record_calls(monkeypatch)
        solve_coupled(spec)
        loose, sigma = spec.newton_tol * solver._PREDICTOR_SLACK, spec.vortices.sigma
        assert calls == [
            (128, "limit equation", loose, 2.0 / 128),
            (256, "Newton", spec.newton_tol, sigma),
        ]

    @pytest.mark.parametrize("case", ["limit solve", "sweep"])
    @pytest.mark.parametrize("floor", [False, True])
    def test_returned_limits_keep_newton_tol(self, monkeypatch, case, floor):
        # neither a widened start nor an early stop for a limit solution
        # that is returned or that starts the one returned
        spec = self._floor_spec() if floor else make_spec(N=64, q=40.0)
        calls, _ = self._record_calls(monkeypatch)
        if case == "limit solve":
            solve_limit(spec)
        else:
            q_sweep(spec, [20.0, 40.0])
        limits = [call for call in calls if call[1] == "limit equation"]
        assert [N for N, *_ in limits] == ([128] if floor else [32, 64])
        assert all(tol == spec.newton_tol for _, _, tol, _ in limits)

    def test_failed_widened_solve_starts_from_the_ansatz(self, monkeypatch):
        spec = self._floor_spec()
        bg = compute_u0(spec.vortices, spec.grid)
        calls, starts = self._record_calls(
            monkeypatch, lambda what, sub: sub.grid.N == 64
        )
        bundle = solve_coupled(spec)
        assert [(N, what) for N, what, *_ in calls] == [
            (64, "limit equation"), (128, "limit equation"), (128, "Newton")
        ]
        assert np.array_equal(starts[1], solver.initial_guess(bg, spec.model).values)
        assert bundle.residual_norms["genmcsb"] <= spec.newton_tol

    @pytest.mark.parametrize("failure", [QTooSmall, BoundsViolation])
    def test_coarse_check_failure_sends_the_coupling_to_the_predictor(
        self, monkeypatch, failure
    ):
        # the N = 32 coupled solve converges to a state that fails the check
        # after the driver: N = 64 starts from its own limit, predicted
        spec = make_spec(N=64, q=40.0)
        real_newton, real_predict = solver._newton_krylov, solver._predict
        levels, predicted = [], []

        def newton(eq, u, sub, uh=None):
            levels.append((sub.grid.N, eq.what))
            st, r_norm, iters = real_newton(eq, u, sub, uh)
            if (sub.grid.N, eq.what) == (32, "Newton"):
                st = copy.copy(st)
                if failure is QTooSmall:
                    st.c = np.full_like(st.c, 2.0 * sub.q)
                else:
                    st.f = np.full_like(st.f, sub.model.s + 1.0)
            return st, r_norm, iters

        def predict(limit, q, last=None):
            predicted.append((limit.grid.N, q, last))
            return real_predict(limit, q, last)

        monkeypatch.setattr(solver, "_newton_krylov", newton)
        monkeypatch.setattr(solver, "_predict", predict)
        bundle = solve_coupled(spec)
        assert levels == [
            (32, "limit equation"), (32, "Newton"), (64, "limit equation"), (64, "Newton")
        ]
        assert predicted == [(32, 40.0, None), (64, 40.0, None)]
        assert bundle.residual_norms["genmcsb"] <= spec.newton_tol


class TestForcingTerm:
    def _record_minres(self, monkeypatch):
        """Record every MINRES call of a Newton step as (newton_tol, rtol,
        r_k, linear, stopped_by_scipy), with newton_tol that of the driver
        call, r_k the Newton residual norm at that step
        (scale times the L2 norm of the right side b), linear the same norm
        of b - A x, computed explicitly, and stopped_by_scipy whether the
        same solve without a target returns the same x.  The u1 solve,
        outside the driver, must pass no target."""
        calls, rung = [], {}
        real_newton, real_minres = solver._newton_krylov, solver._minres

        def newton(eq, u, spec, uh=None):
            rung.update(scale=eq.scale, grid=spec.grid, tol=spec.newton_tol)
            try:
                return real_newton(eq, u, spec, uh)
            finally:
                rung.clear()

        def minres(A, M, b, rtol, maxiter, target=None):
            if not rung:  # the LimitSolution.u1 solve
                assert target is None
                return real_minres(A, M, b, rtol, maxiter)
            norm = lambda z: rung["scale"] * solver._l2(rung["grid"], z)
            rhs = b.copy()
            counted, applied = counting(A)
            x, istop, itn = real_minres(counted, M, b, rtol, maxiter, target)
            assert itn == len(applied)
            x_scipy, _, _ = real_minres(A, M, rhs.copy(), rtol, maxiter)
            stopped_by_scipy = np.array_equal(x, x_scipy)
            assert istop == 7 or stopped_by_scipy  # only the target ends it earlier
            calls.append(
                (rung["tol"], rtol, norm(rhs), norm(rhs - A(x)), stopped_by_scipy)
            )
            return x, istop, itn

        monkeypatch.setattr(solver, "_newton_krylov", newton)
        monkeypatch.setattr(solver, "_minres", minres)
        return calls

    @pytest.mark.parametrize("equation", ["coupled", "limit"])
    def test_inner_tolerance_knows_newton_tol(self, monkeypatch, equation):
        # each step's MINRES solve ends at scipy's test with the
        # Eisenstat-Walker tolerance or, earlier, once the linearized
        # residual is within theta * newton_tol in the Newton test's norm
        # (up to the tracked residual's roundoff, 1e-10 of ||b||)
        calls = self._record_minres(monkeypatch)
        spec = make_spec(N=64, q=40.0)
        solve_coupled(spec) if equation == "coupled" else solve_limit(spec)
        assert calls
        theta = solver._THETA
        for newton_tol, rtol, r_k, linear, stopped_by_scipy in calls:
            assert r_k > newton_tol
            assert rtol == min(1e-4 * r_k, 1e-4)
            assert stopped_by_scipy or linear <= theta * newton_tol + 1e-10 * r_k
        # the target ends the last step of each rung here
        assert not all(stopped_by_scipy for *_, stopped_by_scipy in calls)


class _WrapperCalled(Exception):
    pass


class TestTransformPath:
    @pytest.mark.parametrize("case", ["cold solve", "sweep", "background", "prolong"])
    def test_no_solve_goes_through_numpy_fft(self, monkeypatch, case):
        # GridSpec calls numpy's pocketfft ufuncs directly; numpy.fft's
        # per-call wrapper, _raw_fft, costs about 5 us a pass at N = 64
        spec = make_spec(N=64, q=40.0)
        coarse = GridSpec(32).from_function(
            lambda x, y: np.sin(TWO_PI * x) * np.cos(2 * TWO_PI * y)
        )

        def wrapper(*args, **kwargs):
            raise _WrapperCalled

        monkeypatch.setattr("numpy.fft._pocketfft._raw_fft", wrapper)
        with pytest.raises(_WrapperCalled):  # the patch reaches numpy.fft
            np.fft.rfft(np.ones(8))
        if case == "cold solve":
            assert solve_coupled(spec).residual_norms["genmcsb"] <= spec.newton_tol
        elif case == "sweep":
            table = q_sweep(spec, [20.0, 40.0])
            assert [row.status for row in table.rows] == ["converged"] * 2
        elif case == "background":
            assert compute_u0(spec.vortices, spec.grid).u0.grid == spec.grid
        else:
            fine = spec.grid.prolong(coarse)
            assert np.abs(fine.values[::2, ::2] - coarse.values).max() <= 1e-14


class TestWorkingSet:
    def test_cold_solve_peak(self):
        # the arrays live at the peak, inside the top rung's MINRES, in
        # N x N fields: 3 of the background; 1 of the equation's two
        # symbols; 1, the start u; 5.5 of the linearization (c, V, the
        # product buffer, the half spectrum the Jacobian shares with the
        # preconditioner, and the preconditioner's inverse symbol and own
        # half spectrum); 7 of MINRES (x, the right side in the residual's
        # buffer, r1, r2, v and the last two search directions); 2 in the
        # Jacobian product (-Laplacian of its argument and its result)
        spec = make_spec(N=64, q=40.0)
        solve_coupled(spec)  # the transforms' plans are cached: warm
        peak = peak_fields(lambda: solve_coupled(spec), spec.grid)
        assert peak == pytest.approx(19.82, abs=0.25)

    def test_sweep_peak(self):
        # each row is built as its bundle is made, and the bundle is gone
        # before the next solve: the peak is in the second top-grid solve,
        # beside what the first row keeps for the later ones (the limit
        # solution's state and the background's weight and grad(e^{u0})).
        # The top rung starts every coupling from the half grid, so it
        # keeps no last solution for a predictor
        spec = three_vortex_spec()
        sweep = lambda: q_sweep(spec, [20.0, 40.0, 80.0, 160.0])
        sweep()  # warm
        assert peak_fields(sweep, spec.grid) == pytest.approx(27.68, abs=0.25)

    @staticmethod
    def _linearization(equation):
        """(grid, Jacobian, preconditioner) of the equation at the ansatz."""
        spec = make_spec(N=64, q=40.0)
        bg = compute_u0(spec.vortices, spec.grid)
        if equation == "coupled":
            eq = solver._Coupled(spec, bg)
        else:
            eq = solver._Limit(spec.model, bg)
        u = solver.initial_guess(bg, spec.model).values
        st = solver._pointwise_state(spec.model, bg, u)
        H, M = eq.linearize(st, eq.potential(st))
        return spec.grid, H, M

    @pytest.mark.parametrize("equation,fields", [("coupled", 2), ("limit", 1)])
    def test_jacobian_product_peak(self, equation, fields):
        # handed the half spectrum of its argument, as by _minres, which it
        # overwrites: the coupled product holds -Laplacian(phi) and its
        # result, the limit product only its result
        grid, H, _ = self._linearization(equation)
        phi = smooth_field(grid, np.random.default_rng(2), kmax=6).values
        H(phi, grid.forward(phi))  # warm
        ph = grid.forward(phi)
        assert peak_fields(lambda: H(phi, ph), grid) == pytest.approx(fields, abs=0.25)

    @pytest.mark.parametrize("equation", ["coupled", "limit"])
    def test_preconditioner_call_peak(self, equation):
        # its result alone: its inverse transform's first pass goes into the
        # half spectrum it shares with the Jacobian
        grid, _, M = self._linearization(equation)
        phi = smooth_field(grid, np.random.default_rng(3), kmax=6).values
        M(phi)  # warm
        assert peak_fields(lambda: M(phi), grid) == pytest.approx(1.0, abs=0.25)


class TestNewtonPasses:
    """Newton passes per rung of the half-grid ladder, as (grid size,
    equation, passes) in call order; a looser inner tolerance or a better
    start must not cost a pass anywhere."""

    def _rungs(self, levels, steps):
        return [(N, what, n) for (N, what), n in zip(levels, steps)]

    def _cold_solve(self):
        solve_coupled(make_spec(N=64, q=40.0))

    def _sweep(self):
        table = q_sweep(three_vortex_spec(), [20.0, 40.0, 80.0, 160.0])
        assert all(row.status == "converged" for row in table.rows)

    def _cold_rungs(self, monkeypatch):
        levels, steps = _record_levels(monkeypatch)
        self._cold_solve()
        return self._rungs(levels, steps)

    def _sweep_rungs(self, monkeypatch):
        levels, steps = _record_levels(monkeypatch)
        self._sweep()
        return self._rungs(levels, steps)

    def test_cold_coupled_solve(self, monkeypatch):
        # the N = 32 rung starts from u_inf + u1/q (5 passes from u_inf); its
        # limit solve only feeds that start and stops at 1e3 newton_tol (6
        # passes to newton_tol)
        assert self._cold_rungs(monkeypatch) == [
            (32, "limit equation", 5), (32, "Newton", 4), (64, "Newton", 2)
        ]

    def test_ladder_does_not_call_the_public_solve(self, monkeypatch):
        # every rung solves through one private function, so a wrapper of
        # solve_coupled sees a cold solve once and a sweep not at all
        calls, public = [], solver.solve_coupled

        def counted(*args, **kwargs):
            calls.append(args)
            return public(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_coupled", counted)
        solver.solve_coupled(make_spec(N=64, q=40.0))
        assert len(calls) == 1
        calls.clear()
        self._sweep()
        assert calls == []

    def test_limit_solve(self, monkeypatch):
        levels, steps = _record_levels(monkeypatch)
        solve_limit(make_spec(N=64))
        assert self._rungs(levels, steps) == [
            (32, "limit equation", 6), (64, "limit equation", 2)
        ]

    def test_three_vortex_sweep(self, monkeypatch):
        # every coupling is solved on the half grid first: there q = 160
        # starts from u_inf + u1/q, each later coupling from the Hermite
        # quadratic in 1/q (5, 5, 5, 6 passes from the neighbour), and each
        # N = 64 coupling from its N = 32 solution (4, 3, 4, 5 passes from
        # the predictor on N = 64 itself).  q = 160 on N = 32 takes 4
        # passes, 3 without the spectrum hand-off of _minres: with it, the
        # roundoff-level change of the Krylov iterates leaves the second
        # step at residual 4.2e-6, above newton_tol = 1e-6
        assert self._sweep_rungs(monkeypatch) == [
            (32, "limit equation", 6), (64, "limit equation", 2),
            (32, "Newton", 4), (32, "Newton", 3), (32, "Newton", 4), (32, "Newton", 5),
            (64, "Newton", 2), (64, "Newton", 2), (64, "Newton", 2), (64, "Newton", 2),
        ]

    def test_krylov_iterations(self, monkeypatch):
        # Krylov iterations per driver call and u1 solve.  Before MINRES
        # stopped at the linear residual a step needs, the cold solve took
        # 26, 5, 17, 6 (54) and the sweep 35, 6, 7, 24, 19, 24, 30, 8, 9,
        # 9, 10 (181); before the cold solve's limit rung stopped at the
        # predictor's accuracy, its limit rung took 26 (50).  The sweep's
        # third N = 32 coupling took 23 and its N = 64 couplings 5 each
        # (159) before u0 came from the bumps' 1-D transforms, which moved
        # it at roundoff
        krylov = _record_krylov(monkeypatch)
        self._cold_solve()
        assert krylov == [
            (32, "limit equation", 19), (32, "u1", 5), (32, "Newton", 17),
            (64, "Newton", 2),
        ]
        del krylov[:]
        self._sweep()
        assert krylov == [
            (32, "limit equation", 35), (64, "limit equation", 3), (32, "u1", 7),
            (32, "Newton", 22), (32, "Newton", 19), (32, "Newton", 22),
            (32, "Newton", 30),
            (64, "Newton", 6), (64, "Newton", 5), (64, "Newton", 6), (64, "Newton", 5),
        ]

    def test_cold_solve_with_a_widened_rung(self, monkeypatch):
        # sigma = 3h at N = 128: the floor is the top rung, and the widened
        # N = 64 rung solves the limit equation and u1 for its start.  With
        # a limit solve on N = 128 too (2 passes), and u1 there, the top
        # rung took the same 4 passes but 26 Krylov iterations and 147
        # transforms
        levels, steps = _record_levels(monkeypatch)
        counts, krylov = count_transforms(monkeypatch), _record_krylov(monkeypatch)
        grid = GridSpec(128)
        solve_coupled(make_spec(N=128, q=40.0, vortices=one_vortex(grid, 3.0)))
        assert self._rungs(levels, steps) == [
            (64, "limit equation", 5), (128, "Newton", 4)
        ]
        per_grid = collections.Counter()
        for N, _, iters in krylov:
            per_grid[N] += iters
        assert per_grid == {64: 23, 128: 17}
        assert (counts["transforms", 64], counts["transforms", 128]) == (93, 109)

    def test_transforms(self, monkeypatch):
        # GridSpec transforms of each whole solve: backgrounds (one each),
        # every rung, u1, the bounds checks and, for the sweep, its table's
        # rows.  Each background took two before compute_u0 took the
        # source's spectrum from its bumps' 1-D transforms; the sweep's
        # count rose with its Krylov iterations (test_krylov_iterations).
        # A coupled start prolonged from N = 32 brings its half spectrum,
        # which spares the forward transform of its first state: the cold
        # solve took 225 and the sweep 926 before.  Each row's residual
        # norms took 2 more while they held the fourth-order one: 922
        counts, totals = count_transforms(monkeypatch), []
        for run in (self._cold_solve, lambda: solve_limit(make_spec(N=64)), self._sweep):
            counts.clear()
            run()
            totals.append(counts["transforms"])
            assert counts["transforms"] == counts["transforms", 32] + counts["transforms", 64]
        assert totals == [224, 116, 914]

    @pytest.mark.parametrize("failure", ["iteration limit", "not finite"])
    def test_failed_corrector_keeps_the_old_starts(self, monkeypatch, failure):
        # without u1 the starts are u_inf and the larger-q neighbour, and
        # the passes those starts took before u1 existed
        real_u1, results = solver.LimitSolution.u1.func, []

        def failing_minres(A, M, b, rtol, maxiter, target=None):
            if failure == "iteration limit":
                return np.zeros_like(b), 6, maxiter
            return np.full_like(b, np.nan), 1, maxiter

        def u1(limit):
            with monkeypatch.context() as m:
                m.setattr(solver, "_minres", failing_minres)
                results.append(real_u1(limit))
            return results[-1]

        monkeypatch.setattr(solver.LimitSolution, "u1", property(u1))
        assert self._cold_rungs(monkeypatch) == [
            (32, "limit equation", 5), (32, "Newton", 5), (64, "Newton", 2)
        ]
        assert self._sweep_rungs(monkeypatch) == [
            (32, "limit equation", 6), (64, "limit equation", 2),
            (32, "Newton", 5), (32, "Newton", 5), (32, "Newton", 5), (32, "Newton", 6),
            (64, "Newton", 2), (64, "Newton", 2), (64, "Newton", 2), (64, "Newton", 2),
        ]
        assert results and all(u1 is None for u1 in results)


def _own_laplacian(values: np.ndarray) -> np.ndarray:
    """Spectral Laplacian on the unit torus from numpy's 2-D transforms,
    apart from GridSpec, as bench/checks.py computes it."""
    k = np.fft.fftfreq(values.shape[0], d=1.0 / values.shape[0])
    k2 = TWO_PI**2 * (k[:, None] ** 2 + k[None, :] ** 2)
    return np.real(np.fft.ifft2(-k2 * np.fft.fft2(values)))


class TestSmoothingStep:
    """A coupled start prolonged from the half grid comes with its half
    spectrum, and where eq.contraction(st, V) r_0 <= newton_tol the first
    pass tries u - P^-1 r before any MINRES solve.  One vortex, s = 9,
    q = 40, N = 256: the benchmark's solve_large, whose N = 256 rung took
    one Newton step of 2 Krylov iterations from r_0 = 1.38e-4, where the
    estimate reads 5.5e-7."""

    def test_top_rung_runs_no_minres(self, monkeypatch):
        grids, real = [], solver._minres

        def minres(A, M, b, *args, **kwargs):
            grids.append(b.shape[0])
            return real(A, M, b, *args, **kwargs)

        monkeypatch.setattr(solver, "_minres", minres)
        bundle = solve_coupled(make_spec(N=256, q=40.0, newton_tol=8e-6))
        assert 128 in grids and 256 not in grids
        # the smoothing step is the rung's one step: 2 passes, as before
        assert bundle.newton_iters == 2
        assert all(report.passed for report in all_reports(bundle))

    def test_converges_at_the_default_tolerance(self):
        # the step's trial state reads its Laplacians from the exact half
        # spectrum uh - P^-1 r^, not from a forward transform of u, whose
        # float64 floor held the second equation at 2.1e-6 .. 2.5e-6 here
        spec = make_spec(N=256, q=40.0)
        bundle = solve_coupled(spec)
        u_star, v = bundle.u_star.values, bundle.v.values
        t = np.exp(u_star)  # f(t) = t and c = f'(t) t = t for the linear model
        s, q = spec.model.s, spec.q
        source = bundle.background.source.values
        res_a = -_own_laplacian(u_star) - q * (v - t) + FOUR_PI * source
        res_b = -_own_laplacian(v) - q * (t * (s - v) - q * (v - t))
        for res in (res_a, res_b):
            assert np.sqrt(np.mean(res * res)) <= 1e-6

    @pytest.mark.parametrize("trial", ["kept", "outside the domain"])
    def test_forced_step(self, monkeypatch, trial):
        # on a cold N = 64 solve the estimate rejects the step; forced, a
        # kept step that misses newton_tol is one pass, and Newton goes on
        # from it, while a rejected trial sends the pass back to the start,
        # rebuilt from u and its spectrum: the unforced solve's fields
        spec = make_spec(N=64, q=40.0)
        plain = solve_coupled(spec)
        monkeypatch.setattr(solver._Coupled, "contraction", lambda self, st, V: 0.0)
        if trial == "outside the domain":
            real, handed = solver._pointwise_state, []

            def state(model, bg, u, uh=None):
                if uh is not None:
                    handed.append(uh)
                    if uh is not handed[0]:  # the step's trial
                        return None
                return real(model, bg, u, uh)

            monkeypatch.setattr(solver, "_pointwise_state", state)
        bundle = solve_coupled(spec)
        if trial == "kept":
            assert (plain.newton_iters, bundle.newton_iters) == (2, 3)
            assert bundle.residual_norms["genmcsb"] <= spec.newton_tol
        else:
            assert len(handed) == 3  # the start, the trial, the start again
            assert bundle.newton_iters == plain.newton_iters
            assert np.array_equal(bundle.u.values, plain.u.values)

    def test_limit_start_is_not_smoothed(self, monkeypatch):
        # only coupled starts get their spectrum: a smoothing step on the
        # limit equation's prolonged start cost the N = 64 limit rung a pass
        # (and raised the benchmark sweep's N = 128 limit residual from
        # 1.7e-6 to 7.3e-6, that residual being the coarse stop's)
        calls, real = [], solver._newton_krylov

        def recorded(eq, u, spec, *spectrum):
            result = real(eq, u, spec, *spectrum)
            handed = bool(spectrum) and spectrum[0] is not None
            calls.append((spec.grid.N, eq.what, handed, result[-1]))
            return result

        monkeypatch.setattr(solver, "_newton_krylov", recorded)
        table = q_sweep(three_vortex_spec(), [20.0, 40.0, 80.0, 160.0])
        assert all(row.status == "converged" for row in table.rows)
        assert calls[:2] == [(32, "limit equation", False, 6), (64, "limit equation", False, 2)]
        assert calls[-4:] == [(64, "Newton", True, 2)] * 4


class TestNewtonStops:
    """The driver's convergence test, made once at the head of each pass,
    on one vortex at N = 64 and q = 40, started from u_inf + u1/q, from
    which it converges after 3 steps, in 4 passes."""

    @pytest.fixture(scope="class")
    def started(self):
        spec = make_spec(N=64, q=40.0)
        limit = solve_limit(spec)
        return spec, limit.u_inf + limit.u1 / spec.q

    def test_converging_on_the_last_allowed_step(self, started):
        spec, init = started
        free = solve_coupled(spec, init=init)
        assert free.newton_iters == 4
        for limit in (3, 4):
            bundle = solve_coupled(replace(spec, max_newton_iters=limit), init=init)
            assert bundle.newton_iters == free.newton_iters
            assert np.array_equal(bundle.u.values, free.u.values)

    def test_limit_too_small(self, started):
        spec, init = started
        with pytest.raises(NoConvergence, match="Newton did not converge after 2 ") as exc:
            solve_coupled(replace(spec, max_newton_iters=2), init=init)
        assert exc.value.iterations == 2 and exc.value.residual > spec.newton_tol

    def test_start_outside_the_domain(self):
        # e^{u0+u} overflows at the start: no pass is made
        spec = make_spec(N=32, q=40.0)
        with pytest.raises(NoConvergence, match="after 0 iterations") as exc:
            solve_coupled(spec, init=spec.grid.constant(800.0))
        assert exc.value.iterations == 0 and exc.value.residual == np.inf


class TestLineSearch:
    """A Newton step that the line search shortens and keeps, on one vortex
    at N = 64 and q = 40, whose N = 64 rung takes one step from its
    prolonged start."""

    def test_backtracked_step_converges(self, monkeypatch):
        # the rung's MINRES step, tripled: the alpha = 1 trial lands three
        # steps out, at about twice r_k, and is rejected; alpha = 1/2 lands
        # 1.5 steps out, at about half r_k, and is kept.  Newton goes on
        # from there and converges one pass later than without the fault
        spec = make_spec(N=64, q=40.0)
        plain = solve_coupled(spec)
        real_minres, real_state = solver._minres, solver._pointwise_state
        steps, trials = [], []

        def minres(A, M, b, *args, **kwargs):
            x, istop, itn = real_minres(A, M, b, *args, **kwargs)
            if b.shape[0] == 64:
                if not steps:
                    x *= 3.0
                steps.append(x.copy())
            return x, istop, itn

        def state(model, bg, u, uh=None):
            if len(steps) == 1:  # the trials of the tripled step
                trials.append(u.copy())
            return real_state(model, bg, u, uh)

        monkeypatch.setattr(solver, "_minres", minres)
        monkeypatch.setattr(solver, "_pointwise_state", state)
        bundle = solve_coupled(spec)
        assert len(steps) == 2 and len(trials) == 2
        assert np.allclose(trials[0] - trials[1], 0.5 * steps[0], rtol=0.0, atol=1e-14)
        assert (plain.newton_iters, bundle.newton_iters) == (2, 3)
        assert np.abs(bundle.u.values - plain.u.values).max() <= 1e-9
        assert bundle.residual_norms["genmcsb"] <= spec.newton_tol
        assert all(report.passed for report in all_reports(bundle))


class TestFirstOrderCorrector:
    """u_q = u_inf + u1/q + O(1/q^2), one order beyond the sweep's d_*
    columns, with one vortex at N = 64 and q = 80, 160, 320."""

    QS = (80.0, 160.0, 320.0)

    @pytest.fixture(scope="class")
    def expansion(self):
        spec = make_spec(N=64)
        return spec, solve_limit(spec)

    def test_corrector_cancels_the_first_order_residual(self, expansion):
        # the Newton residual q ||gradient|| is O(1) at u_inf, O(1/q) at
        # u_inf + u1/q
        spec, limit = expansion
        zeroth, first = [], []
        for q in self.QS:
            sub = replace(spec, q=q)
            zeroth.append(q * l2_norm(energy_gradient(limit.u_inf, sub)))
            first.append(q * l2_norm(energy_gradient(limit.u_inf + limit.u1 / q, sub)))
        assert max(zeroth) <= 1.05 * min(zeroth)
        assert all(b <= a / 2.0 for a, b in zip(first, first[1:]))
        assert first[0] <= zeroth[0] / 5.0

    def test_converged_solutions_follow_the_expansion(self, expansion):
        spec, limit = expansion
        zeroth, first = [], []
        for q in self.QS:
            u = solve_coupled(replace(spec, q=q)).u
            zeroth.append(sup_norm(u - limit.u_inf))
            first.append(sup_norm(u - limit.u_inf - limit.u1 / q))
        # O(1/q^2) with u1, only O(1/q) without
        assert all(b <= a / 3.5 for a, b in zip(first, first[1:]))
        assert all(b >= a / 2.5 for a, b in zip(zeroth, zeroth[1:]))


class TestSolveLimit:
    def test_no_vortices_constant(self):
        grid = GridSpec(32)
        model = u1_model(1.0)
        spec = ProblemSpec(model=model, vortices=no_vortices(), q=1.0, grid=grid)
        lim = solve_limit(spec)
        t = np.exp(lim.u_star.values)
        f, _, _ = model._eval_arrays(t)
        assert np.max(np.abs(f - model.s)) <= 1e-9

    def test_flux_identity(self):
        spec = make_spec(N=64, newton_tol=1e-10)
        lim = solve_limit(spec)
        t = np.exp(lim.u_star.values)
        f, fp, _ = spec.model._eval_arrays(t)
        flux = integrate(spec.grid.field(fp * t * (spec.model.s - f)))
        assert flux == pytest.approx(FOUR_PI, rel=1e-6)

    def test_residual_below_tight_tolerance(self):
        spec = make_spec(N=64, newton_tol=1e-10)
        lim = solve_limit(spec)
        assert lim.residual_norm <= 1e-10

    def test_line_search_failure_names_minres_status(self):
        # the rational model cannot carry a vortex on the unit torus
        grid = GridSpec(32)
        spec = ProblemSpec(
            model=cp1_model(0.5), vortices=one_vortex(grid), q=80.0, grid=grid
        )
        with pytest.raises(NoConvergence, match=r"MINRES exit status -?\d+"):
            solve_limit(spec)

    def test_failed_limit_leaves_no_cycle(self):
        # with the collector off, a reference cycle through the failure's
        # traceback would keep the solve's fields alive until gc.collect()
        grid = GridSpec(32)
        spec = ProblemSpec(
            model=cp1_model(0.5), vortices=one_vortex(grid), q=80.0, grid=grid
        )
        arrays = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)

        def array_bytes():
            snapshot = tracemalloc.take_snapshot().filter_traces([arrays])
            return sum(trace.size for trace in snapshot.traces)

        gc.disable()
        tracemalloc.start()
        try:
            for run in (
                lambda: solve_limit(spec),
                lambda: q_sweep(spec, [40.0, 80.0]),
                lambda: solve_coupled(spec),
            ):
                gc.collect()
                with pytest.raises(SolveFailure):
                    run()
                held = array_bytes()
                gc.collect()
                assert held == array_bytes()
        finally:
            tracemalloc.stop()
            gc.enable()

    def test_solves_leave_no_cycle(self):
        # garbage with a reference cycle, such as a preconditioner that
        # refers to itself, would wait for the collector with its buffers
        spec = make_spec(N=32, q=40.0)
        gc.collect()
        gc.disable()
        try:
            for run in (
                lambda: solve_limit(spec),
                lambda: solve_coupled(spec),
                lambda: q_sweep(spec, [40.0, 80.0]),
            ):
                run()
                assert gc.collect() == 0
        finally:
            gc.enable()

    def test_pointwise_range(self):
        spec = make_spec(N=64)
        lim = solve_limit(spec)
        t = np.exp(lim.u_star.values)
        f, _, _ = spec.model._eval_arrays(t)
        btol = spec.bound_tol
        assert f.min() >= spec.model.f0 - btol
        assert f.max() <= spec.model.s + btol


class TestQSweep:
    def test_single_entry_no_vortices(self):
        grid = GridSpec(32)
        model = u1_model(1.0)
        spec = ProblemSpec(model=model, vortices=no_vortices(), q=10.0, grid=grid)
        table = q_sweep(spec, [10.0])
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row.status == "converged"
        assert row.d_eu <= 1e-9 and row.d_v <= 1e-9 and row.d_w <= 1e-9

    def test_descending_list_rejected(self):
        spec = make_spec(N=32)
        with pytest.raises(ValueError, match="ascending"):
            q_sweep(spec, [80.0, 10.0])
        with pytest.raises(ValueError, match="positive"):
            q_sweep(spec, [-1.0, 10.0])
        with pytest.raises(ValueError, match="finite"):
            q_sweep(spec, [10.0, float("inf")])

    @pytest.mark.parametrize(
        "q_list,message",
        [
            ([True, 40.0], r"^q_list\[0\] must be positive and finite, got True$"),
            ([20.0, "40"], r"^q_list\[1\] must be positive and finite, got '40'$"),
            ([20.0, float("nan")], r"^q_list\[1\] must be positive and finite, got nan$"),
            ([0.0, 20.0], r"^q_list\[0\] must be positive and finite, got 0.0$"),
            ([], r"^q_list must not be empty$"),
        ],
        ids=["bool", "string", "nan", "zero", "empty"],
    )
    def test_entries_are_checked_before_any_solve(self, monkeypatch, q_list, message):
        # each entry as ProblemSpec checks q: float() would take True for
        # q = 1 and parse strings, and an empty list ran the limit solve
        def built(*args):
            raise AssertionError("a background was built")

        monkeypatch.setattr(solver, "compute_u0", built)
        with pytest.raises(ValueError, match=message):
            q_sweep(make_spec(N=32), q_list)

    def test_single_vortex_sweep_monotone(self):
        spec = make_spec(N=64)
        table = q_sweep(spec, [10.0, 20.0, 40.0, 80.0])
        assert [row.q for row in table.rows] == [10.0, 20.0, 40.0, 80.0]
        assert all(row.status == "converged" for row in table.rows)
        d_v = [row.d_v for row in table.rows]
        assert all(b < a for a, b in zip(d_v, d_v[1:]))
        # first-order heuristic: q * ||v - f(e^{u*})||_inf stable within 2x
        qw = []
        for row in table.rows:
            qw.append(row.q * row.d_v)  # proxy built from limit metric
        sup_w = [row.q * row.d_v for row in table.rows]
        assert max(sup_w) / min(sup_w) <= 2.0

    def test_top_rung_keeps_no_half_grid_bundle(self, monkeypatch):
        # a coarse rung passes up only u, so by the first coupled solve on
        # the top rung every half-grid bundle, with its v, w and
        # background, is gone
        spec = make_spec(N=64)
        real_rung, real_newton = solver._rung, solver._newton_krylov
        coarse, alive = [], []

        def rung(rung_spec, bg, init):
            bundle = real_rung(rung_spec, bg, init)
            if rung_spec.grid.N < spec.grid.N:
                coarse.append(weakref.ref(bundle))
            return bundle

        def newton(eq, u, rung_spec, uh=None):
            if rung_spec.grid.N == spec.grid.N and eq.what == "Newton" and not alive:
                alive.append([ref() is not None for ref in coarse])
            return real_newton(eq, u, rung_spec, uh)

        monkeypatch.setattr(solver, "_rung", rung)
        monkeypatch.setattr(solver, "_newton_krylov", newton)
        table = q_sweep(spec, [20.0, 40.0, 80.0])
        assert all(row.status == "converged" for row in table.rows)
        assert alive == [[False, False, False]]

    def test_failed_rows_are_marked(self):
        # q too small for the coefficient field: rows fail, table survives
        spec = make_spec(N=32, q=5.0)
        table = q_sweep(spec, [5.0, 6.0])
        assert len(table.rows) == 2
        assert all(row.status in ("q_too_small", "no_convergence") for row in table.rows)
        tsv = table.to_tsv()
        assert "q_too_small" in tsv or "no_convergence" in tsv
