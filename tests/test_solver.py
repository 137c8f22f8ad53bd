import numpy as np
import pytest

from mcsvortex import (
    GridSpec,
    NoConvergence,
    ProblemSpec,
    QTooSmall,
    VortexConfig,
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

from conftest import smooth_field

FOUR_PI = 4.0 * np.pi

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
            ("krylov_tol", -1.0),
            ("krylov_tol", float("nan")),
            ("krylov_tol", float("inf")),
            ("max_newton_iters", 0),
            ("bound_tol", float("nan")),
            ("bound_tol", float("inf")),
            ("bound_tol", -1.0),
        ],
    )
    def test_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_spec(N=32, **{field: value})


class TestCoefficientFields:
    def test_linear_model_c_is_exponential(self, rng):
        spec = make_spec(N=32)
        bg = compute_u0(spec.vortices, spec.grid)
        u = smooth_field(spec.grid, rng, kmax=3, amp=0.4)
        c, f_q, _ = coefficient_fields(u, bg, spec.model, spec.q)
        e_star = np.exp(bg.u0.values + u.values)
        assert np.max(np.abs(c.values - e_star)) <= 1e-12 * e_star.max()
        expected_fq = e_star + (spec.model.s / spec.q) * e_star
        assert np.max(np.abs(f_q.values - expected_fq)) <= 1e-12 * expected_fq.max()

    def test_constant_state_no_vortices(self):
        grid = GridSpec(32)
        model = u1_model(1.0)
        bg = compute_u0(no_vortices(), grid)
        a = -0.3
        c, f_q, _ = coefficient_fields(grid.constant(a), bg, model, 10.0)
        assert np.allclose(c.values, np.exp(a), atol=1e-14)
        assert np.allclose(f_q.values, np.exp(a) + 0.1 * np.exp(a), atol=1e-14)

    def test_gq_vanishes_at_flat_state(self):
        grid = GridSpec(32)
        model = u1_model(1.0)
        bg = compute_u0(no_vortices(), grid)
        u = grid.constant(0.2)
        _, _, g_q = coefficient_fields(u, bg, model, 10.0)
        out = g_q(grid.constant(model.s))
        assert sup_norm(out) <= 1e-13


class TestRecoverV:
    def test_constant_solution(self):
        grid = GridSpec(32)
        model = u1_model(1.0)
        bg = compute_u0(no_vortices(), grid)
        u = grid.constant(np.log(model.inverse(model.s)))
        v = recover_v(u, bg, model, 7.0)
        assert np.max(np.abs(v.values - model.s)) <= 1e-12

    def test_first_equation_identity_by_construction(self, rng):
        spec = make_spec(N=64)
        bg = compute_u0(spec.vortices, spec.grid)
        u = smooth_field(spec.grid, rng, kmax=5, amp=0.7)
        v = recover_v(u, bg, spec.model, spec.q)
        t = bg.exp_u0.values * np.exp(u.values)
        f, _, _ = spec.model._eval_arrays(t)
        res = -laplacian(u).values - spec.q * (v.values - f) + FOUR_PI * bg.n
        assert l2_norm(spec.grid.field(res)) <= 1e-12 * spec.q

    def test_matches_helmholtz_route_on_converged_solve(self):
        spec = make_spec(N=64, q=40.0, newton_tol=1e-8)
        bundle = solve_coupled(spec)
        c, f_q, _ = coefficient_fields(
            bundle.u, bundle.background, spec.model, spec.q
        )
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
        lib = energy(u, spec, background=bg)
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
        bg = compute_u0(spec.vortices, spec.grid)
        u = smooth_field(spec.grid, rng, kmax=4, amp=0.5)
        g = energy_gradient(u, spec, background=bg)
        step = 1e-5
        for _ in range(10):
            phi = smooth_field(spec.grid, rng, kmax=4, amp=1.0)
            fd = (
                energy(u + step * phi, spec, background=bg)
                - energy(u - step * phi, spec, background=bg)
            ) / (2 * step)
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

    def test_manufactured_solution(self, rng):
        spec = make_spec(N=64, q=20.0, newton_tol=3e-8)
        bg = compute_u0(spec.vortices, spec.grid)
        lim = solve_limit(spec, background=bg)
        u_m = lim.u_inf + smooth_field(spec.grid, rng, kmax=3, amp=0.3)
        forcing = energy_gradient(u_m, spec, background=bg)
        bundle = solve_coupled(spec, background=bg, forcing=forcing)
        assert sup_norm(bundle.u - u_m) <= 1e-7

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

        def counted_state(model, bg, u):
            calls["states"] += 1
            return state(model, bg, u)

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
        from dataclasses import replace as dc_replace

        spec = make_spec(N=48, q=40.0, newton_tol=2e-8)
        base = solve_coupled(spec)
        wide_model = dc_replace(
            spec.model, T=2 * spec.model.T, f_upper=2 * spec.model.T
        )
        wide = solve_coupled(dc_replace(spec, model=wide_model))
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
        c, f_q, g_q = coefficient_fields(
            bundle.u, bundle.background, spec.model, spec.q
        )
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


def reference_minres(A, M, b, rtol, maxiter):
    """scipy's MINRES on the raveled system: the reference for
    solver._minres, which must return the same floats and status."""
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


class TestMinres:
    @pytest.mark.parametrize("kind", ["definite", "indefinite", "singular"])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("rtol", [1e-4, 1e-10])
    def test_matches_scipy(self, kind, seed, rtol):
        A, M, b = _random_system(seed, 6, kind)
        x, info = solver._minres(A, M, b, rtol, maxiter=400)
        x_ref, info_ref = reference_minres(A, M, b, rtol, maxiter=400)
        assert info == info_ref == 0
        assert x.shape == b.shape and np.array_equal(x, x_ref)

    @pytest.mark.parametrize("kind", ["definite", "indefinite"])
    def test_iteration_limit_matches_scipy(self, kind):
        A, M, b = _random_system(7, 6, kind)
        x, info = solver._minres(A, M, b, 1e-12, maxiter=5)
        x_ref, info_ref = reference_minres(A, M, b, 1e-12, maxiter=5)
        assert info == info_ref == 5
        assert np.array_equal(x, x_ref)

    def test_zero_right_side(self):
        A, M, b = _random_system(0, 4, "definite")
        x, info = solver._minres(A, M, np.zeros_like(b), 1e-8, maxiter=400)
        assert info == 0 and not x.any()


def _record_levels(monkeypatch, fail_on=None):
    """Record (grid size, equation) of every Newton-Krylov driver call, and
    the Newton steps of each call that returns; calls on the grid of size
    fail_on raise NoConvergence instead."""
    levels, steps = [], []
    real = solver._newton_krylov

    def recorded(u, spec, state, residual, linearize, what, scale=1.0):
        levels.append((spec.grid.N, what))
        if spec.grid.N == fail_on:
            raise NoConvergence(0, np.inf, what=what)
        result = real(u, spec, state, residual, linearize, what, scale)
        steps.append(result[-1])
        return result

    monkeypatch.setattr(solver, "_newton_krylov", recorded)
    return levels, steps


class TestGridSequencing:
    @pytest.mark.parametrize(
        "N,sigma_cells,grids",
        [
            (64, 4.0, [32, 32, 64]),
            (64, 2.0, [64, 64]),  # sigma is below 2h on the half grid
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

    def test_cold_limit_solve_starts_on_half_grid(self, monkeypatch):
        levels, steps = _record_levels(monkeypatch)
        limit = solve_limit(make_spec(N=64))
        assert levels == [(32, "limit equation"), (64, "limit equation")]
        assert limit.newton_iters == steps[-1]

    def test_forced_coupled_equation_stays_on_one_level(self, monkeypatch, rng):
        spec = make_spec(N=64, q=20.0)
        bg = compute_u0(spec.vortices, spec.grid)
        forcing = energy_gradient(
            smooth_field(spec.grid, rng, kmax=3, amp=0.3), spec, background=bg
        )
        levels, _ = _record_levels(monkeypatch)
        solve_coupled(spec, background=bg, forcing=forcing)
        # the limit warm start is sequenced on its own; the coupled
        # equation with a forcing runs on the requested grid only
        assert [lv for lv in levels if lv[1] == "Newton"] == [(64, "Newton")]

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

    def test_forced_solve_sequences_only_the_limit_equation(self, monkeypatch, rng):
        spec = make_spec(N=64, q=20.0)
        bg = compute_u0(spec.vortices, spec.grid)
        forcing = energy_gradient(
            smooth_field(spec.grid, rng, kmax=3, amp=0.3), spec, background=bg
        )
        levels, _ = _record_levels(monkeypatch)
        solve_coupled(spec, background=bg, forcing=forcing)
        assert levels == [(32, "limit equation"), (64, "limit equation"), (64, "Newton")]

    def test_failed_half_grid_limit_starts_from_ansatz(self, monkeypatch):
        spec = make_spec(N=64)
        bg = compute_u0(spec.vortices, spec.grid)
        starts = []

        def failing(u, sub, *args, **kwargs):
            starts.append((sub.grid.N, u.copy()))
            raise NoConvergence(sub.grid.N, np.inf, what="limit equation")

        monkeypatch.setattr(solver, "_newton_krylov", failing)
        with pytest.raises(NoConvergence) as raised:
            solve_limit(spec, background=bg)
        # the fine grid's failure is the one raised, after a start from the ansatz
        assert raised.value.iterations == 64
        assert [n for n, _ in starts] == [32, 64]
        assert np.array_equal(starts[1][1], solver.initial_guess(bg, spec.model).values)


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

    def test_pointwise_range(self):
        spec = make_spec(N=64)
        lim = solve_limit(spec)
        t = np.exp(lim.u_star.values)
        f, _, _ = spec.model._eval_arrays(t)
        btol = spec.resolved_bound_tol()
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

    def test_failed_rows_are_marked(self):
        # q too small for the coefficient field: rows fail, table survives
        spec = make_spec(N=32, q=5.0)
        table = q_sweep(spec, [5.0, 6.0])
        assert len(table.rows) == 2
        assert all(row.status in ("q_too_small", "no_convergence") for row in table.rows)
        tsv = table.to_tsv()
        assert "q_too_small" in tsv or "no_convergence" in tsv
