"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Vortex-carrying runs on the unit-measure torus are only solvable when the
nonlinearity can carry the quantized flux: integrating the equations forces
integral(f'(e^{u*}) e^{u*} (s - v)) = 4*pi*n while the pointwise bounds cap
the integrand, so the linear model needs max_t t(s-t) = s^2/4 > 4*pi*n.
The linear-model cases below pick s with a >= 25% margin per n; the
rational model's capacity tops out below 1 for every admissible s, which
no grid or coupling can fix.
"""

import math
import time

import numpy as np
import pytest

from mcsvortex import (
    GridSpec,
    NoConvergence,
    ProblemSpec,
    ScalarField,
    VortexConfig,
    check_bounds,
    check_flux,
    check_identity,
    check_max_location,
    compute_u0,
    cp1_model,
    energy,
    energy_gradient,
    helmholtz_apply,
    helmholtz_solve,
    integrate,
    l2_norm,
    no_vortices,
    q_sweep,
    solve_coupled,
    solve_limit,
    sup_norm,
    u1_model,
)
from mcsvortex.cli import main as cli_main
from mcsvortex.snapshots import read_field, write_field

from conftest import smooth_field

FOUR_PI = 4.0 * np.pi

# s per vortex number for the linear model (capacity margin >= 25%)
S_FOR_N = {1: 9.0, 2: 13.0, 3: 16.0}

CONVERGED_RUNS: list = []  # (label, bundle) accumulated for criterion 4


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}  {detail}")


def single_vortex(grid: GridSpec) -> VortexConfig:
    return VortexConfig(points=((0.5, 0.5),), multiplicities=(1,), sigma=4 * grid.h)


def vortex_spec(N: int, n: int, q: float, **kw) -> ProblemSpec:
    grid = GridSpec(N)
    points = {
        1: ((0.5, 0.5),),
        2: ((0.25, 0.25), (0.75, 0.75)),
        3: ((0.25, 0.25), (0.75, 0.25), (0.5, 0.75)),
    }[n]
    cfg = VortexConfig(points=points, multiplicities=(1,) * n, sigma=4 * grid.h)
    return ProblemSpec(
        model=u1_model(S_FOR_N[n]), vortices=cfg, q=q, grid=grid, **kw
    )


@pytest.fixture(scope="module")
def sweep_data():
    """Criterion-5 configuration: warm-started bundles, table, and limit."""
    spec = vortex_spec(128, 1, 80.0)
    bg = compute_u0(spec.vortices, spec.grid)
    limit = solve_limit(spec)
    bundles = {}
    t0 = time.perf_counter()
    u_prev = limit.u_inf
    for q in (80.0, 40.0, 20.0, 10.0):
        from dataclasses import replace

        sub = replace(spec, q=q)
        bundle = solve_coupled(sub, init=u_prev)
        u_prev = bundle.u
        bundles[q] = bundle
    table = q_sweep(spec, [10.0, 20.0, 40.0, 80.0])
    elapsed = time.perf_counter() - t0
    return {"bundles": bundles, "table": table, "limit": limit, "elapsed": elapsed}


class TestCriterion1TrivialSolutions:
    def test_no_vortex_constants(self):
        ok = True
        details = []
        for model in (u1_model(1.0), cp1_model(0.5)):
            target = model.inverse(model.s)
            for q in (5.0, 50.0):
                grid = GridSpec(64)
                spec = ProblemSpec(
                    model=model, vortices=no_vortices(), q=q, grid=grid
                )
                t0 = time.perf_counter()
                bundle = solve_coupled(spec)
                elapsed = time.perf_counter() - t0
                d_e = np.max(np.abs(np.exp(bundle.u_star.values) - target))
                d_v = np.max(np.abs(bundle.v.values - model.s))
                case_ok = d_e <= 1e-9 and d_v <= 1e-9 and elapsed < 5.0
                ok &= case_ok
                details.append(f"{model.name}/q={q:g}: d={max(d_e, d_v):.1e} {elapsed:.2f}s")
                CONVERGED_RUNS.append((f"c1-{model.name}-q{q:g}", bundle))
        _report(1, ok, "; ".join(details))
        assert ok, details


class TestCriterion2FluxQuantization:
    def test_flux_for_one_two_three_vortices(self):
        ok = True
        details = []
        for n in (1, 2, 3):
            spec = vortex_spec(128, n, 40.0)
            t0 = time.perf_counter()
            bundle = solve_coupled(spec)
            elapsed = time.perf_counter() - t0
            report = check_flux(bundle)
            rel = max(
                abs(report.lhs[0] - FOUR_PI * n), abs(report.lhs[1] - FOUR_PI * n)
            ) / (FOUR_PI * n)
            case_ok = rel <= 1e-6 and elapsed < 60.0
            ok &= case_ok
            details.append(f"n={n}: rel={rel:.2e} {elapsed:.1f}s")
            CONVERGED_RUNS.append((f"c2-n{n}", bundle))
        _report(2, ok, "; ".join(details))
        assert ok, details


class TestCriterion3MainIdentity:
    def test_identity_and_refinement(self):
        spec128 = vortex_spec(128, 1, 40.0)
        bundle128 = solve_coupled(spec128)
        CONVERGED_RUNS.append(("c3-N128", bundle128))
        disc128 = check_identity(bundle128).rel_discrepancy
        base_ok = disc128 <= 1e-4

        spec256 = vortex_spec(256, 1, 40.0, newton_tol=8e-6)
        bundle256 = solve_coupled(spec256)
        CONVERGED_RUNS.append(("c3-N256", bundle256))
        disc256 = check_identity(bundle256).rel_discrepancy
        improvement = disc128 / disc256 if disc256 > 0 else math.inf
        refine_ok = improvement >= 4.0

        ok = base_ok and refine_ok
        _report(
            3,
            ok,
            f"disc(N=128)={disc128:.3e} (<=1e-4: {base_ok}); "
            f"disc(N=256)={disc256:.3e}, improvement={improvement:.2f}x (>=4: {refine_ok}; "
            "identity is discretely exact, so both discrepancies sit at the float64 "
            "noise floor and no systematic error remains to shrink)",
        )
        assert ok, (disc128, disc256, improvement)


class TestCriterion4PointwiseBounds:
    def test_bounds_on_every_converged_run(self, sweep_data):
        for q, bundle in sweep_data["bundles"].items():
            CONVERGED_RUNS.append((f"c5-q{q:g}", bundle))
        ok = True
        worst = ("", 0.0)
        for label, bundle in CONVERGED_RUNS:
            report = check_bounds(bundle)
            sigma = bundle.background.config.sigma
            assert report.tolerance == pytest.approx(1e-6 + 10 * sigma**2)
            if report.abs_discrepancy > worst[1]:
                worst = (label, report.abs_discrepancy)
            ok &= report.passed
        _report(
            4,
            ok,
            f"{len(CONVERGED_RUNS)} converged runs; worst violation "
            f"{worst[1]:.2e} at {worst[0] or 'n/a'}",
        )
        assert ok


class TestCriterion5LimitConvergence:
    def test_metrics_decrease_with_coupling(self, sweep_data):
        table = sweep_data["table"]
        ok = all(row.status == "converged" for row in table.rows)
        detail = []
        for metric in ("d_eu", "d_v", "d_w"):
            vals = [getattr(row, metric) for row in table.rows]
            mono = all(b < a for a, b in zip(vals, vals[1:]))
            ok &= mono
            detail.append(f"{metric} monotone: {mono}")
        d_v = {row.q: row.d_v for row in table.rows}
        quarter = d_v[80.0] <= d_v[10.0] / 4.0
        ok &= quarter
        timing = sweep_data["elapsed"] < 600.0
        ok &= timing
        detail.append(
            f"d_v(80)/d_v(10)={d_v[80.0] / d_v[10.0]:.3f} (<=0.25: {quarter})"
        )
        detail.append(f"runtime {sweep_data['elapsed']:.0f}s (<600: {timing})")
        _report(5, ok, "; ".join(detail))
        assert ok, detail


class TestCriterion6RationalModelSweep:
    def test_rational_model_sweep(self):
        grid = GridSpec(128)
        spec = ProblemSpec(
            model=cp1_model(0.5),
            vortices=single_vortex(grid),
            q=80.0,
            grid=grid,
            max_newton_iters=40,
        )
        detail = ""
        try:
            table = q_sweep(spec, [10.0, 20.0, 40.0, 80.0])
            ok = all(row.status == "converged" for row in table.rows)
            for metric in ("d_eu", "d_v", "d_w"):
                vals = [getattr(row, metric) for row in table.rows]
                ok &= all(b < a for a, b in zip(vals, vals[1:]))
            detail = "; ".join(f"q={row.q:g}:{row.status}" for row in table.rows)
        except NoConvergence as exc:
            ok = False
            detail = (
                f"unattainable: {exc}; the rational model's flux capacity "
                f"max_t 2t/(1+t)^2 * (s+1) <= 1 < 4*pi on the unit torus, so no "
                f"n>=1 solution exists for any admissible s"
            )
        _report(6, ok, detail)
        assert ok, detail


class TestCriterion7GradientCheck:
    def test_gradient_matches_finite_differences(self, rng):
        grid = GridSpec(64)
        spec = ProblemSpec(
            model=u1_model(1.0), vortices=single_vortex(grid), q=20.0, grid=grid
        )
        bg = compute_u0(spec.vortices, spec.grid)
        u = smooth_field(grid, rng, kmax=4, amp=0.5)
        g = energy_gradient(u, spec)
        step = 1e-5
        worst = 0.0
        ok = True
        for _ in range(10):
            phi = smooth_field(grid, rng, kmax=4, amp=1.0)
            fd = (
                energy(u + step * phi, spec)
                - energy(u - step * phi, spec)
            ) / (2 * step)
            rel = abs(integrate(g * phi) - fd) / max(abs(fd), 1e-30)
            worst = max(worst, rel)
            ok &= rel <= 1e-5
        _report(7, ok, f"worst direction rel error {worst:.2e} (<=1e-5)")
        assert ok, worst


class TestCriterion8HelmholtzStability:
    def test_stability_bounds_on_random_triples(self, rng):
        grid = GridSpec(32)
        ok = True
        worst = 0.0
        for _ in range(50):
            q = float(np.exp(rng.uniform(np.log(2.0), np.log(100.0))))
            c = smooth_field(grid, rng, kmax=3, amp=rng.uniform(0.05, 0.5) * q)
            rhs = smooth_field(grid, rng, kmax=4)
            u = helmholtz_solve(c, rhs, q, tol=1e-12)
            denom = 1.0 - sup_norm(c) / q
            sup_ok = sup_norm(u) <= sup_norm(rhs) / denom + 1e-8
            l2_ok = l2_norm(u) <= l2_norm(rhs) / denom + 1e-8
            ok &= sup_ok and l2_ok
            worst = max(worst, sup_norm(u) - sup_norm(rhs) / denom)
        _report(8, ok, f"50 triples, worst sup-bound slack {worst:.2e}")
        assert ok

    def test_dense_oracle_on_coarse_grids(self, rng):
        grid = GridSpec(8)
        nn = grid.N * grid.N
        ok = True
        worst = 0.0
        for _ in range(50):
            q = float(np.exp(rng.uniform(np.log(2.0), np.log(50.0))))
            c = smooth_field(grid, rng, kmax=2, amp=rng.uniform(0.05, 0.5) * q)
            rhs = smooth_field(grid, rng, kmax=3)
            u = helmholtz_solve(c, rhs, q, tol=1e-13)
            dense = np.empty((nn, nn))
            for j in range(nn):
                e = np.zeros(nn)
                e[j] = 1.0
                dense[:, j] = helmholtz_apply(
                    c, ScalarField(grid, e.reshape(8, 8)), q
                ).values.ravel()
            exact = np.linalg.solve(dense, (q * q * rhs.values).ravel()).reshape(8, 8)
            rel = np.max(np.abs(u.values - exact)) / max(np.abs(exact).max(), 1e-30)
            worst = max(worst, rel)
            ok &= rel <= 1e-8
        _report(8, ok, f"dense-oracle agreement, worst rel {worst:.2e} (<=1e-8)")
        assert ok, worst


class TestCriterion9MaxLocation:
    def test_argmax_away_from_core(self, sweep_data):
        ok = True
        details = []
        for q in (20.0, 80.0):
            bundle = sweep_data["bundles"][q]
            report = check_max_location(bundle)
            ok &= report.passed
            details.append(
                f"q={q:g}: dist={report.details['min_core_distance']:.3f} "
                f"(>= {report.rhs:.3f})"
            )
        _report(9, ok, "; ".join(details))
        assert ok, details


class TestCriterion10UniformBounds:
    def test_no_blowup_in_coupling(self, sweep_data):
        table = sweep_data["table"]
        ok = True
        details = []
        for name, vals in (
            ("sob2_u", [row.sob_u[2] for row in table.rows]),
            ("sob2_v", [row.sob_v[2] for row in table.rows]),
            ("gradu", [row.gradu_value for row in table.rows]),
        ):
            spread = max(vals) / min(vals)
            ok &= spread <= 2.0
            details.append(f"{name} spread {spread:.3f}")
        _report(10, ok, "; ".join(details) + " (all <= 2)")
        assert ok, details


class TestCriterion11NegativeControls:
    def test_corrupted_snapshot_fails_verify(self, tmp_path):
        out = tmp_path / "out"
        config = tmp_path / "run.cfg"
        config.write_text(
            "[model]\nname = u1\ns = 9.0\n\n"
            "[vortices]\npoints = 0.5 0.5 1\nsigma = 4.0\n\n"
            "[grid]\nN = 48\n\n[solver]\nq = 40.0\n\n"
            f"[output]\ndir = {out}\n"
        )
        ok = cli_main(["solve", "--config", str(config)]) == 0
        ok &= cli_main(["verify", str(out)]) == 0
        v = read_field(out / "v.fld")
        spoiled = v.values.copy()
        spoiled[3, 5] += 0.2
        write_field(out / "v.fld", v.grid.field(spoiled))
        corrupted_exit = cli_main(["verify", str(out)])
        ok &= corrupted_exit == 2
        _report(11, ok, f"corrupted-snapshot verify exit {corrupted_exit} (want 2)")
        assert ok

    def test_descending_q_list_rejected(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "[model]\nname = u1\ns = 9.0\n\n"
            "[vortices]\npoints = 0.5 0.5 1\nsigma = 4.0\n\n"
            "[grid]\nN = 32\n\n[solver]\nq_list = 80 10\n\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
        )
        exit_code = cli_main(["sweep", "--config", str(config)])
        ok = exit_code == 1
        _report(11, ok, f"descending q_list exit {exit_code} (want 1)")
        assert ok

    def test_flat_run_reports_not_applicable(self):
        grid = GridSpec(32)
        spec = ProblemSpec(
            model=u1_model(1.0), vortices=no_vortices(), q=10.0, grid=grid
        )
        bundle = solve_coupled(spec)
        v_const = bundle.v.max() - bundle.v.min() <= 1e-9
        report = check_max_location(bundle)
        ok = v_const and report.status == "not_applicable"
        _report(11, ok, f"n=0: v constant ({v_const}), max_location {report.status}")
        assert ok
