from dataclasses import replace

import numpy as np
import pytest

from mcsvortex import (
    BoundsViolation,
    GridMismatch,
    GridSpec,
    NoConvergence,
    ProblemSpec,
    QTooSmall,
    VortexConfig,
    all_reports,
    check_bounds,
    check_flux,
    check_gradu,
    check_identity,
    check_max_location,
    compute_u0,
    convergence_metrics,
    no_vortices,
    q_sweep,
    solve_coupled,
    solve_limit,
    u1_model,
)
from mcsvortex.diagnostics import _TSV_COLUMNS, ConvergenceTable, SweepRow, residual_reports
from mcsvortex.errors import PreconditionViolated
from mcsvortex.solver import SolutionBundle

FOUR_PI = 4.0 * np.pi
S_ONE_VORTEX = 9.0


def one_vortex_spec(N=64, q=40.0, s=S_ONE_VORTEX, **kw):
    grid = GridSpec(N)
    cfg = VortexConfig(points=((0.5, 0.5),), multiplicities=(1,), sigma=4 * grid.h)
    return ProblemSpec(model=u1_model(s), vortices=cfg, q=q, grid=grid, **kw)


def flat_spec(N=32, q=10.0, s=1.0):
    return ProblemSpec(
        model=u1_model(s), vortices=no_vortices(), q=q, grid=GridSpec(N)
    )


@pytest.fixture(scope="module")
def vortex_bundle():
    return solve_coupled(one_vortex_spec())


@pytest.fixture(scope="module")
def flat_bundle():
    return solve_coupled(flat_spec())


class TestCheckBounds:
    def test_flat_solution_sits_at_the_top(self, flat_bundle):
        report = check_bounds(flat_bundle)
        assert report.passed
        assert report.details["f_e_max"] == pytest.approx(
            flat_bundle.model.s, abs=1e-9
        )

    def test_vortex_solution_within_slack(self, vortex_bundle):
        report = check_bounds(vortex_bundle)
        assert report.passed
        assert report.details["v_min"] >= vortex_bundle.model.f0 - report.tolerance

    def test_negative_control_reports_failure(self, flat_bundle):
        spoiled_v = flat_bundle.v.values.copy()
        spoiled_v[3, 3] += 0.1
        spoiled = SolutionBundle(
            spec=flat_bundle.spec,
            background=flat_bundle.background,
            u=flat_bundle.u,
            v=flat_bundle.grid.field(spoiled_v),
            w=flat_bundle.w,
            newton_iters=flat_bundle.newton_iters,
        )
        report = check_bounds(spoiled)
        assert report.failed
        assert report.abs_discrepancy == pytest.approx(0.1, rel=1e-6)


class TestCheckFlux:
    def test_no_vortices_zero(self, flat_bundle):
        report = check_flux(flat_bundle)
        assert report.passed
        assert abs(report.lhs[0]) <= 1e-8 and abs(report.lhs[1]) <= 1e-8

    def test_single_vortex(self, vortex_bundle):
        report = check_flux(vortex_bundle)
        assert report.passed
        assert report.rhs == pytest.approx(FOUR_PI, rel=1e-15)
        assert report.rel_discrepancy <= 1e-6

    def test_triple_vortex(self):
        grid = GridSpec(64)
        cfg = VortexConfig(
            points=((0.25, 0.25), (0.75, 0.25), (0.5, 0.75)),
            multiplicities=(1, 1, 1),
            sigma=4 * grid.h,
        )
        spec = ProblemSpec(model=u1_model(16.0), vortices=cfg, q=40.0, grid=grid)
        report = check_flux(solve_coupled(spec))
        assert report.passed
        assert report.rhs == pytest.approx(3 * FOUR_PI, rel=1e-15)
        assert report.rel_discrepancy <= 1e-6

    def test_two_integrals_agree_tightly(self, vortex_bundle):
        report = check_flux(vortex_bundle)
        assert report.details["lhs_gap"] <= 1e-8


class TestCheckIdentity:
    def test_trivial_solution(self, flat_bundle):
        report = check_identity(flat_bundle)
        assert report.passed
        assert abs(report.lhs) <= 1e-10 and abs(report.rhs) <= 1e-10

    def test_single_vortex(self, vortex_bundle):
        report = check_identity(vortex_bundle)
        assert report.passed
        assert report.rel_discrepancy <= 1e-4


class TestCheckGradu:
    def test_trivial_solution(self, flat_bundle):
        report = check_gradu(flat_bundle)
        assert report.passed

    def test_two_route_agreement(self, vortex_bundle):
        report = check_gradu(vortex_bundle)
        assert report.passed
        assert report.rel_discrepancy <= 1e-6
        assert report.lhs > 0.0

    def test_sweep_uniformity(self):
        spec = one_vortex_spec(N=64, q=10.0)
        table = q_sweep(spec, [10.0, 20.0, 40.0, 80.0])
        values = [row.gradu_value for row in table.rows]
        assert max(values) / min(values) <= 2.0


class TestCheckMaxLocation:
    def test_not_applicable_when_flat(self, flat_bundle):
        report = check_max_location(flat_bundle)
        assert report.status == "not_applicable"
        assert not report.failed
        # contrapositive: v constant when n = 0
        assert flat_bundle.v.max() - flat_bundle.v.min() <= 1e-9

    def test_single_vortex_max_off_core(self, vortex_bundle):
        report = check_max_location(vortex_bundle)
        assert report.passed
        sigma = vortex_bundle.background.config.sigma
        assert report.details["min_core_distance"] >= 5 * sigma

    def test_two_antipodal_vortices(self):
        grid = GridSpec(64)
        cfg = VortexConfig(
            points=((0.25, 0.25), (0.75, 0.75)),
            multiplicities=(1, 1),
            sigma=4 * grid.h,
        )
        spec = ProblemSpec(model=u1_model(13.0), vortices=cfg, q=40.0, grid=grid)
        report = check_max_location(solve_coupled(spec))
        assert report.passed


class TestConvergenceMetrics:
    def test_zero_against_itself(self):
        spec = one_vortex_spec(N=64, q=40.0)
        limit = solve_limit(spec)
        lim = limit._pointwise
        synthetic = SolutionBundle(
            spec=spec,
            background=limit.background,
            u=limit.u_inf,
            v=spec.grid.field(lim.f),
            w=spec.grid.field(lim.c * (spec.model.s - lim.f)),
            newton_iters=0,
        )
        row = convergence_metrics(synthetic, limit)
        assert row.d_eu == 0.0 and row.d_v == 0.0 and row.d_w == 0.0
        assert row.h_u == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("N,q", [(32, 40.0), (48, 20.0)])
    def test_d_eu_reads_both_cached_states(self, N, q):
        # on these problems, exp(u0 + u) in place of e^{u0} e^u moves d_eu by an ulp
        bundle = solve_coupled(one_vortex_spec(N=N, q=q))
        limit = solve_limit(bundle.spec)
        row = convergence_metrics(bundle, limit)
        t_row, t_lim = bundle._pointwise.t, limit._pointwise.t
        assert row.d_eu == float(np.abs(t_row - t_lim).max())

    def test_grid_mismatch_rejected(self, vortex_bundle):
        other = one_vortex_spec(N=32)
        limit = solve_limit(other)
        with pytest.raises(GridMismatch):
            convergence_metrics(vortex_bundle, limit)

    def test_vortex_mismatch_rejected(self, vortex_bundle):
        # the same grid, the vortex moved
        spec = vortex_bundle.spec
        moved = replace(spec, vortices=replace(spec.vortices, points=((0.25, 0.5),)))
        with pytest.raises(GridMismatch, match="different vortex data"):
            convergence_metrics(vortex_bundle, solve_limit(moved))

    def test_sweep_evaluates_limit_state_once(self, monkeypatch):
        from mcsvortex import NonlinearityModel, diagnostics

        spec = one_vortex_spec(N=32, q=10.0)
        inside, calls, seen = [False], [], []
        eval_arrays = NonlinearityModel._eval_arrays
        metrics = diagnostics.convergence_metrics

        def counted_eval(model, t):
            calls.append(inside[0])
            return eval_arrays(model, t)

        def counted_metrics(bundle, limit):
            bundle._pointwise  # the row's own state, built before counting
            inside[0] = True
            try:
                row = metrics(bundle, limit)
            finally:
                inside[0] = False
            seen.append((bundle, limit, row))
            return row

        monkeypatch.setattr(NonlinearityModel, "_eval_arrays", counted_eval)
        monkeypatch.setattr(diagnostics, "convergence_metrics", counted_metrics)
        q_sweep(spec, [10.0, 20.0, 40.0, 80.0])
        assert len(seen) == 4
        assert sum(calls) == 1
        # the cached state gives the per-row formulas' values bit for bit
        for bundle, limit, row in seen:
            exp_u0 = limit.background.exp_u0.values
            e_lim = exp_u0 * np.exp(limit.u_inf.values)
            f_lim, fp_lim, _ = eval_arrays(spec.model, e_lim)
            w_lim = fp_lim * e_lim * (spec.model.s - f_lim)
            e_row = exp_u0 * np.exp(bundle.u.values)
            assert row.d_eu == float(np.abs(e_row - e_lim).max())
            assert row.d_v == float(np.abs(bundle.v.values - f_lim).max())
            assert row.d_w == float(np.abs(bundle.w.values - w_lim).max())

    def test_corrector_and_metrics_share_the_limit_state(self, monkeypatch):
        from mcsvortex import NonlinearityModel, diagnostics, solver

        # sigma = 2h leaves no half-grid rung, so the sweep predicts its
        # starts from the fine limit solution's u1
        grid = GridSpec(32)
        cfg = VortexConfig(points=((0.5, 0.5),), multiplicities=(1,), sigma=2 * grid.h)
        spec = ProblemSpec(model=u1_model(S_ONE_VORTEX), vortices=cfg, q=20.0, grid=grid)
        inside, evaluated, limits = [False], [], []
        eval_arrays = NonlinearityModel._eval_arrays
        newton_krylov = solver._newton_krylov
        metrics = diagnostics.convergence_metrics

        def counted_eval(model, t):
            if not inside[0]:  # the driver's own passes are not counted
                evaluated.append(t.copy())
            return eval_arrays(model, t)

        def driver(eq, u, sub, uh=None):
            inside[0] = True
            try:
                return newton_krylov(eq, u, sub, uh)
            finally:
                inside[0] = False

        def recorded_metrics(bundle, limit):
            limits.append(limit)
            return metrics(bundle, limit)

        monkeypatch.setattr(NonlinearityModel, "_eval_arrays", counted_eval)
        monkeypatch.setattr(solver, "_newton_krylov", driver)
        monkeypatch.setattr(diagnostics, "convergence_metrics", recorded_metrics)
        table = q_sweep(spec, [20.0, 40.0, 80.0])
        assert all(row.status == "converged" for row in table.rows)
        limit = limits[0]
        assert all(seen is limit for seen in limits)
        assert limit.grid == grid and limit.u1 is not None
        t_lim = limit.background.exp_u0.values * np.exp(limit.u_inf.values)
        assert sum(np.array_equal(t, t_lim) for t in evaluated) == 1

    def test_sweep_metrics_decrease(self):
        spec = one_vortex_spec(N=64, q=10.0)
        table = q_sweep(spec, [10.0, 20.0, 40.0, 80.0])
        for metric in ("d_eu", "d_v", "d_w"):
            vals = [getattr(row, metric) for row in table.rows]
            assert all(b < a for a, b in zip(vals, vals[1:])), metric

    def test_h2_bounded_across_sweep(self):
        spec = one_vortex_spec(N=64, q=10.0)
        table = q_sweep(spec, [10.0, 20.0, 40.0, 80.0])
        sob2_u = [row.sob_u[2] for row in table.rows]
        sob2_v = [row.sob_v[2] for row in table.rows]
        assert max(sob2_u) / min(sob2_u) <= 2.0
        assert max(sob2_v) / min(sob2_v) <= 2.0


class TestReportPlumbing:
    def test_all_reports_deterministic(self, vortex_bundle):
        first = all_reports(vortex_bundle)
        second = all_reports(vortex_bundle)
        for a, b in zip(first, second):
            assert a.name == b.name
            assert a.abs_discrepancy == b.abs_discrepancy
            assert a.rel_discrepancy == b.rel_discrepancy
            assert a.status == b.status

    def test_pointwise_state_evaluated_once(self, vortex_bundle, monkeypatch):
        from dataclasses import replace

        from mcsvortex import NonlinearityModel

        fresh = replace(vortex_bundle)
        calls = []
        original = NonlinearityModel._eval_arrays

        def counted(model, t):
            calls.append(1)
            return original(model, t)

        monkeypatch.setattr(NonlinearityModel, "_eval_arrays", counted)
        all_reports(fresh)
        assert len(calls) <= 1

    def test_report_dict_round_trip(self, vortex_bundle):
        import json

        report = check_flux(vortex_bundle)
        blob = json.dumps(report.to_dict())
        assert json.loads(blob)["name"] == "flux_quantization"

    @pytest.mark.parametrize(
        "failure,status,newton_iters",
        [
            (NoConvergence(7, 1e-3), "no_convergence", 7),
            (QTooSmall("q too small"), "q_too_small", 0),
            (BoundsViolation("pointwise bounds violated"), "bounds_violation", 0),
        ],
        ids=["NoConvergence", "QTooSmall", "BoundsViolation"],
    )
    def test_failed_row_from_exception(self, failure, status, newton_iters):
        # a NoConvergence carries the steps it ran; the other failures none
        row = SweepRow.of(5.0, failure, None)
        assert row.status == status
        assert row.message == str(failure)
        assert np.isnan(row.d_v) and row.newton_iters == newton_iters


# every reader of a bundle's pointwise state, as a function of the bundle
# and a limit solution on its grid
_STATE_READERS = {
    "check_bounds": lambda bundle, limit: check_bounds(bundle),
    "check_flux": lambda bundle, limit: check_flux(bundle),
    "check_identity": lambda bundle, limit: check_identity(bundle),
    "check_gradu": lambda bundle, limit: check_gradu(bundle),
    "all_reports": lambda bundle, limit: all_reports(bundle),
    "residual_reports": lambda bundle, limit: residual_reports(bundle),
    "convergence_metrics": convergence_metrics,
    "SweepRow.of": lambda bundle, limit: SweepRow.of(bundle.q, bundle, limit),
}


class TestSweepTable:
    def test_every_row_fills_every_column(self, vortex_bundle):
        # one value per header column, in the header's order, for a
        # converged row and a failed one
        limit = solve_limit(vortex_bundle.spec)
        failure = NoConvergence(7, 1e-3)
        converged = SweepRow.of(vortex_bundle.q, vortex_bundle, limit)
        failed = SweepRow.of(5.0, failure, None)
        lines = ConvergenceTable(meta={"N": 64}, rows=[failed, converged]).to_tsv().splitlines()
        assert lines[1].split("\t") == _TSV_COLUMNS
        cells = [dict(zip(_TSV_COLUMNS, line.split("\t"), strict=True)) for line in lines[2:]]
        assert len(cells) == 2
        failed_cells, converged_cells = cells
        assert failed_cells["status"] == "no_convergence"
        assert failed_cells["message"] == str(failure)
        assert failed_cells["newton_iters"] == "7"
        assert failed_cells["h2_v"] == "nan"
        fields = {
            "q": converged.q, "d_eu": converged.d_eu, "d_w": converged.d_w,
            "h0_u": converged.h_u[0], "h2_v": converged.h_v[2],
            "sob0_u": converged.sob_u[0], "sob2_v": converged.sob_v[2],
            "gradu": converged.gradu_value, "flux_rel_err": converged.flux_rel_err,
            "energy": converged.energy, "genmcsb_residual": converged.genmcsb_residual,
        }
        assert {key: converged_cells[key] for key in fields} == {
            key: f"{value:.17e}" for key, value in fields.items()
        }
        assert converged_cells["status"] == "converged"
        assert converged_cells["newton_iters"] == str(vortex_bundle.newton_iters)
        assert converged_cells["message"] == ""


class TestBundleParts:
    """A SolutionBundle is built from the parts of its own problem, so its
    reports describe the solution, not a mismatch of its parts."""

    @pytest.fixture(scope="class")
    def solved(self):
        return solve_coupled(one_vortex_spec(N=32))

    def test_background_of_other_vortices_rejected(self, solved):
        moved = replace(solved.spec.vortices, points=((0.25, 0.5),))
        with pytest.raises(GridMismatch, match="other vortices"):
            replace(solved, background=compute_u0(moved, solved.grid))

    @pytest.mark.parametrize("name", ["background", "u", "v", "w"])
    def test_part_on_other_grid_rejected(self, solved, name):
        other = GridSpec(64)
        if name == "background":
            part = compute_u0(solved.spec.vortices, other)
        else:
            part = other.constant(0.0)
        with pytest.raises(GridMismatch, match="spec.grid"):
            replace(solved, **{name: part})


class TestOverflowingBundle:
    """A hand-built bundle whose e^{u0+u} overflows has no pointwise state:
    every reader of it says so with the ValueError residual_norms raises,
    never a TypeError from indexing the missing state."""

    @pytest.fixture(scope="class")
    def overflowing(self):
        spec = flat_spec()
        limit = solve_limit(spec)
        u = spec.grid.constant(800.0)
        bundle = SolutionBundle(
            spec=spec, background=limit.background, u=u, v=u, w=u, newton_iters=0
        )
        return bundle, limit

    @pytest.mark.parametrize("read", list(_STATE_READERS))
    def test_every_reader_raises_value_error(self, overflowing, read):
        with pytest.raises(ValueError, match=r" undefined: e\^\{u0\+u\} overflows$"):
            _STATE_READERS[read](*overflowing)


class TestOverflowingWeight:
    """One vortex of multiplicity 1072 at N = 48: e^{u0} is finite but the
    background weight overflows.  The readers that never read the weighted
    gradient return; those that do raise the weight's PreconditionViolated."""

    @pytest.fixture(scope="class")
    def bundle(self):
        grid = GridSpec(48)
        cfg = VortexConfig(points=((0.5, 0.5),), multiplicities=(1072,), sigma=4 * grid.h)
        spec = ProblemSpec(model=u1_model(S_ONE_VORTEX), vortices=cfg, q=40.0, grid=grid)
        zero = grid.constant(0.0)
        return SolutionBundle(
            spec=spec, background=compute_u0(cfg, grid), u=zero, v=zero, w=zero,
            newton_iters=0,
        )

    @pytest.mark.parametrize(
        "read",
        [
            lambda bundle: bundle.residual_norms["genmcsb"],
            lambda bundle: check_flux(bundle).lhs,
            lambda bundle: check_bounds(bundle).lhs,
            lambda bundle: residual_reports(bundle),
        ],
        ids=["residual_norms", "check_flux", "check_bounds", "residual_reports"],
    )
    def test_readers_without_the_weight_return(self, bundle, read):
        assert read(bundle) is not None

    @pytest.mark.parametrize(
        "read",
        [
            lambda bundle: bundle.energy_value,
            lambda bundle: check_identity(bundle),
            lambda bundle: check_gradu(bundle),
        ],
        ids=["energy_value", "check_identity", "check_gradu"],
    )
    def test_readers_of_the_weight_raise(self, bundle, read):
        with pytest.raises(PreconditionViolated, match=r"vortex number n=1072 "):
            read(bundle)
