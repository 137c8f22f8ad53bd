"""Executable versions of the theory's identities and bounds, plus
convergence metrics against the limit profile.

Every check is a deterministic, read-only function of a solution bundle
that returns an InvariantReport; a failed check is reported, not thrown,
but one on a bundle whose state is undefined raises (README, Library API).
Identities that involve near-core gradients get tolerance 1e-4 (quadrature
of the mollified cores dominates), pure quadrature identities 1e-6..1e-8.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, field as dc_field
from typing import TYPE_CHECKING

import numpy as np

from .background import FOUR_PI
from .errors import GridMismatch, SolveFailure
from .grid import _sobolev_norms
from .snapshots import write_text_atomic

if TYPE_CHECKING:  # the solver imports this module
    from .solver import LimitSolution, SolutionBundle


@dataclass(frozen=True)
class InvariantReport:
    name: str
    lhs: object
    rhs: object
    abs_discrepancy: float
    rel_discrepancy: float
    tolerance: float
    tol_kind: str  # "relative" | "absolute"
    status: str  # "pass" | "fail" | "not_applicable"
    details: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    def to_dict(self) -> dict:
        return asdict(self)


def _make_report(
    name: str,
    lhs,
    rhs,
    abs_disc: float,
    scale: float,
    tolerance: float,
    tol_kind: str,
    details: dict | None = None,
) -> InvariantReport:
    rel = abs_disc / scale if scale > 0.0 else abs_disc
    disc = rel if tol_kind == "relative" else abs_disc
    return InvariantReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        abs_discrepancy=float(abs_disc),
        rel_discrepancy=float(rel),
        tolerance=float(tolerance),
        tol_kind=tol_kind,
        status="pass" if disc <= tolerance else "fail",
        details=details or {},
    )


def _identity_report(name: str, bundle: SolutionBundle, tolerances, **report) -> InvariantReport:
    """_make_report for an identity of the theory at tolerances = (relative,
    absolute): relative where the bundle has vortices, absolute in the
    vacuum (n = 0), where both sides vanish."""
    if bundle.background.n > 0:
        return _make_report(name, tolerance=tolerances[0], tol_kind="relative", **report)
    return _make_report(name, tolerance=tolerances[1], tol_kind="absolute", **report)


def check_bounds(bundle: SolutionBundle) -> InvariantReport:
    """Pointwise bounds f(0) <= f(e^{u*}) <= s and f(0) <= v <= s, with
    the slack spec.bound_tol = 1e-6 + 10*sigma^2 for the mollified
    discretization, the same one solve_coupled enforces."""
    st = bundle._state("pointwise_bounds")
    model = bundle.model
    f0, s = model.f0, model.s
    worst, extremes = model.bound_violation(st.f, bundle.v.values)
    fe_min, fe_max, v_min, v_max = extremes
    return _make_report(
        "pointwise_bounds",
        lhs=extremes,
        rhs=(f0, s),
        abs_disc=max(worst, 0.0),
        scale=abs(s - f0),
        tolerance=bundle.spec.bound_tol,
        tol_kind="absolute",
        details={
            "f_e_min": fe_min,
            "f_e_max": fe_max,
            "v_min": v_min,
            "v_max": v_max,
            "f0": f0,
            "s": s,
        },
    )


def check_flux(bundle: SolutionBundle) -> InvariantReport:
    """Flux quantization: integral(c*(s-v)) = q*integral(v - f) = 4*pi*n,
    both integrals obtained by integrating the two equations."""
    st = bundle._state("flux_quantization")
    grid, q, n = bundle.grid, bundle.q, bundle.background.n
    h2 = grid.h**2
    i1 = h2 * float(np.sum(st.c * (bundle.model.s - bundle.v.values)))
    i2 = q * h2 * float(np.sum(bundle.v.values - st.f))
    target = FOUR_PI * n
    return _identity_report(
        "flux_quantization",
        bundle,
        lhs=(i1, i2),
        rhs=target,
        abs_disc=max(abs(i1 - target), abs(i2 - target)),
        scale=abs(target),
        tolerances=(1e-6, 1e-8),
        details={"lhs_gap": abs(i1 - i2)},
    )


def check_identity(bundle: SolutionBundle) -> InvariantReport:
    """Gradient-energy identity:
    integral(|grad v|^2) + q^2 integral((v-f)^2)
      = integral((s-v)(f'' e^{u*} + f') e^{u*}|grad u*|^2)
      + 4 pi integral((s-v) c source),
    the last term carrying the mollified cores."""
    st = bundle._state("gradient_energy_identity")
    grid, q = bundle.grid, bundle.q
    h2 = grid.h**2
    s = bundle.model.s
    v = bundle.v.values
    source = bundle.background.source.values
    vx, vy = grid.gradient(bundle._vh)
    lhs = h2 * float(np.sum(vx**2 + vy**2)) + q * q * h2 * float(np.sum((v - st.f) ** 2))
    w2 = st.dc_dt * st.wg
    rhs = h2 * float(np.sum((s - v) * w2) + FOUR_PI * np.sum((s - v) * st.c * source))
    return _identity_report(
        "gradient_energy_identity",
        bundle,
        lhs=lhs,
        rhs=rhs,
        abs_disc=abs(lhs - rhs),
        scale=max(abs(lhs), abs(rhs)),
        tolerances=(1e-4, 1e-10),
    )


def check_gradu(bundle: SolutionBundle) -> InvariantReport:
    """Weighted gradient identity:
    integral(e^{u*}|grad u*|^2) = q integral(e^{u*}(v-f)) - 4 pi integral(e^{u*} source).
    Reports the common (q-uniformly bounded) value; the uncorrected
    right-hand side is kept in the details."""
    st = bundle._state("weighted_gradient_identity")
    h2 = bundle.grid.h**2
    q = bundle.q
    source = bundle.background.source.values
    a = h2 * float(np.sum(st.wg))
    b_dirac = q * h2 * float(np.sum(st.t * (bundle.v.values - st.f)))
    b = b_dirac - FOUR_PI * h2 * float(np.sum(st.t * source))
    return _identity_report(
        "weighted_gradient_identity",
        bundle,
        lhs=a,
        rhs=b,
        abs_disc=abs(a - b),
        scale=max(abs(a), abs(b)),
        tolerances=(1e-6, 1e-10),
        details={"rhs_uncorrected": b_dirac, "ratio": a / b if b != 0.0 else np.nan},
    )


def _torus_distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    dx = abs(a[0] - b[0])
    dy = abs(a[1] - b[1])
    dx = min(dx, 1.0 - dx)
    dy = min(dy, 1.0 - dy)
    return float(np.hypot(dx, dy))


def check_max_location(bundle: SolutionBundle) -> InvariantReport:
    """v attains its maximum away from every vortex core (distance > 5 sigma).
    Not applicable when n = 0 (v is constant)."""
    cfg = bundle.background.config
    if cfg.n == 0:
        return InvariantReport(
            name="max_location",
            lhs=None,
            rhs=None,
            abs_discrepancy=0.0,
            rel_discrepancy=0.0,
            tolerance=0.0,
            tol_kind="absolute",
            status="not_applicable",
            details={"reason": "no vortices: v is constant"},
        )
    grid = bundle.grid
    idx = np.unravel_index(int(np.argmax(bundle.v.values)), bundle.v.values.shape)
    argmax = (float(grid.nodes[idx[0]]), float(grid.nodes[idx[1]]))
    dist = min(_torus_distance(argmax, p) for p in cfg.points)
    threshold = 5.0 * cfg.sigma
    return _make_report(
        "max_location",
        lhs=dist,
        rhs=threshold,
        abs_disc=max(0.0, threshold - dist),
        scale=threshold,
        tolerance=0.0,
        tol_kind="absolute",
        details={"argmax": argmax, "min_core_distance": dist},
    )


def residual_reports(bundle: SolutionBundle) -> list[InvariantReport]:
    """PDE residuals of the stored fields (bundle.residual_norms) plus the
    w-definition identity."""
    st = bundle._state("residuals")
    q = bundle.q
    tol = bundle.spec.newton_tol
    norms = bundle.residual_norms
    res_a, res_b = norms["genmcsa"], norms["genmcsb"]
    w_gap = float(np.abs(bundle.w.values - q * (bundle.v.values - st.f)).max()) / q

    return [
        _make_report(
            "residual_first_equation",
            lhs=res_a, rhs=0.0, abs_disc=res_a, scale=1.0,
            tolerance=tol, tol_kind="absolute",
        ),
        _make_report(
            "residual_second_equation",
            lhs=res_b, rhs=0.0, abs_disc=res_b, scale=1.0,
            tolerance=tol, tol_kind="absolute",
        ),
        _make_report(
            "w_definition",
            lhs=w_gap, rhs=0.0, abs_disc=w_gap, scale=1.0,
            tolerance=1e-12, tol_kind="absolute",
        ),
    ]


def all_reports(bundle: SolutionBundle) -> list[InvariantReport]:
    """Every invariant report for one bundle, in a fixed order."""
    checks = (check_bounds, check_flux, check_identity, check_gradu, check_max_location)
    return [fn(bundle) for fn in checks] + residual_reports(bundle)


@dataclass(frozen=True)
class MetricsRow:
    """Sup-norm and Sobolev distances between one solve and the limit."""

    d_eu: float
    d_v: float
    d_w: float
    h_u: tuple[float, float, float]
    h_v: tuple[float, float, float]


def convergence_metrics(bundle: SolutionBundle, limit: LimitSolution) -> MetricsRow:
    if bundle.grid != limit.grid:
        raise GridMismatch("bundle and limit solution live on different grids")
    if bundle.background.config != limit.background.config:
        raise GridMismatch("bundle and limit solution use different vortex data")
    st, lim, grid = bundle._state("convergence metrics"), limit._pointwise, bundle.grid
    f_lim, w_lim = lim.f, lim.c * (limit.model.s - lim.f)
    return MetricsRow(
        d_eu=float(np.abs(st.t - lim.t).max()),
        d_v=float(np.abs(bundle.v.values - f_lim).max()),
        d_w=float(np.abs(bundle.w.values - w_lim).max()),
        h_u=_sobolev_norms(grid, grid.forward(bundle.u.values - limit.u_inf.values)),
        h_v=_sobolev_norms(grid, grid.forward(bundle.v.values - f_lim)),
    )


@dataclass(frozen=True)
class SweepRow:
    """One sweep coupling; its fields, tuples spread, are the sweep table's
    columns in order (_TSV_COLUMNS)."""

    q: float
    status: str  # converged | no_convergence | q_too_small | bounds_violation
    d_eu: float = np.nan
    d_v: float = np.nan
    d_w: float = np.nan
    h_u: tuple = (np.nan, np.nan, np.nan)
    h_v: tuple = (np.nan, np.nan, np.nan)
    sob_u: tuple = (np.nan, np.nan, np.nan)
    sob_v: tuple = (np.nan, np.nan, np.nan)
    gradu_value: float = np.nan
    flux_rel_err: float = np.nan
    energy: float = np.nan
    genmcsb_residual: float = np.nan
    newton_iters: int = 0
    message: str = ""

    @classmethod
    def of(cls, q: float, outcome, limit: LimitSolution) -> "SweepRow":
        """The row of one sweep coupling from its outcome: the SolutionBundle,
        measured against the limit solution, or the SolveFailure raised.
        newton_iters is the bundle's Newton passes on the sweep's grid, or
        the failure's iterations."""
        if isinstance(outcome, SolveFailure):
            return cls(
                q=q, status=outcome.status, message=str(outcome),
                newton_iters=outcome.iterations,
            )
        return cls(
            q=q,
            status="converged",
            **asdict(convergence_metrics(outcome, limit)),
            sob_u=_sobolev_norms(outcome.grid, outcome._state("sweep row").uh),
            sob_v=_sobolev_norms(outcome.grid, outcome._vh),
            gradu_value=float(check_gradu(outcome).lhs),
            flux_rel_err=float(check_flux(outcome).rel_discrepancy),
            energy=outcome.energy_value,
            genmcsb_residual=outcome.residual_norms["genmcsb"],
            newton_iters=outcome.newton_iters,
        )


_TSV_COLUMNS = (
    "q status d_eu d_v d_w h0_u h1_u h2_u h0_v h1_v h2_v "
    "sob0_u sob1_u sob2_u sob0_v sob1_v sob2_v "
    "gradu flux_rel_err energy genmcsb_residual newton_iters message"
).split()


@dataclass(frozen=True)
class ConvergenceTable:
    """Sweep rows keyed by q (ascending), with run provenance metadata."""

    meta: dict
    rows: list

    def row_values(self, row: SweepRow) -> list:
        """row's fields in order, with each tuple spread: one per column."""
        values = astuple(row)
        return [x for value in values for x in (value if isinstance(value, tuple) else (value,))]

    def to_tsv(self) -> str:
        def fmt(x) -> str:
            if isinstance(x, float):
                return f"{x:.17e}"
            return str(x)

        lines = [f"# {key} = {value}" for key, value in self.meta.items()]
        lines.append("\t".join(_TSV_COLUMNS))
        for row in self.rows:
            lines.append("\t".join(fmt(x) for x in self.row_values(row)))
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        write_text_atomic(path, self.to_tsv())
