"""Coupled-system solver: Newton-Krylov on the fourth-order variational
equation for the regular part u, recovery of v and w, the energy
functional, the large-coupling limit equation, and coupling sweeps.

The first equation is solved for v exactly (recover_v), which reduces the
coupled system to a single fourth-order equation in u that is the L2
gradient of the energy functional.  With mollified vortex sources the
exact-Dirac calculus leaves a core-localized vestige (e^{u*} no longer
annihilates the sources); the energy carries the compensating term
(4 pi / q) * integral(source * f(e^{u*})) and the gradient uses
(Laplacian(u) - 4 pi n) in its bracket so that stationarity is exactly
equivalent to the mollified two-field system.

Both equations, both solution types, recover_v and the triangular form
read one pointwise state at an iterate, a _State built by _pointwise_state
and nowhere else, which derives each of its fields once; the equations take
the state alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import sqrt
from typing import Callable

import numpy as np

from .background import FOUR_PI, BackgroundData, VortexConfig, compute_u0
from .diagnostics import ConvergenceTable, SweepRow
from .errors import (
    BoundsViolation,
    GridMismatch,
    NoConvergence,
    PreconditionViolated,
    QTooSmall,
    SolveFailure,
    _finite,
    _require_positive,
    _require_whole,
)
from .grid import GridSpec, ScalarField, _l2, _prolonged_spectrum, same_grid
from .nonlinearity import NonlinearityModel

# a linear operator on N x N grid arrays, returning a new array the caller
# may overwrite; a Jacobian also takes the half spectrum of its argument as
# an optional second argument, which spares its forward transform and which
# it may overwrite (_minres hands on the preconditioner's own buffer)
Operator = Callable[..., np.ndarray]

# MINRES tolerance of the LimitSolution.u1 solve.  u1 only shapes a Newton
# start whose error is O(1/q^2) anyway.  On the three-vortex sweep at
# N = 128 (q = 160 .. 20), 1e-6 costs 25 transforms and the sweep 928;
# 1e-4 costs 13 but the sweep 977, and 1e-10 costs 43 and the sweep 941.
_U1_RTOL = 1e-6

# A Newton step's MINRES solve stops once its linearized residual is within
# _THETA * newton_tol, in the norm of the Newton test (_newton_krylov); the
# other half of newton_tol is left to the step's quadratic term
_THETA = 0.5

# A limit solve whose solution only shapes a Newton start (_predict) stops at
# _PREDICTOR_SLACK * newton_tol: the predicted start's residual is set by the
# core layer the limit misses (39 at N = 128, q = 40, from a limit solved to
# 8e-6), not by the limit solve's last passes
_PREDICTOR_SLACK = 1e3


@dataclass(frozen=True)
class ProblemSpec:
    """Everything that determines one solve."""

    model: NonlinearityModel
    vortices: VortexConfig
    q: float
    grid: GridSpec
    # The fourth-order residual read through a forward transform of u has a
    # float64 floor that grows like eps * |k|_max^4 / q: with one vortex,
    # s = 9 and q = 40, Newton steps stall at 2.1e-6 .. 2.5e-6 at N = 256.
    # A cold solve's top rung reads its start's Laplacians from the
    # prolonged half spectrum and smooths it (_newton_krylov), which there
    # reaches 1e-7 .. 3e-7 without a Newton step: N = 256 converges at this
    # default (not at 4e-7) and N = 512 at 4e-6 (not at 1e-5 or 1e-6).  A
    # solve from init, or a rung whose start the smoothing estimate
    # rejects, still needs newton_tol >~ 8e-6 at N = 256.
    newton_tol: float = 1e-6
    max_newton_iters: int = 60

    def __post_init__(self):
        for name in ("q", "newton_tol"):
            object.__setattr__(self, name, _require_positive(name, getattr(self, name)))
        iters = _require_whole("max_newton_iters", self.max_newton_iters)
        object.__setattr__(self, "max_newton_iters", iters)

    @property
    def bound_tol(self) -> float:
        """Slack of the pointwise bounds, 1e-6 + 10*sigma^2: mollification
        perturbs the maximum-principle bounds at O(sigma^2)."""
        return 1e-6 + 10.0 * self.vortices.sigma**2


@dataclass(frozen=True)
class SolutionBundle:
    """Converged (u, v, w) triple with its background and newton_iters, the
    Newton passes on spec.grid (_newton_krylov: the steps taken plus one).
    The residual norms and the energy are functions of the fields, derived
    on first read from _pointwise and _vh, as the checks are.
    GridMismatch unless the background and the fields live on spec.grid and
    the background is built for spec.vortices."""

    spec: ProblemSpec
    background: BackgroundData
    u: ScalarField
    v: ScalarField
    w: ScalarField
    newton_iters: int

    def __post_init__(self):
        parts = (self.background, self.u, self.v, self.w)
        if any(part.grid != self.spec.grid for part in parts):
            raise GridMismatch("bundle background and fields must live on spec.grid")
        if self.background.config != self.spec.vortices:
            raise GridMismatch("bundle background is built for other vortices than spec's")

    @property
    def q(self) -> float:
        return self.spec.q

    @property
    def model(self) -> NonlinearityModel:
        return self.spec.model

    @property
    def grid(self) -> GridSpec:
        return self.spec.grid

    @property
    def u_star(self) -> ScalarField:
        return self.background.u0 + self.u

    @cached_property
    def _pointwise(self) -> _State | None:
        """_pointwise_state at u, for the residual norms, the energy, the
        diagnostics and the convergence metrics; None where e^{u0+u}
        overflows, which only a hand-built bundle or a stored record can
        bring.  Built the first time one asks for it, never by the solver,
        and kept for the bundle's lifetime with what its readers derive."""
        return _pointwise_state(self.model, self.background, self.u.values)

    def _state(self, what: str) -> _State:
        """_pointwise for a reader that needs it, named by what (_defined)."""
        return _defined(self._pointwise, what)

    @cached_property
    def _vh(self) -> np.ndarray:
        """Half spectrum of v: Laplacian(v), grad v and the H^k norms of v."""
        return self.grid.forward(self.v.values)

    @cached_property
    def residual_norms(self) -> dict:
        """L2 residuals at (u, v) of the two coupled equations, "genmcsa"
        and "genmcsb".  Each norm is taken as soon as its residual is
        formed, so no two residual arrays live at once.  ValueError where
        e^{u0+u} overflows."""
        st = self._state("residuals")
        grid, q, n, s = self.grid, self.q, self.background.n, self.model.s
        v = self.v.values
        res_a = _l2(grid, -st.lap - q * (v - st.f) + FOUR_PI * n)
        lap_v = grid.k2 * self._vh
        res_b = _l2(
            grid,
            grid.inverse(lap_v, scratch=lap_v) - q * (st.c * (s - v) - q * (v - st.f)),
        )
        return {"genmcsa": res_a, "genmcsb": res_b}

    @cached_property
    def energy_value(self) -> float:
        """The energy functional at u (energy); inf where e^{u0+u} overflows."""
        return _Coupled(self.spec, self.background).energy(self._pointwise)


@dataclass(frozen=True)
class LimitSolution:
    """Regular part of the large-coupling limit profile."""

    model: NonlinearityModel
    background: BackgroundData
    u_inf: ScalarField
    residual_norm: float
    newton_iters: int

    @property
    def grid(self) -> GridSpec:
        return self.background.grid

    @property
    def u_star(self) -> ScalarField:
        return self.background.u0 + self.u_inf

    @cached_property
    def _pointwise(self) -> _State:
        """_pointwise_state at u_inf, for u1 and the convergence metrics.
        Built on first use and kept for the solution's lifetime, so a sweep
        evaluates the limit state once."""
        return _pointwise_state(self.model, self.background, self.u_inf.values)

    @cached_property
    def u1(self) -> ScalarField | None:
        """First-order term of the large-coupling expansion
        u_q = u_inf + u1/q + O(1/q^2).  With eps = 1/q the coupled gradient
        is L(u) + eps B(u) + eps^2 Lap^2 u, L the limit residual and
        B(u) = -Lap f - c (Lap u - 4 pi n), so u1 solves
        L'(u_inf) u1 = -B(u_inf) = Lap f + c^2 (f - s), where
        L(u_inf) = 0 gives Lap u_inf - 4 pi n = c (f - s).  One MINRES solve
        with the limit equation's Jacobian and preconditioner, made on first
        use and kept.  None when MINRES stops at its iteration limit
        (istop 6) or gives a non-finite field; every start then falls back
        to u_inf."""
        grid, st = self.grid, self._pointwise
        rhs = grid.apply(-grid.k2, st.f) + st.c**2 * (st.f - self.model.s)
        eq = _Limit(self.model, self.background)
        H, M = eq.linearize(st, eq.potential(st))
        u1, istop, _ = _minres(H, M, rhs, _U1_RTOL, maxiter=400)
        if istop == 6 or not np.all(np.isfinite(u1)):
            return None
        return ScalarField(grid, u1)


class _State:
    """Pointwise state at the regular part u over the background bg: t, f(t),
    f'(t), f''(t) and c = f'(t) t, built at once (_pointwise_state); the half
    spectrum uh of u, where it is handed in, and lap = Laplacian(u) and the
    weighted gradient wg, built on first read (uh too, where it is not
    handed in) and kept for the state's lifetime.  A solution keeps its
    state; the Newton driver holds one only from its residual to its
    linearization (_newton_krylov)."""

    def __init__(self, model: NonlinearityModel, bg: BackgroundData, u, t, uh=None):
        self.bg, self.u, self.t = bg, u, t
        self.f, self.fp, self.fpp = model._eval_arrays(t)
        self.c = self.fp * t
        if uh is not None:  # shadows the cached property
            self.uh = uh

    @property
    def dc_dt(self) -> np.ndarray:
        """f''(t) t + f'(t), the t-derivative of c = f'(t) t."""
        return self.fpp * self.t + self.fp

    @cached_property
    def uh(self) -> np.ndarray:
        return self.bg.grid.forward(self.u)

    @cached_property
    def lap(self) -> np.ndarray:
        grid = self.bg.grid
        spectrum = -grid.k2 * self.uh
        return grid.inverse(spectrum, scratch=spectrum)

    @cached_property
    def wg(self) -> np.ndarray:
        """e^{u*} |grad u*|^2 assembled from the smooth background weight as
        e^u weight + 2 e^u grad(e^{u0}).grad(u) + t |grad u|^2, with e^u
        recomputed; PreconditionViolated where the weight overflows."""
        bg = self.bg
        ux, uy = bg.grid.gradient(self.uh)
        gx0, gy0 = bg.grad_exp_u0
        eu = np.exp(self.u)
        return (
            eu * bg.weight.values
            + 2.0 * eu * (gx0.values * ux + gy0.values * uy)
            + self.t * (ux * ux + uy * uy)
        )

    def recover_v(self, q: float) -> np.ndarray:
        """v = (-Laplacian(u) + 4 pi n)/q + f(t) (recover_v)."""
        return (-self.lap + FOUR_PI * self.bg.n) / q + self.f


def _pointwise_state(
    model: NonlinearityModel, bg: BackgroundData, u, uh: np.ndarray | None = None
) -> _State | None:
    """The _State at u, t = e^{u0} e^u, with the half spectrum uh of u
    where it is known; None where t overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        t = bg.exp_u0.values * np.exp(u)
    if not np.all(np.isfinite(t)):
        return None
    return _State(model, bg, u, t, uh)


def _defined(st: _State | None, what: str) -> _State:
    """st, or ValueError "<what> undefined" where e^{u0+u} overflows."""
    if st is None:
        raise ValueError(f"{what} undefined: e^{{u0+u}} overflows")
    return st


class _Coupled:
    """The coupled equation at spec.q over one background, as the
    Newton-Krylov driver reads it: the energy, its gradient as the residual,
    the residual's linearization (from its potential and preconditioner),
    the contraction estimate that decides whether a prolonged start is
    smoothed, and the scale q that turns the residual norm into that of the
    second equation."""

    what = "Newton"

    def __init__(self, spec: ProblemSpec, bg: BackgroundData):
        self.grid = grid = spec.grid
        self.model = spec.model
        self.q = self.scale = q = spec.q
        self.bg = bg
        # symbols of the coupled gradient: q^-2 Lap^2 - Lap, and -Lap / q
        self.principal = grid.k2 * grid.k2 / q**2 + grid.k2
        self.k2_q = grid.k2 / q

    def energy(self, st: _State | None) -> float:
        """The functional at the state st, inf where st is None; its
        quadratic part (1/2) integral(u (q^-2 Lap^2 - Lap) u) is summed over
        the spectrum."""
        if st is None:
            return np.inf
        q, grid, bg, f = self.q, self.grid, self.bg, st.f
        with np.errstate(over="ignore", invalid="ignore"):
            total = (
                (1.0 / q) * np.sum(st.fp * st.wg)
                + 0.5 * np.sum((f - self.model.s) ** 2)
                + FOUR_PI * bg.n * np.sum(st.u)
                + (FOUR_PI / q) * np.sum(bg.source.values * f)
            )
            total = total * grid.h**2 + 0.5 * grid.quadratic(self.principal, st.uh)
        return float(total) if np.isfinite(total) else np.inf

    def residual(self, st: _State) -> np.ndarray:
        """The energy gradient at the state st."""
        q, grid, n = self.q, self.grid, self.bg.n
        spectrum = self.principal * st.uh + self.k2_q * grid.forward(st.f)
        return (
            grid.inverse(spectrum, scratch=spectrum)
            - st.c * (st.lap - FOUR_PI * n) / q
            + st.c * (st.f - self.model.s)
            + FOUR_PI * n
        )

    def potential(self, st: _State) -> np.ndarray:
        """V, the zeroth-order term of the residual's Frechet derivative at
        the state st (linearize)."""
        cp = st.dc_dt * st.t  # d c / d u
        return (
            -cp * (st.lap - FOUR_PI * self.bg.n) / self.q
            + cp * (st.f - self.model.s)
            + st.c * st.fp * st.t
        )

    @staticmethod
    def shift(st: _State) -> float:
        """lambda = max(1, inf f' * inf e^{u*}) at the state st."""
        return max(1.0, float(st.fp.min()) * float(st.t.min()))

    def preconditioner(self, st: _State, scratch: np.ndarray) -> _SpectralInverse:
        """P^-1, the exact spectral inverse of P = q^{-2} Lap^2 - Lap +
        lambda at the state st (shift), whose inverse transforms go through
        the half spectrum scratch."""
        return _SpectralInverse(self.grid, self.principal + self.shift(st), scratch)

    def contraction(self, st: _State, V: np.ndarray) -> float:
        """rho = (2 sup|c| k_c^2 / q + max|V - lambda|) / (k_c^4 / q^2 + k_c^2
        + lambda) at the state st with potential V, k_c = 2 pi M / 2 for the
        half grid M = N/2: a bound on the factor by which one
        preconditioned step u - P^-1 r multiplies the residual on the band
        |k| >= k_c, which a start prolonged from M holds none of.  The
        derivative less P is (c (-Lap) + (-Lap)(c .)) / q + V - lambda,
        and on that band P is at least its value at k_c."""
        q, c = self.q, st.c
        lam = self.shift(st)
        kc2 = (np.pi * self.grid.N / 2) ** 2
        c_inf = max(float(c.max()), -float(c.min()))
        v_dev = max(float(V.max()) - lam, lam - float(V.min()))
        return (2.0 * c_inf * kc2 / q + v_dev) / (kc2 * kc2 / q**2 + kc2 + lam)

    def linearize(self, st: _State, V: np.ndarray) -> tuple[Operator, _SpectralInverse]:
        """Frechet derivative of the residual at the frozen state st, with
        potential V = potential(st), and its preconditioner
        (preconditioner).  The two share one scratch half spectrum, and the
        derivative's products go into buffers of the linearization.  Its
        optional second argument, the half spectrum of phi, saves the
        forward transform of phi (see _minres); it is overwritten with that
        of c phi.  Raises QTooSmall where q <= sup|c|."""
        q, grid, principal, k2_q = self.q, self.grid, self.principal, self.k2_q
        _require_coupling(q, st)
        c, k2 = st.c, grid.k2
        spec = _half_spectrum(grid)
        prod = np.empty_like(c)

        def matvec(phi: np.ndarray, ph: np.ndarray | None = None) -> np.ndarray:
            if ph is None:
                ph = grid.forward(phi)
            # -Laplacian(phi): its sign goes into the last sum, which gives
            # the floats of subtracting c Laplacian(phi) / q (negation is exact)
            neg_lap = grid.inverse(np.multiply(k2, ph, out=spec), scratch=spec)
            np.multiply(principal, ph, out=spec)
            grid.forward(np.multiply(c, phi, out=prod), out=ph)  # ph's last read was above
            np.add(spec, np.multiply(k2_q, ph, out=ph), out=spec)
            linear = grid.inverse(spec, scratch=spec)
            np.multiply(c, neg_lap, out=neg_lap)
            neg_lap /= q
            linear += neg_lap
            linear += np.multiply(V, phi, out=prod)
            return linear

        return matvec, self.preconditioner(st, spec)


def _half_spectrum(grid: GridSpec) -> np.ndarray:
    """An uninitialized complex buffer the shape of grid's half spectrum."""
    return np.empty(grid.k2.shape, dtype=complex)


def _multiplier_plus_potential(grid: GridSpec, symbol, V, spec: np.ndarray) -> Operator:
    """phi -> the Fourier multiplier symbol (on the half spectrum) applied
    to phi, plus V phi, on grid arrays.  Like the Jacobians, it takes the
    half spectrum of phi as an optional second argument, which it
    overwrites; without it, it transforms phi into the scratch half
    spectrum spec.  Its product goes into a buffer of its own."""
    prod = np.empty_like(V)

    def apply(phi: np.ndarray, ph: np.ndarray | None = None) -> np.ndarray:
        if ph is None:
            ph = grid.forward(phi, out=spec)
        out = grid.inverse(np.multiply(symbol, ph, out=ph), scratch=ph)
        out += np.multiply(V, phi, out=prod)
        return out

    return apply


class _SpectralInverse:
    """Exact inverse of the Fourier multiplier with a positive symbol.
    spectrum is a buffer of its own that holds the half spectrum of its
    last result, which _minres scales in place and hands on to the
    operator, which may overwrite it.  The inverse transform's first pass
    goes into scratch, a half spectrum it shares with that operator."""

    def __init__(self, grid: GridSpec, symbol: np.ndarray, scratch: np.ndarray):
        self.grid = grid
        self.inv_symbol = 1.0 / symbol
        self.spectrum = _half_spectrum(grid)
        self.scratch = scratch

    def __call__(self, x: np.ndarray) -> np.ndarray:
        spectrum = self.grid.forward(x, out=self.spectrum)
        np.multiply(self.inv_symbol, spectrum, out=spectrum)
        return self.grid.inverse(spectrum, scratch=self.scratch)


class _Limit:
    """The limit equation over one background, as the Newton-Krylov driver
    reads it: the residual -Lap u - c (s - f) + 4 pi n and its
    linearization, at scale 1."""

    what = "limit equation"
    scale = 1.0

    def __init__(self, model: NonlinearityModel, bg: BackgroundData):
        self.model, self.bg = model, bg

    def residual(self, st: _State) -> np.ndarray:
        # Laplacian(u) from transforms of its own, not st.lap: no reader of a
        # limit state wants its spectrum, and keeping it on every Newton state
        # took a sweep_multi sweep from 2442 to 3556 minor page faults
        grid, s = self.bg.grid, self.model.s
        return grid.apply(grid.k2, st.u) - st.c * (s - st.f) + FOUR_PI * self.bg.n

    def potential(self, st: _State) -> np.ndarray:
        """V, the zeroth-order term of the residual's Frechet derivative at
        the state st (linearize)."""
        cp = st.dc_dt * st.t
        return -cp * (self.model.s - st.f) + st.c * st.fp * st.t

    def linearize(self, st: _State, V: np.ndarray) -> tuple[Operator, _SpectralInverse]:
        """Frechet derivative -Lap + V of the residual at the state st, with
        V = potential(st), and its preconditioner, the spectral inverse of
        -Lap + max(1, inf V), which share one scratch half spectrum."""
        grid = self.bg.grid
        spec = _half_spectrum(grid)
        hessian = _multiplier_plus_potential(grid, grid.k2, V, spec)
        return hessian, _SpectralInverse(grid, grid.k2 + max(1.0, float(V.min())), spec)


def _predict(
    limit: LimitSolution, q: float, last: tuple[float, ScalarField] | None = None
) -> ScalarField:
    """Newton start at coupling q from the expansion in eps = 1/q
    (predictor of Allgower & Georg, Introduction to Numerical Continuation
    Methods, SIAM 2003, ch. 2): u_inf + eps u1; given last = (q_p, u_p), the
    last converged solve on the same grid, with eps_p = 1/q_p, the quadratic
    in eps through u_inf with slope u1 that meets it,
    u_inf + eps u1 + (eps/eps_p)^2 (u_p - u_inf - eps_p u1).
    Without u1, u_p or else u_inf."""
    u1 = limit.u1
    if u1 is None:
        return limit.u_inf if last is None else last[1]
    eps = 1.0 / q
    start = limit.u_inf + eps * u1
    if last is not None:
        q_p, u_p = last
        eps_p = 1.0 / q_p
        start = start + (eps / eps_p) ** 2 * (u_p - limit.u_inf - eps_p * u1)
    return start


def _problem_background(spec: ProblemSpec, field: ScalarField) -> BackgroundData:
    """spec's background, for a field passed with spec: the u of a function
    of a field or a solve's init; GridMismatch unless it lives on spec.grid."""
    if field.grid != spec.grid:
        raise GridMismatch("field and problem live on different grids")
    return compute_u0(spec.vortices, spec.grid)


def coefficient_fields(u: ScalarField, spec: ProblemSpec):
    """Coefficient fields of the triangular form.

    Returns (c, F_q, G_q) where c = f'(e^{u*}) e^{u*},
    F_q = f(e^{u*}) + (s/q) c, and G_q is a callable of v producing

        c (s - v) + (1/q)(f''(e^{u*}) e^{u*} + f'(e^{u*})) e^{u*}|grad u*|^2
                  + (4 pi / q) c * source,

    the last term being the mollified-source compensation that exact Dirac
    masses would annihilate.
    """
    bg = _problem_background(spec, u)
    st = _defined(_pointwise_state(spec.model, bg, u.values), "coefficients")
    model, q, grid = spec.model, spec.q, spec.grid
    c, f_q = ScalarField(grid, st.c), ScalarField(grid, st.f + (model.s / q) * st.c)
    w2_q, source_q = st.dc_dt * st.wg / q, (FOUR_PI / q) * st.c * bg.source.values

    def g_q(v: ScalarField) -> ScalarField:
        return ScalarField(grid, st.c * (model.s - v.values) + w2_q + source_q)

    return c, f_q, g_q


def _helmholtz_q(q) -> float:
    """The Helmholtz coupling q as a float; ValueError unless q is finite."""
    if not _finite(q):
        raise ValueError(f"q must be finite, got {q!r}")
    return float(q)


def helmholtz_apply(c: ScalarField, u: ScalarField, q: float) -> ScalarField:
    """Left-hand operator of the stiff Helmholtz equation:
    -Laplacian(u) + q^2*(1 + c/q)*u.  ValueError where q is not finite."""
    grid, q = same_grid(c, u), _helmholtz_q(q)
    A = _multiplier_plus_potential(grid, grid.k2 + q * q, q * c.values, _half_spectrum(grid))
    return ScalarField(grid, A(u.values))


def helmholtz_solve(
    c: ScalarField, rhs: ScalarField, q: float, tol: float = 1e-10
) -> ScalarField:
    """Solve -Laplacian(u) + q^2*(1 + c/q)*u = q^2*rhs.

    Preconditioned MINRES (_minres) on the symmetric positive operator,
    with the exact spectral inverse of (-Laplacian + q^2) as preconditioner;
    the two share one scratch half spectrum.  Stops when the L2 residual
    falls below tol * q^2 * ||rhs||_2, after at most 10 N iterations.

    Raises ValueError where q is not finite or tol is not finite and >= 0,
    PreconditionViolated unless q > sup|c| (positivity of the zeroth-order
    coefficient) and NoConvergence if the residual of the result misses
    that bound.
    """
    grid = same_grid(c, rhs)
    if not (_finite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    q, spec = _helmholtz_q(q), _half_spectrum(grid)
    symbol = grid.k2 + q * q  # of -Laplacian + q^2, shared by A and M
    A = _multiplier_plus_potential(grid, symbol, q * c.values, spec)
    c_inf = float(np.abs(c.values).max())
    if q <= c_inf:
        raise PreconditionViolated(
            f"need q > sup|c| for a positive operator, got q={q}, sup|c|={c_inf}"
        )

    b = q * q * rhs.values
    target = tol * _l2(grid, b)
    M = _SpectralInverse(grid, symbol, spec)
    x, _, itn = _minres(A, M, b.copy(), 0.0, 10 * grid.N, target / grid.h)
    res = _l2(grid, b - A(x))
    if res > target:
        raise NoConvergence(itn, res, what="Helmholtz MINRES")
    return ScalarField(grid, x)


def recover_v(u: ScalarField, spec: ProblemSpec) -> ScalarField:
    """v = (-Laplacian(u) + 4 pi n)/q + f(e^{u0+u}); makes the first
    equation an identity by construction."""
    st = _pointwise_state(spec.model, _problem_background(spec, u), u.values)
    return ScalarField(spec.grid, _defined(st, "v").recover_v(spec.q))


def energy(u: ScalarField, spec: ProblemSpec) -> float:
    """Value of the variational functional at u."""
    bg = _problem_background(spec, u)
    return _Coupled(spec, bg).energy(_pointwise_state(spec.model, bg, u.values))


def energy_gradient(u: ScalarField, spec: ProblemSpec) -> ScalarField:
    """L2 gradient of the energy: the fourth-order equation's left side."""
    bg = _problem_background(spec, u)
    st = _defined(_pointwise_state(spec.model, bg, u.values), "gradient")
    return ScalarField(spec.grid, _Coupled(spec, bg).residual(st))


def initial_guess(bg: BackgroundData, model: NonlinearityModel) -> ScalarField:
    """Vortex-profile ansatz: e^{u0+u} = f^{-1}(s) * 2 e^{u0}/(1 + e^{u0}),
    which dips to zero at the cores and is exact when there are none."""
    t_far = model.inverse(model.s)
    vals = np.log(t_far) + np.log(2.0) - np.log1p(bg.exp_u0.values)
    return ScalarField(bg.grid, vals)


def _half(spec: ProblemSpec, vortices: VortexConfig) -> ProblemSpec | None:
    """spec with the given vortices on the half grid, for grid sequencing:
    from the solution there, prolonged, the smooth solution needs only a
    few Newton steps on the fine grid (mesh independence: Allgower, Boehmer,
    Potra & Rheinboldt, SIAM J. Numer. Anal. 23(1), 1986).  None when sigma
    is below 2h on the half grid (the floor mollified_delta enforces) or
    when N/2 is not a valid grid size."""
    M = spec.grid.N // 2
    if vortices.sigma < 2.0 * (1.0 / M):
        return None
    try:
        return replace(spec, vortices=vortices, grid=GridSpec(M))
    except ValueError:
        return None


def _rung(spec: ProblemSpec, bg: BackgroundData, start: list) -> SolutionBundle:
    """The coupled solve on one grid from the start in the list start, for
    every rung of the ladder and for solve_coupled with init: _newton_krylov,
    the checks that decide whether its solution stands (_admissible_v), and
    w = q (v - f) by definition.  A function of its own, so that its state
    is gone before the next rung's solves.  start holds the start's values
    and, for a start prolonged from the rung below, their half spectrum
    after them.  Both are popped in the driver's argument list, so that no
    frame but the driver's holds them (in CPython 3.11 and later, which
    hand a temporary argument over to the callee), and the driver drops
    them with its first step."""
    grid = spec.grid
    st, _, iters = _newton_krylov(
        _Coupled(spec, bg), start.pop(0), spec, start.pop() if start else None
    )
    v = _admissible_v(spec, st)
    return SolutionBundle(
        spec=spec, background=bg, u=ScalarField(grid, st.u), v=ScalarField(grid, v),
        w=ScalarField(grid, spec.q * (v - st.f)), newton_iters=iters,
    )


class _Ladder:
    """The half-grid ladder of one solve: its rungs, the (spec, background)
    pairs of spec.grid and of each half grid under it (_half), top first,
    built once.  The coarsest of these is rung floor.  On a predictor_only
    ladder (a cold solve_coupled) no limit solution is returned or measured
    against: each one only shapes a Newton start, so each stops early, and
    where N/2 >= 32 under the floor one more rung follows, for the limit
    equation only: the floor's half grid with every vortex widened to
    sigma = 2h there (nested iteration below the sigma floor).  Measured,
    one under a floor of N = 32 made the solve slower: a transform on
    N = 16 still costs about 60% of one on N = 32.  The widened rung's limit
    solution, with its own u1, predicts the floor's start, so neither is
    solved on the floor grid (_predictor).  The limit outcomes
    (LimitSolution or NoConvergence) are kept by rung, so none is solved
    twice; coupled outcomes pass up the rungs instead."""

    def __init__(self, spec: ProblemSpec, predictor_only: bool = False):
        self.predictor_only = predictor_only
        specs = [spec]
        while (coarse := _half(specs[-1], spec.vortices)) is not None:
            specs.append(coarse)
        self.floor = len(specs) - 1
        M = specs[-1].grid.N // 2
        if predictor_only and M >= 32:
            coarse = _half(specs[-1], replace(spec.vortices, sigma=2.0 * (1.0 / M)))
            if coarse is not None:
                specs.append(coarse)
        self.rungs = [(rung, compute_u0(rung.vortices, rung.grid)) for rung in specs]
        self.limits = {}

    def clear(self) -> None:
        """Drop every rung and limit outcome."""
        self.rungs.clear()
        self.limits.clear()

    def limit(self, i: int = 0) -> LimitSolution | NoConvergence:
        """The limit equation on rung i: Newton-Krylov from the limit
        solution of the rung under it, prolonged, or from the ansatz where
        there is none or it failed.  On a predictor_only ladder it stops at
        _PREDICTOR_SLACK newton_tol."""
        if i in self.limits:
            return self.limits[i]
        spec, bg = self.rungs[i]
        grid, model = spec.grid, spec.model
        below = self.limit(i + 1) if i + 1 < len(self.rungs) else None
        solved = isinstance(below, LimitSolution)
        start = [grid.prolong(below.u_inf) if solved else initial_guess(bg, model)]
        if self.predictor_only:
            spec = replace(spec, newton_tol=spec.newton_tol * _PREDICTOR_SLACK)
        try:
            # popped in the argument list: only the driver holds the start
            st, r_norm, iters = _newton_krylov(
                _Limit(model, bg), start.pop().values, spec
            )
            self.limits[i] = LimitSolution(
                model=model, background=bg, u_inf=ScalarField(grid, st.u),
                residual_norm=r_norm, newton_iters=iters,
            )
        except NoConvergence as exc:
            # without its traceback, whose frames hold this ladder: a cycle
            self.limits[i] = exc.with_traceback(None)
        return self.limits[i]

    def _predictor(self, i: int) -> LimitSolution | NoConvergence:
        """The limit outcome that predicts the coupled starts on rung i: on
        the floor of a ladder with a widened rung, that rung's solution,
        unless its solve failed; else rung i's own (limit)."""
        if i == self.floor and i + 1 < len(self.rungs):
            widened = self.limit(i + 1)
            if isinstance(widened, LimitSolution):
                return widened
        return self.limit(i)

    def coupled(self, qs, top: Callable) -> list:
        """The coupled equation at each coupling of the descending qs,
        climbed from the floor to the top rung, with what top(q, outcome)
        returns for each of the top rung's outcomes: the SolutionBundle or
        the SolveFailure raised, handed to top as soon as it is made.
        Every rung solves through _rung.  Each coupling starts from the rung
        below's u at that q, prolonged, with its half spectrum, which the
        driver may smooth (_newton_krylov); where there is none or it failed,
        from the limit solution of _predictor predicted to q (_predict):
        the widened rung's, prolonged, or the rung's own, from the last
        coupling that converged on the rung, of which only (q, u) is kept,
        and only on a rung that reads a limit outcome; from the ansatz where
        the limit solve fails too.  A coarse rung passes up only u, which is
        dropped once it is prolonged, and the top rung empties the ladder
        before its solves."""
        outcomes = [None] * len(qs)
        for i in range(self.floor, -1, -1):
            spec, bg = self.rungs[i]
            below = outcomes
            solved = all(isinstance(under, ScalarField) for under in below)
            limit = None if solved else self._predictor(i)
            if i == 0:  # its solves need no coarse level
                self.clear()
            outcomes, last = [], None
            for q in qs:
                # each start goes to _rung in a list that holds only it and
                # that _rung empties, so that this frame keeps no reference
                # to it; a prolonged u brings its half spectrum along
                under = below.pop(0)
                if isinstance(under, ScalarField):
                    # prolong's values, and the half spectrum they invert
                    uh = _prolonged_spectrum(spec.grid, under)
                    start, uh = [spec.grid.inverse(uh), uh], None
                elif not isinstance(limit, LimitSolution):
                    start = [initial_guess(bg, spec.model).values]
                elif limit.grid == spec.grid:
                    start = [_predict(limit, q, last).values]
                else:  # the widened rung's, on the half grid
                    start = [spec.grid.prolong(_predict(limit, q)).values]
                del under
                try:
                    outcome = _rung(replace(spec, q=q), bg, start)
                    last = None if limit is None else (q, outcome.u)  # only _predict reads it
                    if i > 0:
                        outcome = outcome.u
                except SolveFailure as exc:
                    # without its traceback, which would keep this frame's fields
                    outcome = exc.with_traceback(None)
                # the top rung's outcome is gone before the next solve
                outcomes.append(top(q, outcome) if i == 0 else outcome)
                del outcome
        return outcomes

    def result(self, outcome):
        """outcome, or the SolveFailure raised once the ladder is emptied:
        the traceback keeps the caller's frame, and so the ladder."""
        if isinstance(outcome, SolveFailure):
            self.clear()
            try:
                raise outcome
            finally:
                del outcome  # else the raised traceback keeps this frame
        return outcome


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean inner product of two grid arrays, reduced as one vector."""
    return np.inner(a.ravel(), b.ravel())


def _minres(
    A: Operator, M: Operator, b: np.ndarray, rtol: float, maxiter: int,
    target: float | None = None,
) -> tuple[np.ndarray, int, int]:
    """Preconditioned MINRES for A x = b from x = 0, with A symmetric and M
    a symmetric positive definite approximation of A^-1 (Paige & Saunders,
    SIAM J. Numer. Anal. 12(4), 1975).

    The recurrences, reductions and stopping tests are those of
    scipy.sparse.linalg.minres (without shift, x0, callback, show and
    check), applied to N x N arrays in place, in scipy's order of
    operations, so the iterates are the same floats.  Stops when ||r|| <=
    rtol ||A|| ||x|| (test1) or ||A r|| <= rtol ||A|| ||r|| (test2), when
    either test reaches machine precision, when the estimate of cond(A)
    reaches 0.1/eps, when eps ||A|| ||x|| reaches ||b||_M, or after maxiter
    iterations.  Returns (x, istop, itn): itn is the number of iterations,
    each one application of A, and istop the stop code: 1 for test1 and 2
    for test2 (at rtol or at machine precision), 3 for eps ||A|| ||x||, 4
    for cond(A), 6 for the iteration limit, 7 for the target below, -1
    where b is an eigenvector of M A, and 0 for b = 0 (x = 0, itn = 0).
    scipy reports istop 6 as info = maxiter and every other code as 0.

    Given a target, it also stops once ||b - A x||_2 <= target.  It then
    tracks the true residual in place of b with one vector update per
    iteration, r_k = sn^2 r_{k-1} - phibar cs r2 / beta, r2 / beta being the
    new unpreconditioned Lanczos vector (Choi, Paige & Saunders, SIAM J. Sci.
    Comput. 33(4), 2011), so b comes back as the residual of x.  The target
    only ends the iteration earlier: the iterates stay the same floats.

    When M has a spectrum attribute (_SpectralInverse), the half spectrum
    of its last result, each Lanczos vector v = y / beta goes to A together
    with spectrum / beta, scaled in M's own buffer, which A may overwrite;
    that spares A the forward transform of v, and the iterates then differ
    from scipy's at roundoff level.

    Next to b it holds six N x N vectors: x, r1, r2, the Lanczos vector v
    (M's array) and the last two search directions, w_k being formed over
    w_{k-2}.  Each iteration's scratch is r1's buffer, free once y has
    been orthogonalized against it; M and A return new arrays.
    """
    eps = np.finfo(float).eps
    x = np.zeros_like(b)
    # r1 is first read at the second iteration: the first one's scratch
    r1, r2 = np.empty_like(b), b.copy()
    y = M(r2)
    beta1 = _dot(r2, y)
    if beta1 < 0:
        raise ValueError("indefinite preconditioner")
    if beta1 == 0:
        return x, 0, 0
    beta1 = sqrt(beta1)
    spectrum = getattr(M, "spectrum", None)

    istop, itn = 0, 0
    oldb, beta, dbar, epsln, phibar = 0, beta1, 0, 0, beta1
    tnorm2, gmax, gmin = 0, 0, np.finfo(float).max
    cs, sn = -1, 0
    w, w2 = np.zeros_like(b), np.zeros_like(b)  # w_{k-1} and w_{k-2}
    res = None if target is None else b
    while itn < maxiter:
        itn += 1
        # Lanczos step: v = y / beta in y's buffer, a new array of M's that
        # nothing else reads, then y = M (A v - ...), beta = ||.||_M; y is
        # A's new array, which only this loop writes
        s = 1.0 / beta
        v = y
        v *= s
        y = A(v) if spectrum is None else A(v, np.multiply(s, spectrum, out=spectrum))
        if itn >= 2:
            y -= np.multiply(beta / oldb, r1, out=r1)
        alfa = _dot(v, y)
        tmp = r1  # r1 is not read again: this iteration's scratch
        y -= np.multiply(alfa / beta, r2, out=tmp)
        r1 = r2
        r2 = y
        y = M(r2)
        oldb = beta
        beta = _dot(r2, y)
        if beta < 0:
            raise ValueError("non-symmetric matrix")
        beta = sqrt(beta)
        tnorm2 += alfa**2 + oldb**2 + beta**2
        if itn == 1 and beta / beta1 <= 10 * eps:
            istop = -1  # b is an eigenvector of M A: stop after this update

        # apply the previous plane rotation, then compute the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = np.linalg.norm([gbar, dbar])
        gamma = max(np.linalg.norm([gbar, beta]), eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        # update x along the new search direction w_k, formed over w_{k-2}
        denom = 1.0 / gamma
        np.subtract(v, np.multiply(oldeps, w2, out=w2), out=w2)
        w2 -= np.multiply(delta, w, out=tmp)
        w2 *= denom
        w, w2 = w2, w
        x += np.multiply(phi, w, out=tmp)
        if res is not None:
            # b - A x along the unpreconditioned Lanczos vector r2 / beta
            res *= sn * sn
            if beta > 0:  # else r2 = 0: b is an eigenvector of M A
                res -= np.multiply(phibar * cs / beta, r2, out=tmp)
            rnorm = sqrt(_dot(res, res))
        tmp = None  # freed before the next A v

        # norm estimates and stopping tests
        gmax = max(gmax, gamma)
        gmin = min(gmin, gamma)
        Anorm = sqrt(tnorm2)
        ynorm = np.linalg.norm(x)
        epsx = Anorm * ynorm * eps
        test1 = np.inf if ynorm == 0 or Anorm == 0 else phibar / (Anorm * ynorm)
        test2 = np.inf if Anorm == 0 else root / Anorm
        Acond = gmax / gmin
        if istop == 0:
            if 1 + test2 <= 1:
                istop = 2
            if 1 + test1 <= 1:
                istop = 1
            if itn >= maxiter:
                istop = 6
            if Acond >= 0.1 / eps:
                istop = 4
            if epsx >= beta1:
                istop = 3
            if test2 <= rtol:
                istop = 2
            if test1 <= rtol:
                istop = 1
            if res is not None and rnorm <= target:
                istop = 7
        if istop != 0:
            break
    return x, istop, itn


def _newton_krylov(
    eq: _Coupled | _Limit, u: np.ndarray, spec: ProblemSpec, uh: np.ndarray | None = None
) -> tuple[_State, float, int]:
    """Damped Newton-Krylov solve of the equation eq from u.

    Every iterate is a trial: its state _pointwise_state(eq.model, eq.bg,
    u), its residual eq.residual(state) and r_k, eq.scale times the L2 norm
    of that residual, or (None, None, inf) where e^{u0+u} overflows.  Each
    pass first tests r_k <= newton_tol, the only convergence test; the first
    pass that meets it returns (state, r_k, passes), the solution being
    state.u, so the passes are the steps taken plus one.  Else it computes
    V = eq.potential(state) once, and a step alpha d is kept where its trial
    passes the one sufficient-decrease test r_trial <= (1 - 1e-4 alpha) r_k
    (Kelley, Iterative Methods for Linear and Nonlinear Equations, SIAM
    1995, ch. 8).

    The Newton step d solves eq.linearize(state, V) d = -r by preconditioned
    MINRES, to the forcing tolerance min(1e-4 r_k, 1e-4) of Eisenstat &
    Walker (SIAM J. Sci. Comput. 17(1), 1996), or only until b - A x,
    measured like r_k, is within _THETA newton_tol, below which a full step
    leaves r_k under newton_tol up to its quadratic term (Kelley, section
    6.3); the line search halves alpha from 1.  Raises NoConvergence,
    named by eq.what, with (max_newton_iters, r_k) where that many steps do
    not converge, and with (pass, r_k) and the step's MINRES istop where
    alpha falls below 1e-12.

    uh, given only with the coupled equation, is the half spectrum of a
    start prolonged from the half grid (_prolonged_spectrum), zero on the
    band |k| >= k_c that grid cannot represent.  The start's state keeps it,
    sparing the forward transform of u whose roundoff, amplified by
    |k|^4 / q, sets the float64 floor of r_k on fine grids.  Where
    eq.contraction(state, V) r_0 <= newton_tol, a bound on what the step
    leaves on that band, the first pass tries the smoothing step
    d = -P^-1 r (P^-1 = eq.preconditioner), with spectrum uh - P^-1 r^, at
    alpha = 1 only: kept, it is the pass's step, for 2 transforms and no
    MINRES; rejected, the pass takes its Newton step from the start's state,
    rebuilt from u and uh.

    Every N x N array goes after its last read: a trial's state and
    residual before the next trial, of a linearized state all but u, the
    Jacobian and preconditioner before the line search.  MINRES gets -r in
    r's buffer.  The smoothing trial is made in the buffers of P^-1 r and its
    spectrum, and P^-1 goes once that trial's state is built.  u itself is
    never written, so it may be a read-only start.
    """
    grid, what, scale = spec.grid, eq.what, eq.scale
    smoother = None  # P^-1 of the smoothing step

    def trial(u, uh=None):
        nonlocal smoother
        st = _pointwise_state(eq.model, eq.bg, u, uh)
        # the smoother goes once its trial state is built, before the
        # residual: dropped before the state, its inverse symbol and scratch
        # raised solve_large's peak RSS by 0.4 MB (heap layout)
        smoother = None
        if st is None:
            return None, None, np.inf
        r = eq.residual(st)
        return st, r, scale * _l2(grid, r)

    def decreases(r_trial, alpha):
        return r_trial <= (1.0 - 1e-4 * alpha) * r_norm

    st, r, r_norm = trial(u, uh)
    if st is None:
        raise NoConvergence(0, np.inf, what=what)
    target = _THETA * spec.newton_tol / (scale * grid.h)  # on ||b - A x||_2
    for iters in range(1, spec.max_newton_iters + 2):
        if r_norm <= spec.newton_tol:
            return st, r_norm, iters
        if iters > spec.max_newton_iters:
            break
        V = eq.potential(st)
        if uh is not None and eq.contraction(st, V) * r_norm <= spec.newton_tol:
            # the smoothing step, in the buffers of P^-1 r and its spectrum
            smoother, st, V = eq.preconditioner(st, _half_spectrum(grid)), None, None
            step, step_h = smoother(r), smoother.spectrum
            r = None
            st, r, r_trial = trial(
                np.subtract(u, step, out=step), np.subtract(uh, step_h, out=step_h)
            )
            step = step_h = None
            if decreases(r_trial, 1.0):
                r_norm, uh = r_trial, None
                continue
            st = r = None  # rejected: the start's state again
            st, r, r_norm = trial(u, uh)
            V = eq.potential(st)
        uh = None
        H, M = eq.linearize(st, V)
        u, st, V = st.u, None, None  # of a linearized state only u is read again
        rtol = min(1e-4 * r_norm, 1e-4)
        # -r, in r's own buffer: MINRES's right side, which it overwrites
        delta, istop, _ = _minres(H, M, np.negative(r, out=r), rtol, 400, target)
        r = H = M = None
        alpha = 1.0
        while True:
            st, r, r_trial = trial(u + alpha * delta)
            if decreases(r_trial, alpha):
                break
            st = r = None  # a rejected trial is dropped before the next
            alpha *= 0.5
            if alpha < 1e-12:
                what = f"{what} line search (MINRES exit status {istop})"
                raise NoConvergence(iters, r_norm, what=what)
        r_norm = r_trial
    raise NoConvergence(spec.max_newton_iters, r_norm, what=what)


def _require_coupling(q: float, st: _State) -> None:
    c_inf = float(np.abs(st.c).max())
    if q <= c_inf:
        raise QTooSmall(
            f"q={q} <= sup|c|={c_inf:.6g}: zeroth-order coefficient not positive"
        )


def _admissible_v(spec: ProblemSpec, st: _State) -> np.ndarray:
    """v at the converged state st, recovered from the Laplacian the
    residual read with no transform, once st passes the checks that decide
    whether a coupled solve stands: QTooSmall where q <= sup|c|,
    BoundsViolation where f(e^{u*}) or v leave [f(0), s] by more than
    spec.bound_tol."""
    _require_coupling(spec.q, st)
    v = st.recover_v(spec.q)
    worst, _ = spec.model.bound_violation(st.f, v)
    bound_tol = spec.bound_tol
    if worst > bound_tol:
        raise BoundsViolation(
            f"pointwise bounds violated by {worst:.3e} > bound_tol={bound_tol:.3e} "
            "(discretization failure: refine the grid or enlarge sigma)"
        )
    return v


def solve_coupled(spec: ProblemSpec, init: ScalarField | None = None) -> SolutionBundle:
    """Newton-Krylov solve of the coupled system for the given coupling.

    Newton runs on the energy gradient with MINRES inner solves
    preconditioned by the exact spectral inverse of
    q^{-2} Lap^2 - Lap + lambda.  Globalization backtracks on the residual
    norm: for n >= 1 the energy is unbounded below along constant shifts,
    so energy descent cannot drive the line search, while Newton directions
    are always descent directions for the residual norm when the inner
    solve is accurate.  Converges when the L2
    residual of the second equation (q times the fourth-order residual) is
    below newton_tol.  On convergence v is recovered from the first
    equation and w = q(v - f(e^{u0+u})) is formed by definition.  The
    problem is spec alone: model, vortices, q and grid, with the tolerances
    that decide convergence.

    Without init the solve is the one-coupling case of the half-grid
    ladder (_Ladder): it starts from the same problem solved on N/2,
    prolonged; where that does not apply or fails, from the limit profile
    with its first-order term, u_inf + u1/q (LimitSolution.u1), and from
    the ansatz if the limit solve fails too.  Those limit solves only shape
    the start, so they stop at _PREDICTOR_SLACK newton_tol.  Where the
    ladder has a widened rung under its floor (_Ladder), u_inf and u1 are
    solved there alone, and their prediction, prolonged, starts the floor.
    A start prolonged from N/2 comes with its half spectrum, and where the
    driver's estimate allows, its first pass is the smoothing step
    u - P^-1 r (P the preconditioner's symbol) in place of a Newton step
    with MINRES (_newton_krylov); at N = 256 this meets newton_tol = 1e-6
    below the float64 floor of a Newton step.  newton_iters counts the
    passes on spec.grid only, a smoothing step as one.

    Raises a SolveFailure: QTooSmall if q <= sup|c| at some iterate,
    NoConvergence if the iteration or its line search stalls, and
    BoundsViolation if the converged state breaks the pointwise bounds by
    more than spec.bound_tol, the fixed slack 1e-6 + 10*sigma^2.  Raises
    GridMismatch if init does not live on spec.grid.
    """
    if init is None:
        ladder = _Ladder(spec, predictor_only=True)
        return ladder.result(ladder.coupled((spec.q,), lambda q, outcome: outcome)[0])
    return _rung(spec, _problem_background(spec, init), [init.values])


def solve_limit(spec: ProblemSpec) -> LimitSolution:
    """Newton solve of the limit equation for the regular part:
    -Laplacian(u) = f'(e^{u0+u}) e^{u0+u} (s - f(e^{u0+u})) - 4 pi n.

    The coupling q in spec is ignored.  Same damped Newton-Krylov driver
    as solve_coupled, with the spectral inverse of -Lap + lambda as
    preconditioner.  Climbs the half-grid ladder (_Ladder): each level
    starts from the one below, prolonged, or from the ansatz where there is
    none or it failed; newton_iters counts the passes on spec.grid only, and
    a failure there raises that grid's NoConvergence.
    """
    ladder = _Ladder(spec)
    return ladder.result(ladder.limit())


def _coupling_list(q_list) -> list[float]:
    """q_list as floats; ValueError, naming the first bad entry, unless it is
    a non-empty, strictly ascending list of q as ProblemSpec takes it."""
    q_list = [_require_positive(f"q_list[{i}]", q) for i, q in enumerate(q_list)]
    if not q_list:
        raise ValueError("q_list must not be empty")
    if any(b <= a for a, b in zip(q_list, q_list[1:])):
        raise ValueError("q_list must be strictly ascending")
    return q_list


def q_sweep(spec: ProblemSpec, q_list) -> ConvergenceTable:
    """Solves over ascending couplings, measured against the limit
    profile.  Per-entry solver failures become marked rows rather than
    exceptions.

    Rows are reported in ascending q but solved in descending order: the
    limit profile is the infinite-coupling endpoint of the branch, so the
    homotopy walks from the largest q (closest to the limit) downward.
    Every coupling climbs the half-grid ladder (_Ladder) that a cold
    solve_coupled climbs: all couplings are solved on N/2 first, and each
    starts on spec.grid from its half-grid solution, prolonged.  Where
    there is no half grid or its solve failed, the largest q starts from
    u_inf + u1/q, each later one from the quadratic in 1/q through u_inf,
    with slope u1, that meets the last converged solve on that grid
    (_predict); without u1, from u_inf and then from the last converged
    neighbor.  The limit solve on spec.grid, which the rows are measured
    against, raises its NoConvergence; newton_iters counts the passes on
    spec.grid only.  Each row is built as soon as its outcome on spec.grid
    is made, so no two couplings' bundles live at once.  ValueError, before
    any solve, where _coupling_list rejects q_list.
    """
    q_list = _coupling_list(q_list)
    ladder = _Ladder(spec)
    limit = ladder.result(ladder.limit())
    # rows in descending q, each built as its bundle is made (_Ladder.coupled)
    rows = ladder.coupled(
        q_list[::-1], lambda q, outcome: SweepRow.of(q, outcome, limit)
    )
    meta = {
        "model": spec.model.name,
        "s": spec.model.s,
        "n": spec.vortices.n,
        "sigma": spec.vortices.sigma,
        "N": spec.grid.N,
        "newton_tol": spec.newton_tol,
        "bound_tol": spec.bound_tol,
    }
    return ConvergenceTable(meta=meta, rows=rows[::-1])
