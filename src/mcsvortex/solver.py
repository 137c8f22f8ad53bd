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
read one pointwise state at an iterate, t = e^{u0+u} with f(t), f'(t),
f''(t) and c = f'(t) t, built by _pointwise_state and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import sqrt
from typing import Callable

import numpy as np

from .background import BackgroundData, VortexConfig, compute_u0
from .errors import BoundsViolation, NoConvergence, QTooSmall
from .grid import GridSpec, ScalarField, _l2, _sobolev_norms, laplacian
from .nonlinearity import NonlinearityModel

FOUR_PI = 4.0 * np.pi

# a linear operator on N x N grid arrays
Operator = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ProblemSpec:
    """Everything that determines one solve."""

    model: NonlinearityModel
    vortices: VortexConfig
    q: float
    grid: GridSpec
    # The float64 evaluation floor of the fourth-order residual grows like
    # eps * |k|_max^4 / q.  Measured with one vortex, s = 9 and q = 40, the
    # residual stalls at 2.1e-6 .. 2.5e-6 at N = 256, so the default
    # newton_tol is only reachable on coarser grids; N = 256 needs
    # newton_tol >~ 8e-6.
    newton_tol: float = 1e-6
    krylov_tol: float = 1e-10
    max_newton_iters: int = 60
    bound_tol: float | None = None

    def __post_init__(self):
        for name in ("q", "newton_tol", "krylov_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.max_newton_iters < 1:
            raise ValueError(
                f"max_newton_iters must be at least 1, got {self.max_newton_iters}"
            )
        if self.bound_tol is not None and not (
            np.isfinite(self.bound_tol) and self.bound_tol >= 0.0
        ):
            raise ValueError(f"bound_tol must be finite and >= 0, got {self.bound_tol}")

    def resolved_bound_tol(self) -> float:
        """Default slack 1e-6 + 10*sigma^2: mollification perturbs the
        maximum-principle bounds at O(sigma^2)."""
        if self.bound_tol is not None:
            return self.bound_tol
        return 1e-6 + 10.0 * self.vortices.sigma**2


@dataclass(frozen=True)
class SolutionBundle:
    """Converged (u, v, w) triple with background and diagnostics."""

    spec: ProblemSpec
    background: BackgroundData
    u: ScalarField
    v: ScalarField
    w: ScalarField
    residual_norms: dict
    newton_iters: int
    energy_value: float

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
    def _pointwise(self) -> dict | None:
        """_pointwise_state at u plus the weighted gradient term "wg", for
        the diagnostics and the convergence metrics; None where e^{u0+u}
        overflows, which only a stored record can bring.  Built the first
        time one asks for it, never by the solver, and kept for the
        bundle's lifetime."""
        st = _pointwise_state(self.model, self.background, self.u.values)
        if st is not None:
            st["wg"] = _weighted_gradsq(self.background, st)
        return st


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
    def _pointwise(self) -> dict:
        """Limit-profile part of _pointwise_state for the convergence
        metrics: t = e^{u*}, f(t) and w = c (s - f(t)).  Built on first use
        and kept for the solution's lifetime, so a sweep evaluates it once."""
        st = _pointwise_state(self.model, self.background, self.u_inf.values)
        return {"t": st["t"], "f": st["f"], "w": st["c"] * (self.model.s - st["f"])}


def _pointwise_state(
    model: NonlinearityModel, bg: BackgroundData, u: np.ndarray
) -> dict | None:
    """Pointwise state at the regular part u: e^u, t = e^{u0} e^u, f(t),
    f'(t), f''(t) and c = f'(t) t.  None where t overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        eu = np.exp(u)
        t = bg.exp_u0.values * eu
    if not np.all(np.isfinite(t)):
        return None
    f, fp, fpp = model._eval_arrays(t)
    return {"u": u, "eu": eu, "t": t, "f": f, "fp": fp, "fpp": fpp, "c": fp * t}


def _dc_dt(st: dict) -> np.ndarray:
    """f''(t) t + f'(t), the t-derivative of c = f'(t) t."""
    return st["fpp"] * st["t"] + st["fp"]


def _weighted_gradsq(bg: BackgroundData, st: dict, grad=None) -> np.ndarray:
    """e^{u*} |grad u*|^2 assembled from the smooth background weight:
    e^u * weight + 2 e^u grad(e^{u0}).grad(u) + t |grad u|^2.
    grad, if given, is the (ux, uy) pair already computed at u."""
    if grad is None:
        grad = bg.grid.gradient(bg.grid.forward(st["u"]))
    ux, uy = grad
    gx0, gy0 = bg.grad_exp_u0
    return (
        st["eu"] * bg.weight.values
        + 2.0 * st["eu"] * (gx0.values * ux + gy0.values * uy)
        + st["t"] * (ux * ux + uy * uy)
    )


class _Workspace:
    """The coupled equation's q- and forcing-dependent operators over one
    background: energy, gradient, Hessian and preconditioner."""

    def __init__(
        self,
        spec: ProblemSpec,
        bg: BackgroundData,
        forcing: ScalarField | None = None,
    ):
        self.grid = grid = spec.grid
        self.model = spec.model
        self.q = q = spec.q
        self.bg = bg
        self.forcing = None if forcing is None else forcing.values
        # symbols of the coupled gradient: q^-2 Lap^2 - Lap, and -Lap / q
        self.principal = grid.k2 * grid.k2 / q**2 + grid.k2
        self.k2_q = grid.k2 / q
        # (u, Laplacian(u)) from the last gradient, for the Hessian at that u
        self._last_lap = (None, None)

    def energy(self, u: np.ndarray, st: dict | None = None) -> float:
        """The functional; its quadratic part (1/2) integral(u (q^-2 Lap^2
        - Lap) u) is summed over the spectrum."""
        q, grid, bg = self.q, self.grid, self.bg
        st = st if st is not None else _pointwise_state(self.model, bg, u)
        if st is None:
            return np.inf
        f, fp = st["f"], st["fp"]
        uh = grid.forward(u)
        with np.errstate(over="ignore", invalid="ignore"):
            wg = _weighted_gradsq(bg, st, grid.gradient(uh))
            total = (
                (1.0 / q) * np.sum(fp * wg)
                + 0.5 * np.sum((f - self.model.s) ** 2)
                + FOUR_PI * bg.n * np.sum(u)
                + (FOUR_PI / q) * np.sum(bg.source.values * f)
            )
            if self.forcing is not None:
                total -= np.sum(self.forcing * u)
            total = total * grid.h**2 + 0.5 * grid.quadratic(self.principal, uh)
        return float(total) if np.isfinite(total) else np.inf

    def gradient(self, u: np.ndarray, st: dict | None = None) -> np.ndarray:
        q, grid, n = self.q, self.grid, self.bg.n
        st = st if st is not None else _pointwise_state(self.model, self.bg, u)
        if st is None:
            raise ValueError("gradient undefined: e^{u0+u} overflows")
        uh = grid.forward(u)
        lap_u = grid.inverse(-grid.k2 * uh)
        self._last_lap = (u, lap_u)
        r = (
            grid.inverse(self.principal * uh + self.k2_q * grid.forward(st["f"]))
            - st["c"] * (lap_u - FOUR_PI * n) / q
            + st["c"] * (st["f"] - self.model.s)
            + FOUR_PI * n
        )
        if self.forcing is not None:
            r = r - self.forcing
        return r

    def hessian_operator(self, u: np.ndarray, st: dict) -> Operator:
        """Frechet derivative of the gradient at the frozen state."""
        q, grid = self.q, self.grid
        c = st["c"]
        cp = _dc_dt(st) * st["t"]  # d c / d u
        last_u, lap_u = self._last_lap
        if last_u is not u:
            lap_u = grid.apply(-grid.k2, u)
        V = (
            -cp * (lap_u - FOUR_PI * self.bg.n) / q
            + cp * (st["f"] - self.model.s)
            + c * st["fp"] * st["t"]
        )

        def matvec(phi: np.ndarray) -> np.ndarray:
            ph = grid.forward(phi)
            lap_phi = grid.inverse(-grid.k2 * ph)
            linear = grid.inverse(self.principal * ph + self.k2_q * grid.forward(c * phi))
            return linear - c * lap_phi / q + V * phi

        return matvec

    def coupled_preconditioner(self, st: dict) -> Operator:
        """Exact spectral inverse of q^{-2} Lap^2 - Lap + lambda, with
        lambda = max(1, inf f' * inf e^{u*}) frozen for this Newton step."""
        lam = max(1.0, float(st["fp"].min()) * float(st["t"].min()))
        return _spectral_inverse(self.grid, self.principal + lam)


def _spectral_inverse(grid: GridSpec, symbol: np.ndarray) -> Operator:
    """Exact inverse of the Fourier multiplier with a positive symbol."""
    inv_symbol = 1.0 / symbol
    return lambda x: grid.apply(inv_symbol, x)


def coefficient_fields(
    u: ScalarField, bg: BackgroundData, model: NonlinearityModel, q: float
):
    """Coefficient fields of the triangular form.

    Returns (c, F_q, G_q) where c = f'(e^{u*}) e^{u*},
    F_q = f(e^{u*}) + (s/q) c, and G_q is a callable of v producing

        c (s - v) + (1/q)(f''(e^{u*}) e^{u*} + f'(e^{u*})) e^{u*}|grad u*|^2
                  + (4 pi / q) c * source,

    the last term being the mollified-source compensation that exact Dirac
    masses would annihilate.
    """
    st = _pointwise_state(model, bg, u.values)
    grid = u.grid
    c = ScalarField(grid, st["c"])
    f_q = ScalarField(grid, st["f"] + (model.s / q) * st["c"])
    w2 = _dc_dt(st) * _weighted_gradsq(bg, st)

    def g_q(v: ScalarField) -> ScalarField:
        return ScalarField(
            grid,
            st["c"] * (model.s - v.values)
            + w2 / q
            + (FOUR_PI / q) * st["c"] * bg.source.values,
        )

    return c, f_q, g_q


def _recover_v(u: ScalarField, f: np.ndarray, n: int, q: float) -> ScalarField:
    """v = (-Laplacian(u) + 4 pi n)/q + f, with f = f(e^{u0+u}) given."""
    return ScalarField(u.grid, (-laplacian(u).values + FOUR_PI * n) / q + f)


def recover_v(
    u: ScalarField, bg: BackgroundData, model: NonlinearityModel, q: float
) -> ScalarField:
    """v = (-Laplacian(u) + 4 pi n)/q + f(e^{u0+u}); makes the first
    equation an identity by construction."""
    st = _pointwise_state(model, bg, u.values)
    if st is None:
        raise ValueError("v undefined: e^{u0+u} overflows")
    return _recover_v(u, st["f"], bg.n, q)


def energy(
    u: ScalarField,
    spec: ProblemSpec,
    background: BackgroundData | None = None,
    forcing: ScalarField | None = None,
) -> float:
    """Value of the variational functional at u."""
    bg = background or compute_u0(spec.vortices, spec.grid)
    return _Workspace(spec, bg, forcing).energy(u.values)


def energy_gradient(
    u: ScalarField,
    spec: ProblemSpec,
    background: BackgroundData | None = None,
    forcing: ScalarField | None = None,
) -> ScalarField:
    """L2 gradient of the energy: the fourth-order equation's left side."""
    bg = background or compute_u0(spec.vortices, spec.grid)
    return ScalarField(spec.grid, _Workspace(spec, bg, forcing).gradient(u.values))


def initial_guess(bg: BackgroundData, model: NonlinearityModel) -> ScalarField:
    """Vortex-profile ansatz: e^{u0+u} = f^{-1}(s) * 2 e^{u0}/(1 + e^{u0}),
    which dips to zero at the cores and is exact when there are none."""
    t_far = model.inverse(model.s)
    vals = np.log(t_far) + np.log(2.0) - np.log1p(bg.exp_u0.values)
    return ScalarField(bg.grid, vals)


def _half_grid(spec: ProblemSpec) -> ProblemSpec | None:
    """spec moved to the half grid, for grid sequencing: from the solution
    there, prolonged, the smooth solution needs only a few Newton steps on
    the fine grid (mesh independence: Allgower, Boehmer, Potra &
    Rheinboldt, SIAM J. Numer. Anal. 23(1), 1986).  None when N/2 is not a
    valid grid size or when sigma is below 2h on the half grid (the floor
    mollified_delta enforces); the recursion therefore stops by itself."""
    try:
        coarse = GridSpec(spec.grid.N // 2)
    except ValueError:
        return None
    if spec.vortices.sigma < 2.0 * coarse.h:
        return None
    return replace(spec, grid=coarse)


def _cold_start(
    spec: ProblemSpec, bg: BackgroundData, limits: dict, coupled: bool = True
) -> ScalarField:
    """Start of a solve_coupled without init: the same problem solved on
    the half grid, prolonged; else (coupled False, as for a forced solve,
    no half grid, or a failed solve there) the limit solution (_limit), or
    the ansatz where that fails too.  limits is shared by all levels."""
    coarse = _half_grid(spec) if coupled else None
    if coarse is not None:
        coarse_bg = compute_u0(coarse.vortices, coarse.grid)
        coarse_init = _cold_start(coarse, coarse_bg, limits)
        try:
            bundle = solve_coupled(coarse, init=coarse_init, background=coarse_bg)
            return spec.grid.prolong(bundle.u)
        except (NoConvergence, QTooSmall, BoundsViolation):
            pass
    limit = _limit(spec, bg, limits)
    solved = isinstance(limit, LimitSolution)
    return limit.u_inf if solved else initial_guess(bg, spec.model)


def _limit(
    spec: ProblemSpec, bg: BackgroundData | None, limits: dict
) -> LimitSolution | NoConvergence:
    """The limit equation on spec.grid, one rung of the half-grid ladder:
    Newton-Krylov from the half grid's entry, prolonged, or from the ansatz
    where there is none or it failed.  The LimitSolution, or the
    NoConvergence raised, is kept in limits by grid size, so no level of
    one solve is made twice; bg, if None, is built only for a new entry."""
    grid, model = spec.grid, spec.model
    if grid.N in limits:
        return limits[grid.N]
    bg = bg or compute_u0(spec.vortices, grid)
    coarse = _half_grid(spec)
    below = None if coarse is None else _limit(coarse, None, limits)
    solved = isinstance(below, LimitSolution)
    init = grid.prolong(below.u_inf) if solved else initial_guess(bg, model)
    k2, s = grid.k2, model.s

    def residual(u: np.ndarray, st: dict) -> np.ndarray:
        return grid.apply(k2, u) - st["c"] * (s - st["f"]) + FOUR_PI * bg.n

    def linearize(u: np.ndarray, st: dict):
        cp = _dc_dt(st) * st["t"]
        V = -cp * (s - st["f"]) + st["c"] * st["fp"] * st["t"]

        def hessian(phi: np.ndarray) -> np.ndarray:
            return grid.apply(k2, phi) + V * phi

        return hessian, _spectral_inverse(grid, k2 + max(1.0, float(V.min())))

    try:
        u, _, r, iters = _newton_krylov(
            np.array(init.values, dtype=float), spec,
            lambda u: _pointwise_state(model, bg, u), residual, linearize,
            "limit equation",
        )
        limits[grid.N] = LimitSolution(
            model=model, background=bg, u_inf=ScalarField(grid, u),
            residual_norm=_l2(grid, r), newton_iters=iters,
        )
    except NoConvergence as exc:
        limits[grid.N] = exc
    return limits[grid.N]


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean inner product of two grid arrays, reduced as one vector."""
    return np.inner(a.ravel(), b.ravel())


def _minres(
    A: Operator, M: Operator, b: np.ndarray, rtol: float, maxiter: int
) -> tuple[np.ndarray, int]:
    """Preconditioned MINRES for A x = b from x = 0, with A symmetric and M
    a symmetric positive definite approximation of A^-1 (Paige & Saunders,
    SIAM J. Numer. Anal. 12(4), 1975).

    The recurrences, reductions and stopping tests are those of
    scipy.sparse.linalg.minres (without shift, x0, callback, show and
    check), applied to N x N arrays, so the iterates are the same floats.
    Stops when ||r|| <= rtol ||A|| ||x|| (test1) or ||A r|| <= rtol ||A||
    ||r|| (test2), when either test reaches machine precision, when the
    estimate of cond(A) reaches 0.1/eps, when eps ||A|| ||x|| reaches
    ||b||_M, or after maxiter iterations.  Returns (x, info), info =
    maxiter when the iteration limit stopped it and 0 otherwise.
    """
    eps = np.finfo(float).eps
    x = np.zeros_like(b)
    r1 = b.copy()
    y = M(r1)
    beta1 = _dot(r1, y)
    if beta1 < 0:
        raise ValueError("indefinite preconditioner")
    if beta1 == 0:
        return x, 0
    beta1 = sqrt(beta1)

    istop, itn = 0, 0
    oldb, beta, dbar, epsln, phibar = 0, beta1, 0, 0, beta1
    tnorm2, gmax, gmin = 0, 0, np.finfo(float).max
    cs, sn = -1, 0
    w = np.zeros_like(b)
    w2 = np.zeros_like(b)
    r2 = r1
    while itn < maxiter:
        itn += 1
        # Lanczos step: v = y / beta, then y = M (A v - ...), beta = ||.||_M
        v = (1.0 / beta) * y
        y = A(v)
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = _dot(v, y)
        y = y - (alfa / beta) * r2
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

        # update x along the new search direction
        denom = 1.0 / gamma
        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) * denom
        x = x + phi * w

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
        if istop != 0:
            break
    return x, maxiter if istop == 6 else 0


def _newton_krylov(
    u: np.ndarray, spec: ProblemSpec, state, residual, linearize, what: str,
    scale: float = 1.0,
) -> tuple[np.ndarray, dict, np.ndarray, int]:
    """Damped Newton-Krylov solve of residual(u, state(u)) = 0 from u.

    state(u) returns None where u leaves the domain; linearize(u, st)
    returns the Jacobian and its preconditioner.  With r_k = scale times
    the L2 norm of the residual, each step runs preconditioned MINRES to
    the forcing tolerance clip(1e-4 r_k, krylov_tol, 1e-4) (cf. Eisenstat
    & Walker, SIAM J. Sci. Comput. 17(1), 1996), then halves the step from
    alpha = 1 until r_k drops by the factor 1 - 1e-4 alpha.  Stops once
    r_k <= newton_tol and returns (u, state, residual, passes), the last
    pass being the one that found convergence.  A failed line search
    raises NoConvergence naming that step's MINRES exit status.
    """
    grid = spec.grid
    st = state(u)
    if st is None:
        raise NoConvergence(0, np.inf, what=what)
    r = residual(u, st)
    r_norm = scale * _l2(grid, r)
    iters = 0
    for iters in range(1, spec.max_newton_iters + 1):
        if r_norm <= spec.newton_tol:
            break
        H, M = linearize(u, st)
        rtol = float(np.clip(1e-4 * r_norm, spec.krylov_tol, 1e-4))
        delta, info = _minres(H, M, -r, rtol, maxiter=400)
        alpha = 1.0
        while True:
            trial = u + alpha * delta
            st_trial = state(trial)
            if st_trial is not None:
                r_trial = residual(trial, st_trial)
                norm_trial = scale * _l2(grid, r_trial)
                if norm_trial <= (1.0 - 1e-4 * alpha) * r_norm:
                    break
            alpha *= 0.5
            if alpha < 1e-12:
                what = f"{what} line search (MINRES exit status {info})"
                raise NoConvergence(iters, r_norm, what=what)
        u, st, r, r_norm = trial, st_trial, r_trial, norm_trial
    if r_norm > spec.newton_tol:
        raise NoConvergence(iters, r_norm, what=what)
    return u, st, r, iters


def _require_coupling(q: float, st: dict) -> None:
    c_inf = float(np.abs(st["c"]).max())
    if q <= c_inf:
        raise QTooSmall(
            f"q={q} <= sup|c|={c_inf:.6g}: zeroth-order coefficient not positive"
        )


def _equation_residuals(
    u: ScalarField, v: ScalarField, st: dict, n: int, s: float, q: float
) -> tuple[float, float]:
    """L2 residuals of the two coupled equations at (u, v), with f and c
    taken from the pointwise state st at u."""
    res_a = -laplacian(u).values - q * (v.values - st["f"]) + FOUR_PI * n
    res_b = -laplacian(v).values - q * (
        st["c"] * (s - v.values) - q * (v.values - st["f"])
    )
    return _l2(u.grid, res_a), _l2(u.grid, res_b)


def _bound_violation(model: NonlinearityModel, f: np.ndarray, v: np.ndarray):
    """Largest excess of f(e^{u*}) and v over the bounds [f(0), s], and
    the extremes (f_min, f_max, v_min, v_max) it was read from."""
    extremes = (float(f.min()), float(f.max()), float(v.min()), float(v.max()))
    fe_min, fe_max, v_min, v_max = extremes
    f0, s = model.f0, model.s
    return max(f0 - fe_min, fe_max - s, f0 - v_min, v_max - s), extremes


def solve_coupled(
    spec: ProblemSpec,
    init: ScalarField | None = None,
    background: BackgroundData | None = None,
    forcing: ScalarField | None = None,
) -> SolutionBundle:
    """Newton-Krylov solve of the coupled system for the given coupling.

    Newton runs on the energy gradient with MINRES inner solves
    preconditioned by the exact spectral inverse of
    q^{-2} Lap^2 - Lap + lambda.  Globalization backtracks on the residual
    norm: the solutions are saddle points of the energy (which is unbounded
    below along constant shifts), so energy descent cannot drive the line
    search, while Newton directions are always descent directions for the
    residual norm when the inner solve is accurate.  Converges when the L2
    residual of the second equation (q times the fourth-order residual) is
    below newton_tol.  On convergence v is recovered from the first
    equation and w = q(v - f(e^{u0+u})) is formed by definition.

    Without init the solve climbs the half-grid ladder (_cold_start): it
    starts from the same problem solved on N/2, prolonged; where that is
    skipped (with a forcing), does not apply or fails, from the limit
    profile, and from the ansatz if that fails too.  newton_iters counts
    the steps on spec.grid only.

    Raises QTooSmall if q <= sup|c| at some iterate, NoConvergence if the
    iteration or its line search stalls, and BoundsViolation if the
    converged state breaks the pointwise bounds by more than bound_tol.
    """
    grid, model, q = spec.grid, spec.model, spec.q
    bg = background or compute_u0(spec.vortices, spec.grid)
    ws = _Workspace(spec, bg, forcing)

    if init is None:
        init = _cold_start(spec, bg, {}, coupled=forcing is None)

    def linearize(u: np.ndarray, st: dict):
        _require_coupling(q, st)
        return ws.hessian_operator(u, st), ws.coupled_preconditioner(st)

    u, st, r, iters = _newton_krylov(
        np.array(init.values, dtype=float), spec,
        lambda u: _pointwise_state(model, bg, u), ws.gradient, linearize,
        "Newton", scale=q,
    )
    _require_coupling(q, st)

    u_field = ScalarField(grid, u)
    v = _recover_v(u_field, st["f"], bg.n, q)
    w = ScalarField(grid, q * (v.values - st["f"]))
    if forcing is None:
        worst, _ = _bound_violation(model, st["f"], v.values)
        bound_tol = spec.resolved_bound_tol()
        if worst > bound_tol:
            raise BoundsViolation(
                f"pointwise bounds violated by {worst:.3e} > bound_tol={bound_tol:.3e} "
                "(discretization failure: refine the grid or enlarge sigma)"
            )

    res_a, res_b = _equation_residuals(u_field, v, st, bg.n, model.s, q)
    residuals = {"genmcsa": res_a, "genmcsb": res_b, "fourth_order": _l2(grid, r)}
    return SolutionBundle(
        spec=spec,
        background=bg,
        u=u_field,
        v=v,
        w=w,
        residual_norms=residuals,
        newton_iters=iters,
        energy_value=ws.energy(u, st),
    )


def solve_limit(
    spec: ProblemSpec, background: BackgroundData | None = None
) -> LimitSolution:
    """Newton solve of the limit equation for the regular part:
    -Laplacian(u) = f'(e^{u0+u}) e^{u0+u} (s - f(e^{u0+u})) - 4 pi n.

    The coupling q in spec is ignored.  Same damped Newton-Krylov driver
    as solve_coupled, with the spectral inverse of -Lap + lambda as
    preconditioner.  Climbs the half-grid ladder (_limit): each level
    starts from the one below, prolonged, or from the ansatz where there is
    none or it failed; newton_iters counts the steps on spec.grid only, and
    a failure there raises that grid's NoConvergence.
    """
    limit = _limit(spec, background, {})
    if isinstance(limit, NoConvergence):
        raise limit
    return limit


def q_sweep(spec: ProblemSpec, q_list) -> "ConvergenceTable":
    """Warm-started solves over ascending couplings, measured against the
    limit profile.  Per-entry solver failures become marked rows rather
    than exceptions.

    Rows are reported in ascending q but solved in descending order: the
    limit profile is the infinite-coupling endpoint of the branch, so the
    homotopy walks from the largest q (closest to the limit) downward,
    warm-starting each solve from its larger-q neighbor.
    """
    from . import diagnostics

    q_list = [float(q) for q in q_list]
    if any(b <= a for a, b in zip(q_list, q_list[1:])):
        raise ValueError("q_list must be strictly ascending")
    if not all(np.isfinite(q) and q > 0.0 for q in q_list):
        raise ValueError("q_list entries must be positive and finite")

    bg = compute_u0(spec.vortices, spec.grid)
    limit = solve_limit(spec, background=bg)
    rows = []
    u_prev = limit.u_inf
    for q in reversed(q_list):
        sub = replace(spec, q=q)
        try:
            bundle = solve_coupled(sub, init=u_prev, background=bg)
        except (NoConvergence, QTooSmall, BoundsViolation) as exc:
            rows.append(diagnostics.SweepRow.failed(q, exc))
            continue
        u_prev = bundle.u
        metrics = diagnostics.convergence_metrics(bundle, limit)
        gradu = diagnostics.check_gradu(bundle)
        flux = diagnostics.check_flux(bundle)
        rows.append(
            diagnostics.SweepRow(
                q=q,
                status="converged",
                message="",
                d_eu=metrics.d_eu,
                d_v=metrics.d_v,
                d_w=metrics.d_w,
                h_u=metrics.h_u,
                h_v=metrics.h_v,
                sob_u=_sobolev_norms(bundle.u),
                sob_v=_sobolev_norms(bundle.v),
                gradu_value=float(gradu.lhs),
                flux_rel_err=float(flux.rel_discrepancy),
                energy=bundle.energy_value,
                genmcsb_residual=bundle.residual_norms["genmcsb"],
                newton_iters=bundle.newton_iters,
            )
        )
    rows.reverse()
    meta = {
        "model": spec.model.name,
        "s": spec.model.s,
        "n": spec.vortices.n,
        "sigma": spec.vortices.sigma,
        "N": spec.grid.N,
        "newton_tol": spec.newton_tol,
        "krylov_tol": spec.krylov_tol,
        "bound_tol": spec.resolved_bound_tol(),
    }
    return diagnostics.ConvergenceTable(meta=meta, rows=rows)
