"""The abstract nonlinearity f: smooth, strictly increasing on t >= 0,
with derivatives, inverse, the constant s, and a bounded truncation.

Instances cover the linear gauge model (f(t) = t), the rational one
(f(t) = (t-1)/(t+1)), and user-tabulated monotone data.  Solutions only
visit f(e^u) <= s, so f may be flattened beyond a threshold T without
changing them; the flattening below is a C^2 monotone time-change of the
argument that freezes over [T, 2T]:

    g(t) = T * (1 + W((t - T)/T)),   W(x) = x - (x^6 - 3 x^5 + 2.5 x^4),

so g' = 1 - smoothstep, g'(T) = 1, g'(2T) = 0, and f_trunc = f(g(t)) is
constant past 2T with sup over t of |f| + |f'| + |f''| finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NegativeArgument, OutOfRange

INVERSE_TOL = 1e-12


def _blend(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """W, W' and W'' of the quintic-smoothstep time change on [0, 1], in
    powers of u = 1 - x:

        W = 1/2 - u^4 (u^2 - 3u + 5/2),  W' = u^3 (6x^2 + 3x + 1),
        W'' = -30 x^2 u^2.

    W' is a product of nonnegative factors and W nears its frozen value
    1/2 through a vanishing correction, so in floating point W' >= 0 and W
    does not decrease (the expansion in x, W' = 1 - x^3 (6x^2 - 15x + 10),
    rounds to -7e-16 just below x = 1).  Horner form with plain products
    only, so scalar and vectorized evaluations agree bitwise.
    """
    u = 1.0 - x
    u2 = u * u
    x2 = x * x
    w = 0.5 - u2 * u2 * ((u - 3.0) * u + 2.5)
    wp = u2 * u * ((6.0 * x + 3.0) * x + 1.0)
    wpp = -30.0 * x2 * u2
    return w, wp, wpp


@dataclass(frozen=True)
class NonlinearityModel:
    """Truncated nonlinearity with value/derivative/inverse access.

    raw_f, raw_fp, raw_fpp are vectorized callables valid on t >= 0 and are
    only ever evaluated at arguments <= 1.5*T.  f_upper is the supremum of
    the truncated f over the inversion domain [0, T).
    """

    name: str
    s: float
    T: float  # truncation threshold; inf disables truncation
    raw_f: Callable[[np.ndarray], np.ndarray]
    raw_fp: Callable[[np.ndarray], np.ndarray]
    raw_fpp: Callable[[np.ndarray], np.ndarray]
    f_upper: float

    def _eval_arrays(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t = np.asarray(t, dtype=float)
        if not np.isfinite(self.T):
            # untruncated models stay bounded as t -> inf; intermediate
            # overflow in their closed forms is harmless
            with np.errstate(over="ignore", invalid="ignore"):
                return (
                    np.asarray(self.raw_f(t), dtype=float),
                    np.asarray(self.raw_fp(t), dtype=float),
                    np.asarray(self.raw_fpp(t), dtype=float),
                )
        T = self.T
        x = np.clip((t - T) / T, 0.0, 1.0)
        w, wp, wpp = _blend(x)
        g = np.where(t <= T, t, T * (1.0 + w))
        gp = np.where(t <= T, 1.0, wp)
        gpp = np.where(t <= T, 0.0, wpp / T)
        f = self.raw_f(g)
        fp_raw = self.raw_fp(g)
        f1 = fp_raw * gp
        f2 = self.raw_fpp(g) * gp * gp + fp_raw * gpp
        return (
            np.asarray(f, dtype=float),
            np.asarray(f1, dtype=float),
            np.asarray(f2, dtype=float),
        )

    def eval(self, t: float) -> tuple[float, float, float]:
        """(f, f', f'') at a scalar t >= 0."""
        t = float(t)
        if t < 0.0:
            raise NegativeArgument(f"nonlinearity evaluated at t={t} < 0")
        f, f1, f2 = self._eval_arrays(np.asarray(t))
        return float(f), float(f1), float(f2)

    @property
    def f0(self) -> float:
        """f(0), the lower pointwise bound of the theory."""
        return float(self.raw_f(np.asarray(0.0)))

    def inverse(self, y: float) -> float:
        """t >= 0 with f(t) = y, by safeguarded Newton/bisection.

        y must lie in [f(0), f_upper); |f(t) - y| <= 1e-12 on return.
        """
        y = float(y)
        if y < self.f0 or y >= self.f_upper:
            raise OutOfRange(
                f"inverse target {y} outside [{self.f0}, {self.f_upper})"
            )
        lo = 0.0
        if np.isfinite(self.T):
            hi = self.T
        else:
            hi = 1.0
            while float(self.raw_f(np.asarray(hi))) <= y:
                hi *= 2.0
                if hi > 1e30:  # pragma: no cover - guarded by f_upper check
                    raise OutOfRange(f"inverse target {y} not bracketed")
        t = 0.5 * (lo + hi)
        for _ in range(200):
            f, f1, _ = self._eval_arrays(np.asarray(t))
            err = float(f) - y
            if abs(err) <= INVERSE_TOL:
                return float(t)
            if err > 0.0:
                hi = t
            else:
                lo = t
            step = err / float(f1) if float(f1) > 0.0 else np.inf
            t_new = t - step
            if not (lo < t_new < hi):
                t_new = 0.5 * (lo + hi)
            t = t_new
        return float(t)


def u1_model(s: float = 1.0) -> NonlinearityModel:
    """Linear model f(t) = t.  Requires s > 0; truncated beyond T = 2s."""
    s = float(s)
    if s <= 0.0:
        raise ValueError(f"linear model needs f(0)=0 < s, got s={s}")
    if not np.isfinite(s):
        raise ValueError(f"linear model needs a finite s, got s={s}")
    T = 2.0 * s
    return NonlinearityModel(
        name="u1",
        s=s,
        T=T,
        raw_f=lambda t: t,
        raw_fp=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        raw_fpp=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        f_upper=T,
    )


def cp1_model(s: float = 0.5) -> NonlinearityModel:
    """Rational model f(t) = (t-1)/(t+1), already bounded with bounded
    derivatives on t >= 0, so no truncation (T = inf)."""
    s = float(s)
    if not (-1.0 < s < 1.0):
        raise ValueError(f"rational model needs -1 < s < 1, got s={s}")
    return NonlinearityModel(
        name="cp1",
        s=s,
        T=np.inf,
        raw_f=lambda t: (t - 1.0) / (t + 1.0),
        raw_fp=lambda t: 2.0 / (1.0 + t) ** 2,
        raw_fpp=lambda t: -4.0 / (1.0 + t) ** 3,
        f_upper=1.0,
    )


def tabulated_model(
    ts, fs, s: float, name: str = "custom"
) -> NonlinearityModel:
    """Monotone-cubic interpolant of tabulated (t, f) samples.

    The table must start at t = 0, be strictly increasing in both columns,
    and cover the range of interest; the truncation threshold is set to
    (2/3) * t_max so the flattening stays inside the table.
    """
    from scipy.interpolate import PchipInterpolator

    ts = np.asarray(ts, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if ts.ndim != 1 or ts.shape != fs.shape or ts.size < 4:
        raise ValueError("need matching 1-d (t, f) tables with >= 4 rows")
    if ts[0] != 0.0:
        raise ValueError("table must start at t = 0")
    if np.any(np.diff(ts) <= 0.0) or np.any(np.diff(fs) <= 0.0):
        raise ValueError("table must be strictly increasing")
    s = float(s)
    if not (fs[0] < s < fs[-1]):
        raise ValueError(f"s={s} outside the table's value range ({fs[0]}, {fs[-1]})")
    interp = PchipInterpolator(ts, fs)
    d1 = interp.derivative(1)
    d2 = interp.derivative(2)
    T = (2.0 / 3.0) * float(ts[-1])
    return NonlinearityModel(
        name=name,
        s=s,
        T=T,
        raw_f=lambda t: interp(t),
        raw_fp=lambda t: d1(t),
        raw_fpp=lambda t: d2(t),
        f_upper=float(interp(T)),
    )


def model_from_name(
    name: str, s: float | None = None, table=None
) -> NonlinearityModel:
    """Registry used by the CLI config: 'u1' | 'cp1' | 'custom'."""
    if name == "u1":
        return u1_model(1.0 if s is None else s)
    if name == "cp1":
        return cp1_model(0.5 if s is None else s)
    if name == "custom":
        if table is None or s is None:
            raise ValueError("custom model needs both a (t, f) table and s")
        ts, fs = table
        return tabulated_model(ts, fs, s)
    raise ValueError(f"unknown model name {name!r}")
