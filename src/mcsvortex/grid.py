"""Uniform periodic grid on the unit torus with spectral operators.

Everything in this package lives on [0,1)^2 with total measure 1, sampled on
an N x N grid (N even).  Differential operators are Fourier multipliers:
the Laplacian symbol is -4*pi^2*|k|^2 for integer wave vectors k, first
derivatives drop the Nyquist mode so that derivatives of real fields stay
real and skew-adjoint.  Trapezoidal quadrature (h^2 times the grid sum) is
exact for band-limited fields and pairs with the transforms through the
discrete Parseval identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, NoConvergence, PreconditionViolated

TWO_PI = 2.0 * np.pi


class GridSpec:
    """Uniform N x N periodic grid on the unit torus, h = 1/N.

    Precomputes coordinate meshes and the wavenumber tables used by the
    spectral operators.  Grids compare equal iff they have the same N.
    """

    def __init__(self, N: int):
        N = int(N)
        if N < 8 or N % 2 != 0:
            raise ValueError(f"grid size must be an even integer >= 8, got {N}")
        self.N = N
        self.h = 1.0 / N
        xs = np.arange(N) * self.h
        self.X, self.Y = np.meshgrid(xs, xs, indexing="ij")
        k = np.fft.fftfreq(N, d=self.h)  # integer wave numbers 0..N/2-1, -N/2..-1
        kx, ky = np.meshgrid(k, k, indexing="ij")
        # symbol of -Laplacian (Nyquist kept: even powers are unambiguous)
        self.k2 = (TWO_PI**2) * (kx * kx + ky * ky)
        kd = k.copy()
        kd[N // 2] = 0.0  # Nyquist has no well-defined first derivative phase
        kdx, kdy = np.meshgrid(kd, kd, indexing="ij")
        self._ikx = (1j * TWO_PI) * kdx
        self._iky = (1j * TWO_PI) * kdy

    def field(self, values) -> "ScalarField":
        return ScalarField(self, np.asarray(values, dtype=float))

    def constant(self, value: float) -> "ScalarField":
        return ScalarField(self, np.full((self.N, self.N), float(value)))

    def from_function(self, fn) -> "ScalarField":
        """Sample fn(x, y) on the grid nodes."""
        return ScalarField(self, np.asarray(fn(self.X, self.Y), dtype=float))

    def __eq__(self, other):
        return isinstance(other, GridSpec) and other.N == self.N

    def __hash__(self):
        return hash(("GridSpec", self.N))

    def __repr__(self):
        return f"GridSpec(N={self.N})"


@dataclass(frozen=True)
class ScalarField:
    """Real scalar field sampled on a GridSpec, immutable after creation."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float, copy=True)
        if v.shape != (self.grid.N, self.grid.N):
            raise ValueError(
                f"field shape {v.shape} does not match grid {self.grid!r}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def _coerce(self, other):
        if isinstance(other, ScalarField):
            if other.grid != self.grid:
                raise GridMismatch(
                    f"cannot combine fields on {self.grid!r} and {other.grid!r}"
                )
            return other.values
        return other

    def __add__(self, other):
        return ScalarField(self.grid, self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return ScalarField(self.grid, self.values - self._coerce(other))

    def __rsub__(self, other):
        return ScalarField(self.grid, self._coerce(other) - self.values)

    def __mul__(self, other):
        return ScalarField(self.grid, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return ScalarField(self.grid, self.values / self._coerce(other))

    def __neg__(self):
        return ScalarField(self.grid, -self.values)

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


def same_grid(*fields: ScalarField) -> GridSpec:
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise GridMismatch("fields do not share a grid")
    return grid


def integrate(field: ScalarField) -> float:
    """Integral over the unit torus: h^2 times the grid sum."""
    return float(field.grid.h**2 * field.values.sum())


def l2_norm(field: ScalarField) -> float:
    """Continuum L2 norm, sqrt(integral of field^2)."""
    return _l2(field.grid, field.values)


def sup_norm(field: ScalarField) -> float:
    return float(np.abs(field.values).max())


def _l2(grid: GridSpec, values: np.ndarray) -> float:
    return float(grid.h * np.sqrt(np.sum(values * values)))


def laplacian(field: ScalarField) -> ScalarField:
    """Spectral Laplacian; exactly mean-zero output."""
    grid = field.grid
    out = np.real(np.fft.ifft2(-grid.k2 * np.fft.fft2(field.values)))
    return ScalarField(grid, out)


def gradient(field: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Spectral first derivatives (d/dx, d/dy); Nyquist mode dropped."""
    grid = field.grid
    fh = np.fft.fft2(field.values)
    gx = np.real(np.fft.ifft2(grid._ikx * fh))
    gy = np.real(np.fft.ifft2(grid._iky * fh))
    return ScalarField(grid, gx), ScalarField(grid, gy)


def grad_squared(field: ScalarField) -> ScalarField:
    """Pointwise |grad field|^2 from spectral first derivatives."""
    gx, gy = gradient(field)
    return ScalarField(field.grid, gx.values**2 + gy.values**2)


def poisson_solve(rhs: ScalarField) -> ScalarField:
    """Mean-zero solution of -Laplacian(u) = rhs.

    The zero mode of rhs is discarded, so this is only meaningful for
    (numerically) mean-zero right-hand sides.
    """
    grid = rhs.grid
    rh = np.fft.fft2(rhs.values)
    uh = np.zeros_like(rh)
    mask = grid.k2 > 0.0
    uh[mask] = rh[mask] / grid.k2[mask]
    return ScalarField(grid, np.real(np.fft.ifft2(uh)))


def sobolev_norm(field: ScalarField, k: int) -> float:
    """H^k norm via the spectral multiplier (1 + 4*pi^2*|k|^2)^k."""
    if k < 0:
        raise ValueError(f"Sobolev index must be >= 0, got {k}")
    grid = field.grid
    ch = np.abs(np.fft.fft2(field.values) / grid.N**2) ** 2
    return float(np.sqrt(np.sum((1.0 + grid.k2) ** k * ch)))


def helmholtz_apply(c: ScalarField, u: ScalarField, q: float) -> ScalarField:
    """Left-hand operator of the stiff Helmholtz equation:
    -Laplacian(u) + q^2*(1 + c/q)*u."""
    grid = same_grid(c, u)
    out = np.real(np.fft.ifft2(grid.k2 * np.fft.fft2(u.values)))
    out += (q * q) * u.values + q * c.values * u.values
    return ScalarField(grid, out)


def helmholtz_solve(
    c: ScalarField,
    rhs: ScalarField,
    q: float,
    tol: float = 1e-10,
    maxiter: int | None = None,
) -> ScalarField:
    """Solve -Laplacian(u) + q^2*(1 + c/q)*u = q^2*rhs.

    Preconditioned conjugate gradients on the symmetric positive operator,
    with the exact spectral inverse of (-Laplacian + q^2) as preconditioner.
    Stops when the L2 residual falls below tol * q^2 * ||rhs||_2.

    Raises PreconditionViolated unless q > sup|c| (positivity of the
    zeroth-order coefficient) and NoConvergence if the iteration stalls.
    """
    grid = same_grid(c, rhs)
    c_inf = float(np.abs(c.values).max())
    if q <= c_inf:
        raise PreconditionViolated(
            f"need q > sup|c| for a positive operator, got q={q}, sup|c|={c_inf}"
        )
    if maxiter is None:
        maxiter = 10 * grid.N

    cv = c.values
    q2 = q * q
    symbol = grid.k2 + q2

    def apply_op(x: np.ndarray) -> np.ndarray:
        lap = np.real(np.fft.ifft2(grid.k2 * np.fft.fft2(x)))
        return lap + q2 * x + q * cv * x

    def apply_prec(r: np.ndarray) -> np.ndarray:
        return np.real(np.fft.ifft2(np.fft.fft2(r) / symbol))

    b = q2 * rhs.values
    target = tol * _l2(grid, b)
    if target == 0.0:
        return grid.constant(0.0)

    x = apply_prec(b)
    r = b - apply_op(x)
    z = apply_prec(r)
    p = z.copy()
    rz = float(np.sum(r * z))
    res = _l2(grid, r)
    it = 0
    while res > target and it < maxiter:
        Ap = apply_op(p)
        alpha = rz / float(np.sum(p * Ap))
        x += alpha * p
        if (it + 1) % 25 == 0:
            r = b - apply_op(x)  # periodic true-residual refresh
        else:
            r -= alpha * Ap
        z = apply_prec(r)
        rz_next = float(np.sum(r * z))
        p = z + (rz_next / rz) * p
        rz = rz_next
        res = _l2(grid, r)
        it += 1
    res = _l2(grid, b - apply_op(x))
    if res > target:
        raise NoConvergence(it, res, what="Helmholtz PCG")
    return ScalarField(grid, x)
