"""Vortex background fields: mollified sources, the mean-zero Green's
function u0, e^{u0}, and, derived on first read, the smooth weight
e^{u0}|grad u0|^2 and grad(e^{u0}), which only the energy and the
diagnostics read.

Dirac masses are replaced by periodic Gaussian bumps of width sigma
(sigma >= 2h so they are resolvable), which keeps every derived field
smooth and band-limited.  The weight is assembled from the Laplacian of
e^{u0} rather than the raw product; with the mollified source retained the
two routes agree to spectral accuracy everywhere, cores included.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PreconditionViolated, SigmaTooSmall, _number, _require_whole
from .grid import GridSpec, ScalarField

FOUR_PI = 4.0 * np.pi

DEFAULT_SIGMA_CELLS = 4.0  # default mollification width, in units of h


@dataclass(frozen=True)
class VortexConfig:
    """Prescribed vortex points with multiplicities and mollification width.

    points: (x, y) positions in [0,1)^2, pairwise distinct.
    multiplicities: positive integer winding numbers m_j.
    sigma: Gaussian width in torus length units, in (0, 1/4] (checked
        against the grid spacing when fields are built).
    Every value must be a number (errors._number), not a bool or a string.
    """

    points: tuple[tuple[float, float], ...]
    multiplicities: tuple[int, ...]
    sigma: float

    def __post_init__(self):
        pts, mult = tuple(self.points), tuple(self.multiplicities)
        if len(pts) != len(mult):
            raise ValueError("need one multiplicity per vortex point")
        for x, y in pts:
            if not all(_number(c) and 0.0 <= c < 1.0 for c in (x, y)):
                raise ValueError(f"vortex point ({x!r}, {y!r}) outside [0,1)^2")
        pts = tuple((float(x), float(y)) for x, y in pts)
        if len(set(pts)) != len(pts):
            raise ValueError("vortex points must be pairwise distinct")
        mult = (_require_whole(f"multiplicity of vortex {i}", m) for i, m in enumerate(mult))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "multiplicities", tuple(mult))
        object.__setattr__(self, "sigma", _require_sigma(self.sigma))

    @property
    def n(self) -> int:
        """Total vortex number (sum of multiplicities)."""
        return sum(self.multiplicities)


def _require_sigma(sigma) -> float:
    """sigma as a float; ValueError unless a number in (0, 1/4]: a wider bump
    no longer localizes, and _bump's sums over periodic images grow like it."""
    if not (_number(sigma) and 0.0 < sigma <= 0.25):
        raise ValueError(f"sigma must be in (0, 1/4], got {sigma!r}")
    return float(sigma)


def no_vortices() -> VortexConfig:
    """The empty configuration; its sigma, with no source to mollify, is 0.05."""
    return VortexConfig(points=(), multiplicities=(), sigma=0.05)


@dataclass(frozen=True)
class BackgroundData:
    """Immutable bundle of background fields shared by all solves: the
    stored ones every solve reads, and weight and grad_exp_u0, built from
    one half spectrum of e^{u0} on first read."""

    grid: GridSpec
    config: VortexConfig
    u0: ScalarField
    exp_u0: ScalarField
    source: ScalarField  # sum of m_j times the mollified unit bumps

    @property
    def n(self) -> int:
        return self.config.n

    @cached_property
    def _exp_u0_hat(self) -> np.ndarray:
        """Half spectrum of e^{u0}, shared by weight and grad_exp_u0."""
        return self.grid.forward(self.exp_u0.values)

    @cached_property
    def weight(self) -> ScalarField:
        """The smooth weight e^{u0}|grad u0|^2, via the identity
        e^{u0}|grad u0|^2 = Laplacian(e^{u0}) - e^{u0} * Laplacian(u0)
        with Laplacian(u0) = -4*pi*(n - source) known exactly from the u0
        problem.  The Laplacian route avoids squaring the large near-core
        gradients; it matches the raw product e^{u0} * grad_squared(u0) to
        spectral accuracy."""
        grid, n, exp_u0 = self.grid, self.n, self.exp_u0.values
        with _within_float64(n, grid):
            lap_e = grid.inverse(-grid.k2 * self._exp_u0_hat)
            vals = lap_e + FOUR_PI * exp_u0 * (float(n) - self.source.values)
            return ScalarField(grid, vals)

    @cached_property
    def grad_exp_u0(self) -> tuple[ScalarField, ScalarField]:
        grid = self.grid
        with _within_float64(self.n, grid):
            return tuple(ScalarField(grid, g) for g in grid.gradient(self._exp_u0_hat))


@contextmanager
def _within_float64(n: int, grid: GridSpec):
    """PreconditionViolated naming the vortex number n (past Python's
    int-to-str digit limit, its magnitude) for a background field that
    leaves float64: OverflowError where n or a multiplicity does not convert
    to a float, ValueError where ScalarField finds a non-finite value."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except (OverflowError, ValueError) as exc:
        name = n if n.bit_length() < 10_000 else f"2^{n.bit_length() - 1} or more"
        raise PreconditionViolated(
            f"vortex number n={name} is too large: the background fields "
            f"overflow float64 on the N={grid.N} grid"
        ) from exc


def mollified_delta(p: tuple[float, float], sigma: float, grid: GridSpec) -> ScalarField:
    """Periodic Gaussian bump at p, normalized to unit integral.

    The wrapped images of exp(-r^2 / (2 sigma^2)) factorize, so the bump is
    the outer product of two 1-D periodic image sums,
    g_x[i] = sum_m exp(-(x_i - p_x + m)^2 / (2 sigma^2)) over the images
    m = -width..width and g_y alike, rescaled so that the trapezoidal
    integral is exactly 1.  ValueError unless sigma is in (0, 1/4], as
    VortexConfig's; SigmaTooSmall below 2h.
    """
    return ScalarField(grid, _bump(p, _require_sigma(sigma), grid)[0])


def _bump(
    p: tuple[float, float], sigma: float, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, g_x / integral, g_y): mollified_delta's values, and two
    1-D factors whose outer product they are up to roundoff."""
    if sigma < 2.0 * grid.h:
        raise SigmaTooSmall(
            f"sigma={sigma} is below the 2h={2 * grid.h} resolvability floor"
        )
    width = max(2, int(np.ceil(6.0 * sigma)))
    images = np.arange(-width, width + 1)[:, None]
    inv = 1.0 / (2.0 * sigma * sigma)
    gx, gy = (
        np.exp(-((grid.nodes - float(c) + images) ** 2) * inv).sum(axis=0) for c in p
    )
    vals = np.einsum("i,j->ij", gx, gy)  # the outer product, without a temporary
    integral = grid.h**2 * vals.sum()
    vals /= integral
    return vals, gx / integral, gy


def _source(config: VortexConfig, grid: GridSpec) -> tuple[ScalarField, np.ndarray]:
    """The vortex source, the sum of the m_j mollified unit bumps, which
    integrates exactly to n, and its half spectrum, built from the bumps'
    1-D factors (GridSpec.outer_spectrum): no N x N transform."""
    vals = np.zeros((grid.N, grid.N))
    spectrum = np.zeros((grid.N, grid.N // 2 + 1), dtype=complex)
    for (x, y), m in zip(config.points, config.multiplicities):
        bump, gx, gy = _bump((x, y), config.sigma, grid)
        vals += np.multiply(m, bump, out=bump)
        spectrum += grid.outer_spectrum(m * gx, gy)
    return ScalarField(grid, vals), spectrum


def compute_u0(config: VortexConfig, grid: GridSpec) -> BackgroundData:
    """Solve -Laplacian(u0) = 4*pi*(n - source) with zero mean and build
    e^{u0}: 1 transform.  The right-hand side is exactly mean-zero at the
    quadrature level because each bump is normalized, so the spectral solve
    is consistent; the zero Fourier mode of u0 is pinned to 0, so only the
    source's half spectrum enters, which its bumps give without an N x N
    forward transform (_source), and u0 is its inverse transform.

    Raises PreconditionViolated, naming the vortex number n, when u0 or
    e^{u0} leaves float64: u0 grows like n, so for one vortex at N = 48
    from n = 1093 on.  The weight and grad(e^{u0}), scaled by up to |k|^2
    and |k|, overflow earlier (there from n = 1072 and 1081), and their
    first read raises the same error."""
    n, k2 = config.n, grid.k2
    with _within_float64(n, grid):
        source, spectrum = _source(config, grid)
        spectrum *= np.divide(-FOUR_PI, k2, out=np.zeros_like(k2), where=k2 > 0.0)
        u0 = ScalarField(grid, grid.inverse(spectrum))
        del spectrum  # before e^{u0}: the peak stays at the inverse transform
        exp_u0 = ScalarField(grid, np.exp(u0.values))
    return BackgroundData(grid=grid, config=config, u0=u0, exp_u0=exp_u0, source=source)
