"""Vortex background fields: mollified sources, the mean-zero Green's
function u0, and the smooth weight e^{u0}|grad u0|^2.

Dirac masses are replaced by periodic Gaussian bumps of width sigma
(sigma >= 2h so they are resolvable), which keeps every derived field
smooth and band-limited.  The weight is assembled from the Laplacian of
e^{u0} rather than the raw product; with the mollified source retained the
two routes agree to spectral accuracy everywhere, cores included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionViolated, SigmaTooSmall
from .grid import (
    GridSpec,
    ScalarField,
    gradient,
    integrate,
    laplacian,
    poisson_solve,
)

FOUR_PI = 4.0 * np.pi

DEFAULT_SIGMA_CELLS = 4.0  # default mollification width, in units of h


@dataclass(frozen=True)
class VortexConfig:
    """Prescribed vortex points with multiplicities and mollification width.

    points: (x, y) positions in [0,1)^2, pairwise distinct.
    multiplicities: positive integer winding numbers m_j.
    sigma: Gaussian width in torus length units, in (0, 1/4] (checked
        against the grid spacing when fields are built).
    """

    points: tuple[tuple[float, float], ...]
    multiplicities: tuple[int, ...]
    sigma: float

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.points)
        mult = tuple(int(m) for m in self.multiplicities)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "multiplicities", mult)
        if len(pts) != len(mult):
            raise ValueError("need one multiplicity per vortex point")
        for m in mult:
            if m < 1:
                raise ValueError(f"multiplicities must be positive, got {m}")
        for x, y in pts:
            if not (0.0 <= x < 1.0 and 0.0 <= y < 1.0):
                raise ValueError(f"vortex point ({x}, {y}) outside [0,1)^2")
        if len(set(pts)) != len(pts):
            raise ValueError("vortex points must be pairwise distinct")
        # a bump wider than a quarter of the torus no longer localizes, and
        # mollified_delta's loop over periodic images grows like sigma^2
        if not (0.0 < self.sigma <= 0.25):
            raise ValueError(f"sigma must be in (0, 1/4], got {self.sigma}")

    @property
    def n(self) -> int:
        """Total vortex number (sum of multiplicities)."""
        return sum(self.multiplicities)


def no_vortices(sigma: float = 0.05) -> VortexConfig:
    return VortexConfig(points=(), multiplicities=(), sigma=sigma)


@dataclass(frozen=True)
class BackgroundData:
    """Immutable bundle of background fields shared by all solves."""

    grid: GridSpec
    config: VortexConfig
    u0: ScalarField
    exp_u0: ScalarField
    weight: ScalarField  # e^{u0}|grad u0|^2, assembled via the Laplacian route
    source: ScalarField  # sum of m_j times the mollified unit bumps
    grad_exp_u0: tuple[ScalarField, ScalarField]

    @property
    def n(self) -> int:
        return self.config.n


def mollified_delta(p: tuple[float, float], sigma: float, grid: GridSpec) -> ScalarField:
    """Periodic Gaussian bump at p, normalized to unit integral.

    Built from wrapped images of exp(-r^2 / (2 sigma^2)) and rescaled so the
    trapezoidal integral is exactly 1.
    """
    if sigma < 2.0 * grid.h:
        raise SigmaTooSmall(
            f"sigma={sigma} is below the 2h={2 * grid.h} resolvability floor"
        )
    px, py = float(p[0]), float(p[1])
    width = max(2, int(np.ceil(6.0 * sigma)))
    vals = np.zeros((grid.N, grid.N))
    inv = 1.0 / (2.0 * sigma * sigma)
    for mx in range(-width, width + 1):
        dx2 = (grid.X - px + mx) ** 2
        for my in range(-width, width + 1):
            vals += np.exp(-(dx2 + (grid.Y - py + my) ** 2) * inv)
    f = ScalarField(grid, vals)
    return ScalarField(grid, vals / integrate(f))


def vortex_source(config: VortexConfig, grid: GridSpec) -> ScalarField:
    """Sum of m_j mollified unit bumps; integrates exactly to n."""
    vals = np.zeros((grid.N, grid.N))
    for (x, y), m in zip(config.points, config.multiplicities):
        vals += m * mollified_delta((x, y), config.sigma, grid).values
    return ScalarField(grid, vals)


def background_weight(u0: ScalarField, n: int, source: ScalarField) -> ScalarField:
    """The smooth weight e^{u0}|grad u0|^2, via the identity
    e^{u0}|grad u0|^2 = Laplacian(e^{u0}) - e^{u0} * Laplacian(u0)
    with Laplacian(u0) = -4*pi*(n - source) known exactly from the u0 problem.

    The Laplacian route avoids squaring the large near-core gradients; it
    matches the raw product e^{u0} * grad_squared(u0) to spectral accuracy.
    """
    exp_u0 = np.exp(u0.values)
    lap_e = laplacian(ScalarField(u0.grid, exp_u0))
    vals = lap_e.values + FOUR_PI * exp_u0 * (float(n) - source.values)
    return ScalarField(u0.grid, vals)


def compute_u0(config: VortexConfig, grid: GridSpec) -> BackgroundData:
    """Solve -Laplacian(u0) = 4*pi*(n - source) with zero mean and build the
    derived background fields.

    The right-hand side is exactly mean-zero at the quadrature level because
    each bump is normalized, so the spectral solve is consistent; the zero
    Fourier mode of u0 is pinned to 0.

    Raises PreconditionViolated, naming the vortex number n, when n is so
    large that a background field leaves float64: u0 grows like n, so
    e^{u0} overflows first (already near n = 1000 for one vortex).
    """
    n = config.n
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            source = vortex_source(config, grid)
            rhs = ScalarField(grid, FOUR_PI * (float(n) - source.values))
            u0 = poisson_solve(rhs)
            exp_u0 = ScalarField(grid, np.exp(u0.values))
            weight = background_weight(u0, n, source)
            gx, gy = gradient(exp_u0)
    except (OverflowError, ValueError) as exc:
        # OverflowError: n or a multiplicity does not convert to a float;
        # ValueError: ScalarField found a non-finite value.  Past Python's
        # int-to-str digit limit, n is named by its magnitude.
        name = n if n.bit_length() < 10_000 else f"2^{n.bit_length() - 1} or more"
        raise PreconditionViolated(
            f"vortex number n={name} is too large: the background fields "
            f"overflow float64 on the N={grid.N} grid"
        ) from exc
    return BackgroundData(
        grid=grid,
        config=config,
        u0=u0,
        exp_u0=exp_u0,
        weight=weight,
        source=source,
        grad_exp_u0=(gx, gy),
    )
