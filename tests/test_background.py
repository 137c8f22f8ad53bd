import numpy as np
import pytest

from mcsvortex import (
    GridSpec,
    PreconditionViolated,
    ScalarField,
    SigmaTooSmall,
    VortexConfig,
    compute_u0,
    grad_squared,
    integrate,
    laplacian,
    mollified_delta,
    no_vortices,
    sup_norm,
)
from mcsvortex.background import vortex_source

FOUR_PI = 4.0 * np.pi


def raw_weight(u0: ScalarField) -> ScalarField:
    """Direct-product route e^{u0} * grad_squared(u0), the oracle for the
    Laplacian route of background_weight."""
    return ScalarField(u0.grid, np.exp(u0.values) * grad_squared(u0).values)


def single_vortex(grid: GridSpec, p=(0.5, 0.5), m=1, sigma_cells=4.0) -> VortexConfig:
    return VortexConfig(points=(p,), multiplicities=(m,), sigma=sigma_cells * grid.h)


class TestVortexConfig:
    def test_total_vortex_number(self):
        cfg = VortexConfig(
            points=((0.25, 0.25), (0.75, 0.75)), multiplicities=(1, 2), sigma=0.05
        )
        assert cfg.n == 3
        assert no_vortices().n == 0

    def test_rejects_bad_data(self):
        with pytest.raises(ValueError):
            VortexConfig(points=((0.5, 0.5),), multiplicities=(0,), sigma=0.05)
        with pytest.raises(ValueError):
            VortexConfig(points=((1.5, 0.5),), multiplicities=(1,), sigma=0.05)
        with pytest.raises(ValueError):
            VortexConfig(
                points=((0.5, 0.5), (0.5, 0.5)), multiplicities=(1, 1), sigma=0.05
            )
        with pytest.raises(ValueError):
            VortexConfig(points=((0.5, 0.5),), multiplicities=(1,), sigma=-1.0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), 1e3, 0.2500001])
    def test_rejects_sigma_outside_quarter_torus(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            VortexConfig(points=((0.5, 0.5),), multiplicities=(1,), sigma=sigma)

    def test_accepts_quarter_torus_sigma(self):
        assert VortexConfig(points=(), multiplicities=(), sigma=0.25).sigma == 0.25


class TestMollifiedDelta:
    def test_unit_integral(self):
        grid = GridSpec(32)
        for p in ((0.5, 0.5), (0.13, 0.77), (0.0, 0.0)):
            bump = mollified_delta(p, 4 * grid.h, grid)
            assert integrate(bump) == pytest.approx(1.0, abs=1e-10)

    def test_nonnegative_with_max_at_center_cell(self):
        grid = GridSpec(32)
        p = (0.40625, 0.71875)  # exactly on grid nodes (13/32, 23/32)
        bump = mollified_delta(p, 3 * grid.h, grid)
        assert bump.min() >= 0.0
        idx = np.unravel_index(np.argmax(bump.values), bump.values.shape)
        assert (grid.X[idx], grid.Y[idx]) == p

    def test_max_in_cell_containing_off_node_point(self):
        # node-centered cells: the sampled maximum is the node nearest to p
        grid = GridSpec(32)
        p = (0.413, 0.705)
        bump = mollified_delta(p, 3 * grid.h, grid)
        idx = np.unravel_index(np.argmax(bump.values), bump.values.shape)
        expected = (round(p[0] / grid.h) % grid.N, round(p[1] / grid.h) % grid.N)
        assert idx == expected

    def test_center_symmetry(self):
        grid = GridSpec(32)
        bump = mollified_delta((0.5, 0.5), 4 * grid.h, grid)
        mirrored = np.roll(bump.values[::-1, ::-1], (1, 1), axis=(0, 1))
        assert np.max(np.abs(bump.values - mirrored)) <= 1e-12 * bump.max()

    def test_two_bumps_integrate_to_two(self):
        grid = GridSpec(32)
        total = mollified_delta((0.2, 0.3), 3 * grid.h, grid) + mollified_delta(
            (0.7, 0.8), 3 * grid.h, grid
        )
        assert integrate(total) == pytest.approx(2.0, abs=1e-10)

    def test_sigma_floor(self):
        grid = GridSpec(32)
        with pytest.raises(SigmaTooSmall):
            mollified_delta((0.5, 0.5), 1.9 * grid.h, grid)


class TestComputeU0:
    def test_no_vortices_gives_flat_background(self):
        grid = GridSpec(16)
        bg = compute_u0(no_vortices(), grid)
        assert sup_norm(bg.u0) <= 1e-14
        assert np.max(np.abs(bg.exp_u0.values - 1.0)) <= 1e-14
        assert sup_norm(bg.weight) <= 1e-12

    def test_residual_oracle(self):
        grid = GridSpec(64)
        cfg = single_vortex(grid)
        bg = compute_u0(cfg, grid)
        residual = (
            -laplacian(bg.u0).values
            - FOUR_PI * (cfg.n - bg.source.values)
        )
        assert grid.h * np.sqrt(np.sum(residual**2)) <= 1e-8

    # u0 grows like n: e^u0 overflows near n = 1000 for one vortex at
    # N = 48, 10**400 does not convert to a float at all, and a sum past
    # 4300 digits no longer converts to a string
    @pytest.mark.parametrize(
        "mults,name",
        [
            ((2000,), "2000"),
            ((10**300,), str(10**300)),
            ((10**400,), str(10**400)),
            ((10**4300 - 1, 10**4300 - 1), r"2\^14285 or more"),
        ],
        ids=["2000", "1e300", "1e400", "beyond-str-limit"],
    )
    def test_overflowing_vortex_number_raises_typed_error(self, mults, name):
        grid = GridSpec(48)
        points = ((0.25, 0.25), (0.75, 0.75))[: len(mults)]
        cfg = VortexConfig(points=points, multiplicities=mults, sigma=4 * grid.h)
        with pytest.raises(PreconditionViolated, match=f"vortex number n={name} "):
            compute_u0(cfg, grid)

    def test_u0_mean_zero(self):
        grid = GridSpec(64)
        bg = compute_u0(single_vortex(grid), grid)
        assert abs(integrate(bg.u0)) <= 1e-10

    def test_source_solvability_exact(self):
        grid = GridSpec(32)
        cfg = VortexConfig(
            points=((0.25, 0.25), (0.75, 0.5)), multiplicities=(2, 1), sigma=3 * grid.h
        )
        source = vortex_source(cfg, grid)
        assert integrate(grid.field(FOUR_PI * (cfg.n - source.values))) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_exp_u0_minimum_near_a_core(self):
        grid = GridSpec(64)
        cfg = VortexConfig(
            points=((0.3, 0.4), (0.8, 0.1)), multiplicities=(1, 1), sigma=4 * grid.h
        )
        bg = compute_u0(cfg, grid)
        idx = np.unravel_index(np.argmin(bg.exp_u0.values), bg.exp_u0.values.shape)
        loc = (grid.X[idx], grid.Y[idx])

        def torus_dist(a, b):
            dx = min(abs(a[0] - b[0]), 1 - abs(a[0] - b[0]))
            dy = min(abs(a[1] - b[1]), 1 - abs(a[1] - b[1]))
            return np.hypot(dx, dy)

        assert min(torus_dist(loc, p) for p in cfg.points) <= 2 * cfg.sigma

    def test_grid_refinement_stability(self):
        # fixed physical sigma: the mollified problem is smooth, so spectral
        # refinement changes u0 below 1e-6 in sup norm
        sigma = 4.0 / 64
        coarse = GridSpec(64)
        fine = GridSpec(128)
        cfg = VortexConfig(points=((0.5, 0.5),), multiplicities=(1,), sigma=sigma)
        u0_coarse = compute_u0(cfg, coarse).u0
        u0_fine = compute_u0(cfg, fine).u0
        diff = u0_fine.values[::2, ::2] - u0_coarse.values
        assert np.max(np.abs(diff)) <= 1e-6


class TestBackgroundWeight:
    def test_zero_for_no_vortices(self):
        grid = GridSpec(16)
        bg = compute_u0(no_vortices(), grid)
        assert sup_norm(bg.weight) <= 1e-12

    def test_pointwise_agreement_off_core(self):
        grid = GridSpec(128)
        cfg = single_vortex(grid)
        bg = compute_u0(cfg, grid)
        product = raw_weight(bg.u0)
        dist = np.hypot(
            np.minimum(np.abs(grid.X - 0.5), 1 - np.abs(grid.X - 0.5)),
            np.minimum(np.abs(grid.Y - 0.5), 1 - np.abs(grid.Y - 0.5)),
        )
        far = dist > 5 * cfg.sigma
        scale = np.abs(product.values).max()
        rel = np.max(np.abs(bg.weight.values[far] - product.values[far])) / scale
        assert rel <= 1e-4

    def test_two_route_integral_agreement(self):
        grid = GridSpec(128)
        cfg = VortexConfig(
            points=((0.5, 0.5), (0.2, 0.8)), multiplicities=(1, 2), sigma=4 * grid.h
        )
        bg = compute_u0(cfg, grid)
        via_identity = integrate(bg.weight)
        via_product = integrate(grid.field(np.exp(bg.u0.values) * grad_squared(bg.u0).values))
        assert via_identity == pytest.approx(via_product, rel=1e-6)

    def test_weight_nonnegative(self):
        grid = GridSpec(64)
        bg = compute_u0(single_vortex(grid), grid)
        assert bg.weight.min() >= -1e-8
