import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcsvortex import (
    GridSpec,
    PreconditionViolated,
    ScalarField,
    SigmaTooSmall,
    VortexConfig,
    compute_u0,
    grad_squared,
    gradient,
    integrate,
    laplacian,
    mollified_delta,
    no_vortices,
    sup_norm,
)
from mcsvortex import background

from conftest import peak_fields

FOUR_PI = 4.0 * np.pi


def raw_weight(u0: ScalarField) -> ScalarField:
    """Direct-product route e^{u0} * grad_squared(u0), the oracle for the
    Laplacian route of BackgroundData.weight."""
    return ScalarField(u0.grid, np.exp(u0.values) * grad_squared(u0).values)


def raw_bump(p, sigma: float, grid: GridSpec) -> ScalarField:
    """Double sum over the (2*width+1)^2 periodic images of the 2-D
    Gaussian, normalized to unit trapezoidal integral: the oracle for the
    separable image sums of mollified_delta."""
    px, py = float(p[0]), float(p[1])
    width = max(2, int(np.ceil(6.0 * sigma)))
    vals = np.zeros((grid.N, grid.N))
    inv = 1.0 / (2.0 * sigma * sigma)
    for mx in range(-width, width + 1):
        dx2 = (grid.X - px + mx) ** 2
        for my in range(-width, width + 1):
            vals += np.exp(-(dx2 + (grid.Y - py + my) ** 2) * inv)
    return ScalarField(grid, vals / (grid.h**2 * vals.sum()))


GRIDS = {N: GridSpec(N) for N in (16, 32, 64)}


@st.composite
def bumps(draw):
    """(p, sigma, grid) with p in [0,1)^2 and sigma in [2h, 1/4]."""
    grid = GRIDS[draw(st.sampled_from(sorted(GRIDS)))]
    unit = st.floats(0.0, 1.0, exclude_max=True)
    p = (draw(unit), draw(unit))
    return p, draw(st.floats(2.0 * grid.h, 0.25)), grid


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
        # checked before int(), which would make 1.5 a single vortex
        with pytest.raises(ValueError, match="multiplicity"):
            VortexConfig(points=((0.5, 0.5),), multiplicities=(1.5,), sigma=0.05)
        # a bool is a Real, which int() would make a single vortex
        with pytest.raises(ValueError, match="multiplicity"):
            VortexConfig(points=((0.5, 0.5),), multiplicities=(True,), sigma=0.05)
        with pytest.raises(ValueError, match="sigma"):
            VortexConfig(points=((0.5, 0.5),), multiplicities=(1,), sigma="0.05")

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

    @pytest.mark.parametrize("sigma", ["0.1", float("inf"), 5.0, True])
    def test_sigma_outside_quarter_torus_rejected(self, sigma):
        # VortexConfig's rule: a string raised TypeError, inf OverflowError,
        # and 5.0 or True (as 1) built a bump wider than the torus
        with pytest.raises(ValueError, match=r"^sigma must be in \(0, 1/4\], got "):
            mollified_delta((0.5, 0.5), sigma, GridSpec(32))

    def test_two_bumps_integrate_to_two(self):
        grid = GridSpec(32)
        total = mollified_delta((0.2, 0.3), 3 * grid.h, grid) + mollified_delta(
            (0.7, 0.8), 3 * grid.h, grid
        )
        assert integrate(total) == pytest.approx(2.0, abs=1e-10)

    @settings(max_examples=200, deadline=None, database=None)
    @given(bumps())
    def test_matches_image_double_sum(self, case):
        p, sigma, grid = case
        bump, oracle = mollified_delta(p, sigma, grid), raw_bump(p, sigma, grid)
        assert sup_norm(bump - oracle) <= 2e-15 * sup_norm(oracle)
        assert integrate(bump) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("N", [16, 64, 256])
    @pytest.mark.parametrize("sigma_cells", [2.0, 4.0])
    def test_exponentiates_one_dimensional_sums_only(self, monkeypatch, N, sigma_cells):
        # O(N * width) exponentials per bump, not the N^2 image double sum
        grid = GridSpec(N)
        sigma = sigma_cells * grid.h
        width = max(2, int(np.ceil(6.0 * sigma)))
        sizes = []
        exp = np.exp

        def counted(x, *args, **kwargs):
            sizes.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(background.np, "exp", counted)
        mollified_delta((0.3, 0.7), sigma, grid)
        assert 0 < sum(sizes) <= 2 * (2 * width + 1) * grid.N

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

    # below n = 1093, where e^{u0} overflows, the weight's Laplacian and
    # the gradient scale e^{u0} by up to |k|^2 and |k| at N = 48: the
    # background is built, and the first read of a derived field raises
    @pytest.mark.parametrize(
        "n,overflowing",
        [
            (1072, ("weight",)),
            (1081, ("weight", "grad_exp_u0")),
            (1092, ("weight", "grad_exp_u0")),
        ],
    )
    def test_derived_fields_overflow_on_first_read(self, n, overflowing):
        grid = GridSpec(48)
        bg = compute_u0(single_vortex(grid, m=n), grid)
        assert np.all(np.isfinite(bg.exp_u0.values))
        for name in ("weight", "grad_exp_u0"):
            if name in overflowing:
                with pytest.raises(PreconditionViolated, match=f"vortex number n={n} "):
                    getattr(bg, name)
            else:
                getattr(bg, name)

    def test_peak_memory(self):
        # in N x N fields: the source's values and half spectrum, and two
        # more during u0's inverse transform (its intermediate and its
        # output, then its output and u0's copy of it); no N x N forward
        # transform, and no temporary of the bumps' outer products (5.56
        # with both)
        grid = GridSpec(128)
        cfg = VortexConfig(
            points=((0.25, 0.25), (0.75, 0.25), (0.5, 0.75)),
            multiplicities=(1, 1, 1),
            sigma=4 * grid.h,
        )
        compute_u0(cfg, grid)  # the transforms' plans are cached: warm
        assert peak_fields(lambda: compute_u0(cfg, grid), grid) == pytest.approx(
            4.16, abs=0.25
        )

    def test_u0_mean_zero(self):
        grid = GridSpec(64)
        bg = compute_u0(single_vortex(grid), grid)
        assert abs(integrate(bg.u0)) <= 1e-10

    def test_source_solvability_exact(self):
        grid = GridSpec(32)
        cfg = VortexConfig(
            points=((0.25, 0.25), (0.75, 0.5)), multiplicities=(2, 1), sigma=3 * grid.h
        )
        source = compute_u0(cfg, grid).source
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

    def test_shared_spectrum_matches_standalone_operators(self):
        # one forward transform of e^{u0} feeds both the weight's Laplacian
        # and the gradient, with the same numbers as laplacian and gradient
        grid = GridSpec(64)
        cfg = VortexConfig(
            points=((0.3, 0.4), (0.8, 0.1)), multiplicities=(1, 2), sigma=4 * grid.h
        )
        bg = compute_u0(cfg, grid)
        exp_u0 = ScalarField(grid, np.exp(bg.u0.values))
        weight = laplacian(exp_u0).values + FOUR_PI * exp_u0.values * (
            float(cfg.n) - bg.source.values
        )
        assert np.array_equal(bg.exp_u0.values, exp_u0.values)
        assert np.array_equal(bg.weight.values, weight)
        for got, expected in zip(bg.grad_exp_u0, gradient(exp_u0)):
            assert np.array_equal(got.values, expected.values)

    def test_weight_nonnegative(self):
        grid = GridSpec(64)
        bg = compute_u0(single_vortex(grid), grid)
        assert bg.weight.min() >= -1e-8
