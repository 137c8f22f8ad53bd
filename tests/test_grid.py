import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcsvortex import (
    GridSpec,
    GridMismatch,
    NoConvergence,
    PreconditionViolated,
    ScalarField,
    grad_squared,
    helmholtz_apply,
    helmholtz_solve,
    integrate,
    l2_norm,
    laplacian,
    sobolev_norm,
    sup_norm,
)

from mcsvortex.grid import MAX_GRID_N

from conftest import smooth_field

TWO_PI = 2.0 * np.pi


def _layouts(a, *more):
    """a, the arrays in more, and copies of a that are read-only,
    Fortran-ordered, a transposed view and a strided view."""
    read_only = a.copy()
    read_only.setflags(write=False)
    wide = np.zeros((a.shape[0], 2 * a.shape[1]), dtype=a.dtype)
    wide[:, ::2] = a
    return (a, *more, read_only, np.asfortranarray(a), a.T.copy().T, wide[:, ::2])


def _same_bits(a, b):
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


class TestGridSpec:
    def test_rejects_odd_or_small(self):
        for bad in (7, 6, 15, 0, -8):
            with pytest.raises(ValueError):
                GridSpec(bad)

    @pytest.mark.parametrize("N", [MAX_GRID_N + 2, 2 * MAX_GRID_N, 2**40])
    def test_rejects_oversized_before_allocating(self, N, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before checking N")

        monkeypatch.setattr(np, "arange", no_allocation)
        with pytest.raises(ValueError, match="grid size"):
            GridSpec(N)

    @pytest.mark.parametrize("bad", [64.5, 64.9, float("inf"), float("nan"), "64"])
    def test_rejects_sizes_that_are_not_whole_numbers(self, bad):
        # int() would truncate 64.5 and 64.9 to 64 and raise OverflowError on inf
        with pytest.raises(ValueError, match="grid size"):
            GridSpec(bad)

    @pytest.mark.parametrize("N", [64, 64.0, np.int64(64)])
    def test_accepts_whole_number_sizes(self, N):
        grid = GridSpec(N)
        assert grid.N == 64 and type(grid.N) is int

    def test_unit_measure(self):
        grid = GridSpec(16)
        assert grid.N**2 * grid.h**2 == pytest.approx(1.0, rel=1e-15)

    def test_equality_by_size(self):
        assert GridSpec(16) == GridSpec(16)
        assert GridSpec(16) != GridSpec(32)

    def test_forward_into_a_buffer(self, rng):
        grid = GridSpec(16)
        values = rng.standard_normal((16, 16))
        buf = np.empty((16, 9), dtype=complex)
        assert grid.forward(values, out=buf) is buf
        assert buf.tobytes() == grid.forward(values).tobytes()

    @pytest.mark.parametrize("N", [8, 12, 64, 96, 256])
    def test_transforms_are_numpys_2d_transforms(self, N):
        # bit for bit, for every layout numpy.fft's wrappers accepted: a
        # read-only ScalarField.values, Fortran order, transposed and
        # strided views
        rng = np.random.default_rng(N)
        grid = GridSpec(N)
        values = rng.standard_normal((N, N))
        expected = np.fft.rfft2(values)
        coeffs = rng.standard_normal(expected.shape) + 1j * rng.standard_normal(expected.shape)
        buf = np.empty((N, N // 2 + 1), dtype=complex)
        for layout in _layouts(values, grid.field(values).values):
            kept = layout.copy(order="K")
            assert _same_bits(grid.forward(layout), expected)
            assert grid.forward(layout, out=buf) is buf
            assert _same_bits(buf, expected)
            assert _same_bits(layout, kept)
        for c in (coeffs, expected):
            irfft2 = np.fft.irfft2(c, s=(N, N))
            for layout in _layouts(c):
                kept = layout.copy(order="K")
                assert _same_bits(grid.inverse(layout), irfft2)
                assert _same_bits(layout, kept)  # inverse leaves its input as it was
                assert _same_bits(grid.inverse(layout, scratch=buf), irfft2)
                assert _same_bits(layout, kept)
            # a scratch that is the half spectrum itself, which it consumes
            own = c.copy()
            assert _same_bits(grid.inverse(own, scratch=own), irfft2)

    def test_transforms_reject_arrays_of_another_grid(self):
        # the pocketfft ufuncs would zero-pad or crop such arrays silently
        grid = GridSpec(16)
        for shape in [(12, 12), (16, 12), (12, 16), (16, 16, 1), (256,)]:
            with pytest.raises(ValueError, match=rf"\(16, 16\).*{re.escape(str(shape))}"):
                grid.forward(np.zeros(shape))
        values = np.zeros((16, 16))
        for shape, dtype in [((16, 8), complex), ((16, 10), complex), ((8, 9), complex),
                             ((9, 16), complex), ((16, 9), float), ((16, 9), np.complex64)]:
            with pytest.raises(ValueError, match=rf"\(16, 9\).*{re.escape(str(shape))}"):
                grid.forward(values, out=np.zeros(shape, dtype=dtype))
        for shape in [(12, 7), (16, 8), (16, 16), (9, 16), (16, 9, 1)]:
            with pytest.raises(ValueError, match=rf"\(16, 9\).*{re.escape(str(shape))}"):
                grid.inverse(np.zeros(shape, dtype=complex))
        coeffs = np.zeros((16, 9), dtype=complex)
        for shape, dtype in [((16, 8), complex), ((16, 10), complex), ((8, 9), complex),
                             ((9, 16), complex), ((16, 9), float), ((16, 9), np.complex64)]:
            with pytest.raises(ValueError, match=rf"\(16, 9\).*{re.escape(str(shape))}"):
                grid.inverse(coeffs, scratch=np.zeros(shape, dtype=dtype))
        with pytest.raises(ValueError, match=r"\(16,\).*\(16,\) and \(12,\)"):
            grid.outer_spectrum(np.zeros(16), np.zeros(12))
        with pytest.raises(ValueError, match=r"\(16,\).*\(32,\) and \(16,\)"):
            grid.outer_spectrum(np.zeros(32), np.zeros(16))

    @pytest.mark.parametrize("dtype", [complex, np.complex64, "<U3", object])
    def test_forward_rejects_arrays_that_are_not_real(self, dtype):
        # the real transform has no loop for them: the ufunc raised a bare TypeError
        values = np.full((16, 16), "1.5").astype(dtype)
        message = rf"real arrays, got dtype {re.escape(str(values.dtype))}$"
        with pytest.raises(ValueError, match=message):
            GridSpec(16).forward(values)

    @pytest.mark.parametrize("N", [8, 64, 256])
    def test_meshes_are_built_from_the_nodes(self, N):
        # a grid keeps its 1-D nodes and no N x N array
        grid = GridSpec(N)
        nodes = np.arange(N) * grid.h
        X, Y = np.meshgrid(nodes, nodes, indexing="ij")
        assert np.array_equal(grid.nodes, nodes)
        assert np.array_equal(grid.X, X) and np.array_equal(grid.Y, Y)
        assert np.array_equal(grid.X[:, 0], grid.nodes)
        assert all(np.size(value) < N * N for value in vars(grid).values())

    @pytest.mark.parametrize("N", [8, 12, 64, 256])
    def test_outer_spectrum_is_the_transform_of_the_outer_product(self, N):
        rng = np.random.default_rng(N)
        grid = GridSpec(N)
        gx, gy = rng.standard_normal((2, N))
        expected = grid.forward(np.multiply.outer(gx, gy))
        spectrum = grid.outer_spectrum(gx, gy)
        assert spectrum.shape == expected.shape
        assert np.abs(spectrum - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_field_shape_and_finiteness_checks(self):
        grid = GridSpec(8)
        with pytest.raises(ValueError):
            ScalarField(grid, np.zeros((8, 4)))
        bad = np.zeros((8, 8))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            ScalarField(grid, bad)

    @pytest.mark.parametrize("build", ["field", "ScalarField", "from_function"])
    def test_complex_values_are_rejected(self, build):
        # float() would keep only the real part, with a ComplexWarning
        grid = GridSpec(8)
        values = np.ones((8, 8)) * (1 + 1j)
        make = {
            "field": lambda: grid.field(values),
            "ScalarField": lambda: ScalarField(grid, values),
            "from_function": lambda: grid.from_function(lambda x, y: x + 1j * y),
        }[build]
        with pytest.raises(ValueError, match=r"real numbers, got dtype complex128$"):
            make()

    def test_string_values_are_rejected(self):
        # float() would parse them
        with pytest.raises(ValueError, match=r"real numbers, got dtype <U3$"):
            GridSpec(8).field(np.full((8, 8), "1.5"))

    def test_integer_and_boolean_values_become_floats(self):
        grid = GridSpec(8)
        for values in ([[1] * 8] * 8, np.ones((8, 8), np.int32), np.ones((8, 8), bool)):
            field = grid.field(values)
            assert field.values.dtype == np.float64 and np.all(field.values == 1.0)

    def test_mixed_grid_arithmetic_rejected(self):
        a = GridSpec(8).constant(1.0)
        b = GridSpec(16).constant(1.0)
        with pytest.raises(GridMismatch):
            a + b


def _trig_polynomial(rng, kmax):
    """Real trigonometric polynomial with |k_x|, |k_y| <= kmax, as fn(x, y)."""
    ks = [(kx, ky) for kx in range(-kmax, kmax + 1) for ky in range(-kmax, kmax + 1)]
    a, b = rng.standard_normal((2, len(ks)))

    def fn(x, y):
        phase = [TWO_PI * (kx * x + ky * y) for kx, ky in ks]
        return sum(ai * np.cos(p) + bi * np.sin(p) for ai, bi, p in zip(a, b, phase))

    return fn


class TestProlong:
    @settings(max_examples=30, deadline=None, database=None)
    @given(
        M=st.sampled_from((8, 16, 32)),
        factor=st.sampled_from((2, 4)),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_exact_on_band_limited_polynomials(self, M, factor, seed, data):
        kmax = data.draw(st.integers(0, M // 2 - 1), label="kmax")
        fn = _trig_polynomial(np.random.default_rng(seed), kmax)
        fine = GridSpec(factor * M)
        got = fine.prolong(GridSpec(M).from_function(fn)).values
        want = fine.from_function(fn).values
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

    def test_coarse_nyquist_mode_dropped(self):
        # cos(pi M x) aliases to an alternating sign on the coarse grid and
        # has no unambiguous continuation: prolong drops it
        coarse = GridSpec(16)
        nyquist = coarse.from_function(lambda x, y: np.cos(TWO_PI * 8 * x))
        assert np.abs(GridSpec(32).prolong(nyquist).values).max() <= 1e-15

    @pytest.mark.parametrize("M", [32, 64])
    def test_only_from_a_coarser_grid(self, M):
        with pytest.raises(ValueError, match="prolong"):
            GridSpec(32).prolong(GridSpec(M).constant(1.0))


class TestIntegrate:
    def test_constant_one(self):
        grid = GridSpec(16)
        assert integrate(grid.constant(1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_single_mode_is_mean_zero(self):
        grid = GridSpec(32)
        f = grid.from_function(lambda x, y: np.sin(TWO_PI * x))
        assert abs(integrate(f)) <= 1e-14

    def test_matches_fsum_oracle(self, rng):
        grid = GridSpec(16)
        f = ScalarField(grid, rng.standard_normal((16, 16)))
        oracle = grid.h**2 * math.fsum(f.values.ravel().tolist())
        assert integrate(f) == pytest.approx(oracle, rel=1e-13)


class TestLaplacian:
    def test_constant_is_harmonic(self):
        grid = GridSpec(16)
        out = laplacian(grid.constant(3.7))
        assert sup_norm(out) <= 1e-12

    def test_fourier_eigenfunction(self):
        grid = GridSpec(32)
        f = grid.from_function(lambda x, y: np.sin(TWO_PI * x))
        expected = -(TWO_PI**2) * f.values
        assert np.max(np.abs(laplacian(f).values - expected)) <= 1e-12 * TWO_PI**2

    def test_output_mean_zero(self, rng):
        grid = GridSpec(32)
        u = smooth_field(grid, rng, kmax=6)
        assert abs(integrate(laplacian(u))) <= 1e-12

    def test_translation_equivariance(self, rng):
        grid = GridSpec(32)
        u = smooth_field(grid, rng, kmax=6)
        shifted = ScalarField(grid, np.roll(u.values, (5, -3), axis=(0, 1)))
        lhs = laplacian(shifted).values
        rhs = np.roll(laplacian(u).values, (5, -3), axis=(0, 1))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.abs(rhs).max())
        assert integrate(shifted) == pytest.approx(integrate(u), abs=1e-14)


class TestGradSquared:
    def test_constant(self):
        grid = GridSpec(16)
        assert sup_norm(grad_squared(grid.constant(2.0))) <= 1e-12

    def test_single_mode(self):
        grid = GridSpec(32)
        f = grid.from_function(lambda x, y: np.sin(TWO_PI * x))
        expected = TWO_PI**2 * np.cos(TWO_PI * grid.X) ** 2
        assert np.max(np.abs(grad_squared(f).values - expected)) <= 1e-12 * TWO_PI**2

    def test_nonnegative(self, rng):
        grid = GridSpec(32)
        u = smooth_field(grid, rng, kmax=8)
        assert grad_squared(u).min() >= -1e-12

    def test_integration_by_parts(self, rng):
        grid = GridSpec(32)
        u = smooth_field(grid, rng, kmax=8)
        lhs = integrate(grad_squared(u))
        rhs = -integrate(u * laplacian(u))
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestSobolevNorm:
    def test_constant(self):
        grid = GridSpec(16)
        for k in (0, 1, 3):
            assert sobolev_norm(grid.constant(-2.5), k) == pytest.approx(2.5, rel=1e-13)

    def test_single_mode_k1(self):
        grid = GridSpec(32)
        f = grid.from_function(lambda x, y: np.sin(TWO_PI * x))
        expected = np.sqrt(0.5 + TWO_PI**2 * 0.5)
        assert sobolev_norm(f, 1) == pytest.approx(expected, rel=1e-12)

    def test_k2_matches_derivative_expansion(self, rng):
        # (1+|k|^2)^2 multiplier == ||u||^2 + 2||grad u||^2 + ||lap u||^2,
        # assembled here with an independent rfft2-based derivative code
        grid = GridSpec(32)
        u = smooth_field(grid, rng, kmax=8)
        vals = u.values
        kx = TWO_PI * np.fft.fftfreq(32, d=grid.h)[:, None]
        ky = TWO_PI * np.fft.rfftfreq(32, d=grid.h)[None, :]
        uh = np.fft.rfft2(vals)
        lap = np.fft.irfft2(-(kx**2 + ky**2) * uh, s=vals.shape)
        ux = np.fft.irfft2(1j * kx * uh, s=vals.shape)
        uy = np.fft.irfft2(1j * ky * uh, s=vals.shape)
        h2 = grid.h**2
        oracle = np.sqrt(
            h2 * np.sum(vals**2)
            + 2 * h2 * np.sum(ux**2 + uy**2)
            + h2 * np.sum(lap**2)
        )
        assert sobolev_norm(u, 2) == pytest.approx(oracle, rel=1e-12)

    def test_monotone_in_k(self, rng):
        grid = GridSpec(32)
        u = smooth_field(grid, rng, kmax=6)
        norms = [sobolev_norm(u, k) for k in range(5)]
        assert all(b >= a for a, b in zip(norms, norms[1:]))

    def test_h0_is_l2(self, rng):
        grid = GridSpec(32)
        u = smooth_field(grid, rng, kmax=6)
        assert sobolev_norm(u, 0) == pytest.approx(l2_norm(u), rel=1e-12)
        assert l2_norm(u) == pytest.approx(np.sqrt(integrate(u * u)), rel=1e-12)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            sobolev_norm(GridSpec(8).constant(1.0), -1)


def _dense_oracle(c, rhs, q):
    """Direct dense solve assembled column-by-column from the same operator."""
    grid = c.grid
    N = grid.N
    nn = N * N
    A = np.empty((nn, nn))
    for j in range(nn):
        e = np.zeros(nn)
        e[j] = 1.0
        A[:, j] = helmholtz_apply(c, ScalarField(grid, e.reshape(N, N)), q).values.ravel()
    return np.linalg.solve(A, (q * q * rhs.values).ravel()).reshape(N, N)


class TestHelmholtz:
    def test_constants_solve_exactly(self):
        grid = GridSpec(16)
        for q in (0.5, 3.0, 40.0):
            u = helmholtz_solve(grid.constant(0.0), grid.constant(1.0), q)
            assert np.max(np.abs(u.values - 1.0)) <= 1e-10

    def test_dense_oracle_agreement(self, rng):
        grid = GridSpec(8)
        q = 6.0
        c = smooth_field(grid, rng, kmax=2, amp=q / 2)
        rhs = smooth_field(grid, rng, kmax=3)
        u = helmholtz_solve(c, rhs, q, tol=1e-12)
        dense = _dense_oracle(c, rhs, q)
        assert np.max(np.abs(u.values - dense)) <= 1e-8 * max(np.abs(dense).max(), 1.0)

    def test_maximum_principle_bound(self, rng):
        grid = GridSpec(32)
        for _ in range(10):
            q = float(np.exp(rng.uniform(np.log(2.0), np.log(100.0))))
            c = smooth_field(grid, rng, kmax=3, amp=rng.uniform(0.1, 0.5) * q)
            rhs = smooth_field(grid, rng, kmax=4)
            u = helmholtz_solve(c, rhs, q, tol=1e-12)
            bound = sup_norm(rhs) / (1.0 - sup_norm(c) / q)
            assert sup_norm(u) <= bound + 1e-8

    def test_l2_stability_bound(self, rng):
        grid = GridSpec(32)
        for _ in range(10):
            q = float(np.exp(rng.uniform(np.log(2.0), np.log(100.0))))
            c = smooth_field(grid, rng, kmax=3, amp=rng.uniform(0.1, 0.5) * q)
            rhs = ScalarField(grid, rng.standard_normal((32, 32)))
            u = helmholtz_solve(c, rhs, q, tol=1e-12)
            assert l2_norm(u) <= l2_norm(rhs) / (1.0 - sup_norm(c) / q) + 1e-8

    def test_linearity_in_rhs(self, rng):
        grid = GridSpec(32)
        q = 11.0
        c = smooth_field(grid, rng, kmax=3, amp=2.0)
        f1 = smooth_field(grid, rng, kmax=4)
        f2 = smooth_field(grid, rng, kmax=4)
        a, b = 1.7, -0.4
        combined = helmholtz_solve(c, a * f1 + b * f2, q, tol=1e-13)
        split = a * helmholtz_solve(c, f1, q, tol=1e-13) + b * helmholtz_solve(
            c, f2, q, tol=1e-13
        )
        scale = max(sup_norm(combined), 1e-30)
        assert sup_norm(combined - split) / scale <= 1e-9

    def test_precondition_violated(self):
        grid = GridSpec(16)
        c = grid.constant(5.0)
        with pytest.raises(PreconditionViolated):
            helmholtz_solve(c, grid.constant(1.0), 4.0)
        with pytest.raises(PreconditionViolated):
            helmholtz_solve(c, grid.constant(1.0), 5.0)

    def test_no_convergence_surfaces(self, rng):
        grid = GridSpec(16)
        c = smooth_field(grid, rng, kmax=2, amp=1.0)
        rhs = smooth_field(grid, rng, kmax=3)
        with pytest.raises(NoConvergence):
            # below the float64 floor: the iteration runs out of its 10 N steps
            helmholtz_solve(c, rhs, 3.0, tol=1e-30)

    @pytest.mark.parametrize("fn", [helmholtz_apply, helmholtz_solve])
    def test_fields_on_different_grids_rejected(self, fn):
        c, u = GridSpec(16).constant(0.5), GridSpec(8).constant(1.0)
        with pytest.raises(GridMismatch, match=r"^fields do not share a grid$"):
            fn(c, u, 3.0)

    @pytest.mark.parametrize("q", [np.nan, np.inf, -np.inf, "3", True])
    def test_non_finite_coupling_is_a_value_error(self, q):
        # as ProblemSpec's q: a NaN passes no comparison with sup|c|, an
        # infinite q makes q^2 + q c a NaN wherever c < 0, a string raised
        # numpy's TypeError and True passed for q = 1
        grid = GridSpec(16)
        c, u = grid.constant(0.5), grid.constant(1.0)
        with pytest.raises(ValueError, match=r"^q must be finite, got "):
            helmholtz_apply(c, u, q)
        with pytest.raises(ValueError, match=r"^q must be finite, got "):
            helmholtz_solve(c, u, q)

    @pytest.mark.parametrize("q", [Fraction(3), Fraction(7, 2), 3, np.float32(3.3)])
    def test_coupling_of_another_real_type_acts_as_its_float(self, rng, q):
        # a Fraction made q * c an object array (numpy's UFuncTypeError in
        # helmholtz_apply, "transforms real arrays, got dtype object" in
        # helmholtz_solve), and a float32 squared itself in float32
        grid = GridSpec(16)
        c = smooth_field(grid, rng, kmax=2, amp=1.0)
        u = smooth_field(grid, rng, kmax=3)
        for fn in (helmholtz_apply, helmholtz_solve):
            assert _same_bits(fn(c, u, q).values, fn(c, u, float(q)).values)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-10, True, "1e-10"])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        # "res > target" is False for a NaN or infinite target, so such a
        # tol would hand back a result nothing checked
        grid = GridSpec(16)
        with pytest.raises(ValueError, match=r"^tol must be finite and >= 0, got "):
            helmholtz_solve(grid.constant(0.5), grid.constant(1.0), 3.0, tol=tol)

    def test_zero_tolerance_asks_for_an_exact_solve(self):
        # no float64 solution has a zero residual, so this is no convergence,
        # never u = 0
        grid = GridSpec(16)
        rhs = grid.from_function(lambda x, y: np.sin(TWO_PI * x))
        with pytest.raises(NoConvergence):
            helmholtz_solve(grid.constant(0.5), rhs, 3.0, tol=0.0)
