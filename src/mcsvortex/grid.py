"""Uniform periodic grid on the unit torus with spectral operators.

Everything in this package lives on [0,1)^2 with total measure 1, sampled on
an N x N grid (N even).  Differential operators are Fourier multipliers on
the half spectrum of the real transform, all built from GridSpec's tables:
the Laplacian symbol is -4*pi^2*|k|^2 for integer wave vectors k, first
derivatives drop the Nyquist mode so that derivatives of real fields stay
real and skew-adjoint.  GridSpec.prolong resamples a field from a coarser
grid by zero-padding its spectrum (_prolonged_spectrum).  Trapezoidal
quadrature (h^2 times the grid sum) is exact for band-limited fields and
pairs with the transforms through the discrete Parseval identity.

The transforms call the pocketfft ufuncs of numpy.fft._pocketfft_umath, a
private module present since numpy 2.0, with the axes and factors that
numpy.fft's wrappers pass them, so they return numpy.fft's floats without
its per-call argument handling.  The ufuncs check no lengths: given an out
array with a short transform axis they compute a shorter transform, so
GridSpec checks every shape itself.  tests/test_grid.py fails if numpy
moves or changes these ufuncs.  They are looked up through np.fft on each
call, so numpy imports numpy.fft on its first use, not with this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, _number

TWO_PI = 2.0 * np.pi

MAX_GRID_N = 4096  # one N x N float64 field is 128 MiB at this size


class GridSpec:
    """Uniform N x N periodic grid on the unit torus, h = 1/N.

    Precomputes the node coordinates x_i = i h (nodes; the meshes X and Y
    are built from them on each read) and the half-spectrum tables of the
    real transform (forward/inverse): rows carry k_x = 0..N/2-1, -N/2..-1,
    columns k_y = 0..N/2.  k2 is the symbol of -Laplacian, ikx and iky
    those of d/dx and d/dy, parseval the quadrature weight of each column.
    Grids compare equal iff they have the same N.
    """

    def __init__(self, N: int):
        # checked before int(), which would truncate 64.5 to 64
        if not (_number(N) and 8 <= N <= MAX_GRID_N and N % 2 == 0):
            raise ValueError(
                f"grid size must be an even integer in [8, {MAX_GRID_N}], got {N!r}"
            )
        N = int(N)
        self.N = N
        self.h = 1.0 / N
        self.nodes = np.arange(N) * self.h
        kx = np.fft.fftfreq(N, d=self.h)[:, None]  # integer wave numbers
        ky = np.fft.rfftfreq(N, d=self.h)[None, :]
        # symbol of -Laplacian (Nyquist kept: even powers are unambiguous)
        self.k2 = (TWO_PI**2) * (kx * kx + ky * ky)
        # Nyquist (index N/2 on both axes) has no first-derivative phase
        kdx, kdy = kx.copy(), ky.copy()
        kdx[N // 2] = kdy[:, N // 2] = 0.0
        self.ikx = (1j * TWO_PI) * kdx
        self.iky = (1j * TWO_PI) * kdy
        # columns 0 and N/2 are self-conjugate, every other column stands
        # for itself and its mirror; 1/N^4 turns coefficients into integrals
        weights = np.full(N // 2 + 1, 2.0)
        weights[[0, -1]] = 1.0
        self.parseval = weights / float(N) ** 4
        # numpy.fft's factor for each inverse pass of length N
        self._inv_n = 1.0 / N
        self._half_shape = (N, N // 2 + 1)

    @property
    def X(self) -> np.ndarray:
        """x coordinate of every node, X[i, j] = nodes[i], as a new array."""
        return np.tile(self.nodes[:, None], (1, self.N))

    @property
    def Y(self) -> np.ndarray:
        """y coordinate of every node, Y[i, j] = nodes[j], as a new array."""
        return np.tile(self.nodes, (self.N, 1))

    def forward(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Half spectrum of a real N x N array, written into out if given
        (a complex N x (N/2 + 1) array).  The two 1-D passes of rfft2, the
        second in place: a real transform along axis 1, then a complex one
        along axis 0.  ValueError for arrays of other shapes, and for
        complex, string or object ones, which the real transform does not
        take."""
        if values.shape != (self.N, self.N):
            raise ValueError(
                f"{self!r} transforms arrays of shape {(self.N, self.N)}, "
                f"got shape {values.shape}"
            )
        if values.dtype.kind not in "biuf":
            raise ValueError(f"{self!r} transforms real arrays, got dtype {values.dtype}")
        if out is None:
            out = np.empty(self._half_shape, dtype=complex)
        elif out.shape != self._half_shape or out.dtype != complex:
            raise ValueError(
                f"{self!r} needs a complex out of shape {self._half_shape}, "
                f"got {out.dtype} of shape {out.shape}"
            )
        pocketfft = np.fft._pocketfft_umath
        pocketfft.rfft_n_even(values, 1, out=out)
        return pocketfft.fft(out, 1, axes=[(0,), (), (0,)], out=out)

    def inverse(self, coeffs: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
        """Real N x N array with the given half spectrum, as a new array.
        The two 1-D passes of irfft2, each scaled by 1/N: a complex inverse
        along axis 0, then a real one of length N along axis 1.  The first
        pass writes into scratch if given (a complex N x (N/2 + 1) array,
        which may be coeffs itself), else into a new array; coeffs is left
        unchanged unless it is the scratch.  ValueError for a half spectrum
        or scratch of another shape, and for a scratch that is not
        complex128."""
        if coeffs.shape != self._half_shape:
            raise ValueError(
                f"{self!r} inverts half spectra of shape {self._half_shape}, "
                f"got shape {coeffs.shape}"
            )
        if scratch is None:
            scratch = np.empty(self._half_shape, dtype=complex)
        elif scratch.shape != self._half_shape or scratch.dtype != complex:
            raise ValueError(
                f"{self!r} needs a complex scratch of shape {self._half_shape}, "
                f"got {scratch.dtype} of shape {scratch.shape}"
            )
        pocketfft = np.fft._pocketfft_umath
        spectrum = pocketfft.ifft(coeffs, self._inv_n, axes=[(0,), (), (0,)], out=scratch)
        return pocketfft.irfft(spectrum, self._inv_n, out=np.empty((self.N, self.N)))

    def outer_spectrum(self, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
        """Half spectrum of the outer product of two length-N arrays, equal
        to forward(np.multiply.outer(gx, gy)) up to roundoff: the product
        fft(gx) (x) rfft(gy) of their 1-D transforms, with no N x N one.
        count_transforms (tests/conftest.py) counts forward and inverse,
        not these 1-D transforms."""
        N = self.N
        if gx.shape != (N,) or gy.shape != (N,):
            raise ValueError(
                f"{self!r} needs two arrays of shape ({N},), got {gx.shape} and {gy.shape}"
            )
        pocketfft = np.fft._pocketfft_umath
        # einsum: np.multiply.outer holds two more N x (N/2 + 1) arrays
        # on the way to its result
        return np.einsum(
            "i,j->ij",
            pocketfft.fft(gx, 1, out=np.empty(N, dtype=complex)),
            pocketfft.rfft_n_even(gy, 1, out=np.empty(N // 2 + 1, dtype=complex)),
        )

    def apply(self, symbol, values: np.ndarray) -> np.ndarray:
        """Fourier multiplier with the given half-spectrum symbol."""
        coeffs = symbol * self.forward(values)
        return self.inverse(coeffs, scratch=coeffs)

    def gradient(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(d/dx, d/dy) of the real array with half spectrum coeffs."""
        return self.inverse(self.ikx * coeffs), self.inverse(self.iky * coeffs)

    def quadratic(self, symbol, coeffs: np.ndarray) -> float:
        """Integral of u * (symbol applied to u) for the real field u with
        half spectrum coeffs, by the discrete Parseval identity."""
        return float(np.sum(self.parseval * symbol * np.abs(coeffs) ** 2))

    def prolong(self, field: "ScalarField") -> "ScalarField":
        """The field of a coarser grid M < N resampled on this one: the
        inverse transform of its half spectrum zero-padded
        (_prolonged_spectrum).  Exact for trigonometric polynomials with
        |k_x|, |k_y| < M/2."""
        return ScalarField(self, self.inverse(_prolonged_spectrum(self, field)))

    def field(self, values) -> "ScalarField":
        return ScalarField(self, values)

    def constant(self, value: float) -> "ScalarField":
        return ScalarField(self, np.full((self.N, self.N), float(value)))

    def from_function(self, fn) -> "ScalarField":
        """Sample fn(x, y) on the grid nodes."""
        return ScalarField(self, fn(self.X, self.Y))

    def __eq__(self, other):
        return isinstance(other, GridSpec) and other.N == self.N

    def __hash__(self):
        return hash(("GridSpec", self.N))

    def __repr__(self):
        return f"GridSpec(N={self.N})"


@dataclass(frozen=True)
class ScalarField:
    """Real scalar field sampled on a GridSpec, immutable after creation.
    ValueError for values of another shape, non-finite ones, and values
    whose dtype is not real (complex, string, object): float() would drop
    an imaginary part with only a ComplexWarning, or parse strings."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.dtype.kind not in "biuf":
            raise ValueError(f"field values must be real numbers, got dtype {v.dtype}")
        v = np.array(v, dtype=float, copy=True)
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


def _prolonged_spectrum(grid: GridSpec, field: ScalarField) -> np.ndarray:
    """Half spectrum on grid of the field of a coarser grid M < N: the
    field's half spectrum zero-padded, the coarse Nyquist row and column
    dropped, and scaled by (N/M)^2.  GridSpec.prolong is its inverse
    transform; a prolonged Newton start keeps it as the start's spectrum,
    which is exactly zero on the band |k| >= M/2."""
    M, N = field.grid.N, grid.N
    if M >= N:
        raise ValueError(f"cannot prolong from {field.grid!r} to {grid!r}")
    coarse = field.grid.forward(field.values) * (N / M) ** 2
    half = M // 2
    coeffs = np.zeros((N, N // 2 + 1), dtype=complex)
    coeffs[:half, :half] = coarse[:half, :half]  # k_x = 0 .. M/2 - 1
    coeffs[1 - half :, :half] = coarse[1 - half :, :half]  # k_x = 1 - M/2 .. -1
    return coeffs


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
    return ScalarField(grid, grid.apply(-grid.k2, field.values))


def gradient(field: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Spectral first derivatives (d/dx, d/dy); Nyquist mode dropped."""
    grid = field.grid
    gx, gy = grid.gradient(grid.forward(field.values))
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
    k2 = grid.k2
    inv_k2 = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0.0)
    return ScalarField(grid, grid.apply(inv_k2, rhs.values))


def sobolev_norm(field: ScalarField, k: int) -> float:
    """H^k norm via the spectral multiplier (1 + 4*pi^2*|k|^2)^k."""
    if k < 0:
        raise ValueError(f"Sobolev index must be >= 0, got {k}")
    grid = field.grid
    return float(np.sqrt(grid.quadratic((1.0 + grid.k2) ** k, grid.forward(field.values))))


def _sobolev_norms(grid: GridSpec, coeffs: np.ndarray) -> tuple[float, float, float]:
    """(H^0, H^1, H^2) norms of the field on grid with half spectrum coeffs,
    equal to sobolev_norm(field, k) for k = 0, 1, 2: the sums of
    GridSpec.quadratic in its order of operations, with |coeffs|^2 formed
    once for the three."""
    power = np.abs(coeffs) ** 2
    return tuple(
        float(np.sqrt(np.sum(grid.parseval * (1.0 + grid.k2) ** k * power)))
        for k in (0, 1, 2)
    )
