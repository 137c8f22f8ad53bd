import collections
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from mcsvortex import GridSpec, ScalarField

# every property test prints the blob that reproduces a failure it finds
settings.register_profile("mcsvortex", print_blob=True)
settings.load_profile("mcsvortex")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def smooth_field(grid: GridSpec, rng, kmax: int = 4, amp: float = 1.0) -> ScalarField:
    """Random real field band-limited to |k_x|, |k_y| <= kmax, sup-scaled to amp."""
    noise = rng.standard_normal((grid.N, grid.N))
    fh = np.fft.fft2(noise)
    k = np.fft.fftfreq(grid.N, d=grid.h)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    fh[(np.abs(kx) > kmax) | (np.abs(ky) > kmax)] = 0.0
    vals = np.real(np.fft.ifft2(fh))
    scale = np.abs(vals).max()
    if scale > 0.0:
        vals = vals * (amp / scale)
    return ScalarField(grid, vals)


def count_transforms(monkeypatch):
    """Counter of GridSpec.forward and GridSpec.inverse calls under key
    "transforms", and per grid size N under ("transforms", N): the
    package's one N x N transform path (tests/test_api.py keeps every other
    module off numpy.fft and scipy.fft).  The 1-D transforms of
    GridSpec.outer_spectrum are not counted."""
    counts = collections.Counter()
    for name in ("forward", "inverse"):
        original = getattr(GridSpec, name)

        def counted(grid, *args, _fn=original, **kwargs):
            counts["transforms"] += 1
            counts["transforms", grid.N] += 1
            return _fn(grid, *args, **kwargs)

        monkeypatch.setattr(GridSpec, name, counted)
    return counts


def peak_fields(fn, grid: GridSpec) -> float:
    """The tracemalloc peak of the call fn(), above what was traced when it
    began, in units of one N x N float64 field of grid."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return (peak - base) / (grid.N * grid.N * 8)
