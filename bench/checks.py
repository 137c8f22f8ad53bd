"""Output checks computed apart from the program.

Nothing here calls mcsvortex: the Laplacian, the mollified vortex source and
the snapshot reader are written out again from the equations and the
documented file layout, so a fault in the program's own versions cannot
hide itself.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

FOUR_PI = 4.0 * math.pi
SNAPSHOT_MAGIC = b"TVFIELD1"


def laplacian(values: np.ndarray) -> np.ndarray:
    """Spectral Laplacian on the unit torus, symbol -4 pi^2 |k|^2."""
    n = values.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n)
    k2 = (2.0 * math.pi) ** 2 * (k[:, None] ** 2 + k[None, :] ** 2)
    return np.real(np.fft.ifft2(-k2 * np.fft.fft2(values)))


def l2(values: np.ndarray) -> float:
    """Continuum L2 norm on the unit torus (trapezoidal rule)."""
    return float(math.sqrt(np.sum(values * values)) / values.shape[0])


def integral(values: np.ndarray) -> float:
    return float(values.sum()) / values.size


def vortex_source(n: int, points, sigma: float) -> np.ndarray:
    """Sum of periodic Gaussian bumps of width sigma, each of unit integral."""
    xs = np.arange(n) / n
    out = np.zeros((n, n))
    for px, py in points:
        dx = np.stack([xs - px + m for m in (-2, -1, 0, 1, 2)])
        dy = np.stack([xs - py + m for m in (-2, -1, 0, 1, 2)])
        gx = np.exp(-dx * dx / (2.0 * sigma * sigma)).sum(axis=0)
        gy = np.exp(-dy * dy / (2.0 * sigma * sigma)).sum(axis=0)
        bump = np.outer(gx, gy)
        out += bump / integral(bump)
    return out


def linear_model_solution(u_star, v, w, *, s, q, points, sigma, newton_tol) -> list[str]:
    """Problems found in a solution of the linear model f(t) = t.

    Checks the residuals of both coupled equations, flux quantization and
    the pointwise bounds f(0) <= f(e^{u*}), v <= s; returns [] when all hold.
    """
    problems = []
    n = len(points)
    t = np.exp(u_star)
    f, c = t, t  # f(t) = t and c = f'(t) t, valid below the truncation 2s
    res_a = -laplacian(u_star) - q * (v - f) + FOUR_PI * vortex_source(u_star.shape[0], points, sigma)
    res_b = -laplacian(v) - q * (c * (s - v) - q * (v - f))
    for name, res in (("first", res_a), ("second", res_b)):
        if not l2(res) <= newton_tol:
            problems.append(f"{name}-equation residual {l2(res):.3e} > newton_tol {newton_tol:.1e}")
    flux = integral(w)
    if not abs(flux - FOUR_PI * n) <= 1e-6 * FOUR_PI * n:
        problems.append(f"flux {flux!r} != 4 pi n = {FOUR_PI * n!r}")
    slack = 1e-6 + 10.0 * sigma * sigma
    low = min(float(f.min()), float(v.min()))
    high = max(float(f.max()), float(v.max()))
    if low < -slack or high > s + slack:
        problems.append(f"bounds 0 <= f, v <= s broken: range [{low:.6g}, {high:.6g}], s = {s}")
    return problems


def read_snapshot(path: Path) -> np.ndarray:
    """Field values from a snapshot file: magic, uint32 version 1, uint32 N,
    then N*N little-endian float64 in row-major order."""
    blob = Path(path).read_bytes()
    if blob[:8] != SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: bad magic {blob[:8]!r}")
    version, n = struct.unpack_from("<II", blob, 8)
    if version != 1 or len(blob) != 16 + 8 * n * n:
        raise ValueError(f"{path}: version {version}, {len(blob)} bytes for N = {n}")
    return np.frombuffer(blob, dtype="<f8", offset=16).reshape(n, n)


def verify_output_matches(stdout: str, stored_reports: list) -> list[str]:
    """Compare the reports `mcsvortex verify` printed with those the solve
    stored in solution.json, field by field."""
    lines = stdout.splitlines()
    start = next((i for i, line in enumerate(lines) if line.startswith("== ")), None)
    if start is None:
        return ["verify printed no report block"]
    printed = lines[start + 1:start + 1 + len(stored_reports)]
    if len(printed) != len(stored_reports):
        return [f"verify printed {len(printed)} reports, solution.json has {len(stored_reports)}"]
    problems = []
    for line, stored in zip(printed, stored_reports):
        fields = line.split()
        if stored["status"] == "not_applicable":
            expected = [stored["name"], "NOT_APPLICABLE"]
        else:
            expected = [
                stored["name"],
                "PASS" if stored["status"] == "pass" else "FAIL",
                f"disc={stored['abs_discrepancy']:.17e}",
                f"rel={stored['rel_discrepancy']:.17e}",
                f"tol={stored['tolerance']:.3e}",
                f"({stored['tol_kind']})",
            ]
        if fields != expected:
            problems.append(f"verify printed {fields}, solution.json stores {expected}")
    return problems
