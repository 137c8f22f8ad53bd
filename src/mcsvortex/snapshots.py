"""Field snapshots and the solve summary record.

Snapshot layout (all little-endian):

    bytes 0..7    magic b"TVFIELD1"
    uint32        format version (currently 1)
    uint32        N, grid points per axis
    N*N float64   field values, row-major

A solve directory holds one snapshot per field (u.fld, v.fld, w.fld,
u0.fld) next to a self-describing solution.json carrying the problem data,
residuals, and every invariant report, so stored results can be re-verified
without the original config file.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import SnapshotError, _number
from .grid import GridSpec, ScalarField

MAGIC = b"TVFIELD1"
VERSION = 1

FIELD_FILES = ("u", "v", "w", "u0")


def _write_atomic(path, *chunks: bytes) -> None:
    """Write the chunks to path through a temporary sibling renamed into
    place, so that no reader ever sees a half-written file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_field(path, field: ScalarField) -> None:
    _write_atomic(
        path,
        MAGIC,
        struct.pack("<II", VERSION, field.grid.N),
        field.values.astype("<f8").tobytes(order="C"),
    )


def write_text_atomic(path, text: str) -> None:
    """Write text to path atomically (see _write_atomic)."""
    _write_atomic(path, text.encode())


def read_field(path, grid: GridSpec | None = None) -> ScalarField:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    header = struct.calcsize("<II")
    if len(blob) < len(MAGIC) + header or blob[: len(MAGIC)] != MAGIC:
        raise SnapshotError(f"{path} is not a field snapshot (bad magic)")
    version, n = struct.unpack_from("<II", blob, len(MAGIC))
    if version != VERSION:
        raise SnapshotError(f"{path}: unsupported snapshot version {version}")
    payload = blob[len(MAGIC) + header :]
    if len(payload) != 8 * n * n:
        raise SnapshotError(f"{path}: truncated payload for N={n}")
    values = np.frombuffer(payload, dtype="<f8").reshape(n, n).astype(float)
    if grid is not None and grid.N != n:
        raise SnapshotError(f"{path}: grid N={n} does not match expected N={grid.N}")
    try:
        return ScalarField(grid or GridSpec(n), values)
    except ValueError as exc:
        raise SnapshotError(f"{path}: {exc}") from exc


def write_solution(out_dir, bundle, reports) -> Path:
    """Write field snapshots plus solution.json; returns the json path.

    A solution.json already in out_dir is removed before the snapshots are
    overwritten, and the new one is written last, so the record never
    describes fields it was not written with."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "solution.json"
    path.unlink(missing_ok=True)
    spec = bundle.spec
    cfg = spec.vortices
    fields = {
        "u": bundle.u,
        "v": bundle.v,
        "w": bundle.w,
        "u0": bundle.background.u0,
    }
    for name, field in fields.items():
        write_field(out_dir / f"{name}.fld", field)
    meta = {
        "format": "mcsvortex-solution",
        "version": VERSION,
        "model": {"name": spec.model.name, "s": spec.model.s},
        "vortices": {
            "points": [list(p) for p in cfg.points],
            "multiplicities": list(cfg.multiplicities),
            "sigma": cfg.sigma,
        },
        "grid": {"N": spec.grid.N},
        "q": spec.q,
        "tolerances": {
            "newton_tol": spec.newton_tol,
            "max_newton_iters": spec.max_newton_iters,
            "bound_tol": spec.bound_tol,  # for older readers; not read back
        },
        "residual_norms": bundle.residual_norms,
        "newton_iters": bundle.newton_iters,
        "energy": bundle.energy_value,
        "reports": [r.to_dict() for r in reports],
        "fields": {name: f"{name}.fld" for name in fields},
    }
    if spec.model.table is not None:
        meta["model"]["table"] = [list(column) for column in spec.model.table]
    write_text_atomic(path, json.dumps(meta, indent=2) + "\n")
    return path


def locate_solution(path) -> Path:
    path = Path(path)
    if path.is_dir():
        path = path / "solution.json"
    elif path.suffix == ".fld":
        path = path.parent / "solution.json"
    if not path.is_file():
        raise SnapshotError(f"no solution.json found at or beside {path}")
    return path


def read_solution(path) -> tuple[dict, dict]:
    """Load (metadata, fields) from a solve directory or solution.json path.

    The fields are the snapshots FIELD_FILES names, read from beside
    solution.json; the record's "fields" map is not consulted.
    SnapshotError where the record's "version" is missing or not VERSION."""
    json_path = locate_solution(path)
    try:
        meta = json.loads(json_path.read_text())
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"cannot parse {json_path}: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("format") != "mcsvortex-solution":
        raise SnapshotError(f"{json_path} is not a solution record")
    version = meta.get("version")  # every record written carries it
    if not (_number(version) and version == VERSION):
        raise SnapshotError(f"{json_path}: unsupported record version {version!r}")
    try:
        grid = GridSpec(meta["grid"]["N"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SnapshotError(f"{json_path}: missing or invalid grid data: {exc}") from exc
    if not isinstance(meta.get("reports", []), list):
        raise SnapshotError(f"{json_path}: 'reports' must be a list")
    fields = {
        name: read_field(json_path.parent / f"{name}.fld", grid) for name in FIELD_FILES
    }
    return meta, fields
