"""Command-line driver: `solve`, `sweep`, and `verify`.

Run configurations are flat INI-style files with sections (see
parse_config for the schema).  Exit codes: 0 success with all invariant
checks passing, 1 configuration or snapshot errors, 2 invariant failures
or, for verify, recomputed reports that drift from the stored ones, 3
solver non-convergence.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import diagnostics
from .background import DEFAULT_SIGMA_CELLS, VortexConfig, compute_u0
from .errors import (
    ConfigError,
    MCSVortexError,
    PreconditionViolated,
    SnapshotError,
    SolveFailure,
    _require_whole,
)
from .grid import GridSpec, sup_norm
from .nonlinearity import model_from_name
from .snapshots import FIELD_FILES, read_solution, write_solution, write_text_atomic
from .solver import ProblemSpec, SolutionBundle, _coupling_list, q_sweep, solve_coupled

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK_FAILED = 2

# the record of a failed solve or sweep; it replaces, and is replaced by, the
# record of that command's successful run (solution.json, sweep.tsv)
FAILURE_RECORD = "failure.json"

# what a successful solve writes, the record first: a failed solve removes it all
_SOLVE_OUTPUTS = ("solution.json",) + tuple(f"{name}.fld" for name in FIELD_FILES)


@dataclass
class RunConfig:
    """Validated contents of one configuration file: the problem at q, or
    at q_list[0] when only q_list is given, and what the spec does not
    hold."""

    spec: ProblemSpec
    q: float | None
    q_list: list | None
    out_dir: str


# the configuration schema, keys lower-cased as configparser stores them
_SCHEMA = {
    "model": {"name", "s", "table"},
    "vortices": {"points", "sigma"},
    "grid": {"n"},
    "solver": {"q", "q_list", "newton_tol", "max_newton_iters"},
    "output": {"dir"},
}


def _problem_spec(model, vortices, q, grid: GridSpec, tolerances) -> ProblemSpec:
    """The one ProblemSpec builder, for a run configuration and a stored
    record alike.

    model is {name, s, table}, s and table optional; vortices is {points,
    multiplicities, sigma}, sigma in torus units; tolerances holds the ones
    given, the absent ones take ProblemSpec's defaults; any other entry,
    such as the bound_tol that records still carry, is ignored.  The
    library checks every value: ValueError for invalid data, KeyError,
    TypeError, ... for data of the wrong shape."""
    return ProblemSpec(
        vortices=VortexConfig(
            points=vortices["points"],
            multiplicities=vortices["multiplicities"],
            sigma=vortices["sigma"],
        ),
        model=model_from_name(model["name"], model.get("s"), model.get("table")),
        q=q,
        grid=grid,
        newton_tol=tolerances.get("newton_tol", ProblemSpec.newton_tol),
        max_newton_iters=tolerances.get(
            "max_newton_iters", ProblemSpec.max_newton_iters
        ),
    )


def _load_table(path: Path) -> tuple:
    try:
        data = np.loadtxt(path, comments="#")
    except OSError as exc:
        raise ConfigError(f"[model] table: cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"[model] table: malformed numeric data: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 2:
        raise ConfigError("[model] table: need two columns (t, f)")
    return data[:, 0], data[:, 1]


def parse_config(path) -> RunConfig:
    """Parse a run configuration into a RunConfig.

    Schema (key = value, '#' comments, values may continue onto indented
    lines; any other section or key is an error):

        [model]    name (u1 | cp1 | custom), s (optional), table (custom
                   only, a file of two columns t f)
        [vortices] points (one "x y multiplicity" triple per line), sigma
                   (units of h, default 4, >= 2, <= N/4)
        [grid]     N (even, >= 8)
        [solver]   q or q_list, newton_tol, max_newton_iters (tolerances
                   optional)
        [output]   dir (default "out")

    It checks sections, keys, the syntax of values, the required keys and
    sigma >= 2 cells; the library checks the values (model_from_name,
    VortexConfig, GridSpec, ProblemSpec, _coupling_list), its ValueError
    becomes a ConfigError.  The bounds' slack is fixed (ProblemSpec.bound_tol).
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    unknown = []
    for section in parser.sections():
        if section not in _SCHEMA:
            unknown.append(f"section [{section}]")
            continue
        unknown += [
            f"key [{section}] {key}"
            for key in parser.options(section)
            if key not in _SCHEMA[section]
        ]
    if unknown:
        raise ConfigError(f"unknown {', '.join(unknown)}")

    def get(section, key, default=None):
        if not parser.has_option(section, key):
            return default
        try:
            return parser.get(section, key).strip()
        except configparser.Error as exc:  # a bad %-interpolation
            raise ConfigError(f"[{section}] {key}: {exc}") from exc

    def get_float(section, key, default=None):
        raw = get(section, key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from exc

    model = {"name": get("model", "name"), "s": get_float("model", "s")}
    if (table_path := get("model", "table")) is not None:
        model["table"] = _load_table(path.parent / table_path)

    vortices = {"points": [], "multiplicities": []}
    raw_points = get("vortices", "points", "")
    for lineno, line in enumerate(raw_points.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ConfigError(
                f"[vortices] points line {lineno}: expected 'x y multiplicity', got {line!r}"
            )
        try:
            x, y, m = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"[vortices] points line {lineno}: {exc}") from exc
        vortices["points"].append((x, y))
        vortices["multiplicities"].append(m)
    sigma_cells = get_float("vortices", "sigma", DEFAULT_SIGMA_CELLS)
    if sigma_cells < 2.0:
        raise ConfigError(f"[vortices] sigma must be >= 2 grid cells, got {sigma_cells}")

    raw_n = get("grid", "N")
    if raw_n is None:
        raise ConfigError("[grid] N is required")
    try:
        grid = GridSpec(int(raw_n))
    except ValueError as exc:
        raise ConfigError(f"[grid] N: {exc}") from exc
    vortices["sigma"] = sigma_cells * grid.h

    q = get_float("solver", "q")
    q_list = None
    if (raw_q_list := get("solver", "q_list")) is not None:
        try:
            q_list = [float(tok) for tok in raw_q_list.split()]
        except ValueError as exc:
            raise ConfigError(f"[solver] q_list: {exc}") from exc
    if q is None and q_list is None:
        raise ConfigError("[solver] needs q or q_list")
    tolerances = {
        key: value
        for key in ("max_newton_iters", "newton_tol")
        if (value := get_float("solver", key)) is not None
    }
    out_dir = get("output", "dir", "out")
    try:  # surface the library's validation errors as config errors
        q_list = None if q_list is None else _coupling_list(q_list)
        spec = _problem_spec(
            model, vortices, q if q is not None else q_list[0], grid, tolerances
        )
    except (ValueError, MCSVortexError) as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(spec=spec, q=q, q_list=q_list, out_dir=out_dir)


def _print_reports(reports) -> None:
    width = max(len(r.name) for r in reports)
    for r in reports:
        if r.status == "not_applicable":
            line = f"{r.name:<{width}}  NOT_APPLICABLE"
        else:
            line = (
                f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  "
                f"disc={r.abs_discrepancy:.17e}  rel={r.rel_discrepancy:.17e}  "
                f"tol={r.tolerance:.3e} ({r.tol_kind})"
            )
        print(line)


def cmd_solve(args) -> int:
    cfg = parse_config(args.config)
    if cfg.q is None:
        raise ConfigError("[solver] solve needs a single q")
    out_dir = Path(args.out or cfg.out_dir)
    try:
        bundle = solve_coupled(cfg.spec)
    except SolveFailure as exc:
        return _write_failure(out_dir, cfg.spec, exc, replaces=_SOLVE_OUTPUTS)
    reports = diagnostics.all_reports(bundle)
    write_solution(out_dir, bundle, reports)
    (out_dir / FAILURE_RECORD).unlink(missing_ok=True)
    print(f"converged in {bundle.newton_iters} Newton passes")
    print(f"energy = {bundle.energy_value:.17e}")
    for name, value in bundle.residual_norms.items():
        print(f"residual {name} = {value:.17e}")
    _print_reports(reports)
    print(f"artifacts written to {out_dir}")
    return EXIT_OK if all(not r.failed for r in reports) else EXIT_CHECK_FAILED


def _write_failure(
    out_dir: Path, spec: ProblemSpec, exc: SolveFailure, replaces: tuple
) -> int:
    """Record a failed solve in failure.json, in place of the files a
    successful run writes (replaces: _SOLVE_OUTPUTS or sweep.tsv) that an
    earlier run may have left; name it on stderr and return its exit code."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in replaces:
        (out_dir / name).unlink(missing_ok=True)
    record = {
        "format": "mcsvortex-failure",
        "error": type(exc).__name__,
        "message": str(exc),
        "model": spec.model.name,
        "q": spec.q,
        "N": spec.grid.N,
    }
    write_text_atomic(out_dir / FAILURE_RECORD, json.dumps(record, indent=2) + "\n")
    kind = "invariant" if exc.exit_code == EXIT_CHECK_FAILED else "solver"
    print(f"{kind} failure: {exc}", file=sys.stderr)
    return exc.exit_code


def cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    if cfg.q_list is None or len(cfg.q_list) < 2:
        raise ConfigError("[solver] sweep needs q_list with >= 2 ascending entries")
    out_dir = Path(args.out or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = replace(cfg.spec, q=cfg.q_list[0])
    try:
        table = q_sweep(spec, cfg.q_list)
    except SolveFailure as exc:
        # the shared limit solve failed: no row can be produced
        return _write_failure(out_dir, spec, exc, replaces=("sweep.tsv",))
    table_path = out_dir / "sweep.tsv"
    table.write(table_path)
    (out_dir / FAILURE_RECORD).unlink(missing_ok=True)
    print(f"sweep table written to {table_path}")
    for row in table.rows:
        print(
            f"q={row.q:g}  status={row.status}  d_v={row.d_v:.17e}"
            if row.status == "converged"
            else f"q={row.q:g}  status={row.status}  ({row.message})"
        )
    # the worst row decides: a solver failure (3) over an invariant one (2)
    codes = {cls.status: cls.exit_code for cls in SolveFailure.__subclasses__()}
    return max(codes.get(row.status, EXIT_OK) for row in table.rows)


def bundle_from_snapshot(path) -> tuple[SolutionBundle, dict]:
    """Rebuild a SolutionBundle from stored fields and metadata.  The
    record's residual norms and energy are not read back: the bundle
    derives its own from the fields.

    Raises SnapshotError, naming the file, for a record whose problem data
    is missing, mistyped or out of range."""
    meta, fields = read_solution(path)
    try:
        spec = _problem_spec(
            meta["model"], meta["vortices"], meta["q"], fields["u"].grid,
            meta.get("tolerances", {}),
        )
        newton_iters = _require_whole("newton_iters", meta.get("newton_iters", 0), 0)
        background = compute_u0(spec.vortices, spec.grid)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"{path}: malformed solution record: {exc!r}") from exc
    except MCSVortexError as exc:
        # sigma below 2h, or multiplicities so large that e^u0 overflows
        raise SnapshotError(f"{path}: {exc}") from exc
    if sup_norm(background.u0 - fields["u0"]) > 1e-10:
        raise SnapshotError(
            f"{path}: stored u0 does not match its vortex configuration"
        )
    bundle = SolutionBundle(
        spec=spec,
        background=background,
        u=fields["u"],
        v=fields["v"],
        w=fields["w"],
        newton_iters=newton_iters,
    )
    try:  # the state and its weighted gradient all_reports reads, cached
        bundle._state("stored state").wg
    except (ValueError, MCSVortexError) as exc:
        # e^(u0+u) overflows, or the background weight does (PreconditionViolated)
        raise SnapshotError(f"{path}: {exc}") from exc
    return bundle, meta


def _report_drift(reports, stored: list) -> list[str]:
    """Names of the recomputed reports that differ from the stored ones as
    canonical JSON, or a count mismatch; empty when they agree."""
    if len(reports) != len(stored):
        return [f"{len(reports)} reports recomputed, {len(stored)} stored"]
    return [
        f"report {report.name!r} differs from the stored record"
        for report, old in zip(reports, stored)
        if json.dumps(report.to_dict(), sort_keys=True) != json.dumps(old, sort_keys=True)
    ]


def cmd_verify(args) -> int:
    any_failed = False
    for target in args.snapshots:
        try:
            bundle, meta = bundle_from_snapshot(target)
        except MCSVortexError as exc:
            print(f"snapshot error: {exc}", file=sys.stderr)  # exc names the file
            return EXIT_CONFIG
        reports = diagnostics.all_reports(bundle)
        print(f"== {target}")
        _print_reports(reports)
        drift = _report_drift(reports, meta.get("reports", []))
        for line in drift:
            print(f"drift: {target}: {line}", file=sys.stderr)
        any_failed |= bool(drift) or any(r.failed for r in reports)
    return EXIT_CHECK_FAILED if any_failed else EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mcsvortex",
        description="Spectral solver and verification harness for "
        "Maxwell-Chern-Simons vortex systems on the unit torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve at a single coupling")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(fn=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="warm-started sweep over q_list")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_verify = sub.add_parser("verify", help="re-check stored snapshots")
    p_verify.add_argument("snapshots", nargs="+")
    p_verify.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, PreconditionViolated) as exc:
        # PreconditionViolated: compute_u0 cannot represent the configured
        # vortices' background (a multiplicity so large that e^u0 overflows)
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
