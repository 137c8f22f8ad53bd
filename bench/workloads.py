"""The benchmark's workloads: inputs made from a seed, one round of
operations, and the checks on every output.

Each workload runs whole rounds of the same operations, one call at a time
in one thread.  The seed rigidly translates the vortex layout by a random
offset on the torus; the problem is translation-invariant, so the outcome
of every operation does not depend on it, while the grid samples of every
field do.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import mcsvortex as mv
from mcsvortex import cli

import checks

FOUR_PI = checks.FOUR_PI


def torus_offset(seed: int) -> tuple[float, float]:
    rng = random.Random(seed)
    return rng.random(), rng.random()


def translate(points, offset) -> tuple:
    return tuple(((x + offset[0]) % 1.0, (y + offset[1]) % 1.0) for x, y in points)


def linear_spec(n_grid: int, points, s: float, q: float, **tolerances) -> mv.ProblemSpec:
    grid = mv.GridSpec(n_grid)
    vortices = mv.VortexConfig(points=points, multiplicities=(1,) * len(points),
                               sigma=4 * grid.h)
    return mv.ProblemSpec(model=mv.u1_model(s), vortices=vortices, q=q, grid=grid,
                          **tolerances)


def check_bundle(bundle) -> list[str]:
    spec = bundle.spec
    return checks.linear_model_solution(
        bundle.u_star.values, bundle.v.values, bundle.w.values,
        s=spec.model.s, q=spec.q, points=spec.vortices.points,
        sigma=spec.vortices.sigma, newton_tol=spec.newton_tol)


class SolveLarge:
    """Cold `solve_coupled` with one vortex at N = 256, three times per
    round, then once the same solve at the default newton_tol, which sits
    below the residual's float64 floor and fails every time."""

    name = "solve_large"
    solves_per_round = 3

    def build(self, seed: int, quick: bool, workdir: Path) -> dict:
        points = translate(((0.5, 0.5),), torus_offset(seed))
        spec = linear_spec(64 if quick else 256, points, 9.0, 40.0, newton_tol=8e-6)
        return {"spec": spec, "default_tol": replace(spec, newton_tol=mv.ProblemSpec.newton_tol)}

    def run_round(self, inputs: dict, tracer) -> list[str]:
        problems = []
        for _ in range(self.solves_per_round):
            with tracer.unit(), tracer.op("solve") as record:
                bundle = mv.solve_coupled(inputs["spec"])
                record["ok"] = True
            with tracer.paused():
                problems += check_bundle(bundle)
        with tracer.op("solve_default_tol") as record:
            try:
                bundle = mv.solve_coupled(inputs["default_tol"])
                record["ok"] = True
            except mv.NoConvergence:
                bundle = None
        if bundle is not None:
            with tracer.paused():
                problems += check_bundle(bundle)
        return problems


class SweepMulti:
    """Warm-started `q_sweep` over four couplings with three unit vortices
    at N = 128."""

    name = "sweep_multi"
    q_list = (20.0, 40.0, 80.0, 160.0)

    def build(self, seed: int, quick: bool, workdir: Path) -> dict:
        layout = ((0.25, 0.25), (0.75, 0.25), (0.5, 0.75))
        points = translate(layout, torus_offset(seed))
        return {"spec": linear_spec(64 if quick else 128, points, 16.0, self.q_list[0])}

    def run_round(self, inputs: dict, tracer) -> list[str]:
        with tracer.unit(), tracer.op("sweep") as record:
            table = mv.q_sweep(inputs["spec"], self.q_list)
            record["ok"] = True
        rows = table.rows
        problems = [f"q={row.q:g}: {row.status} {row.message}"
                    for row in rows if row.status != "converged"]
        if problems:
            return problems
        for key in ("d_eu", "d_v", "d_w"):
            values = [getattr(row, key) for row in rows]
            if not all(b < a for a, b in zip(values, values[1:])):
                problems.append(f"{key} does not strictly decrease in q: {values}")
        if not rows[-1].d_v <= rows[0].d_v / 4.0:
            problems.append(f"d_v(160) = {rows[-1].d_v:.6g} > d_v(20)/4 = {rows[0].d_v / 4:.6g}")
        return problems


class CliRoundTrip:
    """`mcsvortex solve --config` into a fresh directory, then
    `mcsvortex verify` on it, both in-process through the CLI's main."""

    name = "cli_roundtrip"

    def build(self, seed: int, quick: bool, workdir: Path) -> dict:
        (x, y), = translate(((0.5, 0.5),), torus_offset(seed))
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        config = workdir / "run.cfg"
        config.write_text(
            "[model]\nname = u1\ns = 9.0\n\n"
            f"[vortices]\npoints = {x!r} {y!r} 1\nsigma = 4.0\n\n"
            f"[grid]\nN = {64 if quick else 128}\n\n"
            "[solver]\nq = 40.0\n")
        return {"config": config, "workdir": workdir, "rounds": 0}

    def run_round(self, inputs: dict, tracer) -> list[str]:
        inputs["rounds"] += 1
        out = inputs["workdir"] / f"round-{inputs['rounds']}"
        with tracer.unit():
            with captured_stdout(inputs["workdir"]) as solve_log, tracer.op("cli_solve") as record:
                code = cli.main(["solve", "--config", str(inputs["config"]), "--out", str(out)])
                record["ok"] = code == 0
            with captured_stdout(inputs["workdir"]) as verify_log, tracer.op("cli_verify") as record:
                verify_code = cli.main(["verify", str(out)])
                record["ok"] = verify_code == 0
        problems = []
        if code != 0 or verify_code != 0:
            problems.append(f"exit codes: solve {code}, verify {verify_code}; "
                            f"{solve_log.getvalue()[-300:]!r}")
        else:
            w = checks.read_snapshot(out / "w.fld")
            flux = checks.integral(w)
            if not abs(flux - FOUR_PI) <= 1e-6 * FOUR_PI:
                problems.append(f"w.fld flux {flux!r} != 4 pi")
            stored = json.loads((out / "solution.json").read_text())["reports"]
            problems += checks.verify_output_matches(verify_log.getvalue(), stored)
        shutil.rmtree(out, ignore_errors=True)
        return problems


WORKLOADS = {wl.name: wl for wl in (SolveLarge(), SweepMulti(), CliRoundTrip())}


@contextlib.contextmanager
def captured_stdout(workdir: Path):
    """Collect what is written to file descriptor 1.  The CLI's report
    printer holds on to the sys.stdout of import time, so swapping
    sys.stdout would not catch it."""
    sys.stdout.flush()
    saved = os.dup(1)
    sink = io.StringIO()
    with tempfile.TemporaryFile("w+", dir=workdir) as tmp:
        os.dup2(tmp.fileno(), 1)
        try:
            yield sink
        finally:
            sys.stdout.flush()
            os.dup2(saved, 1)
            os.close(saved)
            tmp.seek(0)
            sink.write(tmp.read())
