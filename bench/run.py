"""mcsvortex benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload solve_large --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/`.  Operations run one at a time in this one thread (a closed loop),
with the BLAS/OpenMP pools capped at one thread and MCSVORTEX_THREADS unset.

--trace 0 prints the end-to-end metrics: set-up time, the median time of one
unit of the workload's operations, and peak memory.  Both times are
normalized to the machine's speed by a reference kernel timed next to them
(see README.md).  --trace 1 alternates untraced rounds with traced ones and
prints the per-layer metrics of the traced units plus the tracing overhead;
its spans go to bench/out/.  Either way the last line of standard output is
one JSON object, the line before it holds the deterministic work counters
of each operation, and the line before that the raw wall times.  --quick
runs the same workloads at N = 64, for the benchmark's own test.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MCSVORTEX_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tr  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 7

# set-up in a fresh process: import the package, then build the inputs
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import workloads
workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4])
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {"op_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "mcsvortex" / "__init__.py").is_file():
        print(f"no mcsvortex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    import mcsvortex

    if Path(mcsvortex.__file__).resolve().parent != SRC / "mcsvortex":
        print(f"imported mcsvortex from {mcsvortex.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tracer = tr.Tracer()
    try:
        setup = [] if args.trace else [
            setup_seconds(args, tracer, workdir / f"setup-{i}") for i in range(SETUP_REPEATS)]
        inputs = workload.build(args.seed, args.quick, workdir / "run")
        tracer.install()
        try:
            problems = run_rounds(workload, inputs, tracer, args.seconds, args.trace)
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops, units = tracer.ops, tracer.units
    problems += counter_mismatches(ops)
    if args.trace:
        metrics = per_layer(tracer, units)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "op_norm_s": statistics.median(unit_seconds(units, traced=False)),
            "setup_s": statistics.median(norm for _, norm in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    wall = {"unit_s": unit_seconds(units, traced=False, normalized=False),
            "reference_s": [u["ref_s"] for u in units]}
    for name in dict.fromkeys(r["name"] for r in ops):
        wall[f"{name}_s"] = [r["seconds"] for r in ops
                             if r["name"] == name and r["ok"] and not r["traced"]]
    if setup:
        wall["setup_s"] = [raw for raw, _ in setup]
    print(f"{args.workload} seed={args.seed} units={len(units)} wall medians: "
          + " ".join(f"{k}={statistics.median(v):.4f}" for k, v in wall.items() if v))
    first = {}
    for record in ops:
        first.setdefault(record["name"], tr.work_counts(record["counts"]))
    print(json.dumps({"counters": first}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(not r["ok"] for r in ops),
        "metrics": metrics,
    }))
    return 0


def setup_seconds(args, tracer, workdir: Path) -> tuple[float, float]:
    """Raw and normalized set-up time of one fresh process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    before = tracer.reference_seconds()
    probe = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, args.workload, str(args.seed),
         "1" if args.quick else "0", str(workdir)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    reference = (before + tracer.reference_seconds()) / 2
    seconds = float(probe.stdout.split()[-1])
    return seconds, seconds * tr.REFERENCE_NOMINAL_S / reference


def run_rounds(workload, inputs, tracer, seconds: float, trace: int) -> list[str]:
    """Whole rounds until `seconds` have passed; with tracing, every second
    round is traced, and there is at least one round of each kind."""
    problems = []
    deadline = time.perf_counter() + seconds
    n = 0
    while n < 1 + trace or time.perf_counter() < deadline:
        tracer.level = tr.SPANS if trace and n % 2 else tr.COUNT
        problems += workload.run_round(inputs, tracer)
        n += 1
    tracer.level = tr.OFF
    return problems


def unit_seconds(units, traced: bool, normalized: bool = True) -> list[float]:
    """Time of each successful unit, traced or untraced, normalized by the
    reference kernel timed around it unless `normalized` is false."""
    out = []
    for unit in units:
        if unit["traced"] == traced and all(r["ok"] for r in unit["ops"]):
            seconds = sum(r["seconds"] for r in unit["ops"])
            out.append(seconds * tr.REFERENCE_NOMINAL_S / unit["ref_s"] if normalized else seconds)
    return out


def counter_mismatches(ops: list) -> list[str]:
    """The same operation on the same inputs must do exactly the same work."""
    seen = {}
    problems = []
    for record in ops:
        counts = tr.work_counts(record["counts"])
        expected = seen.setdefault(record["name"], counts)
        if counts != expected:
            problems.append(f"{record['name']}: work counters {counts} != {expected}")
    return problems


def per_layer(tracer, units) -> dict:
    """Median over the successful traced units of each per-layer metric."""
    samples = [tr.layer_metrics(tracer, unit["ops"]) for unit in units
               if unit["traced"] and all(r["ok"] for r in unit["ops"])]
    metrics = {name: statistics.median(s[name] for s in samples) for name in tr.PER_LAYER_UNITS}
    metrics = {k: {"value": v, "unit": tr.PER_LAYER_UNITS[k]} for k, v in metrics.items()}
    overhead = (statistics.median(unit_seconds(units, traced=True))
                - statistics.median(unit_seconds(units, traced=False)))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
