"""Print SHA-256 digests of the benchmark workloads' outputs, to compare two
source checkouts bit for bit with one diff:

    python3 tools/outputs_digest.py OLD_CHECKOUT --seed 1 > old.txt
    python3 tools/outputs_digest.py . --seed 1 > new.txt
    diff old.txt new.txt

SRC_DIR is the root of a source checkout.  The package is imported from its
src/, and the inputs are built at full size by its bench/workloads.py, as
bench/run.py builds them for the given seed.  The BLAS pools are capped at
one thread, as in bench/run.py, so the digests do not depend on the thread
count.  One line per output, "<name> <sha256>":

- solve_large: u, v, w, the residual norms and the Newton passes of the
  cold N = 256 solve; the outcome of the same solve at the default
  newton_tol, "converged" or its failure message; and, where it converged,
  the same five lines for it.  A pass count or an outcome follows its
  digest;
- sweep_multi: the sweep table as q_sweep writes it;
- cli_roundtrip: solution.json and the four .fld files that `mcsvortex
  solve` writes, and what `mcsvortex verify` prints, with its exit code.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MCSVORTEX_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402


def digest(data) -> str:
    """SHA-256 of bytes, of a string's UTF-8 or of an array's raw values."""
    if isinstance(data, str):
        data = data.encode()
    elif not isinstance(data, bytes):
        data = data.tobytes()
    return hashlib.sha256(data).hexdigest()


def with_digest(text: str) -> str:
    """A short text after its digest, for a line that shows what it holds."""
    return f"{digest(text)} {text}"


def solve_large(mv, workloads, seed: int, workdir: Path):
    from mcsvortex.errors import SolveFailure

    inputs = workloads.WORKLOADS["solve_large"].build(seed, False, workdir)
    yield from solved(mv.solve_coupled(inputs["spec"]))
    try:
        bundle = mv.solve_coupled(inputs["default_tol"])
        message = "converged"
    except SolveFailure as exc:
        bundle, message = None, f"{type(exc).__name__}: {exc}"
    yield "default_tol", with_digest(message)
    if bundle is not None:
        for name, line in solved(bundle):
            yield f"default_tol.{name}", line


def solved(bundle):
    """Lines of a converged bundle: u, v, w, its residual norms and its
    Newton passes."""
    for name in ("u", "v", "w"):
        yield name, digest(getattr(bundle, name).values)
    yield "residual_norms", digest(json.dumps(bundle.residual_norms))
    yield "newton_iters", with_digest(str(bundle.newton_iters))


def sweep_multi(mv, workloads, seed: int, workdir: Path):
    workload = workloads.WORKLOADS["sweep_multi"]
    spec = workload.build(seed, False, workdir)["spec"]
    yield "tsv", digest(mv.q_sweep(spec, workload.q_list).to_tsv())


def cli_roundtrip(mv, workloads, seed: int, workdir: Path):
    from mcsvortex import cli

    config = workloads.WORKLOADS["cli_roundtrip"].build(seed, False, workdir)["config"]
    out = workdir / "out"
    with workloads.captured_stdout(workdir):
        code = cli.main(["solve", "--config", str(config), "--out", str(out)])
    if code != 0:
        raise SystemExit(f"mcsvortex solve exited {code}")
    for name in ("solution.json", "u.fld", "v.fld", "w.fld", "u0.fld"):
        yield name, digest((out / name).read_bytes())
    with workloads.captured_stdout(workdir) as log:
        code = cli.main(["verify", str(out)])
    yield "verify", digest(f"exit {code}\n" + log.getvalue().replace(str(out), "OUT"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_dir", metavar="SRC_DIR", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    root = args.src_dir.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads

    import mcsvortex as mv

    if Path(mv.__file__).resolve().parent != root / "src" / "mcsvortex":
        print(f"imported mcsvortex from {mv.__file__}, not {root / 'src'}", file=sys.stderr)
        return 2
    for workload in (solve_large, sweep_multi, cli_roundtrip):
        with tempfile.TemporaryDirectory() as tmp:
            for name, line in workload(mv, workloads, args.seed, Path(tmp)):
                print(f"{workload.__name__}.{name} {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
