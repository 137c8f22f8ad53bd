"""Work counters and spans recorded around the calls into each mcsvortex layer.

Everything here acts from outside the package: the functions are replaced,
for the life of one benchmark process, in every module namespace that binds
them, and the originals are put back by `Tracer.uninstall`.  Nothing under
`src/` is edited.

The tracer has three levels:

* OFF    -- every wrapper calls straight through (used while the benchmark
            checks outputs, so its own transforms are not counted);
* COUNT  -- the deterministic work counters only, one integer increment per
            counted event; this is the level of every untraced run;
* SPANS  -- counters plus one span (name, start, end, parent, op) per call,
            kept in memory and written out when the run ends.

Next to every unit of work it times, the tracer also times a fixed numpy
kernel, the reference, so that the run can report times normalized to the
machine's speed at that moment (see `unit`).
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

OFF, COUNT, SPANS = 0, 1, 2

# the 2-D transform entry points, complex and real, of numpy.fft and scipy.fft
FFT_NAMES = ("fft2", "ifft2", "rfft2", "irfft2")

# the counters every run reports, traced or not
WORK_COUNTERS = (
    "grid.fft2_calls",
    "solver.newton_steps",
    "solver.krylov_iters",
    "nonlinearity.evals",
    "diagnostics.state_evals",
)

# the reference kernel's time on this machine when it is quiet; normalized
# times are wall times scaled by REFERENCE_NOMINAL_S / measured reference time
REFERENCE_NOMINAL_S = 0.05

LAYERS = ("grid", "background", "nonlinearity", "solver", "diagnostics", "snapshots", "cli")

# per-layer metrics of a traced round, with their units
PER_LAYER_UNITS = {
    "grid.fft2_calls": "count",
    "grid.fft2_s": "s",
    "grid.fft2_bytes": "B",
    "background.compute_u0_calls": "count",
    "background.compute_u0_s": "s",
    "nonlinearity.evals": "count",
    "nonlinearity.eval_s": "s",
    "solver.newton_steps": "count",
    "solver.limit_s": "s",
    "solver.minres_calls": "count",
    "solver.krylov_iters": "count",
    "solver.minres_s": "s",
    "solver.hessian_matvecs": "count",
    "solver.hessian_matvec_s": "s",
    "solver.precond_applies": "count",
    "solver.precond_s": "s",
    "solver.minres_overhead_s": "s",
    "solver.minres_nonconverged": "count",
    "solver.newton_self_s": "s",
    "diagnostics.all_reports_s": "s",
    "diagnostics.state_evals": "count",
    "diagnostics.convergence_metrics_s": "s",
    "snapshots.write_s": "s",
    "snapshots.read_s": "s",
    "snapshots.bytes_written": "B",
    "cli.parse_config_s": "s",
    "cli.bundle_from_snapshot_s": "s",
    "cli.solve_s": "s",
    "cli.verify_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
}


class Tracer:
    def __init__(self) -> None:
        self.level = OFF
        self.counts: collections.Counter = collections.Counter()
        # span: [name, start, end, parent index, op index]; -1 for no parent
        self.spans: list[list] = []
        # one record per benchmark operation, see `op`
        self.ops: list[dict] = []
        self._stack: list[int] = []
        self._op = -1
        self._in_reports = 0
        self._patches: list[tuple[object, str, object]] = []
        # one record per unit, see `unit`
        self.units: list[dict] = []
        self._reference = []
        for n, repeats in ((256, 6), (128, 24)):
            k = np.fft.fftfreq(n, d=1.0 / n)
            smoothing = 1.0 / (1.0 + k[:, None] ** 2 + k[None, :] ** 2)
            field = np.random.default_rng(n).standard_normal((n, n))
            self._reference.append((smoothing, field, repeats))

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, name: str):
        """Time one benchmark operation and keep its counters and spans.

        The caller sets record["ok"]; the record gets the wall time, the
        counter increments made inside, and the range of its spans.
        """
        record = {"name": name, "ok": False, "traced": self.level == SPANS,
                  "first_span": len(self.spans)}
        before = self.counts.copy()
        if self.level == SPANS:
            self._op = len(self.ops)
            root = self._open("op." + name)
        t0 = time.perf_counter()
        try:
            yield record
        finally:
            record["seconds"] = time.perf_counter() - t0
            if self.level == SPANS:
                self._close(root)
                self._op = -1
            record["end_span"] = len(self.spans)
            record["counts"] = dict(self.counts - before)
            self.ops.append(record)

    def reference_seconds(self) -> float:
        """Wall time of one run of the reference kernel: 2-D transforms and
        pointwise work on 256 x 256 and 128 x 128 grids, the sizes of the
        workloads, computed by numpy alone so that no change to the program
        changes it."""
        with self.paused():
            t0 = time.perf_counter()
            for smoothing, field, repeats in self._reference:
                for _ in range(repeats):
                    field = 3.0 * np.real(np.fft.ifft2(smoothing * np.fft.fft2(np.tanh(field))))
            return time.perf_counter() - t0

    @contextlib.contextmanager
    def unit(self):
        """Group the operations that one end-to-end sample times.

        The reference kernel runs just before and just after the group; the
        unit record keeps the operations and the mean of the two reference
        times.
        """
        first = len(self.ops)
        traced = self.level == SPANS
        before = self.reference_seconds()
        yield
        self.units.append({"ops": self.ops[first:], "traced": traced,
                           "ref_s": (before + self.reference_seconds()) / 2})

    @contextlib.contextmanager
    def paused(self):
        """Neither count nor trace, e.g. while the benchmark checks outputs."""
        level, self.level = self.level, OFF
        try:
            yield
        finally:
            self.level = level

    def span_call(self, name: str, fn, on_result=None):
        """Wrapper that records a span around fn at SPANS level."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.level != SPANS:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new, modules) -> None:
        """Rebind every module-level name that refers to `original`."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, new)

    def install(self) -> None:
        import numpy.fft
        import scipy.fft
        import scipy.sparse.linalg
        from scipy.sparse.linalg import LinearOperator

        import mcsvortex
        from mcsvortex import background, cli, diagnostics, snapshots, solver
        from mcsvortex.nonlinearity import NonlinearityModel

        pkg = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "mcsvortex" or name.startswith("mcsvortex."))]
        tracer = self

        # 2-D transforms: counted at every level above OFF
        for owner in (numpy.fft, scipy.fft):
            for fname in FFT_NAMES:
                original = getattr(owner, fname, None)
                if original is None:
                    continue

                def fft(*args, _fn=original, **kwargs):
                    if tracer.level == OFF:
                        return _fn(*args, **kwargs)
                    tracer.counts["grid.fft2_calls"] += 1
                    if tracer.level == COUNT:
                        return _fn(*args, **kwargs)
                    idx = tracer._open("grid.fft2")
                    try:
                        out = _fn(*args, **kwargs)
                    finally:
                        tracer._close(idx)
                    tracer.counts["grid.fft2_bytes"] += np.asarray(args[0]).nbytes + out.nbytes
                    return out

                functools.update_wrapper(fft, original)
                self._replace_everywhere(original, fft, pkg)
                self._replace(owner, fname, fft)

        # pointwise nonlinearity: evaluations, and those inside all_reports
        eval_arrays = NonlinearityModel._eval_arrays

        def nonlinearity_eval(model, t):
            if tracer.level == OFF:
                return eval_arrays(model, t)
            tracer.counts["nonlinearity.evals"] += 1
            if tracer._in_reports:
                tracer.counts["diagnostics.state_evals"] += 1
            if tracer.level == COUNT:
                return eval_arrays(model, t)
            idx = tracer._open("nonlinearity.eval")
            try:
                return eval_arrays(model, t)
            finally:
                tracer._close(idx)

        self._replace(NonlinearityModel, "_eval_arrays", nonlinearity_eval)

        # Newton solves: steps as reported by the result or the failure
        def newton_wrapper(name, fn):
            traced = self.span_call(name, fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if tracer.level == OFF:
                    return fn(*args, **kwargs)
                try:
                    result = traced(*args, **kwargs)
                except mcsvortex.NoConvergence as exc:
                    tracer.counts["solver.newton_steps"] += exc.iterations
                    raise
                tracer.counts["solver.newton_steps"] += result.newton_iters
                return result

            return wrapper

        for name, fn in (("solver.solve_coupled", solver.solve_coupled),
                         ("solver.solve_limit", solver.solve_limit)):
            self._replace_everywhere(fn, newton_wrapper(name, fn), pkg)

        # MINRES as the solver calls it, with operator and preconditioner
        minres = scipy.sparse.linalg.minres

        def wrap_operator(op, name):
            return LinearOperator(op.shape, matvec=self.span_call(name, op.matvec),
                                  dtype=op.dtype)

        def traced_minres(A, b, *args, **kwargs):
            if tracer.level == OFF:
                return minres(A, b, *args, **kwargs)
            user_callback = kwargs.get("callback")

            def callback(xk):
                tracer.counts["solver.krylov_iters"] += 1
                if user_callback is not None:
                    user_callback(xk)

            kwargs["callback"] = callback
            tracer.counts["solver.minres_calls"] += 1
            if tracer.level == COUNT:
                return minres(A, b, *args, **kwargs)
            A = wrap_operator(A, "solver.hessian_matvec")
            if kwargs.get("M") is not None:
                kwargs["M"] = wrap_operator(kwargs["M"], "solver.precond")
            idx = tracer._open("solver.minres")
            try:
                result = minres(A, b, *args, **kwargs)
            finally:
                tracer._close(idx)
            if result[1] != 0:
                tracer.counts["solver.minres_nonconverged"] += 1
            return result

        functools.update_wrapper(traced_minres, minres)
        self._replace_everywhere(minres, traced_minres, pkg)
        self._replace(scipy.sparse.linalg, "minres", traced_minres)

        # diagnostics: the nonlinearity evaluations one all_reports makes
        all_reports = self.span_call("diagnostics.all_reports", diagnostics.all_reports)

        @functools.wraps(diagnostics.all_reports)
        def reports_wrapper(*args, **kwargs):
            if tracer.level != OFF:
                tracer.counts["diagnostics.all_reports_calls"] += 1
            tracer._in_reports += 1
            try:
                return all_reports(*args, **kwargs)
            finally:
                tracer._in_reports -= 1

        self._replace_everywhere(diagnostics.all_reports, reports_wrapper, pkg)

        def count_written(json_path):
            folder = Path(json_path).parent
            tracer.counts["snapshots.bytes_written"] += sum(
                p.stat().st_size for p in folder.iterdir() if p.is_file())

        spans = (
            ("background.compute_u0", background.compute_u0, None),
            ("solver.q_sweep", solver.q_sweep, None),
            ("diagnostics.convergence_metrics", diagnostics.convergence_metrics, None),
            ("snapshots.write_solution", snapshots.write_solution, count_written),
            ("snapshots.read_solution", snapshots.read_solution, None),
            ("cli.parse_config", cli.parse_config, None),
            ("cli.bundle_from_snapshot", cli.bundle_from_snapshot, None),
            ("cli.cmd_solve", cli.cmd_solve, None),
            ("cli.cmd_verify", cli.cmd_verify, None),
        )
        for name, fn, on_result in spans:
            self._replace_everywhere(fn, self.span_call(name, fn, on_result), pkg)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- read-out ------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "ops": self.ops, "spans": self.spans}, handle)


def work_counts(counts: dict) -> dict:
    """The deterministic work counters of one or more operations;
    diagnostics.state_evals is per all_reports call."""
    out = {name: counts.get(name, 0) for name in WORK_COUNTERS}
    reports = counts.get("diagnostics.all_reports_calls", 0)
    out["diagnostics.state_evals"] = out["diagnostics.state_evals"] / reports if reports else 0
    return out


def layer_metrics(tracer: Tracer, records: list) -> dict:
    """Per-layer metrics summed over traced operation records."""
    inclusive: dict = collections.defaultdict(float)
    calls: collections.Counter = collections.Counter()
    self_time: dict = collections.defaultdict(float)
    counts: collections.Counter = collections.Counter()
    newton_self, spans = 0.0, 0
    for record in records:
        first, end = record["first_span"], record["end_span"]
        # time of each span's children, by child name
        below = collections.defaultdict(lambda: collections.defaultdict(float))
        for name, t0, t1, parent, _ in tracer.spans[first:end]:
            inclusive[name] += t1 - t0
            calls[name] += 1
            if parent >= first:
                below[parent][name] += t1 - t0
        for idx in range(first, end):
            name, t0, t1 = tracer.spans[idx][:3]
            self_time[name.split(".")[0]] += (t1 - t0) - sum(below[idx].values())
            if name == "solver.solve_coupled":
                newton_self += (t1 - t0) - below[idx]["background.compute_u0"] \
                    - below[idx]["solver.solve_limit"] - below[idx]["solver.minres"]
        counts.update(record["counts"])
        spans += end - first
    minres = inclusive["solver.minres"]
    matvec = inclusive["solver.hessian_matvec"]
    precond = inclusive["solver.precond"]
    work = work_counts(counts)
    metrics = {
        "grid.fft2_calls": work["grid.fft2_calls"],
        "grid.fft2_s": inclusive["grid.fft2"],
        "grid.fft2_bytes": counts["grid.fft2_bytes"],
        "background.compute_u0_calls": calls["background.compute_u0"],
        "background.compute_u0_s": inclusive["background.compute_u0"],
        "nonlinearity.evals": work["nonlinearity.evals"],
        "nonlinearity.eval_s": inclusive["nonlinearity.eval"],
        "solver.newton_steps": work["solver.newton_steps"],
        "solver.limit_s": inclusive["solver.solve_limit"],
        "solver.minres_calls": counts["solver.minres_calls"],
        "solver.krylov_iters": work["solver.krylov_iters"],
        "solver.minres_s": minres,
        "solver.hessian_matvecs": calls["solver.hessian_matvec"],
        "solver.hessian_matvec_s": matvec,
        "solver.precond_applies": calls["solver.precond"],
        "solver.precond_s": precond,
        "solver.minres_overhead_s": minres - matvec - precond,
        "solver.minres_nonconverged": counts["solver.minres_nonconverged"],
        "solver.newton_self_s": newton_self,
        "diagnostics.all_reports_s": inclusive["diagnostics.all_reports"],
        "diagnostics.state_evals": work["diagnostics.state_evals"],
        "diagnostics.convergence_metrics_s": inclusive["diagnostics.convergence_metrics"],
        "snapshots.write_s": inclusive["snapshots.write_solution"],
        "snapshots.read_s": inclusive["snapshots.read_solution"],
        "snapshots.bytes_written": counts["snapshots.bytes_written"],
        "cli.parse_config_s": inclusive["cli.parse_config"],
        "cli.bundle_from_snapshot_s": inclusive["cli.bundle_from_snapshot"],
        "cli.solve_s": inclusive["cli.cmd_solve"],
        "cli.verify_s": inclusive["cli.cmd_verify"],
        **{f"{layer}.self_s": self_time[layer] for layer in LAYERS},
        "trace.spans": spans,
    }
    assert set(metrics) == set(PER_LAYER_UNITS)
    return metrics
