import copy
import json
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mcsvortex import (
    BoundsViolation, ConfigError, GridSpec, NoConvergence, SnapshotError, VortexConfig,
    cli, compute_u0,
)
from mcsvortex.diagnostics import ConvergenceTable, SweepRow
from mcsvortex.cli import bundle_from_snapshot, main, parse_config
from mcsvortex.snapshots import (
    FIELD_FILES, MAGIC, read_field, read_solution, write_field, write_solution,
    write_text_atomic,
)


def write_config(path, body):
    path.write_text(body)
    return str(path)


FLAT_CONFIG = """
[model]
name = u1
s = 1.0

[vortices]
sigma = 4.0

[grid]
N = 32

[solver]
q = 10.0

[output]
dir = {out}
"""

VORTEX_CONFIG = """
[model]
name = u1
s = 9.0

[vortices]
points = 0.5 0.5 1
sigma = 4.0

[grid]
N = 48

[solver]
q = 40.0

[output]
dir = {out}
"""

# a valid configuration, as (section, key) -> value
BASE_CONFIG = {
    ("model", "name"): "u1",
    ("model", "s"): "9.0",
    ("vortices", "points"): "0.5 0.5 1",
    ("vortices", "sigma"): "4.0",
    ("grid", "N"): "32",
    ("solver", "q"): "40.0",
}
CONFIG_OPTIONS = sorted(BASE_CONFIG) + [
    ("model", "table"), ("solver", "q_list"), ("solver", "newton_tol"),
    ("solver", "max_newton_iters"), ("solver", "bound_tol"), ("output", "dir"),
]

# values near the schema: valid ones, non-finite and out-of-range numbers,
# interpolation syntax and multi-line point lists, or any text
config_values = st.one_of(
    st.sampled_from(
        ("u1", "cp1", "custom", "f.dat", "9.0", "1.0", "32", "4.0", "40", "20 40",
         "0", "-1", "0.5", "1e400", "nan", "inf", "-inf", "%", "%(x)s", "1e-12",
         "0.5 0.5 1", "0.25 0.25 1\n    0.75 0.75 2", "0.5 0.5", "1.5 0.5 1",
         "0.5 0.5 0", "0.5 0.5 1.5", "")
    ),
    st.text(max_size=12),
)


def _render_config(options: dict) -> str:
    sections: dict = {}
    for (section, key), value in options.items():
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    return "".join(f"[{name}]\n" + "".join(lines) for name, lines in sections.items())


# the valid configuration with a few options dropped or replaced
config_texts = st.tuples(
    st.sets(st.sampled_from(sorted(BASE_CONFIG)), max_size=2),
    st.dictionaries(st.sampled_from(CONFIG_OPTIONS), config_values, max_size=3),
).map(
    lambda change: _render_config(
        {k: v for k, v in BASE_CONFIG.items() if k not in change[0]} | change[1]
    )
)


class TestParseConfig:
    def test_full_round_trip(self, tmp_path):
        cfg_path = write_config(
            tmp_path / "run.cfg", VORTEX_CONFIG.format(out=tmp_path / "out")
        )
        cfg = parse_config(cfg_path)
        assert cfg.spec.model.name == "u1"
        assert cfg.spec.model.s == 9.0
        assert cfg.spec.vortices.points == ((0.5, 0.5),)
        assert cfg.spec.vortices.multiplicities == (1,)
        assert cfg.spec.grid.N == 48
        assert cfg.q == cfg.spec.q == 40.0

    def test_multiline_points(self, tmp_path):
        body = """
[model]
name = u1
s = 13.0

[vortices]
points = 0.25 0.25 1
    0.75 0.75 2
sigma = 4.0

[grid]
N = 32

[solver]
q_list = 10 20 40
"""
        cfg = parse_config(write_config(tmp_path / "run.cfg", body))
        assert cfg.spec.vortices.points == ((0.25, 0.25), (0.75, 0.75))
        assert cfg.spec.vortices.multiplicities == (1, 2)
        assert cfg.q_list == [10.0, 20.0, 40.0]
        assert cfg.q is None and cfg.spec.q == 10.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config(tmp_path / "nope.cfg")

    @pytest.mark.parametrize(
        "mangle,message",
        [
            (("name = u1", "name = bogus"), "u1 | cp1 | custom"),
            (("N = 48", "N = 47"), "even"),
            (("q = 40.0", "q = -3"), "positive"),
            (("sigma = 4.0", "sigma = 1.0"), ">= 2 grid cells"),
            (("points = 0.5 0.5 1", "points = 1.5 0.5 1"), "outside"),
            (("points = 0.5 0.5 1", "points = 0.5 0.5 0"), "multiplicity"),
            (("q = 40.0", "q = nan"), "finite"),
            (("q = 40.0", "q_list = 10 inf"), "finite"),
            (("q = 40.0", "q = 40.0\nmax_newton_iters = 2.5"), "whole number"),
            (("q = 40.0", "q = 40.0\nmax_newton_iters = inf"), "whole number"),
            (("q = 40.0", "q_list ="), "empty"),
            (("name = u1", "name = u%1"), r"\[model\] name: '%'"),
            (("q = 40.0", "q = 40.0\nbound_tol = 1e-3"), r"unknown key \[solver\] bound_tol"),
            (("N = 48", ""), r"\[grid\] N is required"),
            (("q = 40.0", ""), r"\[solver\] needs q or q_list"),
            (("[output]", "[solvr]\nq = 40.0\n\n[output]"), r"unknown section \[solvr\]"),
            (("s = 9.0", "s = inf"), "s must be positive and finite"),
            (("q = 40.0", "q = 40.0\nkrylov_tol = 1e-10"), r"unknown key \[solver\] krylov_tol"),
        ],
    )
    def test_validation_errors(self, tmp_path, mangle, message):
        body = VORTEX_CONFIG.format(out=tmp_path / "out").replace(*mangle)
        cfg = write_config(tmp_path / "run.cfg", body)
        with pytest.raises(ConfigError, match=message):
            parse_config(cfg)
        assert main(["solve", "--config", cfg]) == 1

    @pytest.mark.parametrize("sigma", ["nan", "inf", "13.0"])  # N = 48: 12 cells is 1/4
    def test_sigma_beyond_quarter_torus_rejected(self, tmp_path, sigma):
        body = VORTEX_CONFIG.format(out=tmp_path / "out")
        body = body.replace("sigma = 4.0", f"sigma = {sigma}")
        with pytest.raises(ConfigError, match=r"sigma must be in \(0, 1/4\]"):
            parse_config(write_config(tmp_path / "run.cfg", body))

    def test_descending_q_list_rejected(self, tmp_path):
        body = VORTEX_CONFIG.format(out=tmp_path / "out").replace(
            "q = 40.0", "q_list = 80 10"
        )
        with pytest.raises(ConfigError, match="ascending"):
            parse_config(write_config(tmp_path / "run.cfg", body))

    def test_tolerance_defaults_match_solver(self, tmp_path):
        from mcsvortex import ProblemSpec

        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "run.cfg", FLAT_CONFIG.format(out=out))
        assert main(["solve", "--config", cfg_path]) == 0
        record = json.loads((out / "solution.json").read_text())
        del record["tolerances"]
        (out / "solution.json").write_text(json.dumps(record))
        fields = ProblemSpec.__dataclass_fields__
        for spec in (parse_config(cfg_path).spec, bundle_from_snapshot(out)[0].spec):
            assert spec.newton_tol == fields["newton_tol"].default
            assert spec.max_newton_iters == fields["max_newton_iters"].default

    def test_custom_model_table(self, tmp_path):
        table = tmp_path / "f.dat"
        ts = np.linspace(0, 3, 24)
        np.savetxt(table, np.column_stack([ts, np.sqrt(ts + 0.01)]))
        body = """
[model]
name = custom
s = 1.0
table = f.dat

[grid]
N = 32

[solver]
q = 10.0
"""
        cfg = parse_config(write_config(tmp_path / "run.cfg", body))
        assert cfg.spec.model.name == "custom"

    @pytest.mark.filterwarnings("error")  # numpy warned of an empty table file
    @pytest.mark.parametrize(
        "table,mangle,message",
        [
            ("0 0\n", None, r"^need matching 1-d \(t, f\) tables with >= 4 rows$"),
            ("", None, r"^\[model\] table: \S+f\.dat holds no data$"),
            ("# t f\n", None, r"^\[model\] table: \S+f\.dat holds no data$"),
            (
                "0 0\n1 one\n2 2\n3 3\n", None,
                r"^\[model\] table: malformed numeric data: could not convert string 'one'",
            ),
            ("0 0 0\n1 1 1\n2 2 2\n3 3 3\n", None, r"^\[model\] table: need two columns"),
            (
                None, ("points = 0.5 0.5 1", "points = 0.5 y 1"),
                r"^\[vortices\] points line 1: could not convert string to float: 'y'$",
            ),
        ],
        ids=["one-row", "empty", "comments-only", "malformed", "three-columns", "points"],
    )
    def test_rejected_input_names_its_cause(self, tmp_path, capsys, table, mangle, message):
        # a one-row table was "need two columns" and an empty one printed
        # numpy's warning before the error
        body = VORTEX_CONFIG.format(out=tmp_path / "out")
        if table is not None:
            (tmp_path / "f.dat").write_text(table)
            mangle = ("name = u1", "name = custom\ntable = f.dat")
        cfg = write_config(tmp_path / "run.cfg", body.replace(*mangle))
        with pytest.raises(ConfigError, match=message):
            parse_config(cfg)
        assert main(["solve", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_mistyped_key_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        body = VORTEX_CONFIG.format(out=out).replace(
            "q = 40.0", "q = 40.0\nnewton_tl = 1e-12"
        )
        cfg = write_config(tmp_path / "run.cfg", body)
        with pytest.raises(ConfigError, match=r"unknown key \[solver\] newton_tl"):
            parse_config(cfg)
        assert main(["solve", "--config", cfg]) == 1
        assert "newton_tl" in capsys.readouterr().err
        assert not out.exists()

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"[model]\nname = u1\xff\n")
        with pytest.raises(ConfigError, match="utf-8"):
            parse_config(path)

    @settings(
        max_examples=300,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.one_of(st.text(max_size=200), config_texts))
    def test_arbitrary_text_raises_only_config_error(self, tmp_path, text):
        table = tmp_path / "f.dat"
        if not table.exists():
            ts = np.linspace(0, 3, 24)
            np.savetxt(table, np.column_stack([ts, np.sqrt(ts + 0.01)]))
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        try:
            parse_config(path)
        except ConfigError:
            pass


def unusable_out(tmp_path, where):
    """An --out that cannot be a directory: an existing file, or a path
    under one."""
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    return blocker if where == "a file" else blocker / "out"


class TestSolveCommand:
    def test_flat_run_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.cfg", FLAT_CONFIG.format(out=out))
        assert main(["solve", "--config", cfg]) == 0
        captured = capsys.readouterr().out
        assert "converged" in captured
        assert (out / "solution.json").is_file()
        for name in ("u", "v", "w", "u0"):
            assert (out / f"{name}.fld").is_file()
        meta = json.loads((out / "solution.json").read_text())
        assert meta["model"]["name"] == "u1"
        # constants: v == s everywhere
        v = read_field(out / "v.fld")
        assert np.max(np.abs(v.values - 1.0)) <= 1e-9

    def test_solve_process_loads_no_scipy(self, tmp_path):
        # scipy's import costs more than a small solve; only tabulated_model
        # may load it
        cfg = write_config(tmp_path / "run.cfg", FLAT_CONFIG.format(out=tmp_path / "out"))
        script = (
            "import sys\n"
            "import mcsvortex, mcsvortex.cli\n"
            "assert mcsvortex.cli.main(['solve', '--config', sys.argv[1]]) == 0\n"
            "print([name for name in sys.modules if name.startswith('scipy')])\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        run = subprocess.run(
            [sys.executable, "-c", script, cfg],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert (tmp_path / "out" / "solution.json").is_file()
        assert run.stdout.splitlines()[-1] == "[]"

    def test_tiny_q_exit_three(self, tmp_path, capsys):
        out = tmp_path / "out"
        body = VORTEX_CONFIG.format(out=out).replace("q = 40.0", "q = 2.0")
        cfg = write_config(tmp_path / "run.cfg", body)
        assert main(["solve", "--config", cfg]) == 3
        record = json.loads((out / "failure.json").read_text())
        assert record["error"] in ("QTooSmall", "NoConvergence")

    def test_vortex_run_flux_in_summary(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.cfg", VORTEX_CONFIG.format(out=out))
        assert main(["solve", "--config", cfg]) == 0
        meta = json.loads((out / "solution.json").read_text())
        flux = next(
            r for r in meta["reports"] if r["name"] == "flux_quantization"
        )
        assert flux["status"] == "pass"
        assert flux["rhs"] == pytest.approx(4 * np.pi, rel=1e-12)

    def test_config_error_exit_one(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", "[model]\nname = bogus\n")
        assert main(["solve", "--config", cfg]) == 1

    @pytest.mark.parametrize("where", ["a file", "under a file"])
    def test_unusable_out_exit_one_before_the_solve(
        self, tmp_path, capsys, monkeypatch, where
    ):
        monkeypatch.setattr(cli, "solve_coupled", lambda spec: pytest.fail("solved"))
        cfg = write_config(tmp_path / "run.cfg", VORTEX_CONFIG.format(out=tmp_path / "cfg"))
        out = unusable_out(tmp_path, where)
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: output dir {out}: ")
        assert not (tmp_path / "cfg").exists()

    def test_custom_model_round_trip(self, tmp_path):
        ts = np.linspace(0, 3, 24)
        fs = np.sqrt(ts + 0.01)
        np.savetxt(tmp_path / "f.dat", np.column_stack([ts, fs]))
        out = tmp_path / "out"
        body = FLAT_CONFIG.format(out=out).replace(
            "name = u1", "name = custom\ntable = f.dat"
        )
        assert main(["solve", "--config", write_config(tmp_path / "run.cfg", body)]) == 0
        model = json.loads((out / "solution.json").read_text())["model"]
        assert model["name"] == "custom"
        assert model["table"] == [ts.tolist(), fs.tolist()]
        assert main(["verify", str(out)]) == 0

    @pytest.mark.parametrize(
        "written,named",
        [(True, "custom model only, not 'u1'"), (False, "[model] table: cannot read")],
        ids=["table", "missing-table"],
    )
    def test_table_needs_the_custom_model(self, tmp_path, capsys, written, named):
        # u1 and cp1 ignored a table, and never opened its file
        if written:
            ts = np.linspace(0, 3, 24)
            np.savetxt(tmp_path / "f.dat", np.column_stack([ts, np.sqrt(ts + 0.01)]))
        body = VORTEX_CONFIG.format(out=tmp_path / "out").replace(
            "s = 9.0", "s = 9.0\ntable = f.dat"
        )
        assert main(["solve", "--config", write_config(tmp_path / "run.cfg", body)]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_q_list_only_exit_one(self, tmp_path, capsys):
        body = VORTEX_CONFIG.format(out=tmp_path / "out").replace(
            "q = 40.0", "q_list = 20 40"
        )
        assert main(["solve", "--config", write_config(tmp_path / "run.cfg", body)]) == 1
        assert "config error: [solver] solve needs a single q" in capsys.readouterr().err

    def test_bounds_violation_exit_two(self, tmp_path, capsys, monkeypatch):
        def violated(spec):
            raise BoundsViolation("pointwise bounds violated")

        monkeypatch.setattr(cli, "solve_coupled", violated)
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.cfg", FLAT_CONFIG.format(out=out))
        assert main(["solve", "--config", cfg]) == 2
        record = json.loads((out / "failure.json").read_text())
        assert record["error"] == "BoundsViolation"
        assert "invariant failure: pointwise bounds violated" in capsys.readouterr().err


def unsolvable(body):
    """The configuration with the rational model, which cannot carry a
    vortex on the unit torus, on a small grid."""
    return (
        body.replace("name = u1", "name = cp1")
        .replace("s = 9.0", "s = 0.5")
        .replace("N = 48", "N = 32")
    )


class TestStaleRecords:
    """A run replaces the record an earlier run into the same directory
    left: verify never passes a result the last run did not produce."""

    def test_failed_solve_removes_earlier_solution(self, tmp_path, capsys):
        out = tmp_path / "out"
        good = write_config(tmp_path / "good.cfg", VORTEX_CONFIG.format(out=out))
        bad = write_config(
            tmp_path / "bad.cfg", unsolvable(VORTEX_CONFIG.format(out=out))
        )
        assert main(["solve", "--config", good]) == 0
        assert main(["solve", "--config", bad]) == 3
        # the earlier run's snapshots go with its record
        assert sorted(p.name for p in out.iterdir()) == ["failure.json"]
        assert main(["verify", str(out)]) == 1
        assert main(["solve", "--config", good]) == 0
        assert not (out / "failure.json").exists()
        assert main(["verify", str(out)]) == 0
        # no temporary file is left behind
        assert sorted(p.name for p in out.iterdir()) == [
            "solution.json", "u.fld", "u0.fld", "v.fld", "w.fld"
        ]

    def test_failed_sweep_removes_earlier_table(self, tmp_path, capsys):
        out = tmp_path / "out"
        body = VORTEX_CONFIG.format(out=out).replace("q = 40.0", "q_list = 20 40")
        good = write_config(tmp_path / "good.cfg", body)
        bad = write_config(tmp_path / "bad.cfg", unsolvable(body))
        assert main(["sweep", "--config", good]) == 0
        assert main(["sweep", "--config", bad]) == 3
        assert sorted(p.name for p in out.iterdir()) == ["failure.json"]
        assert main(["sweep", "--config", good]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["sweep.tsv"]


class TestSweepCommand:
    def test_two_point_sweep(self, tmp_path):
        out = tmp_path / "out"
        body = VORTEX_CONFIG.format(out=out).replace("q = 40.0", "q_list = 20 40")
        cfg = write_config(tmp_path / "run.cfg", body)
        assert main(["sweep", "--config", cfg]) == 0
        table = (out / "sweep.tsv").read_text()
        lines = [l for l in table.splitlines() if not l.startswith("#")]
        header = lines[0].split("\t")
        assert header[0] == "q" and "d_v" in header
        rows = [l.split("\t") for l in lines[1:]]
        assert len(rows) == 2
        d_v = [float(r[header.index("d_v")]) for r in rows]
        assert d_v[1] < d_v[0]
        # metadata lines carry provenance
        assert "# model = u1" in table
        assert "# N = 48" in table

    def test_descending_q_list_exit_one(self, tmp_path, capsys):
        body = VORTEX_CONFIG.format(out=tmp_path / "out").replace(
            "q = 40.0", "q_list = 80 10"
        )
        cfg = write_config(tmp_path / "run.cfg", body)
        assert main(["sweep", "--config", cfg]) == 1
        assert "ascending" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["a file", "under a file"])
    def test_unusable_out_exit_one_before_the_sweep(
        self, tmp_path, capsys, monkeypatch, where
    ):
        monkeypatch.setattr(cli, "q_sweep", lambda spec, q_list: pytest.fail("swept"))
        out = unusable_out(tmp_path, where)
        body = VORTEX_CONFIG.format(out=out).replace("q = 40.0", "q_list = 20 40")
        assert main(["sweep", "--config", write_config(tmp_path / "run.cfg", body)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: output dir {out}: ")

    def test_single_entry_rejected(self, tmp_path, capsys):
        body = VORTEX_CONFIG.format(out=tmp_path / "out").replace(
            "q = 40.0", "q_list = 40"
        )
        cfg = write_config(tmp_path / "run.cfg", body)
        assert main(["sweep", "--config", cfg]) == 1

    def test_unsolvable_model_exits_three(self, tmp_path, capsys):
        # rational model cannot carry a vortex: the shared limit solve fails
        body = VORTEX_CONFIG.format(out=tmp_path / "out").replace(
            "name = u1", "name = cp1"
        ).replace("s = 9.0", "s = 0.5").replace("q = 40.0", "q_list = 20 40")
        cfg = write_config(tmp_path / "run.cfg", body)
        assert main(["sweep", "--config", cfg]) == 3
        assert "solver failure" in capsys.readouterr().err

    def test_all_rows_failing_exit_three(self, tmp_path):
        out = tmp_path / "out"
        body = VORTEX_CONFIG.format(out=out).replace("N = 48", "N = 32")
        body = body.replace("q = 40.0", "q_list = 3 4")
        assert main(["sweep", "--config", write_config(tmp_path / "run.cfg", body)]) == 3
        lines = (out / "sweep.tsv").read_text().splitlines()
        rows = [l.split("\t") for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 2
        assert all(row[1] != "converged" for row in rows)

    @pytest.mark.parametrize(
        "failures,code",
        [((BoundsViolation("pointwise bounds violated"),), 2),
         ((BoundsViolation("pointwise bounds violated"), NoConvergence(4, 1e-3)), 3)],
        ids=["bounds_violation", "bounds_violation+no_convergence"],
    )
    def test_worst_failed_row_sets_exit_code(self, tmp_path, monkeypatch, failures, code):
        # a solver failure's exit code 3 outranks an invariant failure's 2
        def failed_rows(spec, q_list):
            rows = [SweepRow.of(q, exc, None) for q, exc in zip(q_list, failures)]
            return ConvergenceTable(meta={}, rows=rows)

        monkeypatch.setattr(cli, "q_sweep", failed_rows)
        body = VORTEX_CONFIG.format(out=tmp_path / "out").replace("q = 40.0", "q_list = 20 40")
        assert main(["sweep", "--config", write_config(tmp_path / "run.cfg", body)]) == code

    def test_identical_configs_identical_tables(self, tmp_path):
        body = VORTEX_CONFIG.format(out="{out}").replace("q = 40.0", "q_list = 20 40")
        first = tmp_path / "a"
        second = tmp_path / "b"
        cfg_a = write_config(tmp_path / "a.cfg", body.format(out=first))
        cfg_b = write_config(tmp_path / "b.cfg", body.format(out=second))
        assert main(["sweep", "--config", cfg_a]) == 0
        assert main(["sweep", "--config", cfg_b]) == 0
        assert (first / "sweep.tsv").read_bytes() == (second / "sweep.tsv").read_bytes()


class TestOverflowingBackground:
    # e^u0 overflows float64 near n = 1000 for one vortex at N = 48; a
    # multiplicity beyond float range cannot even enter the source term
    @pytest.mark.parametrize(
        "multiplicity", ["2000", pytest.param("1" * 400, id="400-digit")]
    )
    @pytest.mark.parametrize(
        "command,solver_line",
        [("solve", "q = 40.0"), ("sweep", "q_list = 20 40")],
        ids=["solve", "sweep"],
    )
    def test_exit_one_naming_the_vortex_number(
        self, tmp_path, capsys, command, solver_line, multiplicity
    ):
        body = (
            VORTEX_CONFIG.format(out=tmp_path / "out")
            .replace("points = 0.5 0.5 1", f"points = 0.5 0.5 {multiplicity}")
            .replace("q = 40.0", solver_line)
        )
        assert main([command, "--config", write_config(tmp_path / "run.cfg", body)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"config error: vortex number n={multiplicity} ")


# what json reads from the literal 1e400
BIG = float("1e400")


def _overflowing_u(meta, out):
    """Store u = 800 everywhere, where e^(u0+u) overflows float64."""
    u = read_field(out / "u.fld")
    write_field(out / "u.fld", u.grid.constant(800.0))
    return meta


def _weight_overflowing(meta, out):
    """Store one vortex of multiplicity 1072 with its own u0 and u = 0: at
    N = 48, e^(u0+u) is finite but the background weight overflows."""
    vortices = {**meta["vortices"], "multiplicities": [1072]}
    u0 = read_field(out / "u0.fld")
    config = VortexConfig(
        points=vortices["points"], multiplicities=(1072,), sigma=vortices["sigma"]
    )
    write_field(out / "u0.fld", compute_u0(config, u0.grid).u0)
    write_field(out / "u.fld", u0.grid.constant(0.0))
    return {**meta, "vortices": vortices}


# the problem fields of a solution record, as key paths
RECORD_FIELDS = [
    ("model",), ("model", "name"), ("model", "s"), ("model", "table"),
    ("vortices",), ("vortices", "points"), ("vortices", "multiplicities"),
    ("vortices", "sigma"), ("q",), ("grid", "N"), ("tolerances",),
    ("tolerances", "newton_tol"),
    ("tolerances", "krylov_tol"),  # written by earlier releases, now ignored
    ("tolerances", "max_newton_iters"), ("tolerances", "bound_tol"),
    ("residual_norms",), ("newton_iters",), ("energy",), ("version",),
]

# values near the record's schema: valid and out-of-range numbers, integers
# beyond float64, non-finite floats and nearly valid lists; or any JSON
record_values = st.one_of(
    st.sampled_from(
        (0, 1, 2, -1, 0.5, 1e-3, 0.25, 40.0, 5000, 2**53, 10**400, BIG, -BIG,
         float("nan"), "u1", "cp1", "custom", [0.5, 0.5], [[0.5, 0.5]],
         [[0.5, 0.5], [0.5, 0.5]], [[0.25, 0.75]], [1], [3000], [10**400], [[0.0, 1.0]],
         [[0, 1, 2], [1, 2, 3]], {"genmcsb": 1.0}, None)
    ),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    ),
)


class TestVerifyCommand:
    @pytest.fixture
    def solved_dir(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.cfg", VORTEX_CONFIG.format(out=out))
        assert main(["solve", "--config", cfg]) == 0
        return out

    @pytest.fixture
    def small_record(self, tmp_path):
        out = tmp_path / "out"
        body = VORTEX_CONFIG.format(out=out).replace("N = 48", "N = 32")
        assert main(["solve", "--config", write_config(tmp_path / "run.cfg", body)]) == 0
        return out, json.loads((out / "solution.json").read_text())

    def test_round_trip_passes(self, solved_dir):
        assert main(["verify", str(solved_dir)]) == 0

    def test_bit_for_bit_agreement(self, solved_dir):
        from mcsvortex import all_reports

        stored = json.loads((solved_dir / "solution.json").read_text())["reports"]
        bundle, _ = bundle_from_snapshot(solved_dir)
        recomputed = all_reports(bundle)
        for before, after in zip(stored, recomputed):
            assert before["name"] == after.name
            assert before["abs_discrepancy"] == after.abs_discrepancy
            assert before["rel_discrepancy"] == after.rel_discrepancy
            assert before["status"] == after.status

    def test_reports_follow_redirected_stdout(self, solved_dir):
        import contextlib
        import io

        stored = json.loads((solved_dir / "solution.json").read_text())["reports"]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            assert main(["verify", str(solved_dir)]) == 0
        printed = sink.getvalue()
        for report in stored:
            assert report["name"] in printed

    def test_corrupted_field_exit_two(self, solved_dir):
        v = read_field(solved_dir / "v.fld")
        spoiled = v.values.copy()
        spoiled[5, 7] += 0.2
        write_field(solved_dir / "v.fld", v.grid.field(spoiled))
        assert main(["verify", str(solved_dir)]) == 2

    def test_interrupted_field_write_keeps_the_old_field(self, solved_dir, monkeypatch):
        old = (solved_dir / "v.fld").read_bytes()
        bundle, _ = bundle_from_snapshot(solved_dir)
        bundle = replace(bundle, v=bundle.v.grid.field(2.0 * bundle.v.values))
        rename = os.replace

        def fail_at_v(src, dst):
            if Path(dst).name == "v.fld":
                raise OSError("disk full")
            rename(src, dst)

        monkeypatch.setattr(os, "replace", fail_at_v)
        with pytest.raises(OSError, match="disk full"):
            write_solution(solved_dir, bundle, [])
        assert (solved_dir / "v.fld").read_bytes() == old
        assert not [p.name for p in solved_dir.iterdir() if p.name.endswith(".tmp")]

    def test_mismatched_grid_exit_one(self, solved_dir):
        other = GridSpec(16).constant(0.0)
        write_field(solved_dir / "v.fld", other)
        assert main(["verify", str(solved_dir)]) == 1

    def test_unreadable_snapshot_exit_one(self, tmp_path):
        assert main(["verify", str(tmp_path / "missing")]) == 1

    def test_unparsable_record_exit_one(self, solved_dir, capsys):
        (solved_dir / "solution.json").write_text('{"format": ')
        with pytest.raises(SnapshotError, match=r"^cannot parse \S+solution\.json: Expecting"):
            read_solution(solved_dir)
        assert main(["verify", str(solved_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("snapshot error: cannot parse ") and err.count("\n") == 1

    def test_snapshot_path_finds_its_record(self, solved_dir, tmp_path, capsys):
        # a .fld names the solve directory it lies in
        assert main(["verify", str(solved_dir)]) == 0
        printed = capsys.readouterr().out.splitlines()[1:]
        assert main(["verify", str(solved_dir / "u.fld")]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == printed
        alone = tmp_path / "alone" / "u.fld"
        alone.parent.mkdir()
        alone.write_bytes((solved_dir / "u.fld").read_bytes())
        with pytest.raises(SnapshotError, match=r"^no solution\.json found at or beside "):
            read_solution(alone)
        assert main(["verify", str(alone)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("snapshot error: no solution.json") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "tamper,named",
        [
            (lambda meta: meta["reports"][1].update(abs_discrepancy=0.5), "flux_quantization"),
            (lambda meta: meta["reports"].pop(), "8 reports recomputed, 7 stored"),
        ],
        ids=["changed-value", "missing-report"],
    )
    def test_tampered_record_exit_two(self, solved_dir, capsys, tamper, named):
        path = solved_dir / "solution.json"
        meta = json.loads(path.read_text())
        tamper(meta)
        path.write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["verify", str(solved_dir)]) == 2
        assert named in capsys.readouterr().err

    def test_stored_residuals_and_energy_are_not_read_back(self, solved_dir):
        # the bundle derives both from the stored fields, bit for bit the
        # values the solve wrote, whatever the record now says; records of
        # earlier releases also carried the residual norms
        path = solved_dir / "solution.json"
        meta = json.loads(path.read_text())
        energy = meta["energy"]
        lhs = {report["name"]: report["lhs"] for report in meta["reports"]}
        meta["energy"] = -1.0
        meta["residual_norms"] = {"genmcsa": 1e3, "genmcsb": 1e3, "fourth_order": 1e3}
        path.write_text(json.dumps(meta))
        bundle, _ = bundle_from_snapshot(solved_dir)
        assert bundle.energy_value == energy
        assert bundle.residual_norms == {
            "genmcsa": lhs["residual_first_equation"],
            "genmcsb": lhs["residual_second_equation"],
        }
        assert main(["verify", str(solved_dir)]) == 0

    @pytest.mark.parametrize(
        "mangle,named",
        [
            (lambda meta, out: [], "snapshot error"),
            (lambda meta, out: {**meta, "q": None}, "snapshot error"),
            (
                lambda meta, out: {**meta, "vortices": {**meta["vortices"], "sigma": None}},
                "snapshot error",
            ),
            (_overflowing_u, "overflows"),
            (_weight_overflowing, "vortex number n=1072 is too large"),
            (
                lambda meta, out: {**meta, "vortices": {**meta["vortices"], "sigma": 1e3}},
                "sigma must be in (0, 1/4]",
            ),
            (
                lambda meta, out: {
                    **meta, "vortices": {**meta["vortices"], "multiplicities": [BIG]}
                },
                "malformed solution record",
            ),
            (
                lambda meta, out: {
                    **meta, "vortices": {**meta["vortices"], "multiplicities": [1.5]}
                },
                "malformed solution record",
            ),
            (
                lambda meta, out: {
                    **meta, "vortices": {**meta["vortices"], "multiplicities": [True]}
                },
                "malformed solution record",
            ),
            (lambda meta, out: {**meta, "q": True}, "malformed solution record"),
            (
                lambda meta, out: {**meta, "newton_iters": BIG},
                "malformed solution record",
            ),
            (
                lambda meta, out: {
                    **meta, "tolerances": {**meta["tolerances"], "max_newton_iters": BIG}
                },
                "malformed solution record",
            ),
            (
                lambda meta, out: {
                    **meta, "tolerances": {**meta["tolerances"], "max_newton_iters": 2.5}
                },
                "malformed solution record",
            ),
            (lambda meta, out: {**meta, "grid": {"N": BIG}}, "invalid grid data"),
            (lambda meta, out: {**meta, "grid": {"N": 48.5}}, "invalid grid data"),
            (lambda meta, out: {**meta, "grid": {"N": 48.9}}, "invalid grid data"),
            (lambda meta, out: {**meta, "grid": {"N": "48"}}, "invalid grid data"),
            # numbers the library checks before float() or int() would
            # parse a string or truncate 2.7: verify passed all of these
            (
                lambda meta, out: {**meta, "model": {**meta["model"], "s": "9"}},
                "s must be positive and finite, got '9'",
            ),
            (
                lambda meta, out: {**meta, "vortices": {**meta["vortices"], "sigma": "0.125"}},
                "sigma must be in (0, 1/4], got '0.125'",
            ),
            (
                lambda meta, out: {
                    **meta, "vortices": {**meta["vortices"], "points": [["0.5", "0.5"]]}
                },
                "vortex point ('0.5', '0.5') outside",
            ),
            (
                lambda meta, out: {**meta, "newton_iters": 2.7},
                "newton_iters must be a whole number >= 0, got 2.7",
            ),
            (
                lambda meta, out: {**meta, "newton_iters": "5"},
                "newton_iters must be a whole number >= 0, got '5'",
            ),
            # compute_u0's error, which named no file
            (
                lambda meta, out: {**meta, "vortices": {**meta["vortices"], "sigma": 0.01}},
                "resolvability floor",
            ),
            # a record of a format this reader does not know, or of none:
            # verify passed both
            (lambda meta, out: {**meta, "version": 99}, "unsupported record version 99"),
            (
                lambda meta, out: {k: v for k, v in meta.items() if k != "version"},
                "unsupported record version None",
            ),
            (lambda meta, out: {**meta, "version": True}, "unsupported record version True"),
        ],
        ids=[
            "list", "null-q", "null-sigma", "overflow", "weight-overflow", "huge-sigma",
            "overflowing-multiplicity", "fractional-multiplicity",
            "boolean-multiplicity", "boolean-q",
            "overflowing-newton-iters", "overflowing-max-newton-iters",
            "fractional-max-newton-iters",
            "overflowing-grid-N", "fractional-grid-N", "nearly-whole-grid-N",
            "string-grid-N", "string-s", "string-sigma", "string-points",
            "fractional-newton-iters", "string-newton-iters", "sigma-below-2h",
            "unknown-version", "missing-version", "boolean-version",
        ],
    )
    def test_malformed_record_exit_one(self, solved_dir, capsys, mangle, named):
        path = solved_dir / "solution.json"
        path.write_text(json.dumps(mangle(json.loads(path.read_text()), solved_dir)))
        capsys.readouterr()
        assert main(["verify", str(solved_dir)]) == 1
        err = capsys.readouterr().err
        assert "snapshot error" in err and named in err
        assert err.count(str(solved_dir)) == 1  # the file, named once

    def test_stored_u0_mismatch_exit_one(self, solved_dir, capsys):
        # a u0.fld that is not the background of the record's vortices
        path = solved_dir / "u0.fld"
        write_field(path, read_field(path) + 1e-9)
        capsys.readouterr()
        assert main(["verify", str(solved_dir)]) == 1
        err = capsys.readouterr().err
        assert "stored u0 does not match its vortex configuration" in err
        assert err.count(str(solved_dir)) == 1  # the file, named once

    def test_stored_bound_tol_is_ignored(self, solved_dir):
        # the slack is fixed: the reports are recomputed with 1e-6 + 10*sigma^2,
        # whatever bound_tol a record of an earlier release carries
        path = solved_dir / "solution.json"
        meta = json.loads(path.read_text())
        meta["tolerances"]["bound_tol"] = -1.0
        path.write_text(json.dumps(meta))
        assert main(["verify", str(solved_dir)]) == 0

    def test_record_field_paths_are_not_followed(self, tmp_path):
        dirs = {}
        for name, q in (("A", "40.0"), ("B", "80.0")):
            dirs[name] = tmp_path / name
            body = VORTEX_CONFIG.format(out=dirs[name]).replace("q = 40.0", f"q = {q}")
            cfg = write_config(tmp_path / f"{name}.cfg", body)
            assert main(["solve", "--config", cfg]) == 0
        # records of earlier releases named the snapshot files in "fields"
        path = dirs["A"] / "solution.json"
        meta = json.loads(path.read_text())
        meta["fields"] = {name: f"{name}.fld" for name in FIELD_FILES}
        meta["fields"]["u"] = str((dirs["B"] / "u.fld").resolve())
        path.write_text(json.dumps(meta))
        # verify reads A/u.fld, not the q = 80 solution the record names
        assert main(["verify", str(dirs["A"])]) == 0

    @settings(
        max_examples=300,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.sampled_from(RECORD_FIELDS), record_values)
    def test_arbitrary_problem_field_raises_only_snapshot_error(
        self, small_record, field, value
    ):
        out, original = small_record
        meta = copy.deepcopy(original)
        *parents, key = field
        target = meta
        for name in parents:
            target = target[name]
        target[key] = value
        (out / "solution.json").write_text(json.dumps(meta))
        try:
            bundle_from_snapshot(out)
        except SnapshotError:
            pass

    def test_verify_evaluates_nonlinearity_once(self, solved_dir, monkeypatch):
        from mcsvortex import NonlinearityModel

        calls = []
        original = NonlinearityModel._eval_arrays

        def counted(model, t):
            calls.append(1)
            return original(model, t)

        monkeypatch.setattr(NonlinearityModel, "_eval_arrays", counted)
        assert main(["verify", str(solved_dir)]) == 0
        assert len(calls) == 1


class TestSnapshotFormat:
    def test_field_round_trip(self, tmp_path, rng):
        grid = GridSpec(16)
        field = grid.field(rng.standard_normal((16, 16)))
        path = tmp_path / "field.fld"
        write_field(path, field)
        back = read_field(path)
        assert np.array_equal(back.values, field.values)

    def test_header_layout(self, tmp_path):
        grid = GridSpec(8)
        path = tmp_path / "field.fld"
        write_field(path, grid.constant(2.5))
        blob = path.read_bytes()
        assert blob[:8] == MAGIC
        version, n = struct.unpack_from("<II", blob, 8)
        assert version == 1 and n == 8
        assert len(blob) == 8 + 8 + 8 * 64

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.fld"
        path.write_bytes(b"NOTAFILE" + b"\x00" * 32)
        with pytest.raises(SnapshotError, match="magic"):
            read_field(path)

    def test_truncated_payload_rejected(self, tmp_path):
        grid = GridSpec(8)
        path = tmp_path / "field.fld"
        write_field(path, grid.constant(1.0))
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(SnapshotError, match="truncated"):
            read_field(path)

    @pytest.mark.parametrize("n", [0, 3])
    def test_invalid_grid_size_rejected(self, tmp_path, n):
        path = tmp_path / "field.fld"
        path.write_bytes(MAGIC + struct.pack("<II", 1, n) + bytes(8 * n * n))
        with pytest.raises(SnapshotError, match="grid size"):
            read_field(path)

    @settings(
        max_examples=200,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.one_of(
            st.binary(max_size=64),
            st.integers(0, 12).flatmap(
                lambda n: st.tuples(
                    st.integers(0, 2).map(lambda v: struct.pack("<II", v, n)),
                    st.binary(min_size=max(0, 8 * n * n - 8), max_size=8 * n * n + 8),
                ).map(lambda parts: MAGIC + parts[0] + parts[1])
            ),
        )
    )
    def test_arbitrary_bytes_raise_only_snapshot_error(self, tmp_path, blob):
        path = tmp_path / "field.fld"
        path.write_bytes(blob)
        try:
            read_field(path)
        except SnapshotError:
            pass

    def test_interrupted_record_write_keeps_the_old_record(self, tmp_path, monkeypatch):
        path = tmp_path / "record.json"
        path.write_text("old")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_text_atomic(path, "new")
        assert path.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["record.json"]

    def test_read_solution_requires_a_report_list(self, tmp_path):
        record = {
            "format": "mcsvortex-solution", "version": 1, "grid": {"N": 8},
            "reports": {"flux": "pass"},
        }
        path = tmp_path / "solution.json"
        path.write_text(json.dumps(record))
        with pytest.raises(SnapshotError, match=r"solution\.json: 'reports' must be a list"):
            read_solution(tmp_path)

    def test_read_solution_requires_all_fields(self, tmp_path):
        record = {"format": "mcsvortex-solution", "version": 1, "grid": {"N": 8}}
        (tmp_path / "solution.json").write_text(json.dumps(record))
        for missing in FIELD_FILES:
            for name in FIELD_FILES:
                path = tmp_path / f"{name}.fld"
                path.unlink(missing_ok=True)
                if name != missing:
                    write_field(path, GridSpec(8).constant(0.0))
            with pytest.raises(SnapshotError, match=rf"cannot read snapshot .*{missing}\.fld"):
                read_solution(tmp_path)
        write_field(tmp_path / f"{missing}.fld", GridSpec(8).constant(0.0))
        assert sorted(read_solution(tmp_path)[1]) == sorted(FIELD_FILES)
