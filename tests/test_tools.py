"""tools/outputs_digest.py runs on this checkout and prints one digest per
benchmark output."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

OUTPUTS = [
    "solve_large.u", "solve_large.v", "solve_large.w", "solve_large.residual_norms",
    "solve_large.newton_iters", "solve_large.default_tol", "solve_large.default_tol.u",
    "solve_large.default_tol.v", "solve_large.default_tol.w",
    "solve_large.default_tol.residual_norms", "solve_large.default_tol.newton_iters",
    "sweep_multi.tsv", "cli_roundtrip.solution.json",
    "cli_roundtrip.u.fld", "cli_roundtrip.v.fld", "cli_roundtrip.w.fld",
    "cli_roundtrip.u0.fld", "cli_roundtrip.verify",
]


def test_outputs_digest():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "outputs_digest.py"), str(ROOT), "--seed", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line.split()[0] for line in lines] == OUTPUTS
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[1]) for line in lines)
    # the default-tolerance solve converges, so its fields are digested too
    outcome = lines[OUTPUTS.index("solve_large.default_tol")]
    assert outcome.split()[2:] == ["converged"]


def test_code_lines_counts_code_only(tmp_path):
    # docstrings, comments and blank lines are not code; a line that holds
    # code and a comment, or a def and its one-line docstring, is
    package = tmp_path / "src" / "mcsvortex"
    package.mkdir(parents=True)
    (package / "small.py").write_text(
        '"""Module docstring,\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # code and a comment\n"
        "\n"
        "def f(a):\n"
        '    """Function docstring."""\n'
        '    return """not a docstring\n'
        '    but a value"""\n'
        "\n"
        "class C:\n"
        '    def g(self): """one-line docstring"""\n',
        encoding="utf-8",
    )
    (package / "__init__.py").write_text("", encoding="utf-8")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    rows = [line.split() for line in run.stdout.splitlines()]
    assert rows == [
        ["module", str(tmp_path)], ["__init__.py", "0"], ["small.py", "6"], ["total", "6"],
    ]
