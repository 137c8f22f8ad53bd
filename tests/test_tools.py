"""tools/outputs_digest.py runs on this checkout and prints one digest per
benchmark output."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

OUTPUTS = [
    "solve_large.u", "solve_large.v", "solve_large.w", "solve_large.residual_norms",
    "solve_large.default_tol", "sweep_multi.tsv", "cli_roundtrip.solution.json",
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
    # the failed default-tolerance solve names how its last MINRES solve stopped
    failure = lines[OUTPUTS.index("solve_large.default_tol")]
    assert "line search (MINRES exit status 7)" in failure
