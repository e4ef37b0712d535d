"""The experiment scripts run from the repository root and print their summary line."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(*argv) -> str:
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, ""), argv
    return proc.stdout


@pytest.mark.parametrize("extra", [[], ["--loss", "0.8"]], ids=["plain", "lossy"])
def test_capacity_window_counts_its_degradable_points(extra):
    out = _run("scripts/capacity_window.py", "--points", "9", *extra)
    rows = [line for line in out.splitlines() if re.match(r" *\d+\.\d{5} ", line)]
    degradable = sum(" degradable " in row for row in rows)
    assert len(rows) == 9
    assert out.splitlines()[-1] == f"degradable points: {degradable}/9"
    assert degradable > 0


@pytest.mark.parametrize("extra, summary", [
    ([], r"critical kappa = \d+\.\d{12} "),
    (["--t", "1", "--kmax", "0.1"], r"no degradability transition inside the scan range"),
], ids=["transition", "none"])
def test_decay_boundary_reports_the_critical_rate_or_none(extra, summary):
    out = _run("scripts/decay_boundary.py", "--points", "9", *extra)
    assert re.search(rf"^{summary}", out, re.MULTILINE)
