"""The experiment scripts run from the repository root, warning-free, and print their summary lines."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(*argv) -> str:
    # -W error turns any warning, such as numpy's RuntimeWarning, into a failing exit
    proc = subprocess.run(
        [sys.executable, "-W", "error", *argv], cwd=ROOT, capture_output=True, text=True, timeout=120
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


@pytest.mark.parametrize("argv, critical", [
    (["--points", "9"], ["1.671285"]),
    (["--points", "9", "--kmax", "0.1"], []),  # kappa = 0 sits on the boundary, no side
    (["--points", "9", "--t", "1", "--kmax", "0.1"], []),
    # three sign changes of the gap; kappa = 4 is critical damping
    (["--points", "41", "--t", "3.9", "--kmax", "4"], ["0.308628", "0.716110", "3.541800"]),
], ids=["transition", "boundary-start", "none", "three"])
def test_decay_boundary_reports_the_critical_rate_or_none(argv, critical):
    # one critical kappa line per transition
    out = _run("scripts/decay_boundary.py", *argv)
    found = re.findall(r"^critical kappa = (\d+\.\d{6})\d{6} ", out, re.MULTILINE)
    assert found == critical
    none = "no degradability transition inside the scan range"
    assert (none in out.splitlines()) == (not critical)
