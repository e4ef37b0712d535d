"""The experiment scripts run from the repository root, warning-free, and print their summary lines."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _proc(*argv) -> subprocess.CompletedProcess:
    # -W error turns any warning, such as numpy's RuntimeWarning, into a failing exit
    return subprocess.run([sys.executable, "-W", "error", *argv], cwd=ROOT, capture_output=True, text=True, timeout=120)


def _run(*argv) -> str:
    proc = _proc(*argv)
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
    (["--points", "2"], []),  # the fewest points a scan takes
    # three sign changes of the gap; kappa = 4 is critical damping
    (["--points", "41", "--t", "3.9", "--kmax", "4"], ["0.308628", "0.716110", "3.541800"]),
], ids=["transition", "boundary-start", "none", "two-points", "three"])
def test_decay_boundary_reports_the_critical_rate_or_none(argv, critical):
    # one critical kappa line per transition
    out = _run("scripts/decay_boundary.py", *argv)
    found = re.findall(r"^critical kappa = (\d+\.\d{6})\d{6} ", out, re.MULTILINE)
    assert found == critical
    none = "no degradability transition inside the scan range"
    assert (none in out.splitlines()) == (not critical)


def test_decay_boundary_gives_no_verdict_on_the_boundary():
    # at t = 1e300 both populations underflow to 0 for every kappa > 0, and
    # the sign expression has no precision left; kappa = 0 keeps its side
    out = _run("scripts/decay_boundary.py", "--t", "1e300", "--points", "6")
    rows = [line.split() for line in out.splitlines()[1:7]]
    assert [row[0] for row in rows] == ["0.0000", "0.4000", "0.8000", "1.2000", "1.6000", "2.0000"]
    assert [row[-1] for row in rows] == ["True"] + ["boundary"] * 5
    assert all(row[1:4] == ["0.00000000", "0.00000000", "0.0000e+00"] for row in rows[1:])
    # the default scan starts on the tie |h_keep|^2 = |h_env|^2 = 1/2
    first = _run("scripts/decay_boundary.py", "--points", "3").splitlines()[1].split()
    assert (first[0], first[-1]) == ("0.0000", "boundary")


@pytest.mark.parametrize("script, argv, message", [
    ("capacity_window", ["--g", "0"], "--g must be positive, got 0.0"),
    ("capacity_window", ["--g", "-1"], "--g must be positive, got -1.0"),
    ("capacity_window", ["--g", "nan"], "--g must be finite, got nan"),
    ("capacity_window", ["--delta", "inf"], "--delta must be finite, got inf"),
    ("capacity_window", ["--tmax", "-1"], "--tmax must be nonnegative, got -1.0"),
    ("capacity_window", ["--loss", "1.5"], "--loss must lie in [0, 1], got 1.5"),
    ("capacity_window", ["--loss", "-0.1"], "--loss must lie in [0, 1], got -0.1"),
    ("capacity_window", ["--points", "0"], "--points must be at least 1, got 0"),
    ("decay_boundary", ["--g", "0"], "--g must be positive, got 0.0"),
    ("decay_boundary", ["--g", "inf"], "--g must be finite, got inf"),
    ("decay_boundary", ["--delta", "nan"], "--delta must be finite, got nan"),
    ("decay_boundary", ["--t", "-1"], "--t must be nonnegative, got -1.0"),
    ("decay_boundary", ["--kmax", "-1"], "--kmax must be nonnegative, got -1.0"),
    ("decay_boundary", ["--gamma", "-0.5"], "--gamma must be nonnegative, got -0.5"),
    ("decay_boundary", ["--gamma", "inf"], "--gamma must be finite, got inf"),
    ("decay_boundary", ["--points", "0"], "--points must be at least 2, got 0"),
    ("decay_boundary", ["--points", "1"], "--points must be at least 2, got 1"),
    # the default tmax, 2 pi / g, overflows
    ("capacity_window", ["--g", "1e-320"], "--g must keep the default --tmax = 2*pi/g finite, got 1e-320"),
])
def test_scripts_reject_invalid_arguments_with_a_usage_error(script, argv, message):
    # exit 2 and one error line naming the flag; nothing on stdout, no traceback
    proc = _proc(f"scripts/{script}.py", *argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines()[-1] == f"{script}.py: error: {message}"
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("script, argv, message", [
    ("decay_boundary", ["--g", "1e300"], "error: the propagator leaves the float range at t = 2.356194490192345"),
    # g * g underflows: the Rabi frequency would lose g
    ("decay_boundary", ["--g", "1e-300"], "error: the propagator leaves the float range at t = 2.356194490192345"),
    ("capacity_window", ["--g", "1e-300"], "error: the propagator leaves the float range at t = 0.0"),
    ("capacity_window", ["--g", "1e-160"], "error: the propagator leaves the float range at t = 0.0"),
])
def test_scripts_report_a_value_the_model_cannot_evaluate(script, argv, message):
    proc = _proc(f"scripts/{script}.py", *argv)
    assert (proc.returncode, proc.stderr) == (2, message + "\n")

