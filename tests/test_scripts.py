"""The experiment scripts run from any directory, warning-free, print their summary lines and the CLI's
numbers, and keep their memory flat in the point count."""

import contextlib
import csv
import math
import os
import re
import runpy
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from jcchannel import cli

ROOT = Path(__file__).resolve().parents[1]


def _proc(*argv, cwd=ROOT, env=None) -> subprocess.CompletedProcess:
    # -W error turns any warning, such as numpy's RuntimeWarning, into a failing exit
    return subprocess.run([sys.executable, "-W", "error", *argv], cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


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
    # g * g overflows: no time is in range, t = 0 included
    ("decay_boundary", ["--g", "1e300"],
     "error: the propagator leaves the float range at g = 1e+300, whose square overflows"),
    # g * g underflows: the Rabi frequency would lose g
    ("decay_boundary", ["--g", "1e-300"],
     "error: the propagator leaves the float range at g = 1e-300, whose square underflows"),
    ("capacity_window", ["--g", "1e-300"],
     "error: the propagator leaves the float range at g = 1e-300, whose square underflows"),
    ("capacity_window", ["--g", "1e-160"],
     "error: the propagator leaves the float range at g = 1e-160, whose square underflows"),
    # at the scan's kappa = 5e307, (kappa / 4)^2 overflows
    ("decay_boundary", ["--kmax", "1e308", "--points", "3"],
     "error: the propagator leaves the float range at kappa = 5e+307"),
])
def test_scripts_report_a_value_the_model_cannot_evaluate(script, argv, message):
    proc = _proc(f"scripts/{script}.py", *argv)
    assert (proc.returncode, proc.stderr) == (2, message + "\n")



def test_capacity_window_reports_a_csv_path_it_cannot_write(tmp_path):
    target = tmp_path / "missing" / "window.csv"
    proc = _proc("scripts/capacity_window.py", "--points", "3", "--csv", str(target))
    assert (proc.returncode, proc.stderr) == (2, f"error: cannot write {target}: No such file or directory\n")
    assert "Traceback" not in proc.stderr and not target.parent.exists()


@pytest.mark.parametrize("script", ["capacity_window", "decay_boundary"])
def test_scripts_run_from_any_directory(tmp_path, script):
    # the package comes from the script's own checkout, not from the working directory or PYTHONPATH
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _proc(str(ROOT / "scripts" / f"{script}.py"), "--points", "3", cwd=tmp_path, env=env)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_capacity_window_takes_a_grid_whose_products_overflow():
    # tmax * 2 overflows, but every grid point 0, 5e307, 1e308 is finite
    rows = [line.split() for line in _run("scripts/capacity_window.py", "--tmax", "1e308", "--points", "3").splitlines()
            if re.match(r" *\d+\.\d{5} ", line)]
    assert [float(row[0]) for row in rows] == [0.0, 5e307, 1e308]


@pytest.mark.parametrize("extra", [[], ["--loss", "0.8"]], ids=["plain", "lossy"])
def test_capacity_window_prints_the_cli_numbers(tmp_path, extra):
    # each CSV row carries compute_record's keep share, status, Q and p* for its point
    path = tmp_path / "window.csv"
    _run("scripts/capacity_window.py", "--points", "9", "--csv", str(path), *extra)
    with path.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["t", "keep_prob", "status", "Q", "p_star"] and len(rows) == 9
    for t, keep_prob, status, q, p_star in rows:
        vals = {"g": 1.0, "delta": 0.0, "t": float(t), "nu": 0.0}
        if extra:  # the receiving stage: resonant, half a cycle, after a fiber of transmittance 0.8
            vals.update(g2=1.0, delta2=0.0, t2=math.pi / 2.0, T=0.8)
        outputs = cli.compute_record("concat" if extra else "conversion", vals).outputs
        assert (float(keep_prob), status, float(q), float(p_star)) == tuple(outputs[i] for i in (0, 2, 3, 4))


@pytest.mark.parametrize("t, points", [(1e300, 6), (2.356194490192345, 21)], ids=["huge-t", "default"])
def test_decay_boundary_calls_boundary_what_capacity_calls_boundary(t, points):
    # the default scan at its default t and points; the huge t underflows both populations for kappa > 0
    argv = [] if points == 21 else ["--t", repr(t), "--points", str(points)]
    rows = _run("scripts/decay_boundary.py", *argv).splitlines()[1:points + 1]
    for i, row in enumerate(rows):
        vals = {"g": 1.0, "delta": 0.0, "t": t, "kappa": 2.0 * i / (points - 1), "gamma": 0.0, "nu": 0.0}
        status = cli.compute_record("decayed", vals).outputs[2]
        assert (row.split()[-1] == "boundary") == (status == "boundary"), row
    assert any(row.split()[-1] == "boundary" for row in rows)


def _traced_peak(script: str, argv: list, monkeypatch) -> int:
    """tracemalloc's peak, in bytes, over one main() call of a script, its stdout discarded."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends its src/
    main = runpy.run_path(str(ROOT / "scripts" / f"{script}.py"))["main"]
    monkeypatch.setattr(sys, "argv", [script, *argv])
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        tracemalloc.start()
        try:
            main()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_capacity_window_memory_is_flat_in_the_point_count(tmp_path, monkeypatch):
    # rows go out as they are made; lists of every point's channel and row peaked at ~7 MB here
    path = tmp_path / "window.csv"
    peak = _traced_peak("capacity_window", ["--points", "20000", "--csv", str(path)], monkeypatch)
    assert peak < 1_000_000
    assert path.read_text().count("\n") == 20001


def test_decay_boundary_memory_is_flat_in_the_point_count(monkeypatch):
    # only the last point off the boundary is kept; a list of every such point peaked at ~2.1 MB here
    assert _traced_peak("decay_boundary", ["--points", "20000"], monkeypatch) < 1_000_000
