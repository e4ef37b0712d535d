"""Command-line behavior: records, determinism, formats, exit codes."""

import importlib.util
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from jcchannel import cli
from jcchannel.cli import (
    _STATUS_TEXT,
    CSV_HEADER,
    EVOLVE_HEADER,
    OUTPUTS,
    SWEEP_CHUNK,
    RunRecord,
    SweepAxis,
    _emit,
    _glue_negative_values,
    _grid_chunks,
    _merge_config,
    _parse,
    _parse_axis,
    _sweep_lines,
    build_parser,
    compute_record,
    main,
)
from jcchannel.jc import JCParams
from jcchannel.lindblad import DecayParams, closed_form_state
from jcchannel.qmat import QubitInput

CONVERSION_VALS = dict(g=1.0, delta=0.0, t=math.pi / 2, nu=0.0)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _outputs(rec) -> dict:
    """A record's output values by column name."""
    return dict(zip(_OUTPUT_COLUMNS, rec.outputs))


def test_compute_record_conversion():
    rec = compute_record("conversion", CONVERSION_VALS)
    out = _outputs(rec)
    assert out["h_keep_sq"] == pytest.approx(1.0, abs=1e-12)
    assert out["status"] == "degradable"
    assert out["Q"] == pytest.approx(1.0, abs=1e-10)
    assert rec.cells["T"] is None
    assert rec.wall_time_s >= 0.0


def test_compute_record_decayed():
    vals = dict(CONVERSION_VALS, kappa=0.2, gamma=0.0)
    rec = compute_record("decayed", vals)
    assert _outputs(rec)["h_keep_sq"] == pytest.approx(0.8567746367339336, abs=1e-9)
    assert rec.cells["kappa"] == "0.2"


def test_csv_row_matches_header_arity():
    rec = compute_record("conversion", CONVERSION_VALS)
    assert len(rec.csv_row().split(",")) == len(CSV_HEADER.split(","))


def test_capacity_human_output(capsys):
    code, out, _ = run_cli(
        ["capacity", "--mode", "conversion", "--g", "1", "--delta", "0", "--t", "1.5707963"],
        capsys,
    )
    assert code == 0
    assert "Degradable" in out
    assert "Q" in out


def test_capacity_antidegradable_output(capsys):
    code, out, _ = run_cli(
        ["capacity", "--mode", "conversion", "--g", "1", "--delta", "0", "--t", "0.3926991"],
        capsys,
    )
    assert code == 0
    assert "AntiDegradable" in out
    q_line = next(line for line in out.splitlines() if line.startswith("Q "))
    assert q_line.split()[-1] == "0.0"


def test_capacity_json_round_trip(capsys):
    code, out, _ = run_cli(
        ["capacity", "--mode", "concat", "--g", "1", "--t", "1.5707963", "--T", "0.9",
         "--g2", "1", "--t2", "1.5707963", "--json"],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["mode"] == "concat"
    assert obj["Q"] == pytest.approx(0.710, abs=1e-3)
    # feeding the recorded parameters back reproduces Q exactly
    vals = dict(g=obj["g"], delta=obj["delta"], t=obj["t"], g2=obj["g2"],
                delta2=obj["delta2"], t2=obj["t2"], T=obj["T"], nu=0.0)
    rec = compute_record("concat", vals)
    assert _outputs(rec)["Q"] == obj["Q"]


def test_missing_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "--mode", "conversion", "--g", "1"])
    assert exc.value.code == 2
    assert "--t" in capsys.readouterr().err


def usage_error(args, capsys) -> str:
    """Run args, expect a usage error with nothing on stdout; return stderr."""
    with pytest.raises(SystemExit) as exc:
        main(args)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    return err


# every required flag of each mode, with a valid value
_REQUIRED_FLAGS = {
    "conversion": {"g": "1", "t": "1.2"},
    "concat": {"g": "1", "t": "1.2", "g2": "1.1", "t2": "1.3", "T": "0.8"},
    "decayed": {"g": "1", "t": "1.2"},
}


@pytest.mark.parametrize("mode, missing", [
    (mode, name) for mode, flags in _REQUIRED_FLAGS.items() for name in flags
])
def test_each_missing_required_flag_exits_2(mode, missing, capsys):
    args = ["capacity", "--mode", mode]
    for name, value in _REQUIRED_FLAGS[mode].items():
        if name != missing:
            args += [f"--{name}", value]
    err = usage_error(args, capsys)
    assert f"--{missing} is required for mode {mode}" in err


_PARAM_COLUMNS = ("g", "delta", "t", "g2", "delta2", "t2", "T", "kappa", "gamma")
_OUTPUT_COLUMNS = ("h_keep_sq", "h_env_sq", "status", "Q", "p_star")

# every column of every mode, with a range inside its domain
_COLUMN_RANGES = {
    "g": "0.5:1.5", "delta": "0.2:1.4", "t": "0.3:1.3", "g2": "0.5:1.5",
    "delta2": "0.2:1.4", "t2": "0.3:1.3", "T": "0.2:0.9", "kappa": "0.1:0.9",
    "gamma": "0.1:0.9",
}
_MODE_COLUMNS = {
    "conversion": ("g", "delta", "t"),
    "concat": ("g", "delta", "t", "g2", "delta2", "t2", "T"),
    "decayed": ("g", "delta", "t", "kappa", "gamma"),
}


@pytest.mark.parametrize("mode, column", [
    (mode, column) for mode, columns in _MODE_COLUMNS.items() for column in columns
])
def test_every_mode_column_is_a_sweep_axis(mode, column, capsys):
    args = ["sweep", "--mode", mode]
    for name, value in _REQUIRED_FLAGS[mode].items():
        if name != column:  # a flag for the swept column is a usage error
            args += [f"--{name}", value]
    code, out, _ = run_cli(args + ["--sweep", f"{column}:{_COLUMN_RANGES[column]}:3"], capsys)
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    start, stop = (float(x) for x in _COLUMN_RANGES[column].split(":"))
    assert [float(r[column]) for r in rows] == np.linspace(start, stop, 3).tolist()
    assert len({r["h_keep_sq"] for r in rows}) == 3
    # columns the mode does not have stay empty
    assert all(r[c] == "" for r in rows for c in _PARAM_COLUMNS if c not in _MODE_COLUMNS[mode])


@pytest.mark.parametrize("args, flag", [
    (["capacity", "--g", "1", "--t", "1", "--delta", "nan"], "--delta"),
    (["capacity", "--g", "inf", "--t", "1"], "--g"),
    (["capacity", "--g", "1", "--t", "1", "--nu=-inf"], "--nu"),
    (["capacity", "--mode", "concat", "--g", "1", "--t", "1", "--g2", "1", "--t2", "1",
      "--T", "nan"], "--T"),
    (["capacity", "--mode", "decayed", "--g", "1", "--t", "1", "--kappa", "inf"], "--kappa"),
    (["sweep", "--g", "1", "--sweep", "t:0:inf:3"], "--t"),
    (["sweep", "--g", "1", "--sweep", "t:nan:1:3"], "--t"),
    (["sweep", "--g", "1", "--t", "1", "--sweep", "delta:-inf:0:3"], "--delta"),
    (["evolve", "--g", "1", "--t", "inf"], "--t"),
    (["evolve", "--g", "1", "--sweep", "t:0:inf:3"], "--t"),
    (["degrade", "--g", "1", "--t", "nan"], "--t"),
    (["capacity", "--g", "1", "--t", "1", "--nu", "-inf"], "--nu"),
])
def test_non_finite_values_are_usage_errors(args, flag, capsys):
    err = usage_error(args, capsys)
    assert f"{flag} must be finite" in err


def test_non_finite_config_value_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("g = 1\nt = inf\n")
    err = usage_error(["capacity", "--config", str(cfg)], capsys)
    assert "--t must be finite" in err


@pytest.mark.parametrize("args, flag", [
    (["evolve", "--g", "1", "--kappa", "0.5", "--sweep", "t:-3:0:2"], "--t"),
    (["evolve", "--g", "1", "--kappa", "0.5", "--t", "-1"], "--t"),
    (["evolve", "--g", "-1", "--t", "1"], "--g"),
    (["evolve", "--g", "1", "--t", "1", "--gamma", "-0.1"], "--gamma"),
])
def test_evolve_checks_its_time_axis_and_values(args, flag, capsys):
    err = usage_error(args, capsys)
    assert f"{flag} must be" in err


def test_negative_exponent_value_is_read_as_a_value(capsys):
    code, out, _ = run_cli(["capacity", "--g", "1", "--t", "1", "--delta", "-1e-3"], capsys)
    assert code == 0
    assert run_cli(["capacity", "--g", "1", "--t", "1", "--delta=-1e-3"], capsys)[1] == out
    assert "-0.001" in out


def test_degrade_rejects_sweep(capsys):
    err = usage_error(["degrade", "--g", "1", "--t", "1.2", "--sweep", "t:0:1:3"], capsys)
    assert "unrecognized arguments: --sweep t:0:1:3" in err


@pytest.mark.parametrize("command", [
    ["capacity", "--g", "1", "--t", "1.2"],
    ["degrade", "--g", "1", "--t", "1.2"],
    ["evolve", "--g", "1", "--t", "1.2", "--kappa", "0.1"],
    ["sweep", "--g", "1", "--sweep", "t:0:1:3"],
])
def test_stamp_heads_file_output_of_every_subcommand(command, tmp_path):
    out = tmp_path / "out.txt"
    assert main(command + ["--stamp", "--out", str(out)]) == 0
    assert out.read_text().startswith("# generated ")
    assert main(command + ["--stamp", "--json", "--out", str(out)]) == 0
    assert "stamp" in json.loads(out.read_text().splitlines()[0])


def test_bad_mode_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "--mode", "nonsense", "--g", "1", "--t", "1"])
    assert exc.value.code == 2


def test_sweep_requires_axis(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--mode", "conversion", "--g", "1", "--t", "1"])
    assert exc.value.code == 2
    assert "--sweep" in capsys.readouterr().err


def test_sweep_axis_validation(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--mode", "conversion", "--g", "1", "--sweep", "t:3:1:5"])
    with pytest.raises(SystemExit):  # grid indices must fit in int64
        _parse_axis(f"t:0:1:{2**62 + 1}", build_parser())
    with pytest.raises(SystemExit):
        main(["sweep", "--mode", "conversion", "--g", "1", "--sweep", "T:0:1:3"])
    capsys.readouterr()


@pytest.mark.parametrize("sweeps, message", [
    (["t:0:1"], "--sweep: expected AXIS:START:STOP:COUNT, got 't:0:1'"),
    (["t:0:1:3:4"], "--sweep: expected AXIS:START:STOP:COUNT, got 't:0:1:3:4'"),
    (["t:a:1:3"], "--sweep: non-numeric bounds in 't:a:1:3'"),
    (["t:0:1e:3"], "--sweep: non-numeric bounds in 't:0:1e:3'"),
    (["t:0:1:2.5"], "--sweep: count must be an integer from 1 to 2**62 in 't:0:1:2.5'"),
    (["t:0:1:0"], "--sweep: count must be an integer from 1 to 2**62 in 't:0:1:0'"),
    (["t:0:1:-3"], "--sweep: count must be an integer from 1 to 2**62 in 't:0:1:-3'"),
    ([f"t:0:1:{2**62 + 1}"], f"--sweep: count must be an integer from 1 to 2**62 in 't:0:1:{2**62 + 1}'"),
    (["t:0:1:3", "delta:0:1:2", "t:0:2:2"], "--sweep: duplicate axis names"),
])
def test_a_malformed_sweep_axis_is_a_usage_error_naming_it(sweeps, message, capsys):
    err = usage_error(["sweep", "--g", "1", *(a for s in sweeps for a in ("--sweep", s))], capsys)
    assert err.endswith(f"jcchannel: error: {message}\n")


def test_sweep_grid_order_row_major(capsys):
    code, out, _ = run_cli(
        ["sweep", "--mode", "conversion", "--g", "1",
         "--sweep", "delta:0:1:2", "--sweep", "t:0:1:3", "--threads", "1"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    deltas = [r[2] for r in rows]
    ts = [r[3] for r in rows]
    # first axis varies slowest
    assert deltas == ["0.0", "0.0", "0.0", "1.0", "1.0", "1.0"]
    assert ts == ["0.0", "0.5", "1.0"] * 2


def test_sweep_thread_determinism(tmp_path):
    args = ["sweep", "--mode", "conversion", "--g", "1",
            "--sweep", "t:0:3:25", "--sweep", "delta:0:2:3"]
    f1, f8 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--threads", "1", "--out", str(f1)]) == 0
    assert main(args + ["--threads", "8", "--out", str(f8)]) == 0
    assert f1.read_bytes() == f8.read_bytes()


def test_threads_below_one_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--mode", "conversion", "--g", "1", "--sweep", "t:0:1:3",
              "--threads", "0"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_sweep_streams_rows_without_materializing_the_grid():
    # 125k points: the first rows must come out before the grid is built
    axes = (SweepAxis("g", 0.5, 2.0, 50), SweepAxis("delta", -1.0, 1.0, 50),
            SweepAxis("t", 0.0, 3.0, 50))
    tracemalloc.start()
    try:
        blocks = list(itertools.islice(_sweep_lines("conversion", axes, {"nu": 0.0}, False), 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lines = "".join(blocks).splitlines()  # the header, then the first chunk's rows
    assert lines[0] == CSV_HEADER and len(lines) == 1 + SWEEP_CHUNK
    assert peak < 2_000_000


def test_axis_values_equal_linspace_bit_for_bit():
    cases = [(0.0, 5e-324, 3), (0.0, 5e-324, 2), (0.0, 1e-320, 7), (1.0, 1.0, 4),
             (-0.0, -0.0, 3), (-0.0, 1.0, 3), (-0.0, 1.0, 1), (0.1, 0.7, 1),
             (-2.0, 3.3, 2), (0.0, 3.0, SWEEP_CHUNK + 3), (-1.7, 2.9, SWEEP_CHUNK + 3)]
    for start, stop, count in cases:
        got = [v for _, (chunk,) in _grid_chunks((SweepAxis("t", start, stop, count),)) for v in chunk.tolist()]
        want = np.linspace(start, stop, count).tolist()
        # repr tells -0.0 from 0.0
        assert [repr(v) for v in got] == [repr(v) for v in want], (start, stop, count)


def test_long_axis_streams_rows_without_materializing_it():
    # 2,000,000 points on one axis: memory must not grow with the count
    axes = (SweepAxis("t", 0.0, 3.0, 2_000_000),)
    fixed = {"g": 1.0, "delta": 0.0, "nu": 0.0}
    tracemalloc.start()
    try:
        blocks = list(itertools.islice(_sweep_lines("conversion", axes, fixed, False), 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lines = "".join(blocks).splitlines()  # the header, then the first chunk's rows
    assert lines[0] == CSV_HEADER and len(lines) == 1 + SWEEP_CHUNK
    assert peak < 2_000_000


# (mode, fixed flags, sweep axes); every grid spans a chunk boundary
_N = SWEEP_CHUNK + 3
_CHUNK_SWEEPS = {
    # a t axis from 0 to 1.6 ends in the degradable region, so both chunks
    # hold searched lanes
    "conversion": ("conversion", ["--g", "1", "--delta", "0.3"], [f"t:0:1.6:{_N}"]),
    "concat": ("concat", ["--g", "1", "--g2", "1.2", "--t2", "1.3", "--T", "0.9"],
               [f"t:0:1.6:{_N}"]),
    "decayed": ("decayed", ["--g", "1", "--kappa", "0.2", "--gamma", "0.1"], [f"t:0:1.6:{_N}"]),
    # t = 0, then the |mu t| < 1e-8 series, then sin(mu t) / mu
    "series-branch": ("conversion", ["--g", "1", "--delta", "0.3"], [f"t:0:2e-8:{_N}"]),
    # delta = 0 and kappa - gamma = 4 g: mu = 0 at every t
    "exceptional-point": ("decayed", ["--g", "1", "--kappa", "4"], [f"t:0:3:{_N}"]),
    # kappa crosses 4 exactly at index SWEEP_CHUNK / 2, where mu = 0 again
    "kappa-axis": ("decayed", ["--g", "1", "--t", "1.1"], [f"kappa:2:6:{SWEEP_CHUNK + 1}"]),
    # kappa = gamma on the diagonal of a square grid of more than a chunk
    "kappa-equals-gamma": ("decayed", ["--g", "1", "--t", "1.1", "--delta", "0.2"],
                           [f"{name}:0:1:{math.isqrt(SWEEP_CHUNK) + 1}" for name in ("kappa", "gamma")]),
    # mu^2 = 7.5i, purely imaginary: g^2 + delta^2/4 = (kappa - gamma)^2/16
    "imaginary-mu-squared": ("decayed", ["--g", "2", "--delta", "3", "--kappa", "10"],
                             [f"t:0:4:{_N}"]),
    "large-detuning-nu": ("conversion", ["--g", "1", "--t", "1.3", "--nu", "0.7"],
                          [f"delta:-1e3:1e3:{_N}"]),
    "transmittance-ends": ("concat", ["--g", "1", "--t", "1.5", "--delta", "0.4", "--g2", "1.2",
                                      "--t2", "1.3", "--nu", "-0.3"], [f"T:0:1:{_N}"]),
    # nu + delta overflows in the second chunk: JCParams.omega is not finite
    "omega-overflow": ("conversion", ["--g", "1", "--nu", "1e308"],
                       ["delta:0:1e308:2", f"t:0:1:{_N}"]),
    # the propagator leaves the float range in the second chunk, from kappa
    # ~2834 (|Im(mu t)| above log(DBL_MAX / 4)), 94% of the way along
    "decay-out-of-range": ("decayed", ["--g", "1", "--t", "1"], [f"kappa:0:3000:{SWEEP_CHUNK + SWEEP_CHUNK // 8}"]),
}


def _expected_sweep(mode, flags, sweeps):
    """The rows of the grid's points, each from its own compute_record, up to
    the first point that raises.

    A row is a dict of its columns, built here from the point's values and
    the record's outputs, not by the CLI's row template.
    """
    fixed = dict.fromkeys((*_MODE_COLUMNS[mode], "nu"), 0.0)
    fixed.update((k[2:], float(v)) for k, v in zip(flags[::2], flags[1::2]))
    axes = [s.split(":") for s in sweeps]
    rows = []
    for values in itertools.product(
        *(np.linspace(float(a), float(b), int(n)).tolist() for _, a, b, n in axes)
    ):
        point = dict(fixed, **dict(zip([axis[0] for axis in axes], values)))
        try:
            rec = compute_record(mode, point)
        except ValueError as e:
            return rows, f"error: {e}\n"
        params = {name: point[name] if name in _MODE_COLUMNS[mode] else None for name in _PARAM_COLUMNS}
        rows.append({"mode": mode, **params, **_outputs(rec)})
    return rows, ""


def _csv_line(row: dict) -> str:
    return ",".join("" if v is None else v if isinstance(v, str) else repr(v) for v in row.values())


@pytest.mark.parametrize("case", sorted(_CHUNK_SWEEPS))
def test_batched_sweep_rows_equal_per_point_records(case, capsys):
    mode, flags, sweeps = _CHUNK_SWEEPS[case]
    args = ["sweep", "--mode", mode, *flags, *(a for s in sweeps for a in ("--sweep", s))]
    rows, error = _expected_sweep(mode, flags, sweeps)
    code, out, err = run_cli(args, capsys)
    assert (code, err) == ((2, error) if error else (0, ""))
    header = ",".join(("mode", *_PARAM_COLUMNS, *_OUTPUT_COLUMNS))
    assert out.splitlines() == [header] + [_csv_line(row) for row in rows]
    code, out, err = run_cli(args + ["--json"], capsys)
    assert (code, err) == ((2, error) if error else (0, ""))
    assert out.splitlines() == [json.dumps(row) for row in rows]
    if case in ("conversion", "concat", "decayed"):
        searched = [row["Q"] > 0.0 for row in rows]
        assert sum(searched[:SWEEP_CHUNK]) > 100 and all(searched[SWEEP_CHUNK:])
    else:
        assert len(rows) >= SWEEP_CHUNK


def _sweep_argv(case: str) -> list:
    mode, flags, sweeps = _CHUNK_SWEEPS[case]
    return ["sweep", "--mode", mode, *flags, *(a for s in sweeps for a in ("--sweep", s))]


# (argv, exit code, output lines, stderr): a sweep across a chunk boundary, then a sweep and an
# evolve that stop at a point the one-point path rejects, after every row before it
_CHUNK_SIZE_CASES = {
    "conversion": (_sweep_argv("conversion"), 0, 1 + _N, ""),
    "decay-out-of-range": (_sweep_argv("decay-out-of-range"), 2, 1 + 2176,
                           "error: the propagator leaves the float range at t = 1.0\n"),
    "evolve-out-of-range": (["evolve", "--g", "1", "--kappa", "1e4", "--sweep", f"t:0:0.5:{3 * SWEEP_CHUNK}"], 2,
                            3483, "error: the propagator leaves the float range at t = 0.28341201367410057\n"),
}


@pytest.mark.parametrize("case", _CHUNK_SIZE_CASES)
def test_the_output_is_the_same_for_every_chunk_size(case, monkeypatch, capsys):
    argv, code, lines, err = _CHUNK_SIZE_CASES[case]
    runs = []
    for chunk in (7, 1024, 2048):
        monkeypatch.setattr(cli, "SWEEP_CHUNK", chunk)
        runs.append(run_cli(argv, capsys))
    assert runs[0] == runs[1] == runs[2]
    assert (runs[0][0], len(runs[0][1].splitlines()), runs[0][2]) == (code, lines, err)


# (mode, flags, the value the one-point sweep's t axis takes, Q's cell or None)
_ONE_POINTS = {
    "t-zero": ("conversion", ["--g", "1"], "0", "0.0"),
    "perfect-transfer": ("conversion", ["--g", "2"], "0.7853981633974483", "1.0"),
    "boundary": ("conversion", ["--g", "1"], "0.7853981633974483", "0.0"),
    "anti-degradable": ("conversion", ["--g", "1.3", "--delta", "0.4", "--nu", "0.2"], "0.3", "0.0"),
    "negative-zero-detuning": ("conversion", ["--g", "1.3", "--delta", "-0.0"], "1.1", None),
    "transmittance-zero": ("concat", ["--g", "1", "--g2", "1", "--t2", "1.5707963267948966",
                                      "--T", "0"], "1.5707963267948966", "0.0"),
    "transmittance-one": ("concat", ["--g", "1", "--g2", "1", "--t2", "1.5707963267948966",
                                     "--T", "1"], "1.5707963267948966", "1.0"),
    "lossy-link": ("concat", ["--g", "1.2", "--delta", "0.3", "--g2", "0.9", "--delta2", "-0.0",
                              "--t2", "1.4", "--T", "0.8"], "1.3", None),
    "decayed-t-zero": ("decayed", ["--g", "1", "--kappa", "0.5"], "0", "0.0"),
    "decayed": ("decayed", ["--g", "1.2", "--delta", "-0.0", "--kappa", "0.3", "--gamma", "0.1"],
                "1.1", None),
}


@pytest.mark.parametrize("case", sorted(_ONE_POINTS))
def test_capacity_prints_the_one_point_sweep_row(case, capsys):
    mode, flags, t, q = _ONE_POINTS[case]
    point = ["--mode", mode, *flags]
    code, out, err = run_cli(["sweep", *point, "--sweep", f"t:{t}:{t}:1"], capsys)
    assert (code, err) == (0, "")
    header, line = out.splitlines()
    assert header == ",".join(("mode", *_PARAM_COLUMNS, *OUTPUTS))
    cells = line.split(",")
    assert q is None or cells[header.split(",").index("Q")] == q
    code, out, err = run_cli(["sweep", *point, "--sweep", f"t:{t}:{t}:1", "--json"], capsys)
    assert (code, err) == (0, "")
    [json_line] = out.splitlines()
    assert list(json.loads(json_line)) == ["mode", *_PARAM_COLUMNS, *OUTPUTS]

    code, out, err = run_cli(["capacity", *point, "--t", t, "--json"], capsys)
    assert (code, err) == (0, "")
    head, wall = out.rstrip("\n").rsplit(', "wall_time_s": ', 1)
    assert head + "}" == json_line
    assert wall.endswith("}") and float(wall[:-1]) >= 0.0

    code, out, err = run_cli(["capacity", *point, "--t", t], capsys)
    assert (code, err) == (0, "")
    table = [text.split() for text in out.splitlines()]
    shown = [(name, cell) for name, cell in zip(header.split(","), cells) if cell]
    assert [label for label, _ in table] == [OUTPUTS.get(name, name) for name, _ in shown]
    assert [label for label, _ in table][-len(OUTPUTS):] == list(OUTPUTS.values())
    assert [value for _, value in table] == [
        _STATUS_TEXT[cell] if name == "status" else cell for name, cell in shown
    ]


@pytest.mark.parametrize("args", [
    ["capacity", "--mode", "decayed", "--g", "1", "--t", "1", "--kappa", "1e150"],
    ["capacity", "--mode", "decayed", "--g", "1", "--t", "1", "--kappa", "1e160"],
    ["capacity", "--mode", "decayed", "--g", "1", "--t", "1", "--gamma", "1e200"],
    ["capacity", "--mode", "decayed", "--g", "1", "--t", "1", "--delta", "1e200"],
    ["capacity", "--mode", "decayed", "--g", "1e160", "--t", "1"],
    ["capacity", "--g", "1", "--t", "1e10", "--nu", "1e300"],
    ["sweep", "--mode", "decayed", "--g", "1", "--t", "1", "--sweep", "kappa:0:1e300:3"],
])
def test_values_beyond_float_range_exit_2_with_one_error_line(args, capsys):
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("args, t", [
    (["capacity", "--g", "1e-300", "--t", "1e299"], 1e299),
    (["capacity", "--g", "1e-160", "--t", "1e159"], 1e159),
    (["capacity", "--g", "1e-200", "--delta", "1", "--t", "1"], 1.0),
    (["sweep", "--t", "1e299", "--sweep", "g:1e-300:1e-299:3"], 1e299),
])
def test_a_coupling_whose_square_underflows_is_out_of_range(args, t, capsys):
    # g * g below the normal floats would drop out of the Rabi frequency: at g t = 0.1
    # the two populations would sum to (g t)^2 + 1, not 1; the error names the first
    # point's g, not its time t
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, CSV_HEADER + "\n" if args[0] == "sweep" else "")
    g = 1e-300 if args[0] == "sweep" else float(args[2])
    assert err == f"error: the propagator leaves the float range at g = {g!r}, whose square underflows\n"
    assert f"t = {t!r}" not in err


def test_sweep_repeat_determinism_and_stamp(tmp_path):
    args = ["sweep", "--mode", "conversion", "--g", "1", "--sweep", "t:0:2:9"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(args + ["--out", str(f1)])
    main(args + ["--out", str(f2)])
    assert f1.read_bytes() == f2.read_bytes()
    f3 = tmp_path / "c.csv"
    main(args + ["--out", str(f3), "--stamp"])
    first = f3.read_text().splitlines()[0]
    assert first.startswith("# generated ")


def test_sweep_json_lines(capsys):
    code, out, _ = run_cli(
        ["sweep", "--mode", "conversion", "--g", "1", "--sweep", "t:0:2:4", "--json"],
        capsys,
    )
    assert code == 0
    objs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(objs) == 4
    assert all(o["mode"] == "conversion" for o in objs)
    assert "wall_time_s" not in objs[0]  # sweeps stay byte-deterministic


def test_sweep_csv_round_trip(capsys):
    code, out, _ = run_cli(
        ["sweep", "--mode", "conversion", "--g", "1.3", "--delta", "0.4",
         "--sweep", "t:0.2:2.8:7", "--threads", "2"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        vals = dict(g=float(cells["g"]), delta=float(cells["delta"]),
                    t=float(cells["t"]), nu=0.0)
        q = _outputs(compute_record("conversion", vals))["Q"]
        assert abs(q - float(cells["Q"])) <= 1e-12
        assert repr(q) == cells["Q"]


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = conversion\ng = 1\ndelta = 0\nt = 0.3926991\n")
    code, out, _ = run_cli(["capacity", "--config", str(cfg)], capsys)
    assert code == 0
    assert "AntiDegradable" in out
    code, out, _ = run_cli(
        ["capacity", "--config", str(cfg), "--t", "1.5707963267948966"], capsys
    )
    assert code == 0
    assert "Degradable" in out.replace("AntiDegradable", "")


def test_config_switches_threads_and_sweeps_apply(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("g = 1\njson = true\nthreads = 2\nsweep = t:0:1:3\nsweep = delta:0:1:2\n")
    parser = build_parser()
    args = parser.parse_args(["sweep", "--config", str(cfg)])
    _merge_config(args, parser)
    assert args.json is True and args.threads == 2 and args.g == 1.0
    assert args.sweep == ["t:0:1:3", "delta:0:1:2"]
    code, out, _ = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 0
    objs = [json.loads(line) for line in out.splitlines()]
    assert [(o["t"], o["delta"]) for o in objs] == [
        (t, d) for t in (0.0, 0.5, 1.0) for d in (0.0, 1.0)
    ]


def test_explicit_sweep_beats_config_sweep(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("g = 1\nsweep = t:0:1:3\n")
    code, out, _ = run_cli(["sweep", "--config", str(cfg), "--sweep", "t:2:3:2"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[3] for r in rows] == ["2.0", "3.0"]


@pytest.mark.parametrize("line, flag", [
    ("delta = abc", "--delta"), ("threads = two", "--threads"), ("mode = nonsense", "--mode"),
])
def test_config_bad_value_exits_2(tmp_path, capsys, line, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"g = 1\nt = 1\n{line}\n")
    assert flag in usage_error(["sweep", "--config", str(cfg)], capsys)


def test_an_unreadable_config_is_a_usage_error_naming_it(tmp_path, capsys):
    for path in (tmp_path / "missing.cfg", tmp_path):
        err = usage_error(["capacity", "--config", str(path)], capsys)
        assert f"jcchannel: error: --config: cannot read {path}: [Errno " in err


def test_a_config_line_without_equals_is_a_usage_error_naming_it(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("g = 1\n\n# a comment\n  t 1.2  # no equals\n")
    err = usage_error(["capacity", "--config", str(cfg)], capsys)
    assert err.endswith("jcchannel: error: --config: line 4 is not key=value: '  t 1.2  # no equals'\n")


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = conversion\nbogus = 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "--config", str(cfg), "--g", "1", "--t", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command, line, key", [
    (["capacity", "--g", "1", "--t", "1"], "command = sweep", "command"),
    (["capacity", "--g", "1", "--t", "1"], "config = other.cfg", "config"),
    (["capacity", "--g", "1", "--t", "1"], "from_config = g", "from_config"),
])
def test_config_rejects_keys_that_are_not_flags(command, line, key, tmp_path, capsys):
    # each is an attribute of the parsed args, but no flag a line can set
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n")
    err = usage_error(command + ["--config", str(cfg)], capsys)
    assert f"--config: unknown key {key!r}" in err


def test_evolve_columns_and_initial_row(capsys):
    code, out, _ = run_cli(
        ["evolve", "--g", "1", "--kappa", "0.2", "--sweep", "t:0:3.14:5"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == EVOLVE_HEADER
    assert len(lines[0].split(",")) == 10  # time plus 9 state entries
    first = [float(x) for x in lines[1].split(",")]
    # t = 0: the photon is still fully in the field mode
    assert first[0] == 0.0
    assert first[2] == 1.0
    assert sum(first[1:4]) == pytest.approx(1.0)


@pytest.mark.parametrize("command", ["sweep", "evolve"])
def test_a_flag_for_a_swept_parameter_is_a_usage_error(command, capsys):
    err = usage_error([command, "--g", "1", "--t", "5", "--sweep", "t:0:1:2"], capsys)
    assert "--t is also swept" in err
    sweep = ["--mode", "decayed", "--sweep", "gamma:0:1:2"] if command == "sweep" else ["--sweep", "t:0:1:2"]
    err = usage_error([command, "--g", "1", "--t", "1", "--gamma", "0.2", *sweep], capsys)
    assert ("--gamma" if command == "sweep" else "--t") + " is also swept" in err


@pytest.mark.parametrize("command", ["sweep", "evolve"])
def test_a_config_value_for_a_swept_parameter_gives_way_to_the_sweep(command, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("g = 1\nt = 5\n")
    code, out, err = run_cli([command, "--config", str(cfg), "--sweep", "t:0:1:2"], capsys)
    assert (code, err) == (0, "")
    assert out == run_cli([command, "--g", "1", "--sweep", "t:0:1:2"], capsys)[1]
    times = [line.split(",")[0 if command == "evolve" else 3] for line in out.splitlines()[1:]]
    assert times == ["0.0", "1.0"]


def _evolve_row_by_row(g, delta, nu, kappa, gamma, times, json_lines):
    """evolve's output as one closed_form_state call per time made it."""
    stage = JCParams.from_detuning(g=g, delta=delta, t=0.0, nu=nu)
    decay, photon, keys = DecayParams(kappa=kappa, gamma_at=gamma), QubitInput(p=1.0, r=0.0), EVOLVE_HEADER.split(",")
    lines = [] if json_lines else [EVOLVE_HEADER]
    for t in times:
        rho = closed_form_state(stage, decay, photon, t)
        cells = [t] + [float(rho[i, i].real) for i in range(3)]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            cells += [float(rho[i, j].real), float(rho[i, j].imag)]
        lines.append(json.dumps(dict(zip(keys, cells))) if json_lines else ",".join(repr(c) for c in cells))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("json_lines", [False, True], ids=["csv", "json"])
@pytest.mark.parametrize("flags, params, times", [
    (["--t", "3"], (1.0, 0.0, 0.0, 0.0, 0.0), np.linspace(0.0, 3.0, 201)),
    (["--delta", "0.3", "--kappa", "0.4", "--gamma", "0.1", "--sweep", "t:0:3:7"], (1.0, 0.3, 0.0, 0.4, 0.1),
     np.linspace(0.0, 3.0, 7)),
    (["--delta", "-1.7", "--nu", "0.25", "--kappa", "0.9", "--sweep", "t:0:40:2500"], (1.0, -1.7, 0.25, 0.9, 0.0),
     np.linspace(0.0, 40.0, 2500)),
], ids=["default", "sweep", "chunks"])
def test_evolve_rows_equal_the_row_by_row_closed_form(flags, params, times, json_lines, capsys):
    code, out, err = run_cli(["evolve", "--g", "1", *flags] + (["--json"] if json_lines else []), capsys)
    assert (code, err) == (0, "")
    assert out == _evolve_row_by_row(*params, times.tolist(), json_lines)


@pytest.mark.parametrize("args, at", [
    # g^2 + w^2 overflows, w = delta/2 + i (kappa - gamma)/4: mu is not finite at any t, t = 0 included
    (["capacity", "--mode", "decayed", "--g", "1", "--t", "1e-300", "--kappa", "1e308"], "kappa = 1e+308"),
    (["capacity", "--mode", "decayed", "--g", "1", "--t", "0", "--kappa", "1e300"], "kappa = 1e+300"),
    (["capacity", "--mode", "decayed", "--g", "1", "--t", "0", "--gamma", "1e300"], "gamma = 1e+300"),
    (["evolve", "--g", "1", "--t", "3", "--kappa", "1e300"], "kappa = 1e+300"),
    (["capacity", "--g", "1", "--t", "1", "--delta", "1e308"], "delta = 1e+308"),
    (["capacity", "--g", "1e300", "--t", "0"], "g = 1e+300, whose square overflows"),
    # mu is finite, mu t is not in range
    (["capacity", "--mode", "decayed", "--g", "1", "--t", "1", "--kappa", "1e150"], "t = 1.0"),
])
def test_the_range_error_names_the_input_out_of_range(args, at, capsys):
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, EVOLVE_HEADER + "\n" if args[0] == "evolve" else "")
    assert err == f"error: the propagator leaves the float range at {at}\n"


def test_evolve_prints_the_rows_before_a_time_out_of_range_then_its_error(capsys):
    count = 3 * SWEEP_CHUNK // 2
    times = np.linspace(0.0, 1.0, count).tolist()
    code, out, err = run_cli(["evolve", "--g", "1", "--kappa", "1e4", "--sweep", f"t:0:1:{count}"], capsys)
    assert code == 2
    for first_bad, t in enumerate(times):
        try:
            _evolve_row_by_row(1.0, 0.0, 0.0, 1e4, 0.0, [t], False)
        except ValueError:
            break
    assert 0 < first_bad < SWEEP_CHUNK < len(times)
    assert out == _evolve_row_by_row(1.0, 0.0, 0.0, 1e4, 0.0, times[:first_bad], False)
    assert err == f"error: the propagator leaves the float range at t = {times[first_bad]!r}\n"


def _first_out_of_range_time(kappa: float) -> float:
    """The least time at which closed_form_state raises for g = 1, delta = 0 and kappa, by bisection."""
    stage, decay = JCParams.from_detuning(g=1.0, delta=0.0, t=0.0), DecayParams(kappa, 0.0)
    photon = QubitInput(1.0, 0.0)

    def raises(t):
        try:
            closed_form_state(stage, decay, photon, t)
        except ValueError:
            return True
        return False

    lo, hi = 0.0, 1.0
    assert not raises(lo) and raises(hi)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if raises(mid) else (mid, hi)
    return hi


def test_an_empty_chunk_before_the_error_prints_no_blank_line(capsys):
    # the first out-of-range time is the first time of the second chunk, so that chunk has no rows
    count = 2 * SWEEP_CHUNK
    stop = _first_out_of_range_time(1e4) * (count - 1) / (SWEEP_CHUNK - 0.5)
    times = np.linspace(0.0, stop, count).tolist()
    code, out, err = run_cli(["evolve", "--g", "1", "--kappa", "1e4", "--sweep", f"t:0:{stop!r}:{count}"], capsys)
    assert code == 2
    assert err == f"error: the propagator leaves the float range at t = {times[SWEEP_CHUNK]!r}\n"
    assert out == _evolve_row_by_row(1.0, 0.0, 0.0, 1e4, 0.0, times[:SWEEP_CHUNK], False)
    assert len(out.splitlines()) == 1 + SWEEP_CHUNK and "\n\n" not in out


def test_evolve_rejects_non_time_axis(capsys):
    err = usage_error(["evolve", "--g", "1", "--kappa", "0.1", "--sweep", "g:0.5:1:4"], capsys)
    assert "--sweep: axis 'g' not sweepable (allowed: t)" in err
    err = usage_error(["evolve", "--g", "1", "--sweep", "t:0:1:2", "--sweep", "t:0:1:3"], capsys)
    assert "--sweep: evolve takes at most 1 (got 2)" in err


# a flag its subcommand's handler would not read, and the flag the error names
_FOREIGN_FLAGS = [
    (["capacity", "--sweep"], "--sweep"),
    (["capacity", "--threads", "1"], "--threads"),
    (["capacity", "--mode", "conversion", "--kappa", "0.5"], "--kappa"),
    (["sweep", "--mode", "conversion", "--T", "0.5"], "--T"),
    (["degrade", "--kappa", "1"], "--kappa"),
    (["evolve", "--T", "0.5"], "--T"),
    (["evolve", "--mode", "conversion"], "--mode"),
    (["capacity", "--config", "mode = conversion; g = 1; t = 1; kappa = 0.2"], "--kappa"),
]


@pytest.mark.parametrize("argv, flag", _FOREIGN_FLAGS, ids=[" ".join(argv) for argv, _ in _FOREIGN_FLAGS])
def test_a_flag_outside_the_subcommands_modes_is_a_usage_error(argv, flag, tmp_path, capsys):
    if argv[1] == "--config":  # the config file's lines follow the flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text(argv[2].replace("; ", "\n"))
        argv = [argv[0], "--config", str(cfg)]
    assert flag in usage_error(argv, capsys)


# the modes each subcommand runs, the default first
_COMMAND_MODES = {
    "capacity": ("conversion", "concat", "decayed"),
    "sweep": ("conversion", "concat", "decayed"),
    "evolve": ("decayed",),
    "degrade": ("conversion", "concat"),
}
_OTHER_FLAGS = {
    "capacity": {"help", "mode", "out", "json", "config", "stamp"},
    "sweep": {"help", "mode", "sweep", "out", "json", "threads", "config", "stamp"},
    "evolve": {"help", "sweep", "out", "json", "config", "stamp"},
    "degrade": {"help", "mode", "out", "json", "config", "stamp"},
}


@pytest.mark.parametrize("command", _COMMAND_MODES)
def test_each_subcommand_declares_its_modes_columns_and_nu(command):
    modes = _COMMAND_MODES[command]
    actions = {action.dest: action for action in build_parser().subcommands[command]._actions}
    if len(modes) > 1:
        assert tuple(actions["mode"].choices) == modes
    else:  # one mode: nothing to choose
        assert "mode" not in actions
    params = {column for mode in modes for column in _MODE_COLUMNS[mode]} | {"nu"}
    assert set(actions) - _OTHER_FLAGS[command] == params
    assert _OTHER_FLAGS[command] <= set(actions)


def test_the_settings_of_each_subcommand_are_counted():
    # a new flag, switch or positional anywhere changes this count: add one only with a request that needs it
    counts = {command: sum(action.dest != "help" for action in sub._actions)
              for command, sub in build_parser().subcommands.items()}
    assert counts == {"capacity": 15, "sweep": 17, "evolve": 11, "degrade": 13, "verify": 1}
    assert sum(counts.values()) == 57


def test_degrade_prints_stage_and_distance(capsys):
    code, out, _ = run_cli(
        ["degrade", "--mode", "conversion", "--g", "1", "--delta", "0.3", "--t", "1.2"],
        capsys,
    )
    assert code == 0
    assert "degrading stage" in out
    dist = float(out.strip().splitlines()[-1].split()[-1])
    assert dist < 1e-9


def test_degrade_of_perfect_transfer_is_an_empty_stage(capsys):
    # at g t = pi/2 |h_env| is ~6e-17: the stage transfers nothing, with a
    # finite nu' (phase / t' would give nu' ~ -5e16)
    code, out, _ = run_cli(["degrade", "--g", "1", "--t", "1.5707963267948966", "--json"], capsys)
    assert code == 0
    stage = json.loads(out)
    assert (stage["g2"], stage["t2"], stage["nu2"]) == (1.0, 0.0, 0.0)
    assert stage["max_composition_distance"] < 1e-9


def test_degrade_antidegradable_exits_1(capsys):
    code, out, err = run_cli(
        ["degrade", "--mode", "conversion", "--g", "1", "--t", "0.3926991"], capsys
    )
    assert code == 1
    assert "not degradable" in err


def test_degrade_refuses_what_capacity_calls_anti_degradable(capsys):
    # |h_keep| is below |h_env| by more than the tie band, but |h_keep|^2 is within 1e-12 of 1/2
    args = ["--g", "1", "--t", "0.7853981633966"]
    code, out, err = run_cli(["capacity", *args], capsys)
    assert (code, err) == (0, "") and "AntiDegradable" in out
    code, out, err = run_cli(["degrade", *args], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("not degradable: ")


def test_verify_quick_passes(capsys):
    code, out, _ = run_cli(["verify", "quick"], capsys)
    assert code == 0
    assert out.count("PASS") == 10
    assert "FAIL" not in out


def test_out_file_removed_on_failure(tmp_path):
    # a worker raising mid-stream must not leave a partial file behind
    target = tmp_path / "part.csv"

    def boom():
        yield "header"
        raise RuntimeError("mid-stream failure")

    with pytest.raises(RuntimeError):
        _emit(boom(), str(target))
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_out_file_kept_intact_on_failure(tmp_path):
    # a failed run must not destroy the previous good output
    target = tmp_path / "good.csv"
    target.write_bytes(b"previous,output\n1,2\n")

    def boom():
        yield "header"
        raise RuntimeError("mid-stream failure")

    with pytest.raises(RuntimeError):
        _emit(boom(), str(target))
    assert target.read_bytes() == b"previous,output\n1,2\n"
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("target, reason", [
    ("missing/x.txt", "No such file or directory"),
    ("a-directory", "Is a directory"),
    ("a-file/x.txt", "Not a directory"),
    ("", "No such file or directory"),
    ("/", "Is a directory"),
])
def test_unwritable_out_is_one_error_line(target, reason, tmp_path, monkeypatch, capsys):
    # what exists stays as it was, and no temporary file is left behind
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-directory").mkdir()
    (tmp_path / "a-directory" / "kept.txt").write_text("kept\n")
    (tmp_path / "a-file").write_text("kept\n")
    code, stdout, err = run_cli(["capacity", "--g", "1", "--t", "1", "--out", target], capsys)
    assert (code, stdout, err) == (2, "", f"error: cannot write {target}: {reason}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-directory", "a-file"]
    assert [p.name for p in (tmp_path / "a-directory").iterdir()] == ["kept.txt"]
    assert (tmp_path / "a-directory" / "kept.txt").read_text() == "kept\n"
    assert (tmp_path / "a-file").read_text() == "kept\n"


def test_out_through_a_symlink_replaces_its_target_and_keeps_the_link(tmp_path, capsys):
    args = ["capacity", "--g", "1", "--t", "1"]
    expected = run_cli(args, capsys)[1]
    (tmp_path / "real.txt").write_text("stale\n")
    (tmp_path / "link.txt").symlink_to("real.txt")
    assert run_cli(args + ["--out", str(tmp_path / "link.txt")], capsys) == (0, "", "")
    assert os.readlink(tmp_path / "link.txt") == "real.txt"
    assert (tmp_path / "real.txt").read_text() == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]


def test_out_into_a_fifo_writes_through_it(tmp_path, capsys):
    args = ["capacity", "--g", "1", "--t", "1"]
    expected = run_cli(args, capsys)[1]
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # a reader that is already there: opening the write end cannot block
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run_cli(args + ["--out", str(fifo)], capsys) == (0, "", "")
        assert os.read(reader, 1 << 16).decode() == expected
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


def test_run_record_empty_fields_for_absent_params():
    rec = compute_record("conversion", CONVERSION_VALS)
    h_keep_sq, h_env_sq, status, q, p_star = rec.outputs
    params = ["1.0", "0.0", repr(math.pi / 2), "", "", "", "", "", ""]
    outputs = [repr(h_keep_sq), repr(h_env_sq), status, repr(q), repr(p_star)]
    assert rec.csv_row() == ",".join(["conversion", *params, *outputs])
    assert rec.json_obj() == dict(
        zip(("mode", *_PARAM_COLUMNS, *_OUTPUT_COLUMNS), ["conversion", 1.0, 0.0, math.pi / 2, *[None] * 6, *rec.outputs])
    )
    row = rec.csv_row().split(",")
    header = CSV_HEADER.split(",")
    assert row[header.index("T")] == ""
    assert row[header.index("kappa")] == ""
    assert row[header.index("g")] == "1.0"


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH, for a `python -m jcchannel` child."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")])))


def test_closed_pipe_ends_quietly():
    # `jcchannel sweep ... | head -1`: the reader leaves after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "jcchannel", "sweep", "--g", "1", "--sweep", "t:0:3:20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env(),
    )
    assert proc.stdout.readline().decode() == CSV_HEADER + "\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert err == ""


# each spans several chunks; the last stops at an out-of-range time (t ~0.2834,
# 57% of the way along) in its second chunk
_SIDE = math.isqrt(3 * SWEEP_CHUNK)
_SINK_CASES = {
    "sweep-csv": ["sweep", "--g", "1", "--sweep", f"t:0:3:{SWEEP_CHUNK}", "--sweep", "delta:-1:1:3"],
    "sweep-json-stamp": ["sweep", "--mode", "decayed", "--g", "1", "--t", "2.356", "--sweep", f"kappa:0:2:{_SIDE}",
                         "--sweep", f"gamma:0:1:{_SIDE}", "--json", "--stamp"],
    "sweep-csv-stamp": ["sweep", "--g", "1", "--sweep", f"t:0:3:{5 * SWEEP_CHUNK // 2}", "--stamp"],
    "evolve-chunks": ["evolve", "--g", "1", "--kappa", "0.9", "--sweep", f"t:0:40:{5 * SWEEP_CHUNK // 2}",
                      "--json"],
    "evolve-out-of-range": ["evolve", "--g", "1", "--kappa", "1e4", "--sweep", f"t:0:0.5:{3 * SWEEP_CHUNK}"],
}


@pytest.mark.parametrize("argv", _SINK_CASES.values(), ids=_SINK_CASES)
def test_a_pipe_a_file_and_an_in_process_call_get_the_same_bytes(argv, tmp_path, capsys):
    def unstamped(text):
        if "--stamp" not in argv:
            return text
        stamp, rest = text.split("\n", 1)
        assert stamp.startswith('{"stamp": "' if "--json" in argv else "# generated ")
        return rest

    child = subprocess.run([sys.executable, "-m", "jcchannel", *argv], capture_output=True, env=_src_env(),
                           timeout=120)
    piped = (child.returncode, unstamped(child.stdout.decode()), child.stderr.decode())
    code, out, err = run_cli(argv, capsys)
    assert (code, unstamped(out), err) == piped
    target = tmp_path / "out.txt"
    code, out, err = run_cli([*argv, "--out", str(target)], capsys)
    assert (code, out, err) == (piped[0], "", piped[2])
    if code == 0:
        assert unstamped(target.read_bytes().decode()) == piped[1]
        assert len(piped[1].splitlines()) > 2 * SWEEP_CHUNK
    else:  # a failed run leaves no file behind; the pipe got the rows before the error
        assert not target.exists()
        assert SWEEP_CHUNK < len(piped[1].splitlines()) < 2 * SWEEP_CHUNK


@pytest.mark.parametrize("args", [
    ["verify", "full"],
    ["capacity", "--g", "1", "--delta", "0.4", "--t", "1.2"],
    ["capacity", "--mode", "concat", "--g", "1", "--t", "1.2", "--g2", "1", "--delta2", "-0.7", "--t2", "1.5",
     "--T", "0.8"],
    ["capacity", "--mode", "decayed", "--g", "1", "--delta", "0.4", "--t", "1.9", "--kappa", "0.9", "--gamma", "0.7",
     "--json"],
    ["evolve", "--g", "1", "--delta", "0.3", "--kappa", "0.4", "--gamma", "0.1", "--sweep", "t:0:3:7"],
    ["degrade", "--mode", "concat", "--g", "1", "--t", "1.4", "--g2", "1.1", "--t2", "1.5", "--T", "0.9"],
])
def test_commands_emit_no_warning(args):
    # -W error turns any warning, such as numpy's RuntimeWarning, into a failing exit
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "jcchannel", *args],
        capture_output=True, env=_src_env(), timeout=120,
    )
    assert (done.returncode, done.stderr.decode()) == (0, "")


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_calls_sharing_the_parser_leak_nothing(tmp_path, capsys):
    query = ["capacity", "--g", "1", "--delta", "0.5", "--t", "1.2"]
    sweep = ["sweep", "--g", "1", "--sweep", "t:0:1:3", "--sweep", "delta:0:1:2"]
    code, first, _ = run_cli(query, capsys)
    assert code == 0
    code, swept, _ = run_cli(sweep, capsys)
    assert code == 0 and len(swept.splitlines()) == 1 + 3 * 2
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "--g", "1", "--t", "nan"])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta = 2\nnu = 0.3\njson = true\n")
    code, out, _ = run_cli(["capacity", "--config", str(cfg), "--g", "1", "--t", "1.2"], capsys)
    assert code == 0 and json.loads(out)["delta"] == 2.0
    cfg.write_text("json = true\nthreads = 2\n")
    code, out, _ = run_cli(["sweep", "--config", str(cfg), "--g", "1", "--sweep", "t:0:1:2", "--stamp"], capsys)
    assert code == 0 and "stamp" in json.loads(out.splitlines()[0])
    assert run_cli(query, capsys) == (0, first, "")
    assert run_cli(sweep, capsys)[1] == swept
    args = build_parser().parse_args(["sweep"])
    assert (args.sweep, args.config, args.threads, args.nu) == (None, None, None, None)
    assert not args.json and not args.stamp


# stdout of degrade: t' and nu' as before its probe loop became one stacked trace distance, the distance over
# the 20 probe inputs of verify.Draws(7)
_DEGRADE_BYTES = [
    (
        ["degrade", "--mode", "conversion", "--g", "1", "--delta", "0.3", "--t", "1.2"],
        "degrading stage: g' = 1.0, t' = 0.418385845687295, nu' = -6.605019686229686\n"
        "max composition distance over 20 inputs: 7.666e-17\n",
    ),
    (
        ["degrade", "--mode", "conversion", "--g", "0.7", "--delta", "-0.4", "--t", "2.0", "--nu", "0.3", "--json"],
        '{"g2": 1.0, "t2": 0.31503562627964793, "nu2": 6.247258682887313, '
        '"max_composition_distance": 9.020562075079397e-17}\n',
    ),
    (
        ["degrade", "--mode", "concat", "--g", "1", "--t", "1.4", "--delta", "0.2", "--g2", "1.1", "--t2", "1.5",
         "--T", "0.9", "--json"],
        '{"g2": 1.0, "t2": 0.4117168904683477, "nu2": 3.4751946299004093, '
        '"max_composition_distance": 3.925231146709438e-17}\n',
    ),
]


@pytest.mark.parametrize("args, out", _DEGRADE_BYTES, ids=["text", "json", "concat-json"])
def test_degrade_output_bytes_are_frozen(args, out, capsys):
    assert run_cli(args, capsys) == (0, out, "")


def _workload_requests(monkeypatch) -> list:
    """Every request argv of the four benchmark workloads, on seeds 1 and 7."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    return [argv for name in workloads.WORKLOADS for seed in (1, 7)
            for argv in workloads.make_inputs(name, seed).requests]


def test_subcommand_parse_equals_the_root_parse(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("g = 1\njson = true\nthreads = 2\nsweep = t:0:1:3\n")
    requests = _workload_requests(monkeypatch) + [
        ["capacity", "--config", str(cfg), "--t", "1", "--delta", "-1e-3", "--kap", "0.1"],
        ["sweep", "--mode", "concat", "--g", "1", "--t", "1", "--g2", "1", "--T", "0.5",
         "--sweep", "t2:0:1:3", "--sweep", "delta:-1:1:2", "--sweep", "delta2:0:1:2"],
        ["evolve", "--g", "1", "--kappa", "0.2", "--sweep", "t:0:3:5", "--stamp"],
        ["degrade", "--mode", "concat", "--g", "1", "--t", "1.4", "--g2", "1.1",
         "--t2", "1.5", "--T", "0.9", "--json", "--out", "x.json"],
        ["verify", "full"],
    ]
    parser = build_parser()
    for argv in requests:
        argv = _glue_negative_values(argv)
        assert vars(_parse(parser, argv)) == vars(parser.parse_args(argv)), argv


# argv the root parser answers with its help or a usage error
_USAGE_CORPUS = [
    [], ["bogus"], ["-h"], ["--help"], ["-x"], ["--", "capacity"], ["capacity", "-h"],
    ["capacity", "--g", "1", "--help"], ["verify", "-h"], ["sweep", "--he"],
    ["capacity", "--bogus", "1"], ["capacity", "--g", "1", "extra"], ["verify", "full", "extra"],
    ["verify", "medium"], ["capacity", "--del", "1"], ["capacity", "--", "--g", "1"],
    ["capacity", "--g"], ["capacity", "--g", "abc"], ["capacity", "--mode", "nope"],
    ["capacity", "--threads", "two"], ["capacity", "--json=1"], ["sweep", "--sweep"],
    ["capacity", "--g", "-x"], ["capacity", "--delta", "-1e-3", "-q"], ["Capacity"],
    # flags and modes a subcommand does not declare, because its handler would not read them
    ["capacity", "--sweep"], ["capacity", "--threads", "1"], ["degrade", "--kappa", "1"],
    ["evolve", "--T", "0.5"], ["evolve", "--mode", "conversion"], ["verify", "--config", "run.cfg"],
]


@pytest.mark.parametrize("argv", _USAGE_CORPUS, ids=" ".join)
def test_main_prints_the_root_parsers_help_and_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as root:
        build_parser().parse_args(_glue_negative_values(argv))
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, capsys.readouterr()) == (root.value.code, expected)


def test_a_valid_query_skips_the_root_parse(monkeypatch, capsys):
    parser = build_parser()

    def root_parse(*args, **kwargs):
        raise AssertionError("the root parser parsed a valid request")

    monkeypatch.setattr(parser, "parse_args", root_parse)
    monkeypatch.setattr(parser, "parse_known_args", root_parse)
    assert run_cli(["capacity", "--g", "1", "--delta", "-0.5", "--t", "1.2", "--json"], capsys)[0] == 0
    assert run_cli(["verify", "quick"], capsys)[0] == 0
