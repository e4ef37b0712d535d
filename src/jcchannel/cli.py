"""Command-line front end: capacity queries, sweeps, trajectories, checks.

Subcommands:

  capacity   one channel, one record (human-readable or --json)
  sweep      grid of records as CSV or JSON lines, deterministic order
  evolve     decay trajectory dump: time column + 9 state-entry columns
  degrade    construct the degrading stage for a channel and verify it
  verify     run the oracle cross-check suites (quick or full)

PARAMS (each model parameter and its domain), ZERO_DEFAULTS (those a request
may leave out), OUTPUTS (each output column and its text-table label) and
MODES (each mode's columns, channel builder and column builder) drive every
subcommand; each subcommand declares only the flags of its COMMAND_MODES,
and --mode only where it runs more than one.  Every CSV or JSON-lines
record prints through a row template, and the template's field names give
the CSV header.  A sweep walks its grid, and evolve its times, a chunk of
points at a time, as column arrays; each chunk's rows are formatted with
one template % and written with one write, up to the first point the
one-point path rejects, whose error ends the output.  capacity prints one point's row or its table.
All numeric text uses shortest round-trip decimals so identical inputs
produce byte-identical output (sweep accepts --threads, which changes nothing).
A flat key=value config file can supply any flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import re
import stat
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .capacity import STATUSES, NotDegradable, capacity_columns, degrading_map, quantum_capacity, status_codes
from .channels import (LossChannel, TransferChannel, compose, concatenate, concatenate_columns, conversion_channel,
                       reception_channel)
from .jc import JCParams, block_amplitude_columns, squares
from .lindblad import DecayParams, closed_form_columns, closed_form_state, decayed_conversion
from .qmat import QubitInput, trace_distance
from .verify import Draws, random_inputs, run_verify

# Every model parameter once, in CSV column order, then nu (not a column):
# name -> (test a value must pass, the rule it states).  Every value must
# also be finite.
_POSITIVE = (lambda v: v > 0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")
_REAL = (lambda v: True, "")
PARAMS = {
    "g": _POSITIVE,
    "delta": _REAL,
    "t": _NONNEGATIVE,
    "g2": _POSITIVE,
    "delta2": _REAL,
    "t2": _NONNEGATIVE,
    "T": (lambda v: 0 <= v <= 1, "must lie in [0, 1]"),
    "kappa": _NONNEGATIVE,
    "gamma": _NONNEGATIVE,
    "nu": _REAL,
}
ZERO_DEFAULTS = {"delta", "delta2", "kappa", "gamma", "nu"}  # the parameters a request may leave out
_PARAM_COLUMNS = tuple(name for name in PARAMS if name != "nu")
_PARAM_FLAGS = {f"--{name}" for name in PARAMS}
_NEGATIVE_VALUE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
# Every output column of a record, in column order -> its label in
# capacity's text table
OUTPUTS = {
    "h_keep_sq": "|h_keep|^2",
    "h_env_sq": "|h_env|^2",
    "status": "status",
    "Q": "Q",
    "p_star": "p_star",
}
CSV_HEADER = ",".join(("mode", *_PARAM_COLUMNS, *OUTPUTS))

EVOLVE_HEADER = ("t,pop_ground,pop_photon,pop_atom,re_ground_photon,im_ground_photon,"
                 "re_ground_atom,im_ground_atom,re_photon_atom,im_photon_atom")


def _stage(vals: dict, suffix: str = "") -> JCParams:
    """The Jaynes-Cummings stage of a point: (g, delta, t), or (g2, delta2, t2)."""
    return JCParams.from_detuning(
        g=vals["g" + suffix], delta=vals["delta" + suffix], t=vals["t" + suffix], nu=vals["nu"]
    )


def _decay(vals: dict) -> DecayParams:
    return DecayParams(kappa=vals["kappa"], gamma_at=vals["gamma"])


def _stage_columns(c: dict, suffix: str = "") -> tuple:
    """_stage's (g, delta, nu, t) over a chunk's columns c, as block_amplitude_columns takes them."""
    return c["g" + suffix], c["delta" + suffix], c["nu"], c["t" + suffix]


@dataclass(frozen=True)
class Mode:
    columns: tuple[str, ...]  # parameters its records show; also its sweep axes
    build: Callable[[dict], TransferChannel]  # the channel of one point
    # (h_keep, h_env) of a chunk of points, from a dict of column arrays;
    # bit for bit build's, and not finite where build raises
    build_columns: Callable[[dict], tuple]


MODES = {
    "conversion": Mode(
        ("g", "delta", "t"),
        lambda v: conversion_channel(_stage(v)),
        lambda c: block_amplitude_columns(*_stage_columns(c))[1:],
    ),
    "concat": Mode(
        ("g", "delta", "t", "g2", "delta2", "t2", "T"),
        lambda v: concatenate(_stage(v), LossChannel(T=v["T"]), _stage(v, "2")),
        lambda c: concatenate_columns(_stage_columns(c), c["T"], _stage_columns(c, "2")),
    ),
    "decayed": Mode(
        ("g", "delta", "t", "kappa", "gamma"),
        lambda v: decayed_conversion(_stage(v), _decay(v), v["t"]).as_transfer(),
        lambda c: block_amplitude_columns(*_stage_columns(c), c["kappa"], c["gamma"])[1::-1],
    ),
}

# Each subcommand's modes, the default first: its parser declares their
# columns and --nu as flags.  MAX_AXES: the --sweep axes a subcommand takes.
COMMAND_MODES = {"capacity": tuple(MODES), "sweep": tuple(MODES),
                 "evolve": ("decayed",), "degrade": ("conversion", "concat")}
MAX_AXES = {"sweep": 3, "evolve": 1}

# grid points a sweep evaluates together as columns
SWEEP_CHUNK = 2048
_STATUS_VALUES = np.array([status.value for status in STATUSES], dtype=object)  # by status code

_STATUS_TEXT = {status.value: status.value.title().replace("-", "") for status in STATUSES}  # AntiDegradable


@dataclass(frozen=True)
class SweepAxis:
    name: str
    start: float
    stop: float
    count: int


def _record_cells(mode: str, vals: dict, swept=()) -> dict:
    """The cells of a capacity record's row: the mode; per parameter column the
    repr of its value, "%s" where swept, None where the mode has no such
    column; a %-field per output.  Q and p_star take %s, which prints a
    float as its repr, so a sweep can pass their +0.0 cells as the text "0.0"."""
    columns = MODES[mode].columns
    params = {
        name: None if name not in columns else "%s" if name in swept else repr(float(vals[name]))
        for name in _PARAM_COLUMNS
    }
    outputs = {**dict.fromkeys(OUTPUTS, "%r"), "status": '"%s"', "Q": "%s", "p_star": "%s"}
    return {"mode": f'"{mode}"', **params, **outputs}


def _row_format(cells: dict, json_lines: bool) -> str:
    """%-format of a record row from its cells, each a %-field or fixed JSON text, None where empty;
    a CSV row gives each cell unquoted, under the header ",".join(cells)."""
    if json_lines:
        return "{" + ", ".join(f'"{name}": {"null" if text is None else text}' for name, text in cells.items()) + "}"
    return ",".join("" if text is None else text.strip('"') for text in cells.values())


def _records(cells: dict, chunks, json_lines: bool):
    """The CSV header line, then one string per chunk of CSV or JSON lines.

    A chunk is a list of columns, one per %-field of cells, in cell order,
    formatted by one % of the row template repeated once per row.  The header
    stands alone, so it is printed even when the first chunk raises.
    """
    if not json_lines:
        yield ",".join(cells) + "\n"
    line = _row_format(cells, json_lines) + "\n"
    for columns in chunks:
        width, rows = len(columns), len(columns[0])
        fields = [None] * (width * rows)
        for j, column in enumerate(columns):
            fields[j::width] = column
        yield line * rows % tuple(fields)


@dataclass(frozen=True)
class RunRecord:
    mode: str
    cells: dict  # _record_cells of the point
    outputs: tuple  # the OUTPUTS values, in order; every number a Python float
    wall_time_s: float

    # this point's CSV row (capacity's text table splits it) and JSON object; the benchmark's tracer times both
    def csv_row(self) -> str:
        return _row_format(self.cells, False) % self.outputs

    def json_obj(self) -> dict:
        return json.loads(_row_format(self.cells, True) % self.outputs)


def compute_record(mode: str, vals: dict) -> RunRecord:
    """The record of one parameter point: its channel and its capacity."""
    start = time.perf_counter()
    ch = MODES[mode].build(vals)
    res = quantum_capacity(ch)
    outputs = (ch.keep_prob, ch.env_prob, res.status.value, res.q, res.p_star)
    return RunRecord(mode, _record_cells(mode, vals), outputs, time.perf_counter() - start)


# ---------------------------------------------------------------- plumbing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and reused.

    argparse keeps no state between parse_args calls, so one parser serves
    every main call; building it costs ~2.5 ms.  Its subcommands attribute
    maps each subcommand name to that subcommand's parser, for _parse.
    """
    parser = argparse.ArgumentParser(
        prog="jcchannel",
        description="Atom-field transfer channels: capacities, sweeps, decay trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {"capacity": "capacity of a single channel", "sweep": "capacity over a parameter grid",
             "evolve": "decay trajectory of a single photon input", "degrade": "degrading stage parameters and check"}
    for command, modes in COMMAND_MODES.items():
        p = sub.add_parser(command, help=helps[command])
        if len(modes) > 1:
            p.add_argument("--mode", choices=modes)
        for name in PARAMS:
            if name == "nu" or any(name in MODES[mode].columns for mode in modes):
                p.add_argument(f"--{name}", type=float)
        if command in MAX_AXES:
            p.add_argument("--sweep", action="append", metavar="AXIS:START:STOP:COUNT",
                           help=f"sweep axis (at most {MAX_AXES[command]})")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if command == "sweep":
            p.add_argument("--threads", type=int,
                           help="accepted for compatibility; output is the same for every N >= 1")
        p.add_argument("--config", help="flat key=value file supplying flag defaults")
        p.add_argument("--stamp", action="store_true",
                       help="prepend a timestamp line to the output")
    pv = sub.add_parser("verify", help="run oracle cross-check suites")
    pv.add_argument("level", nargs="?", choices=("quick", "full"), default="quick")
    parser.subcommands = sub.choices
    return parser


def _parse(parser, argv: list) -> argparse.Namespace:
    """parser.parse_args(argv), parsed by argv's subcommand parser alone.

    The root parser would only hand it every token after the name; it runs
    only when argv names no subcommand or leaves tokens over, to print its
    help or usage error.
    """
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def _merge_config(args, parser) -> None:
    """Fill the flags left unset from the --config file's key=value lines.

    Each line becomes a --key=value token for the parser to convert, so
    explicit flags win and config sweeps apply only when no --sweep is given.
    args.from_config names the flags the file filled.
    """
    args.from_config = set()
    if not getattr(args, "config", None):
        return
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as e:
        parser.error(f"--config: cannot read {args.config}: {e}")
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error(f"--config: line {lineno} is not key=value: {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in ("command", "config", "from_config") or not hasattr(args, key):  # not flags
            parser.error(f"--config: unknown key {key!r}")
        current = getattr(args, key)
        if current is None:
            tokens.append(f"--{key}={value}")
        elif current is False and value.lower() in ("1", "true", "yes", "on"):
            tokens.append(f"--{key}")  # a switch
    parsed = _parse(parser, [args.command, *tokens])
    for key, value in vars(parsed).items():
        if getattr(args, key) is None or getattr(args, key) is False:
            setattr(args, key, value)
            if value is not None and value is not False:
                args.from_config.add(key)


def _parse_axis(text: str, parser) -> SweepAxis:
    parts = text.split(":")
    if len(parts) != 4:
        parser.error(f"--sweep: expected AXIS:START:STOP:COUNT, got {text!r}")
    name, start_s, stop_s, count_s = parts
    try:
        start, stop = float(start_s), float(stop_s)
    except ValueError:
        parser.error(f"--sweep: non-numeric bounds in {text!r}")
    try:
        count = int(count_s)
    except ValueError:
        count = 0
    if not 1 <= count <= 2**62:  # grid indices stay within int64
        parser.error(f"--sweep: count must be an integer from 1 to 2**62 in {text!r}")
    if start > stop:
        parser.error(f"--sweep: start exceeds stop in {text!r}")
    return SweepAxis(name=name, start=start, stop=stop, count=count)


def _mode(args) -> str:
    """The request's --mode, or its subcommand's default mode."""
    return getattr(args, "mode", None) or COMMAND_MODES[args.command][0]


def _parse_axes(args, parser, allowed: tuple) -> tuple:
    """The --sweep axes: at most MAX_AXES of the subcommand, each once, each in allowed."""
    texts = args.sweep or ()
    if len(texts) > MAX_AXES[args.command]:
        parser.error(f"--sweep: {args.command} takes at most {MAX_AXES[args.command]} (got {len(texts)})")
    axes = tuple(_parse_axis(text, parser) for text in texts)
    names = [axis.name for axis in axes]
    if len(set(names)) != len(names):
        parser.error("--sweep: duplicate axis names")
    for name in names:
        if name not in allowed:
            parser.error(f"--sweep: axis {name!r} not sweepable (allowed: {', '.join(allowed)})")
    return axes


def _gather_values(args, mode: str, parser, axes=()) -> dict:
    """The fixed parameter values of a mode, zero where optional and unset.

    A parameter outside the mode, from a flag or from --config, is a usage
    error, and so is a flag for a swept parameter; a --config value for one
    gives way to the sweep.  Fixed values and sweep axis endpoints must be
    finite and pass PARAMS.
    """
    swept = {axis.name for axis in axes}
    entry = MODES[mode]
    for name in PARAMS:
        if name not in entry.columns and name != "nu" and getattr(args, name, None) is not None:
            parser.error(f"--{name} is not a parameter of mode {mode}")
    vals = {}
    for name in (*entry.columns, "nu"):
        v = getattr(args, name)
        if name in swept:
            if v is not None and name not in args.from_config:
                parser.error(f"--{name} is also swept")
            continue
        if v is None and name not in ZERO_DEFAULTS:
            parser.error(f"--{name} is required for mode {mode} (or sweep it)")
        vals[name] = 0.0 if v is None else v
    ends = [(axis.name, end) for axis in axes for end in (axis.start, axis.stop)]
    check_values(parser, [(name, name, v) for name, v in [*ends, *vals.items()]])
    return vals


def check_values(parser, values) -> None:
    """A usage error naming --flag at the first (flag, parameter, value) not finite or against its PARAMS rule."""
    for flag, name, v in values:
        test, rule = PARAMS[name]
        if not math.isfinite(v):
            parser.error(f"--{flag} must be finite, got {v}")
        if not test(v):
            parser.error(f"--{flag} {rule}, got {v}")


def _emit(blocks, out_path: str | None, stamp: str | None = None) -> None:
    """Write blocks of text to stdout, or to a file that appears only on success.

    A regular file, or a new one, gets the blocks through a temporary file
    beside it, which replaces it once every block is written; a failure
    leaves an existing file as it was.  A symlink's target is the file
    replaced, and the link stays.  Any other existing target, such as a FIFO
    or a device, is written straight into.  A path that cannot be written
    is a ValueError naming it.  A stamp line, if given, comes first.
    """
    if stamp is not None:
        blocks = itertools.chain([stamp], blocks)
    if out_path is None:
        sys.stdout.writelines(blocks)
        return
    target = os.path.realpath(out_path) if os.path.islink(out_path) else out_path
    head, name = os.path.split(target)
    try:
        regular = stat.S_ISREG(os.stat(target).st_mode)
    except OSError:  # nothing there yet, or nothing reachable: the write names the failure
        regular = True
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp") if regular and name else None
    try:
        with open(tmp or target, "w", encoding="utf-8") as fh:
            fh.writelines(blocks)
        if tmp:
            os.replace(tmp, target)
    except OSError as e:
        raise ValueError(f"cannot write {out_path}: {e.strerror or e}") from e
    finally:
        if tmp:
            with contextlib.suppress(OSError):  # gone once it replaced the target
                os.unlink(tmp)


def _stamp(args) -> str | None:
    """The timestamp line --stamp asks for, in the output's format, or None."""
    if not args.stamp:
        return None
    now = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return (json.dumps({"stamp": now}) if args.json else f"# generated {now}") + "\n"


# ------------------------------------------------------------- subcommands


def _cmd_capacity(args, parser) -> int:
    mode = _mode(args)
    rec = compute_record(mode, _gather_values(args, mode, parser))
    if args.json:
        text = _records({**rec.cells, "wall_time_s": "%r"}, [[[v] for v in (*rec.outputs, rec.wall_time_s)]], True)
    else:
        rows = [
            (OUTPUTS.get(name, name), _STATUS_TEXT[cell] if name == "status" else cell)
            for name, cell in zip(CSV_HEADER.split(","), rec.csv_row().split(","))
            if cell
        ]
        width = max(len(label) for label, _ in rows)
        text = ["".join(f"{label:<{width}}  {cell}\n" for label, cell in rows)]
    _emit(text, args.out, _stamp(args))
    return 0


def _cmd_sweep(args, parser) -> int:
    mode = _mode(args)
    if args.threads is not None and args.threads < 1:
        parser.error("--threads must be >= 1")
    axes = _parse_axes(args, parser, MODES[mode].columns)
    fixed = _gather_values(args, mode, parser, axes)
    if not axes:
        parser.error("--sweep is required for the sweep subcommand")
    _emit(_sweep_lines(mode, axes, fixed, args.json), args.out, _stamp(args))
    return 0


def _axis_at(axis: SweepAxis, index: np.ndarray) -> np.ndarray:
    """np.linspace(axis.start, axis.stop, axis.count)[index], bit for bit."""
    div = max(axis.count - 1, 1)  # numpy makes a one-point axis 0 * delta + start
    delta = axis.stop - axis.start
    step = delta / div
    with np.errstate(invalid="ignore"):  # 0 * inf for a span beyond the float range
        if step == 0:  # a subnormal span: numpy divides before it multiplies
            values = index / div * delta + axis.start
        else:
            values = index * step + axis.start
    return np.where(index == div, axis.stop, values)


def _grid_chunks(axes):
    """Per chunk of SWEEP_CHUNK grid points, the first axis slowest: each
    axis's indices there, and its values, np.linspace's bit for bit."""
    total = math.prod(axis.count for axis in axes)
    for lo in range(0, total, SWEEP_CHUNK):
        carry, indices, rest = np.arange(min(SWEEP_CHUNK, total - lo)), [], lo
        for axis in reversed(axes):
            rest, first = divmod(rest, axis.count)
            carry, index = np.divmod(carry + first, axis.count)
            indices.insert(0, index)
        yield indices, [_axis_at(axis, index) for axis, index in zip(axes, indices)]


def _axis_texts(index: np.ndarray, values: np.ndarray) -> list:
    """repr of each value, made once per distinct axis index in the chunk."""
    _, first, inverse = np.unique(index, return_index=True, return_inverse=True)
    return np.array([repr(v) for v in values[first].tolist()], dtype=object)[inverse].tolist()


def _zero_texts(column: np.ndarray) -> list:
    """The floats of column, each +0.0 as the text "0.0": %s prints them the same, and text faster."""
    cells = column.astype(object)
    cells[(column == 0.0) & ~np.signbit(column)] = "0.0"
    return cells.tolist()


def _rows_before_rejected(columns: list, ok: np.ndarray, one_point: Callable[[int], object]):
    """A chunk's columns before its first point that ok rejects, whose error one_point(i) then raises:
    the one place sweep and evolve decide where they stop, the same for every chunk size."""
    stop = len(ok) if ok.all() else int(ok.argmin())
    yield columns if stop == len(ok) else [column[:stop] for column in columns]
    if stop < len(ok):
        one_point(stop)
        raise RuntimeError(f"the chunk check rejects point {stop} of its chunk, which the one-point path accepts")


def _sweep_lines(mode: str, axes: tuple, fixed: dict, json_lines: bool):
    """The CSV or JSON-lines output of a sweep, made lazily one string per SWEEP_CHUNK grid points.

    Each chunk is evaluated as columns, the fixed values as scalars: the
    mode's build_columns gives (h_keep, h_env), one capacity_columns call
    settles every capacity, and the rows are formatted from the columns, up
    to the first point build rejects (_rows_before_rejected).  Every row has
    the bytes compute_record gives the point on its own.
    """
    entry = MODES[mode]
    names = [axis.name for axis in axes]
    in_columns = sorted(range(len(names)), key=lambda j: _PARAM_COLUMNS.index(names[j]))

    def chunks():
        # the columns of each chunk: the swept cells in column order, then the outputs
        for indices, values in _grid_chunks(axes):
            keep, env = (abs(h) for h in entry.build_columns({**fixed, **dict(zip(names, values))}))
            keep_sq, env_sq = squares(keep), squares(env)
            codes = status_codes(keep, env)
            keep_p, env_p = np.minimum(keep_sq, 1.0), np.minimum(env_sq, 1.0)
            q, p_star = capacity_columns(codes, keep_p)
            texts = [_axis_texts(indices[j], values[j]) for j in in_columns]
            status = _STATUS_VALUES[codes].tolist()
            q, p_star = _zero_texts(q), _zero_texts(p_star)
            yield from _rows_before_rejected(
                [*texts, keep_p.tolist(), env_p.tolist(), status, q, p_star],  # OUTPUTS order
                TransferChannel.accepts(keep, env, keep_sq, env_sq),
                lambda i: entry.build({**fixed, **{name: float(v[i]) for name, v in zip(names, values)}}))

    return _records(_record_cells(mode, fixed, names), chunks(), json_lines)


def _cmd_evolve(args, parser) -> int:
    axes = _parse_axes(args, parser, ("t",))
    vals = _gather_values(args, _mode(args), parser, axes)
    times = axes[0] if axes else SweepAxis("t", 0.0, vals["t"], 201)
    stage = _stage(dict(vals, t=0.0))  # each row passes its own time
    decay = _decay(vals)
    inp = QubitInput(p=1.0, r=0.0)  # a single photon arrives

    def chunks():
        # the columns of a chunk of times from one closed_form_columns call
        for _, (t,) in _grid_chunks((times,)):
            rho = closed_form_columns(inp, stage.g, stage.nu, stage.omega, t, decay.kappa, decay.gamma_at)
            columns = [t] + [rho[:, i, i].real for i in range(3)]
            for i, j in ((0, 1), (0, 2), (1, 2)):
                columns += [rho[:, i, j].real, rho[:, i, j].imag]
            yield from _rows_before_rejected([c.tolist() for c in columns], np.isfinite(rho).all(axis=(1, 2)),
                                             lambda i: closed_form_state(stage, decay, inp, float(t[i])))

    cells = dict.fromkeys(EVOLVE_HEADER.split(","), "%r")
    _emit(_records(cells, chunks(), args.json), args.out, _stamp(args))
    return 0


def _cmd_degrade(args, parser) -> int:
    mode = _mode(args)
    ch = MODES[mode].build(_gather_values(args, mode, parser))
    try:
        second = degrading_map(ch)
    except NotDegradable as e:
        print(f"not degradable: {e}", file=sys.stderr)
        return 1
    composed = compose(ch, reception_channel(second))
    target = ch.complement()
    p, r = random_inputs(Draws(7), 20)
    dist = float(np.max(trace_distance(composed.outputs(p, r), target.outputs(p, r))))
    if args.json:
        cells = dict.fromkeys(("g2", "t2", "nu2", "max_composition_distance"), "%r")
        text = _records(cells, [[[second.g], [second.t], [second.nu], [dist]]], True)
    else:
        text = [f"degrading stage: g' = {second.g!r}, t' = {second.t!r}, nu' = {second.nu!r}\n"
                f"max composition distance over 20 inputs: {dist:.3e}\n"]
    _emit(text, args.out, _stamp(args))
    return 0


def _cmd_verify(args, parser) -> int:
    report = run_verify(args.level)
    print(report.render())
    return 0 if report.passed else 1


def _glue_negative_values(argv) -> list:
    """Join '--delta -1e-3' into '--delta=-1e-3'.

    argparse takes a token that starts with '-' for an option unless it
    looks like -1 or -.5, so a value like -1e-3 or -inf would not reach
    its flag.
    """
    out = []
    for token in argv:
        if out and out[-1] in _PARAM_FLAGS and _NEGATIVE_VALUE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = _parse(parser, _glue_negative_values(sys.argv[1:] if argv is None else argv))
    _merge_config(args, parser)
    handlers = {"capacity": _cmd_capacity, "sweep": _cmd_sweep, "evolve": _cmd_evolve, "degrade": _cmd_degrade,
                "verify": _cmd_verify}
    try:
        code = handlers[args.command](args, parser)
        sys.stdout.flush()
        return code
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone (say, `| head`): stop quietly, as filters do;
        # stdout goes to devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
