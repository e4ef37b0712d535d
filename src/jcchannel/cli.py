"""Command-line front end: capacity queries, sweeps, trajectories, checks.

Subcommands:

  capacity   one channel, one record (human-readable or --json)
  sweep      grid of records as CSV or JSON lines, deterministic order
  evolve     decay trajectory dump: time column + 9 state-entry columns
  degrade    construct the degrading stage for a channel and verify it
  verify     run the oracle cross-check suites (quick or full)

PARAMS (each model parameter and its domain), OUTPUTS (each output column
and its text-table label) and MODES (each mode's columns, required flags,
channel builder and column builder) drive every subcommand.  Every record
prints through one row template.  A sweep evaluates its grid a chunk of
points at a time, as column arrays, and formats each row from the columns;
capacity prints its one point's row, or a text table of that row's cells.
All numeric text uses shortest round-trip decimals so identical inputs
produce byte-identical output (--threads is accepted but changes nothing).
A flat key=value config file can supply any flag; explicit flags win.
The argparse parser is built once per process, on the first main call, and
reused by every later call.  A request is parsed by its subcommand's parser
alone; the root parser runs only to print the help or usage error of an
argv with no known subcommand or with tokens left over.
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

from .capacity import (
    STATUSES,
    NotDegradable,
    capacity_columns,
    degrading_map,
    quantum_capacity,
    status_codes,
)
from .channels import (
    LossChannel,
    TransferChannel,
    compose,
    concatenate,
    concatenate_columns,
    conversion_channel,
    reception_channel,
    squares,
)
from .jc import JCParams, block_amplitude_columns
from .lindblad import DecayParams, closed_form_state, decayed_conversion
from .qmat import QubitInput, trace_distance
from .verify import random_inputs, run_verify

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

EVOLVE_HEADER = (
    "t,pop_ground,pop_photon,pop_atom,"
    "re_ground_photon,im_ground_photon,"
    "re_ground_atom,im_ground_atom,"
    "re_photon_atom,im_photon_atom"
)


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
    required: tuple[str, ...]  # other columns, and nu, default to zero
    build: Callable[[dict], TransferChannel]  # the channel of one point
    # (h_keep, h_env) of a chunk of points, from a dict of column arrays;
    # bit for bit build's, and not finite where build raises
    build_columns: Callable[[dict], tuple]


MODES = {
    "conversion": Mode(
        ("g", "delta", "t"),
        ("g", "t"),
        lambda v: conversion_channel(_stage(v)),
        lambda c: block_amplitude_columns(*_stage_columns(c))[1:],
    ),
    "concat": Mode(
        ("g", "delta", "t", "g2", "delta2", "t2", "T"),
        ("g", "t", "g2", "t2", "T"),
        lambda v: concatenate(_stage(v), LossChannel(T=v["T"]), _stage(v, "2")),
        lambda c: concatenate_columns(_stage_columns(c), c["T"], _stage_columns(c, "2")),
    ),
    "decayed": Mode(
        ("g", "delta", "t", "kappa", "gamma"),
        ("g", "t"),
        lambda v: decayed_conversion(_stage(v), _decay(v), v["t"]).as_transfer(),
        lambda c: block_amplitude_columns(*_stage_columns(c), c["kappa"], c["gamma"])[1::-1],
    ),
}

# grid points a sweep evaluates together as columns
SWEEP_CHUNK = 1024
_STATUS_VALUES = [status.value for status in STATUSES]
_MAX_COUNT = 2**62  # points per sweep axis: grid indices stay within int64

_STATUS_TEXT = {
    "degradable": "Degradable",
    "anti-degradable": "AntiDegradable",
    "boundary": "Boundary",
}


@dataclass(frozen=True)
class SweepAxis:
    name: str
    start: float
    stop: float
    count: int


@dataclass(frozen=True)
class SweepSpec:
    mode: str
    axes: tuple[SweepAxis, ...]
    fixed: dict
    fmt: str  # "csv" | "json-lines"


def _param_cells(mode: str, vals: dict, swept=()) -> dict:
    """Each parameter column's cell text: the repr of its value, "%s" where
    swept, None where the mode has no such column."""
    columns = MODES[mode].columns
    return {
        name: None if name not in columns else "%s" if name in swept else repr(float(vals[name]))
        for name in _PARAM_COLUMNS
    }


def _row_format(mode: str, cells: dict, json_lines: bool) -> str:
    """%-format of a record row: mode and cells, then a %r field per output, %s for status."""
    fields = {**cells, **dict.fromkeys(OUTPUTS, "%r"), "status": '"%s"' if json_lines else "%s"}
    if not json_lines:
        return ",".join([mode, *("" if text is None else text for text in fields.values())])
    pairs = (f'"{name}": {"null" if text is None else text}' for name, text in fields.items())
    return "{" + ", ".join([f'"mode": {json.dumps(mode)}', *pairs]) + "}"


@dataclass(frozen=True)
class RunRecord:
    mode: str
    cells: dict  # _param_cells of the point
    outputs: tuple  # the OUTPUTS values, in order; every number a Python float
    wall_time_s: float

    def row(self, json_lines: bool = False) -> str:
        """The CSV or JSON-lines row a sweep prints for this point."""
        return _row_format(self.mode, self.cells, json_lines) % self.outputs

    # views of row, kept because the benchmark's tracer times them
    def csv_row(self) -> str:
        return self.row()

    def json_obj(self) -> dict:
        return json.loads(self.row(True))


def compute_record(mode: str, vals: dict) -> RunRecord:
    """The record of one parameter point: its channel and its capacity."""
    start = time.perf_counter()
    ch = MODES[mode].build(vals)
    res = quantum_capacity(ch)
    outputs = (ch.keep_prob, ch.env_prob, res.status.value, res.q, res.p_star)
    return RunRecord(mode, _param_cells(mode, vals), outputs, time.perf_counter() - start)


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

    def add_common(p):
        p.add_argument("--mode", choices=tuple(MODES))
        for name in PARAMS:
            p.add_argument(f"--{name}", type=float)
        p.add_argument("--sweep", action="append", metavar="AXIS:START:STOP:COUNT",
                       help="sweep axis, repeatable up to 3 times")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--threads", type=int,
                       help="accepted for compatibility; output is the same for every N >= 1")
        p.add_argument("--config", help="flat key=value file supplying flag defaults")
        p.add_argument("--stamp", action="store_true",
                       help="prepend a timestamp line to the output")

    add_common(sub.add_parser("capacity", help="capacity of a single channel"))
    add_common(sub.add_parser("sweep", help="capacity over a parameter grid"))
    add_common(sub.add_parser("evolve", help="decay trajectory of a single photon input"))
    add_common(sub.add_parser("degrade", help="degrading stage parameters and check"))
    pv = sub.add_parser("verify", help="run oracle cross-check suites")
    pv.add_argument("level", nargs="?", choices=("quick", "full"), default="quick")
    pv.add_argument("--config", help="flat key=value file supplying flag defaults")
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
    """
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
        if key in ("command", "config", "level") or not hasattr(args, key):  # not flags
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


def _parse_axis(text: str, parser) -> SweepAxis:
    parts = text.split(":")
    if len(parts) != 4:
        parser.error(f"--sweep: expected AXIS:START:STOP:COUNT, got {text!r}")
    name, start_s, stop_s, count_s = parts
    if name == "gamma_at":  # long spelling of the --gamma flag
        name = "gamma"
    try:
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError:
        parser.error(f"--sweep: non-numeric bounds in {text!r}")
    if count < 1:
        parser.error(f"--sweep: count must be >= 1 in {text!r}")
    if count > _MAX_COUNT:
        parser.error(f"--sweep: count must be at most 2**62 in {text!r}")
    if start > stop:
        parser.error(f"--sweep: start exceeds stop in {text!r}")
    return SweepAxis(name=name, start=start, stop=stop, count=count)


def _gather_values(args, mode: str, parser, axes=()) -> dict:
    """The fixed parameter values of a mode, zero where optional and unset.

    Fixed values and sweep axis endpoints must be finite and pass PARAMS.
    """
    swept = {axis.name for axis in axes}
    entry = MODES[mode]
    vals = {}
    for name in (*entry.columns, "nu"):
        if name in swept:
            continue
        v = getattr(args, name)
        if v is None and name in entry.required:
            parser.error(f"--{name} is required for mode {mode} (or sweep it)")
        vals[name] = 0.0 if v is None else v
    ends = [(axis.name, end) for axis in axes for end in (axis.start, axis.stop)]
    for name, v in [*ends, *vals.items()]:
        test, rule = PARAMS[name]
        if not math.isfinite(v):
            parser.error(f"--{name} must be finite, got {v}")
        if not test(v):
            parser.error(f"--{name} {rule}, got {v}")
    return vals


def _emit(lines, out_path: str | None, stamp: str | None = None) -> None:
    """Print lines, or write them to a file that appears only on success.

    A regular file, or a new one, gets the lines through a temporary file
    beside it, which replaces it once every line is written; a failure
    leaves an existing file as it was.  A symlink's target is the file
    replaced, and the link stays.  Any other existing target, such as a FIFO
    or a device, is written straight into.  A path that cannot be written
    is a ValueError naming it.  A stamp line, if given, comes first.
    """
    if stamp is not None:
        lines = itertools.chain([stamp], lines)
    if out_path is None:
        for line in lines:
            print(line)
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
            for line in lines:
                fh.write(line)
                fh.write("\n")
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
    return json.dumps({"stamp": now}) if args.json else f"# generated {now}"


def _no_sweep(args, parser) -> None:
    if args.sweep:
        parser.error(f"{args.command} takes no --sweep; use the sweep subcommand")


# ------------------------------------------------------------- subcommands


def _cmd_capacity(args, parser) -> int:
    _no_sweep(args, parser)
    mode = args.mode or "conversion"
    rec = compute_record(mode, _gather_values(args, mode, parser))
    if args.json:
        lines = [rec.row(True)[:-1] + f', "wall_time_s": {rec.wall_time_s!r}}}']
    else:
        rows = [
            (OUTPUTS.get(name, name), _STATUS_TEXT[cell] if name == "status" else cell)
            for name, cell in zip(CSV_HEADER.split(","), rec.csv_row().split(","))
            if cell
        ]
        width = max(len(label) for label, _ in rows)
        lines = [f"{label:<{width}}  {cell}" for label, cell in rows]
    _emit(lines, args.out, _stamp(args))
    return 0


def _cmd_sweep(args, parser) -> int:
    mode = args.mode or "conversion"
    if not args.sweep:
        parser.error("--sweep is required for the sweep subcommand")
    if len(args.sweep) > 3:
        parser.error("--sweep: at most 3 axes")
    axes = tuple(_parse_axis(s, parser) for s in args.sweep)
    names = [a.name for a in axes]
    if len(set(names)) != len(names):
        parser.error("--sweep: duplicate axis names")
    columns = MODES[mode].columns
    for axis in axes:
        if axis.name not in columns:
            parser.error(
                f"--sweep: axis {axis.name!r} not sweepable in mode {mode} "
                f"(allowed: {', '.join(columns)})"
            )
    fixed = _gather_values(args, mode, parser, axes)
    spec = SweepSpec(mode, axes, fixed, fmt="json-lines" if args.json else "csv")
    _emit(_sweep_lines(spec), args.out, _stamp(args))
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


def _axis_values(axis: SweepAxis):
    """np.linspace(axis.start, axis.stop, axis.count), bit for bit, a chunk at a time."""
    for lo in range(0, axis.count, SWEEP_CHUNK):
        yield from _axis_at(axis, np.arange(lo, min(lo + SWEEP_CHUNK, axis.count))).tolist()


def _grid_chunk(axes, lo: int, n: int) -> list:
    """Per axis, the indices of grid points lo .. lo + n - 1, the first axis slowest."""
    carry, out = np.arange(n), []
    for axis in reversed(axes):
        lo, first = divmod(lo, axis.count)
        carry, index = np.divmod(carry + first, axis.count)
        out.append(index)
    return out[::-1]


def _axis_texts(cache: dict, index: np.ndarray, values: np.ndarray) -> list:
    """repr of each value, made once per axis index while the cache holds it.

    The cache keeps the indices of the last chunk, so an axis of up to a
    chunk of values has each repr made once per sweep.
    """
    unique, first, inverse = np.unique(index, return_index=True, return_inverse=True)
    texts = [cache.get(i) or repr(v) for i, v in zip(unique.tolist(), values[first].tolist())]
    cache.clear()
    cache.update(zip(unique.tolist(), texts))
    return [texts[k] for k in inverse.tolist()]


def _sweep_lines(spec: SweepSpec):
    """Yield the output lines of a sweep, SWEEP_CHUNK grid points at a time.

    Each chunk is evaluated as columns: the mode's build_columns gives
    (h_keep, h_env), one check rejects the chunk where build would raise
    (build then raises that point's error), one capacity_columns call
    settles every capacity, and the rows are formatted from the columns.
    Every row has the bytes compute_record gives the point on its own.
    """
    entry = MODES[spec.mode]
    json_lines = spec.fmt == "json-lines"
    if not json_lines:
        yield CSV_HEADER
    names = [axis.name for axis in spec.axes]
    row = _row_format(spec.mode, _param_cells(spec.mode, spec.fixed, names), json_lines)
    in_columns = sorted(range(len(names)), key=lambda j: _PARAM_COLUMNS.index(names[j]))
    caches = [{} for _ in names]
    total = math.prod(axis.count for axis in spec.axes)
    for lo in range(0, total, SWEEP_CHUNK):
        n = min(SWEEP_CHUNK, total - lo)
        indices = _grid_chunk(spec.axes, lo, n)
        values = [_axis_at(axis, index) for axis, index in zip(spec.axes, indices)]
        cols = {name: np.full(n, v) for name, v in spec.fixed.items()}
        cols.update(zip(names, values))
        keep, env = (abs(h) for h in entry.build_columns(cols))
        keep_sq, env_sq = squares(keep), squares(env)
        ok = TransferChannel.accepts(keep, env, keep_sq, env_sq)
        if not ok.all():
            point = {name: float(col[ok.argmin()]) for name, col in cols.items()}
            entry.build(point)  # raises the error of the first rejected point
            raise RuntimeError(f"the chunk check rejects {point}, which build accepts")
        codes = status_codes(keep, env)
        keep_p, env_p = np.minimum(keep_sq, 1.0), np.minimum(env_sq, 1.0)
        q, p_star = capacity_columns(codes, keep_p)
        texts = [_axis_texts(caches[j], indices[j], values[j]) for j in in_columns]
        status = [_STATUS_VALUES[code] for code in codes.tolist()]
        outputs = (keep_p.tolist(), env_p.tolist(), status, q.tolist(), p_star.tolist())  # OUTPUTS order
        for fields in zip(*texts, *outputs):
            yield row % fields


def _cmd_evolve(args, parser) -> int:
    mode = args.mode or "decayed"
    if mode != "decayed":
        parser.error("evolve supports only --mode decayed")
    axes = ()
    if args.sweep:
        if len(args.sweep) != 1:
            parser.error("evolve takes exactly one --sweep axis (t)")
        axis = _parse_axis(args.sweep[0], parser)
        if axis.name != "t":
            parser.error("evolve can sweep only the t axis")
        axes = (axis,)
    vals = _gather_values(args, "decayed", parser, axes)
    times = axes[0] if axes else SweepAxis("t", 0.0, vals["t"], 201)
    stage = _stage(dict(vals, t=0.0))  # each row passes its own time
    decay = _decay(vals)
    inp = QubitInput(p=1.0, r=0.0)  # a single photon arrives

    def lines():
        if not args.json:
            yield EVOLVE_HEADER
        for t in _axis_values(times):
            rho = closed_form_state(stage, decay, inp, t)
            cells = [t] + [float(rho[i, i].real) for i in range(3)]
            for i, j in ((0, 1), (0, 2), (1, 2)):
                cells += [float(rho[i, j].real), float(rho[i, j].imag)]
            if args.json:
                keys = EVOLVE_HEADER.split(",")
                yield json.dumps(dict(zip(keys, cells)))
            else:
                yield ",".join(repr(c) for c in cells)

    _emit(lines(), args.out, _stamp(args))
    return 0


def _cmd_degrade(args, parser) -> int:
    _no_sweep(args, parser)
    mode = args.mode or "conversion"
    if mode == "decayed":
        parser.error("degrade supports decay-free modes only (conversion, concat)")
    ch = MODES[mode].build(_gather_values(args, mode, parser))
    try:
        second = degrading_map(ch)
    except NotDegradable as e:
        print(f"not degradable: {e}", file=sys.stderr)
        return 1
    composed = compose(ch, reception_channel(second))
    target = ch.complement()
    p, r = random_inputs(np.random.default_rng(7), 20)
    dist = float(np.max(trace_distance(composed.outputs(p, r), target.outputs(p, r))))
    if args.json:
        lines = [json.dumps({
            "g2": second.g, "t2": second.t, "nu2": second.nu,
            "max_composition_distance": dist,
        })]
    else:
        lines = [
            f"degrading stage: g' = {second.g!r}, t' = {second.t!r}, nu' = {second.nu!r}",
            f"max composition distance over 20 inputs: {dist:.3e}",
        ]
    _emit(lines, args.out, _stamp(args))
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
    if getattr(args, "threads", None) is not None and args.threads < 1:
        parser.error("--threads must be >= 1")
    handlers = {
        "capacity": _cmd_capacity,
        "sweep": _cmd_sweep,
        "evolve": _cmd_evolve,
        "degrade": _cmd_degrade,
        "verify": _cmd_verify,
    }
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


if __name__ == "__main__":
    sys.exit(main())
