"""Independent checker of the outputs of one pass.

Every value is re-derived here without calling the code that produced it:

  * the grid of a sweep is rebuilt from the request, and every parameter
    cell must equal it exactly;
  * |h_keep|^2 of decay-free channels comes from the closed form
    g^2 sin^2(rabi t) / rabi^2, rabi = sqrt(g^2 + delta^2 / 4), written
    out again here (a link multiplies two stages and the transmittance);
  * decayed channels are compared on seed-sampled records with the
    fixed-step master-equation integrator, at the 1e-6 gate that verify's
    lindblad-closed-form suite uses;
  * Q is compared with a vectorized p-grid maximum of
    H2(a p) - H2((1 - a) p), and must be exactly 0 for channels that are
    not degradable or have a <= 1/2;
  * a verify report must pass every suite.

A record counts as failed once, however many of its checks fail.  A
record labelled degradable with Q = 0 is counted apart: it is a known
disagreement between the label and the delivered channel, not an error.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from workloads import MODE_PARAMS, PARAM_COLUMNS, VERIFY_SUITES

CSV_HEADER = ",".join(("mode",) + PARAM_COLUMNS + ("h_keep_sq", "h_env_sq", "status", "Q", "p_star"))
STATUS_TEXT = {"Degradable": "degradable", "AntiDegradable": "anti-degradable", "Boundary": "boundary"}

TIE_BAND = 1e-12  # |h_keep| - |h_env| within this is the degradability boundary
AMBIGUOUS = 1e-9  # this close to the tie band, rounding decides the label
PROB_TOL = 1e-12
Q_TOL = 1e-6
DECAY_TOL = 1e-6
DECAY_SAMPLES = 12


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    label_q_mismatch: int = 0
    problems: list = field(default_factory=list)

    def record(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append("; ".join(problems))

    def lost(self, count: int, why: str) -> None:
        self.attempted += count
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(f"{count} records: {why}")


def binary_entropy(x):
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(x * np.log2(x) + (1.0 - x) * np.log2(1.0 - x))
    return np.nan_to_num(h, nan=0.0)


def capacity_oracle(keep) -> np.ndarray:
    """max over p of H2(a p) - H2((1-a) p), floored at 0, for each a in keep.

    A 401-point p grid finds the peak to within its step 0.0025; a
    1001-point grid of step 1e-5 around it then resolves the maximum far
    below Q_TOL, since the objective is smooth and concave for a > 1/2.
    """
    a = np.asarray(keep, dtype=float)
    out = np.zeros(a.shape)
    coarse = np.linspace(0.0, 1.0, 401)
    offsets = np.linspace(-0.005, 0.005, 1001)
    for lo in range(0, a.size, 256):
        ak = a[lo:lo + 256, None]
        peak = coarse[np.argmax(binary_entropy(ak * coarse) - binary_entropy((1 - ak) * coarse), axis=1)]
        p = np.clip(peak[:, None] + offsets, 0.0, 1.0)
        out[lo:lo + 256] = np.max(binary_entropy(ak * p) - binary_entropy((1 - ak) * p), axis=1)
    return np.maximum(out, 0.0)


def transfer_prob(g, delta, t) -> float:
    rabi = math.sqrt(g * g + 0.25 * delta * delta)
    return (g * math.sin(rabi * t) / rabi) ** 2


def decayed_probs(vals: dict) -> tuple:
    """(|h_keep|^2, |h_env|^2) of a decayed conversion, by integration."""
    from jcchannel.jc import JCParams
    from jcchannel.lindblad import DecayParams, integrate_master_equation

    init = np.zeros((4, 4), dtype=complex)
    init[1, 1] = 1.0  # |down, 1>: the photon waits in the cavity
    rho = integrate_master_equation(
        JCParams.from_detuning(g=vals["g"], delta=vals["delta"], t=vals["t"], nu=vals.get("nu", 0.0)),
        DecayParams(kappa=vals["kappa"], gamma_at=vals["gamma"]),
        init,
        vals["t"],
    )
    return float(rho[2, 2].real), float(rho[1, 1].real)


def _judge(recs: list, oracle_q: np.ndarray, verdict: Verdict) -> None:
    """Check label and Q of records that carry a trusted keep/env share."""
    for rec, q_expected in zip(recs, oracle_q):
        problems = rec["problems"]
        a, e, status, q = rec["a"], rec["e"], rec["status"], rec["q"]
        gap = math.sqrt(max(a, 0.0)) - math.sqrt(max(e, 0.0))
        ambiguous = abs(abs(gap) - TIE_BAND) <= AMBIGUOUS
        if not ambiguous:
            want = "degradable" if gap > TIE_BAND else "anti-degradable" if gap < -TIE_BAND else "boundary"
            if status != want:
                problems.append(f"status {status}, expected {want}")
        if (not ambiguous and status != "degradable") or a <= 0.5 - AMBIGUOUS:
            if q != 0.0:
                problems.append(f"Q = {q!r}, expected exactly 0")
        elif abs(q - q_expected) > Q_TOL:
            problems.append(f"Q = {q!r}, oracle {q_expected!r}")
        if status == "degradable" and q == 0.0:
            verdict.label_q_mismatch += 1
        verdict.record(problems)


def _sample(seed: int, indices: list) -> set:
    rng = random.Random(f"check:{seed}")
    return set(rng.sample(indices, min(DECAY_SAMPLES, len(indices))))


def _trusted_shares(recs: list, seed: int) -> None:
    """Fill each record's a, e from the closed form or, for decay, the integrator."""
    decayed = [i for i, rec in enumerate(recs) if rec["mode"] == "decayed"]
    sampled = _sample(seed, decayed)
    for i, rec in enumerate(recs):
        vals, problems = rec["vals"], rec["problems"]
        if rec["mode"] == "decayed":
            a, e = rec["h_keep_sq"], rec["h_env_sq"]
            if i in sampled:
                ia, ie = decayed_probs(vals)
                if abs(a - ia) > DECAY_TOL or abs(e - ie) > DECAY_TOL:
                    problems.append(f"decayed shares ({a!r}, {e!r}), integrator ({ia!r}, {ie!r})")
        else:
            a = transfer_prob(vals["g"], vals["delta"], vals["t"])
            if rec["mode"] == "concat":
                a *= vals["T"] * transfer_prob(vals["g2"], vals["delta2"], vals["t2"])
            e = 1.0 - a
            if abs(rec["h_keep_sq"] - a) > PROB_TOL or abs(rec["h_env_sq"] - e) > PROB_TOL:
                problems.append(
                    f"shares ({rec['h_keep_sq']!r}, {rec['h_env_sq']!r}), closed form ({a!r}, {e!r})"
                )
        rec["a"], rec["e"] = a, e


def _grid_values(sweep) -> list:
    """Expected parameter values of every sweep row, in output order."""
    grids = [np.linspace(ax.start, ax.stop, ax.count) for ax in sweep.axes]
    base = {name: 0.0 for name in MODE_PARAMS[sweep.mode]}
    base.update(sweep.fixed)
    rows = []
    for idx in product(*(range(ax.count) for ax in sweep.axes)):
        vals = dict(base)
        for ax, grid, i in zip(sweep.axes, grids, idx):
            vals[ax.name] = float(grid[i])
        rows.append(vals)
    return rows


def _param_cells(mode: str, vals: dict) -> list:
    echoed = MODE_PARAMS[mode]
    return [repr(float(vals[name])) if name in echoed else "" for name in PARAM_COLUMNS]


def check_sweep(sweep, output, seed: int) -> Verdict:
    verdict = Verdict()
    rc, text = output
    if rc != 0:
        verdict.lost(sweep.points, f"sweep exited with {rc!r}")
        return verdict
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        verdict.lost(sweep.points, "missing or wrong CSV header")
        return verdict
    rows = lines[1:]
    expected = _grid_values(sweep)
    if len(rows) != len(expected):
        verdict.lost(abs(len(rows) - len(expected)), f"{len(rows)} rows for {len(expected)} grid points")
    recs = []
    for line, vals in zip(rows, expected):
        cells = line.split(",")
        rec = {"mode": sweep.mode, "vals": vals, "problems": []}
        if len(cells) != 15 or cells[0] != sweep.mode or cells[1:10] != _param_cells(sweep.mode, vals):
            rec["problems"].append(f"row {line!r} does not match grid point {vals}")
        try:
            rec.update(h_keep_sq=float(cells[10]), h_env_sq=float(cells[11]), status=cells[12], q=float(cells[13]))
        except (IndexError, ValueError):
            rec.update(h_keep_sq=math.nan, h_env_sq=math.nan, status="", q=math.nan)
            rec["problems"].append(f"unparsable row {line!r}")
        recs.append(rec)
    _trusted_shares(recs, seed)
    _judge(recs, capacity_oracle([r["a"] for r in recs]), verdict)
    return verdict


def _parse_answer(query, output) -> dict:
    """One capacity answer as a record; problems hold what does not match the query."""
    rc, text = output
    vals = {name: 0.0 for name in MODE_PARAMS[query.mode]}
    vals.update(query.params)
    rec = {"mode": query.mode, "vals": vals, "problems": []}
    rec.update(h_keep_sq=math.nan, h_env_sq=math.nan, status="", q=math.nan)
    if rc != 0:
        rec["problems"].append(f"capacity exited with {rc!r}")
        return rec
    try:
        if query.json:
            obj = json.loads(text)
            echoed = [obj[name] for name in PARAM_COLUMNS]
            want = [vals[name] if name in MODE_PARAMS[query.mode] else None for name in PARAM_COLUMNS]
            fields = (obj["mode"], obj["h_keep_sq"], obj["h_env_sq"], obj["status"], obj["Q"])
        else:
            table = dict(line.split(None, 1) for line in text.splitlines())
            echoed = [table.get(name) for name in PARAM_COLUMNS]
            want = [cell or None for cell in _param_cells(query.mode, vals)]
            fields = (
                table["mode"], float(table["|h_keep|^2"]), float(table["|h_env|^2"]),
                STATUS_TEXT.get(table["status"], table["status"]), float(table["Q"]),
            )
    except (KeyError, ValueError, TypeError) as e:
        rec["problems"].append(f"unparsable answer ({e}): {text!r}")
        return rec
    mode, rec["h_keep_sq"], rec["h_env_sq"], rec["status"], rec["q"] = fields
    if mode != query.mode or echoed != want:
        rec["problems"].append(f"answer echoes {mode} {echoed}, asked {query.mode} {want}")
    return rec


def check_queries(queries, outputs, seed: int) -> Verdict:
    verdict = Verdict()
    recs = [_parse_answer(q, out) for q, out in zip(queries, outputs)]
    _trusted_shares(recs, seed)
    _judge(recs, capacity_oracle([r["a"] for r in recs]), verdict)
    return verdict


def check_verify(output) -> Verdict:
    verdict = Verdict()
    rc, text = output
    lines = text.splitlines()
    suites = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    for line in suites:
        verdict.record([] if line.startswith("PASS ") else [line])
    if len(suites) != VERIFY_SUITES:
        verdict.lost(abs(VERIFY_SUITES - len(suites)), f"{len(suites)} suites reported")
    if rc != 0 or not lines or lines[-1] != "level=full: all suites passed":
        if verdict.failed == 0:
            verdict.lost(1, f"verify exited with {rc!r} and no failing suite line")
    return verdict


def check(inputs, outputs) -> Verdict:
    """Check the outputs of one pass over the workload's requests."""
    if inputs.sweep is not None:
        return check_sweep(inputs.sweep, outputs[0], inputs.seed)
    if inputs.queries:
        return check_queries(inputs.queries, outputs, inputs.seed)
    return check_verify(outputs[0])
