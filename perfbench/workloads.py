"""Seeded inputs of the four benchmark workloads.

Each workload is a fixed list of requests, one argv list per in-process
``jcchannel.cli.main`` call, made only from the seed.  One pass runs every
request once; a run repeats passes until its time is up.

  sweep-conversion  one 200 x 50 conversion sweep over t and delta
  sweep-decayed     one 100 x 100 decayed sweep over kappa and gamma
  capacity-queries  396 single-point capacity queries, mixed modes and formats
  verify-full       one ``verify full``

This module imports neither numpy nor jcchannel, so the set-up probe times
the package import and not the benchmark's own imports.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("sweep-conversion", "sweep-decayed", "capacity-queries", "verify-full")

# every model parameter column of a sweep row, in CSV order
PARAM_COLUMNS = ("g", "delta", "t", "g2", "delta2", "t2", "T", "kappa", "gamma")

# parameters echoed in a record per mode; unlisted columns stay empty
MODE_PARAMS = {
    "conversion": ("g", "delta", "t"),
    "concat": ("g", "delta", "t", "g2", "delta2", "t2", "T"),
    "decayed": ("g", "delta", "t", "kappa", "gamma"),
}

QUERIES_PER_PASS = 396  # a multiple of 6: every mode-format pair gets a sixth
QUERY_MODES = ("conversion", "concat", "decayed")
VERIFY_SUITES = 10  # suites in one ``verify full`` report
_JITTER = 0.01  # seed-drawn share by which an axis endpoint moves


@dataclass(frozen=True)
class Axis:
    name: str
    start: float
    stop: float
    count: int

    def spec(self) -> str:
        return f"{self.name}:{self.start!r}:{self.stop!r}:{self.count}"


@dataclass(frozen=True)
class Sweep:
    """One ``sweep`` request: a mode, fixed parameters and up to 3 axes."""

    mode: str
    fixed: dict
    axes: tuple

    @property
    def points(self) -> int:
        return math.prod(ax.count for ax in self.axes)

    def argv(self) -> list:
        out = ["sweep", "--mode", self.mode, "--threads", "1"]
        for name, value in self.fixed.items():
            out += [f"--{name}", repr(value)]
        for ax in self.axes:
            out += ["--sweep", ax.spec()]
        return out


@dataclass(frozen=True)
class Query:
    """One ``capacity`` request; ``params`` holds every flag value passed."""

    mode: str
    params: dict
    json: bool

    def argv(self) -> list:
        out = ["capacity", "--mode", self.mode]
        for name, value in self.params.items():
            out += [f"--{name}", repr(value)]
        if self.json:
            out.append("--json")
        return out


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    sweep: Sweep | None
    queries: tuple
    requests: tuple  # argv lists, one per cli.main call of a pass

    @property
    def records_per_pass(self) -> int:
        """Output records one pass yields: rows, answers or verify suites."""
        if self.sweep is not None:
            return self.sweep.points
        if self.queries:
            return len(self.queries)
        return VERIFY_SUITES


def _jittered(rng: random.Random, start: float, stop: float) -> tuple:
    span = stop - start
    return (
        start + span * rng.uniform(-_JITTER, _JITTER),
        stop + span * rng.uniform(-_JITTER, _JITTER),
    )


def conversion_sweep(seed: int, t_count: int = 200, delta_count: int = 50) -> Sweep:
    """g = 1 over t in [0, 2 pi] x delta in [-2, 2], endpoints jittered by <= 1%."""
    rng = random.Random(f"sweep-conversion:{seed}")
    t0, t1 = _jittered(rng, 0.0, 2.0 * math.pi)
    d0, d1 = _jittered(rng, -2.0, 2.0)
    return Sweep(
        mode="conversion",
        fixed={"g": 1.0},
        axes=(Axis("t", abs(t0), t1, t_count), Axis("delta", d0, d1, delta_count)),
    )


def decayed_sweep(seed: int, kappa_count: int = 100, gamma_count: int = 100) -> Sweep:
    """g = 1, t = 2.356 over kappa in [0, 2] x gamma in [0, 1], endpoints jittered."""
    rng = random.Random(f"sweep-decayed:{seed}")
    k0, k1 = _jittered(rng, 0.0, 2.0)
    g0, g1 = _jittered(rng, 0.0, 1.0)
    return Sweep(
        mode="decayed",
        fixed={"g": 1.0, "t": 2.356},
        axes=(Axis("kappa", abs(k0), k1, kappa_count), Axis("gamma", abs(g0), g1, gamma_count)),
    )


def capacity_queries(seed: int, count: int = QUERIES_PER_PASS) -> tuple:
    """Seed-drawn single-point queries, equal shares per mode and output format.

    No record of real queries exists, so the mix is a coverage choice:
    query i has mode ``QUERY_MODES[i % 3]`` and asks for ``--json`` when
    ``(i // 3) % 2`` is 1, so each of the six mode-format pairs gets a sixth.
    g is 1, as in the sweeps; delta, t, kappa and gamma are drawn from the
    sweep workloads' grid ranges, the second concat stage from the same
    ranges, and T from its whole valid range [0, 1].  --nu stays at its
    default.
    """
    rng = random.Random(f"capacity-queries:{seed}")
    out = []
    for i in range(count):
        mode = QUERY_MODES[i % len(QUERY_MODES)]
        params = {"g": 1.0, "delta": rng.uniform(-2.0, 2.0), "t": rng.uniform(0.0, 2.0 * math.pi)}
        if mode == "concat":
            params.update(
                g2=1.0,
                delta2=rng.uniform(-2.0, 2.0),
                t2=rng.uniform(0.0, 2.0 * math.pi),
                T=rng.uniform(0.0, 1.0),
            )
        elif mode == "decayed":
            params.update(kappa=rng.uniform(0.0, 2.0), gamma=rng.uniform(0.0, 1.0))
        out.append(Query(mode=mode, params=params, json=(i // len(QUERY_MODES)) % 2 == 1))
    return tuple(out)


def make_inputs(workload: str, seed: int) -> Inputs:
    if workload == "sweep-conversion":
        sweep = conversion_sweep(seed)
        return Inputs(workload, seed, sweep, (), (sweep.argv(),))
    if workload == "sweep-decayed":
        sweep = decayed_sweep(seed)
        return Inputs(workload, seed, sweep, (), (sweep.argv(),))
    if workload == "capacity-queries":
        queries = capacity_queries(seed)
        return Inputs(workload, seed, None, queries, tuple(q.argv() for q in queries))
    if workload == "verify-full":
        return Inputs(workload, seed, None, (), (["verify", "full"],))
    raise ValueError(f"unknown workload {workload!r}")
