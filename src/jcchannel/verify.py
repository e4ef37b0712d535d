"""Oracle cross-checks: every closed form against an independent route.

Each suite pits a closed-form implementation against a brute-force or
dual-route computation that shares no derivation with it: expm_taylor of
the Hamiltonian vs the closed unitary and of the Liouvillian vs the decay
solutions, entropy formula vs eigenvalue route, constructed degrading map
vs direct composition.

A suite only computes: it yields its checks, each as (tolerance name,
deviations over the check's points, describe(*index) naming a point), and
`_suite` alone judges them.  A point passes only if its deviation is at
most the named tolerance in `SUITES`, so a NaN fails.  A suite reports
its largest deviation over all its checks and names the first failing
point of the first failing check, in the order it yields them.

The closed forms run as columns, one call per check over the whole
sample; a scalar one-point function runs only where it is what the check
is about (capacity-goldens' exact check, capacity-monotonicity) and in
degradability-equivalence's sign expression.

Levels: "quick" runs reduced point counts for a fast smoke check,
"full" runs the counts the acceptance gate requires.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np

from . import capacity as cap
from . import channels, jc, lindblad
from .qmat import (QubitInput, eigenvalue_entropy, expm_taylor, hermitian_eigenvalues, trace_distance,
                   von_neumann_entropy)

# Exhaustive p-grid maxima of H2(a p) - H2((1-a) p) at step 1e-5,
# computed once with capacity_grid_oracle and frozen.
GRID_ORACLE_Q_075 = 0.41503749925179323
GRID_ORACLE_Q_090 = 0.7094182634666657

# fixed generic reference input for the decay oracle comparisons
_DECAY_INPUT = QubitInput(p=0.6, r=0.25 + 0.31j)

_SEED = 20260817

@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    max_dev: float
    detail: str
    seconds: float


@dataclass(frozen=True)
class VerifyReport:
    level: str
    results: tuple[SuiteResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self) -> str:
        lines = []
        for r in self.results:
            tag = "PASS" if r.passed else "FAIL"
            line = f"{tag} {r.name}: max deviation {r.max_dev:.3e} ({r.seconds:.2f}s)"
            if r.detail:
                line += f" [{r.detail}]"
            lines.append(line)
        verdict = "all suites passed" if self.passed else "SUITE FAILURES PRESENT"
        lines.append(f"level={self.level}: {verdict}")
        return "\n".join(lines)


# bounds of one seeded draw of from_detuning's (g, delta, t, nu)
_PARAM_BOUNDS = ((0.1, -4.0, 0.0, -2.0), (3.0, 4.0, 8.0, 2.0))


# bounds of one seeded draw of a qubit input: p, the share of the largest |r| and its phase
_INPUT_BOUNDS = ((0.0, 0.0, 0.0), (1.0, 1.0, 2.0 * math.pi))


class Draws:
    """Seeded uniform draws: random.Random(seed)'s random() sequence, taken in C order.

    uniform has numpy's Generator.uniform signature and broadcasting, and
    each draw is low + (high - low) * u.  A block of n draws reads the
    bytes of one getrandbits(64 n) call as little-endian 32-bit pairs
    (a, b) and takes u = ((a >> 5) 2^26 + (b >> 6)) 2^-53, as random() does.
    """

    def __init__(self, seed: int):
        self._gen = random.Random(seed)

    def uniform(self, low=0.0, high=1.0, size=None):
        low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
        shape = np.broadcast_shapes(low.shape, high.shape) if size is None else np.broadcast_shapes(size)
        n = math.prod(shape)
        words = np.frombuffer(self._gen.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4")
        a, b = words.astype(np.uint64).reshape(n, 2).T
        out = low + (high - low) * ((((a >> 5) << 26) + (b >> 6)) * 2.0**-53).reshape(shape)
        return float(out) if out.ndim == 0 else out


def random_inputs(draws: Draws, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (p, r) of n qubit inputs from draws, drawing p, the share of the largest |r| and its phase in turn."""
    return _inputs(draws.uniform(*_INPUT_BOUNDS, size=(n, 3)))


def _inputs(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, r) of the qubit inputs whose _INPUT_BOUNDS draws lie on the last axis."""
    p, share, phase = np.moveaxis(draws, -1, 0)
    mag = np.sqrt(p * (1.0 - p)) * share
    return p, mag * np.cos(phase) + 1j * (mag * np.sin(phase))


def _suite(name, level):
    start = time.perf_counter()
    (fn, tol), max_dev, detail = SUITES[name], 0.0, ""
    # each check is judged as it is yielded, while describe can still read the suite's state
    for what, devs, describe in fn(level):
        devs = np.asarray(devs, dtype=float)
        max_dev = float(np.max(devs, initial=max_dev))  # a NaN anywhere stays the maximum
        hits = np.flatnonzero(~(devs <= tol[what]))
        if hits.size and not detail:
            detail = describe(*np.unravel_index(hits[0], devs.shape))
    seconds = time.perf_counter() - start
    return SuiteResult(name=name, passed=detail == "", max_dev=max_dev, detail=detail, seconds=seconds)


def _kraus_completeness(level: str):
    draws = Draws(_SEED).uniform(*_PARAM_BOUNDS, size=(1000 if level == "full" else 150, 4))
    g, delta, t, nu = draws.T
    a1, a2 = jc.kraus_operator_columns(g, nu, nu + delta, t).swapaxes(0, 1)
    gram = a1.conj().swapaxes(-1, -2) @ a1 + a2.conj().swapaxes(-1, -2) @ a2
    devs = np.max(np.abs(gram - np.eye(2)), axis=(-2, -1))
    yield "completeness", devs, lambda i: f"completeness broken at {jc.JCParams.from_detuning(*draws[i].tolist())}"


def _unitary_oracle(level: str):
    npts = 10 if level == "full" else 5
    axes = np.linspace(0.0, 2.0 * math.pi, npts), np.linspace(-3.0, 3.0, npts), np.linspace(-2.0, 2.0, npts)
    t, delta, nu = (x.ravel() for x in np.meshgrid(*axes, indexing="ij"))  # t slowest, nu fastest
    omega = nu + delta  # as from_detuning takes it
    generators = (-1j * t)[:, None, None] * jc.hamiltonian_columns(1.0, nu, omega)
    closed = jc.joint_unitary_columns(1.0, nu, omega, t)
    devs = np.max(np.abs(closed - expm_taylor(generators)), axis=(1, 2))

    def at(i):
        return jc.JCParams.from_detuning(g=1.0, delta=float(delta[i]), t=float(t[i]), nu=float(nu[i]))

    yield "unitary", devs, lambda i: f"unitary mismatch at {at(i)}"


def _amplitude_completeness(level: str):
    draws = Draws(_SEED + 1).uniform(*_PARAM_BOUNDS, size=(1000 if level == "full" else 150, 4))
    # (reception residual, transfer, residual) of each (g, delta, nu, t), NaN where the scalar call raises
    back, moved, left = (jc.squares(abs(h)) for h in jc.block_amplitude_columns(*draws.T[[0, 1, 3, 2]]))
    devs = np.maximum(np.abs(moved + left - 1.0), np.abs(moved + back - 1.0))
    yield "norm", devs, lambda i: f"amplitude norm broken at {jc.JCParams.from_detuning(*draws[i].tolist())}"


def _amplitudes(share, phase) -> jc.CArray:
    """sqrt(share) e^{i phase} over arrays, as math.sqrt(share) * complex(math.cos(phase), math.sin(phase))."""
    return np.sqrt(share) * jc.CArray(jc.math_columns(math.cos, phase), jc.math_columns(math.sin, phase))


def _degrading_composition(level: str):
    rng = Draws(_SEED + 2)
    n_ch, n_in = (100, 20) if level == "full" else (10, 5)
    (in_low, in_high), sides = _INPUT_BOUNDS, (("degradable", 0.5, 1.0), ("anti-degradable", 0.0, 0.5))
    # a row per channel, a side at a time: its keep share and two phases, then its inputs', as drawn one by one
    draws = np.concatenate([
        rng.uniform((lo, 0.0, 0.0) + in_low * n_in, (hi, 2.0 * math.pi, 2.0 * math.pi) + in_high * n_in,
                    size=(n_ch, 3 + 3 * n_in))
        for _, lo, hi in sides
    ])
    a, ph1, ph2 = draws[:, :3].T[:, :, None]
    anti = np.arange(2 * n_ch)[:, None] >= n_ch  # there the complement is the better channel
    better = _amplitudes(np.where(anti, 1.0 - a, a), np.where(anti, ph2, ph1))
    worse = _amplitudes(np.where(anti, a, 1.0 - a), np.where(anti, ph1, ph2))
    p, r = _inputs(draws[:, 3:].reshape(2 * n_ch, n_in, 3))
    t2, nu2 = cap.degrading_map_columns(better, worse)
    composed = better * jc.block_amplitude_columns(1.0, 0.0, nu2, t2)[1]  # then the reception stage of the map
    mapped, target = (channels.channel_outputs(h, jc.squares(abs(h)), p, r) for h in (composed, worse))

    def at(c):
        keep, env = (complex(h.real[c, 0], h.imag[c, 0]) for h in (_amplitudes(a, ph1), _amplitudes(1.0 - a, ph2)))
        return f"{sides[c // n_ch][0]} composition off at {channels.TransferChannel(h_keep=keep, h_env=env)}"

    yield "composition", trace_distance(mapped, target), lambda c, _: at(c)


def _capacity_goldens(level: str):
    goldens = ((0.75, GRID_ORACLE_Q_075), (0.9, GRID_ORACLE_Q_090))
    seeded = Draws(_SEED + 4).uniform(0.5, 1.0, 200 if level == "full" else 20).tolist()
    shares = (0.5, 0.3, 0.1) + tuple(a for a, _ in goldens) + tuple(seeded)
    chs = [channels.TransferChannel(h_keep=1.0, h_env=0.0)] + [
        channels.TransferChannel(h_keep=math.sqrt(a), h_env=math.sqrt(1.0 - a))
        for a in shares
    ]
    scalar = [cap.quantum_capacity(ch) for ch in chs]
    codes = cap.status_codes(np.array([abs(complex(ch.h_keep)) for ch in chs]),
                             np.array([abs(complex(ch.h_env)) for ch in chs]))
    qs, p_stars = cap.capacity_columns(codes, np.array([ch.keep_prob for ch in chs]))

    # sweeps settle capacities as columns: they must give the one-point floats exactly
    devs = [
        max(abs(one.q - q), abs(one.p_star - p)) if one.status is cap.STATUSES[code] else math.inf
        for one, code, q, p in zip(scalar, codes.tolist(), qs.tolist(), p_stars.tolist())
    ]
    yield "exact", devs, lambda i: f"column capacity differs from the one-point one at {chs[i]}"

    yield "exact", [abs(scalar[0].q - 1.0)], lambda _: "Q at unit transfer is not exactly 1"
    yield "exact", [abs(scalar[0].p_star - 0.5)], lambda _: "p_star at unit transfer is not exactly 1/2"
    yield "exact", [res.q for res in scalar[1:4]], lambda i: f"Q not exactly 0 at keep share {shares[i]}"

    # at a = 3/4, ap = 1/3 and (1 - a)p = 1/9 make both log terms 0.75 ln 2
    yield "p_star", [abs(scalar[4].p_star - 4.0 / 9.0)], lambda _: "p_star at keep share 3/4 is not 4/9"

    for (a, stored), one in zip(goldens, scalar[4:]):
        yield "grid", [abs(one.q - stored)], lambda _: f"optimizer disagrees with stored grid value at {a}"
        if level == "full":
            fresh, _ = cap.capacity_grid_oracle(a, step=1e-5)
            yield "grid", [abs(one.q - fresh)], lambda _: f"optimizer disagrees with fresh grid oracle at {a}"
            yield "stored_grid", [abs(fresh - stored)], lambda _: f"stored grid value stale at {a}"

    # golden-section search is a second, independent maximizer: no Q below its maximum
    keep = np.array([ch.keep_prob for ch in chs[4:]])
    _, best = cap.golden_section_lanes(lambda p: cap.coherent_information_columns(keep, p), np.zeros(len(keep)), 1.0)
    below = best - np.array([one.q for one in scalar[4:]])
    yield "golden", below, lambda i: f"Q below the golden-section maximum at keep share {keep[i]}"


def _coherent_info_two_route(level: str):
    grid = np.linspace(0.0, 1.0, 51 if level == "full" else 11)
    a = grid[:, None]  # a channel per row, an input population per column
    h_keep = _amplitudes(a, 0.3 * math.pi * a)
    outputs = channels.channel_outputs(h_keep, jc.squares(abs(h_keep)), grid, 0.0)
    extended = hermitian_eigenvalues(channels.extended_columns(h_keep, grid))  # read by both checks
    closed = cap.coherent_information_columns(a, grid)
    # the eigenvalue route of capacity.coherent_information, over the whole (a, p) grid
    devs = np.abs(closed - (von_neumann_entropy(outputs) - eigenvalue_entropy(extended)))
    yield "route", devs, lambda i, j: f"route mismatch at a={grid[i]} p={grid[j]}"
    rank_devs = np.max(np.abs(extended[..., 2:]), axis=-1)
    yield "rank", rank_devs, lambda i, j: f"extended state exceeds rank 2 at a={grid[i]} p={grid[j]}"


def _concatenation_law(level: str):
    (low, high), n = _PARAM_BOUNDS, 1000 if level == "full" else 100
    # one row per sample: e1 and e2 as (g, delta, t, nu), then T; each stage goes on as (g, delta, nu, t)
    draws = Draws(_SEED + 3).uniform(low + low + (0.0,), high + high + (1.0,), size=(n, 9))
    e1, e2, tr = draws[:, [0, 1, 3, 2]].T, draws[:, [4, 5, 7, 6]].T, draws[:, 8]
    h_keep, h_env = channels.concatenate_columns(e1, tr, e2)
    keep = np.minimum(jc.squares(abs(h_keep)), 1.0)
    # the product law, with e2's rabi from math.hypot, as JCParams.rabi takes it
    moved = jc.squares(abs(jc.block_amplitude_columns(*e1)[1]))
    g2, delta2, nu2, t2 = e2
    rabi = list(map(math.hypot, g2.tolist(), (0.5 * ((nu2 + delta2) - nu2)).tolist()))
    swap = np.array([(math.sin(r * t) * g / r) ** 2 for r, t, g in zip(rabi, t2.tolist(), g2.tolist())])
    product_devs = np.abs(keep - tr * moved * swap)
    # Q of the chain against Q of the real channel with its keep share; NaN where concatenate raises
    chains = (abs(h_keep), h_env), (np.sqrt(keep), np.sqrt(np.maximum(0.0, 1.0 - keep)))
    q, plain_q = (cap.capacity_columns(cap.status_codes(k, e), np.minimum(jc.squares(k), 1.0))[0] for k, e in chains)
    phase_devs = np.where(np.isnan(keep), np.nan, np.abs(q - plain_q))

    def at(i):
        row = draws[i].tolist()
        return "{}, T={}, {}".format(jc.JCParams.from_detuning(*row[:4]), row[8], jc.JCParams.from_detuning(*row[4:8]))

    yield "product", product_devs, lambda i: f"product law broken at {at(i)}"
    yield "phase", phase_devs, lambda i: f"capacity not phase-invariant at {at(i)}"


def _lindblad_points(level: str):
    """The decay oracle grid on "full", and a 20-point subset of it on "quick"."""
    return lindblad.oracle_grid()[:: 1 if level == "full" else 11]


def _lindblad_closed_form(level: str):
    points = _lindblad_points(level)
    init = np.zeros((4, 4), dtype=complex)
    init[:2, :2] = _DECAY_INPUT.matrix  # |down><down| (x) the photon's state
    numeric = lindblad.integrate_master_equations(points, init)
    columns = [(params.g, params.nu, params.omega, t, decay.kappa, decay.gamma_at) for params, decay, t in points]
    closed = lindblad.closed_form_columns(_DECAY_INPUT, *np.array(columns).T)
    devs = np.max(np.abs(closed - numeric), axis=(1, 2))
    yield "closed_form", devs, lambda i: "closed form off at {} {} t={}".format(*points[i])
    # decay-free limit must reduce to the pure oscillation: resonant, g = 1, nu = 0.25
    gts = np.linspace(0.0, 2.0 * math.pi, 25)
    state = lindblad.closed_form_columns(QubitInput(p=1.0, r=0.0), 1.0, 0.25, 0.25, gts)
    devs = np.maximum(
        np.abs(state[:, 2, 2].real - jc.squares(jc.math_columns(math.sin, gts))),
        np.abs(state[:, 1, 1].real - jc.squares(jc.math_columns(math.cos, gts))),
    )
    yield "decay_free", devs, lambda i: f"decay-free limit broken at g t={gts[i]}"


def _degradability_equivalence(level: str):
    band = SUITES["degradability-equivalence"][1]["tie_band"]
    checked, mismatch, identity = [], [], []
    for params, decay, t in _lindblad_points(level):
        conv = lindblad.decayed_conversion(params, decay, t)
        gap = abs(conv.h_keep) ** 2 - abs(conv.h_env) ** 2
        if abs(gap) <= band:
            continue
        checked.append((params, decay, t))
        mismatch.append(math.inf if lindblad.decay_degradability(conv) != (gap > 0.0) else 0.0)
        # eta-scaled expression must equal |h_env|^2 - |h_keep|^2 exactly
        identity.append(abs(conv.constants.eta(t) * lindblad.degradability_expression(conv) + gap))
    yield "boolean", mismatch, lambda i: "boolean mismatch at {} {} t={}".format(*checked[i])
    yield "identity", identity, lambda i: "degradability identity off at {} {} t={}".format(*checked[i])


def _capacity_monotonicity(level: str):
    qs = [
        cap.quantum_capacity(channels.TransferChannel(h_keep=math.sqrt(float(a)), h_env=math.sqrt(1.0 - float(a)))).q
        for a in np.linspace(0.5, 1.0, 101)
    ]
    yield "drop", np.subtract(qs[:-1], qs[1:]), lambda i: f"Q decreases between grid points {i} and {i + 1}"
    q_edge = cap.quantum_capacity(channels.TransferChannel(h_keep=math.sqrt(0.5 + 1e-6), h_env=math.sqrt(0.5 - 1e-6))).q
    yield "edge", [q_edge], lambda _: f"Q jumps at the boundary: Q(0.5 + 1e-6) = {q_edge}"


# every suite in run order -> (its checks, the tolerance each check names): a point passes only where
# its deviation is at most its check's tolerance
SUITES = {
    "kraus-completeness": (_kraus_completeness, {"completeness": 1e-12}),
    "unitary-oracle": (_unitary_oracle, {"unitary": 1e-9}),
    "amplitude-completeness": (_amplitude_completeness, {"norm": 1e-12}),
    "degrading-composition": (_degrading_composition, {"composition": 1e-9}),
    "capacity-goldens": (_capacity_goldens,
                         {"exact": 0.0, "p_star": 1e-15, "grid": 1e-6, "stored_grid": 1e-12, "golden": 1e-15}),
    "coherent-info-two-route": (_coherent_info_two_route, {"rank": 1e-10, "route": 1e-9}),
    "concatenation-law": (_concatenation_law, {"product": 1e-12, "phase": 1e-10}),
    "lindblad-closed-form": (_lindblad_closed_form, {"closed_form": 1e-6, "decay_free": 1e-9}),
    "degradability-equivalence": (_degradability_equivalence, {"tie_band": 1e-10, "identity": 1e-12, "boolean": 0.0}),
    "capacity-monotonicity": (_capacity_monotonicity, {"drop": 1e-12, "edge": 1e-4}),
}


def run_verify(level: str = "quick") -> VerifyReport:
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    results = tuple(_suite(name, level) for name in SUITES)
    return VerifyReport(level=level, results=results)
