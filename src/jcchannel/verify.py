"""Oracle cross-checks: every closed form against an independent route.

Each suite pits a closed-form implementation against a brute-force or
dual-route computation that shares no derivation with it: matrix
exponential vs the closed unitary, RK4 integration vs the decay solutions,
entropy formula vs eigenvalue route, constructed degrading map vs direct
composition.  Suites report their worst observed deviation and the first
failing parameter tuple, if any.

Levels: "quick" runs reduced point counts for a fast smoke check,
"full" runs the counts the acceptance gate requires.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import capacity as cap
from . import channels, jc, lindblad
from .qmat import QubitInput, binary_entropy, hermitian_eigenvalues, trace_distance

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


def expm_taylor(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a plain Taylor core.

    The argument is scaled by 2^-k until its max-column-sum norm is at
    most 1/4, the series is summed until the next term falls below 1e-13
    relative to the running sum, and the result is squared k times.
    Deliberately independent of any spectral decomposition.
    """
    a = np.asarray(m, dtype=complex)
    norm = float(np.max(np.sum(np.abs(a), axis=0)))
    k = 0
    while norm > 0.25:
        norm *= 0.5
        k += 1
    a = a / (2.0**k)
    n = a.shape[0]
    total = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for j in range(1, 40):
        term = term @ a / j
        total = total + term
        if np.max(np.abs(term)) < 1e-13 * max(1.0, np.max(np.abs(total))):
            break
    for _ in range(k):
        total = total @ total
    return total


def _random_params(rng: np.random.Generator) -> jc.JCParams:
    return jc.JCParams.from_detuning(
        g=float(rng.uniform(0.1, 3.0)),
        delta=float(rng.uniform(-4.0, 4.0)),
        t=float(rng.uniform(0.0, 8.0)),
        nu=float(rng.uniform(-2.0, 2.0)),
    )


def _random_input(rng: np.random.Generator) -> QubitInput:
    p = float(rng.uniform(0.0, 1.0))
    mag = math.sqrt(p * (1.0 - p)) * float(rng.uniform(0.0, 1.0))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    return QubitInput(p=p, r=mag * complex(math.cos(phase), math.sin(phase)))


def _random_unit_channel(rng: np.random.Generator, lo: float, hi: float) -> channels.TransferChannel:
    a = float(rng.uniform(lo, hi))
    ph1 = float(rng.uniform(0.0, 2.0 * math.pi))
    ph2 = float(rng.uniform(0.0, 2.0 * math.pi))
    return channels.TransferChannel(
        h_keep=math.sqrt(a) * complex(math.cos(ph1), math.sin(ph1)),
        h_env=math.sqrt(1.0 - a) * complex(math.cos(ph2), math.sin(ph2)),
    )


def _suite(name, fn, level):
    start = time.perf_counter()
    max_dev, detail = fn(level)
    elapsed = time.perf_counter() - start
    return SuiteResult(
        name=name,
        passed=detail == "",
        max_dev=max_dev,
        detail=detail,
        seconds=elapsed,
    )


def _kraus_completeness(level: str):
    rng = np.random.default_rng(_SEED)
    n = 1000 if level == "full" else 150
    worst, detail = 0.0, ""
    eye = np.eye(2)
    for _ in range(n):
        params = _random_params(rng)
        a1, a2 = jc.kraus_operators(params)
        dev = float(np.max(np.abs(a1.conj().T @ a1 + a2.conj().T @ a2 - eye)))
        if dev > worst:
            worst = dev
            if dev > 1e-12 and not detail:
                detail = f"completeness broken at {params}"
    return worst, detail


def _unitary_oracle(level: str):
    npts = 10 if level == "full" else 5
    worst, detail = 0.0, ""
    for t in np.linspace(0.0, 2.0 * math.pi, npts):
        for delta in np.linspace(-3.0, 3.0, npts):
            for nu in np.linspace(-2.0, 2.0, npts):
                params = jc.JCParams.from_detuning(g=1.0, delta=float(delta), t=float(t), nu=float(nu))
                closed = jc.joint_unitary(params)
                numeric = expm_taylor(-1j * params.t * jc.hamiltonian(params))
                dev = float(np.max(np.abs(closed - numeric)))
                if dev > worst:
                    worst = dev
                    if dev > 1e-9 and not detail:
                        detail = f"unitary mismatch at {params}"
    return worst, detail


def _amplitude_completeness(level: str):
    rng = np.random.default_rng(_SEED + 1)
    n = 1000 if level == "full" else 150
    worst, detail = 0.0, ""
    for _ in range(n):
        params = _random_params(rng)
        send = abs(jc.transfer_amplitude(params)) ** 2 + abs(jc.residual_amplitude(params)) ** 2
        recv = abs(jc.transfer_amplitude(params)) ** 2 + abs(jc.reception_residual_amplitude(params)) ** 2
        dev = max(abs(send - 1.0), abs(recv - 1.0))
        if dev > worst:
            worst = dev
            if dev > 1e-12 and not detail:
                detail = f"amplitude norm broken at {params}"
    return worst, detail


def _degrading_composition(level: str):
    rng = np.random.default_rng(_SEED + 2)
    n_ch = 100 if level == "full" else 10
    n_in = 20 if level == "full" else 5
    worst, detail = 0.0, ""
    for side in ("degradable", "anti-degradable"):
        for _ in range(n_ch):
            if side == "degradable":
                ch = _random_unit_channel(rng, 0.5, 1.0)
                better, target = ch, ch.complement()
            else:
                ch = _random_unit_channel(rng, 0.0, 0.5)
                better, target = ch.complement(), ch
            mapped = channels.compose(better, cap.degrading_channel(better))
            for _ in range(n_in):
                inp = _random_input(rng)
                dev = trace_distance(mapped.apply(inp), target.apply(inp))
                if dev > worst:
                    worst = dev
                    if dev > 1e-9 and not detail:
                        detail = f"{side} composition off at {ch}"
    return worst, detail


def _capacity_goldens(level: str):
    worst, detail = 0.0, ""

    def check(dev, tol, what):
        nonlocal worst, detail
        if dev > worst:
            worst = dev
        if dev > tol and not detail:
            detail = what

    goldens = ((0.75, GRID_ORACLE_Q_075), (0.9, GRID_ORACLE_Q_090))
    rng = np.random.default_rng(_SEED + 4)
    seeded = rng.uniform(0.5, 1.0, 200 if level == "full" else 20).tolist()
    shares = (0.5, 0.3, 0.1) + tuple(a for a, _ in goldens) + tuple(seeded)
    chs = [channels.TransferChannel(h_keep=1.0, h_env=0.0)] + [
        channels.TransferChannel(h_keep=math.sqrt(a), h_env=math.sqrt(1.0 - a))
        for a in shares
    ]
    scalar = [cap.quantum_capacity(ch) for ch in chs]
    batched = cap.quantum_capacities(chs)

    # sweeps settle capacities as columns: they must give the one-point floats exactly
    for ch, one, many in zip(chs, scalar, batched):
        dev = max(abs(one.q - many.q), abs(one.p_star - many.p_star))
        if one.status is not many.status:
            dev = math.inf
        check(dev, 0.0, f"column capacity differs from the one-point one at {ch}")

    perfect = scalar[0]
    check(abs(perfect.q - 1.0), 0.0, "Q at unit transfer is not exactly 1")
    check(abs(perfect.p_star - 0.5), 0.0, "p_star at unit transfer is not exactly 1/2")

    for a, res in zip(shares[:3], scalar[1:4]):
        check(res.q, 0.0, f"Q not exactly 0 at keep share {a}")

    # at a = 3/4, ap = 1/3 and (1 - a)p = 1/9 make both log terms 0.75 ln 2
    check(abs(scalar[4].p_star - 4.0 / 9.0), 1e-15, "p_star at keep share 3/4 is not 4/9")

    for (a, stored), one in zip(goldens, scalar[4:]):
        check(abs(one.q - stored), 1e-6, f"optimizer disagrees with stored grid value at {a}")
        if level == "full":
            fresh, _ = cap.capacity_grid_oracle(a, step=1e-5)
            check(abs(one.q - fresh), 1e-6, f"optimizer disagrees with fresh grid oracle at {a}")
            check(abs(fresh - stored), 1e-12, f"stored grid value stale at {a}")

    # golden-section search is a second, independent maximizer: no Q below its maximum
    for ch, one in zip(chs[4:], scalar[4:]):
        a = ch.keep_prob
        _, best = cap.golden_section_max(lambda p: cap.coherent_information_diagonal(a, p), 0.0, 1.0)
        check(best - one.q, 1e-15, f"Q below the golden-section maximum at keep share {a}")
    return worst, detail


def _coherent_info_two_route(level: str):
    npts = 51 if level == "full" else 11
    worst, detail = 0.0, ""
    for a in np.linspace(0.0, 1.0, npts):
        ph = complex(math.cos(0.3 * math.pi * a), math.sin(0.3 * math.pi * a))
        ch = channels.TransferChannel(
            h_keep=math.sqrt(float(a)) * ph, h_env=math.sqrt(1.0 - float(a))
        )
        for p in np.linspace(0.0, 1.0, npts):
            closed = cap.coherent_information_diagonal(float(a), float(p))
            eigen = cap.coherent_information(ch, float(p))
            dev = abs(closed - eigen)
            lam = hermitian_eigenvalues(channels.extended_apply(ch, float(p)))
            rank_dev = float(max(abs(lam[2]), abs(lam[3])))
            if rank_dev > 1e-10 and not detail:
                detail = f"extended state exceeds rank 2 at a={a} p={p}"
            if dev > worst:
                worst = dev
                if dev > 1e-9 and not detail:
                    detail = f"route mismatch at a={a} p={p}"
    return worst, detail


def _concatenation_law(level: str):
    rng = np.random.default_rng(_SEED + 3)
    n = 1000 if level == "full" else 100
    worst, detail = 0.0, ""
    for _ in range(n):
        e1 = _random_params(rng)
        e2 = _random_params(rng)
        tr = float(rng.uniform(0.0, 1.0))
        chained = channels.concatenate(e1, channels.LossChannel(T=tr), e2)
        product = (
            tr
            * abs(jc.transfer_amplitude(e1)) ** 2
            * (math.sin(e2.rabi * e2.t) * e2.g / e2.rabi) ** 2
        )
        dev = abs(chained.keep_prob - product)
        if dev > worst:
            worst = dev
            if dev > 1e-12 and not detail:
                detail = f"product law broken at {e1}, T={tr}, {e2}"
        plain = channels.TransferChannel(
            h_keep=math.sqrt(chained.keep_prob),
            h_env=math.sqrt(max(0.0, 1.0 - chained.keep_prob)),
        )
        qdev = abs(cap.quantum_capacity(chained).q - cap.quantum_capacity(plain).q)
        if qdev > worst:
            worst = qdev
            if qdev > 1e-10 and not detail:
                detail = f"capacity not phase-invariant at {e1}, T={tr}, {e2}"
    return worst, detail


def _joint_init(inp: QubitInput) -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0 - inp.p
    rho[1, 1] = inp.p
    rho[0, 1] = inp.r
    rho[1, 0] = np.conj(complex(inp.r))
    return rho


def _lindblad_points(level: str):
    grid = lindblad.oracle_grid()
    if level == "full":
        return grid
    return grid[::11]  # 20-point subset


def _lindblad_closed_form(level: str):
    worst, detail = 0.0, ""
    init = _joint_init(_DECAY_INPUT)
    for params, decay, t in _lindblad_points(level):
        closed = lindblad.closed_form_state(params, decay, _DECAY_INPUT, t)
        numeric = lindblad.integrate_master_equation(params, decay, init, t)
        dev = float(np.max(np.abs(closed - numeric)))
        if dev > worst:
            worst = dev
            if dev > 1e-6 and not detail:
                detail = f"closed form off at {params} {decay} t={t}"
    # decay-free limit must reduce to the pure oscillation
    no_decay = lindblad.DecayParams(kappa=0.0, gamma_at=0.0)
    for gt in np.linspace(0.0, 2.0 * math.pi, 25):
        params = jc.JCParams.resonant(g=1.0, t=float(gt), nu=0.25)
        state = lindblad.closed_form_state(params, no_decay, QubitInput(p=1.0, r=0.0), float(gt))
        dev = max(
            abs(state[2, 2].real - math.sin(gt) ** 2),
            abs(state[1, 1].real - math.cos(gt) ** 2),
        )
        if dev > worst:
            worst = dev
            if dev > 1e-9 and not detail:
                detail = f"decay-free limit broken at g t={gt}"
    return worst, detail


def _degradability_equivalence(level: str):
    worst, detail = 0.0, ""
    band = 1e-10
    for params, decay, t in _lindblad_points(level):
        conv = lindblad.decayed_conversion(params, decay, t)
        gap = abs(conv.h_keep) ** 2 - abs(conv.h_env) ** 2
        if abs(gap) <= band:
            continue
        by_inequality = lindblad.decay_degradability(conv)
        by_amplitude = gap > 0.0
        # eta-scaled expression must equal |h_env|^2 - |h_keep|^2 exactly
        expr = lindblad.degradability_expression(conv)
        ident = abs(conv.constants.eta(t) * expr + gap)
        if ident > worst:
            worst = ident
        if by_inequality != by_amplitude and not detail:
            detail = f"boolean mismatch at {params} {decay} t={t}"
    return worst, detail


def _capacity_monotonicity(level: str):
    worst, detail = 0.0, ""
    qs = []
    for a in np.linspace(0.5, 1.0, 101):
        ch = channels.TransferChannel(h_keep=math.sqrt(float(a)), h_env=math.sqrt(1.0 - float(a)))
        qs.append(cap.quantum_capacity(ch).q)
    for i in range(len(qs) - 1):
        drop = qs[i] - qs[i + 1]
        if drop > worst:
            worst = drop
        if drop > 1e-12 and not detail:
            detail = f"Q decreases between grid points {i} and {i + 1}"
    edge = channels.TransferChannel(
        h_keep=math.sqrt(0.5 + 1e-6), h_env=math.sqrt(0.5 - 1e-6)
    )
    q_edge = cap.quantum_capacity(edge).q
    if q_edge >= 1e-4 and not detail:
        detail = f"Q jumps at the boundary: Q(0.5 + 1e-6) = {q_edge}"
    worst = max(worst, q_edge)
    return worst, detail


_SUITES = (
    ("kraus-completeness", _kraus_completeness),
    ("unitary-oracle", _unitary_oracle),
    ("amplitude-completeness", _amplitude_completeness),
    ("degrading-composition", _degrading_composition),
    ("capacity-goldens", _capacity_goldens),
    ("coherent-info-two-route", _coherent_info_two_route),
    ("concatenation-law", _concatenation_law),
    ("lindblad-closed-form", _lindblad_closed_form),
    ("degradability-equivalence", _degradability_equivalence),
    ("capacity-monotonicity", _capacity_monotonicity),
)


def run_verify(level: str = "quick") -> VerifyReport:
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    results = tuple(_suite(name, fn, level) for name, fn in _SUITES)
    return VerifyReport(level=level, results=results)
