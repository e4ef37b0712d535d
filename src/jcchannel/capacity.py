"""Degradability classification and single-letter quantum capacity.

A one-amplitude channel is degradable exactly when the receiver gets the
larger share of the amplitude, |h_keep| > |h_env|.  Degradable channels
have capacity

    Q = max_p  H2(|h_keep|^2 p) - H2((1 - |h_keep|^2) p)

(the amplitude-damping capacity).  The objective is strictly concave in p
when |h_keep|^2 > 1/2, and capacity_root finds its maximum as the root of
its derivative by a fixed number of Newton steps, with the same
operations on one keep share (quantum_capacity) and on a column of them
(capacity_columns, and quantum_capacities, its view over channels).
golden_section_max stays as an independent maximizer for the checks.
Channels that are not degradable are assigned Q = 0; for channels with
decay leakage this follows the same amplitude comparison, with the decay
environment not modeled as an extra output.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channels import TransferChannel, extended_state, reception_channel
from .jc import JCParams
from .qmat import QubitInput, binary_entropy, binary_entropy_array, von_neumann_entropy

TIE_BAND = 1e-12
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_ORACLE_BLOCK = 4096  # grid points per array expression in capacity_grid_oracle
NEWTON_STEPS = 6  # capacity_root's steps: 4 reach every root to rounding
P_FLOOR = 0.43  # below every optimum p*, which is 0.4356 at least
_LN2 = math.log(2.0)


class NotDegradable(ValueError):
    """Degrading-map construction requested for a non-degradable channel."""


class DegradabilityStatus(enum.Enum):
    DEGRADABLE = "degradable"
    ANTI_DEGRADABLE = "anti-degradable"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class CapacityResult:
    status: DegradabilityStatus
    q: float
    p_star: float


# the status of each code status_codes gives
STATUSES = (
    DegradabilityStatus.BOUNDARY,
    DegradabilityStatus.DEGRADABLE,
    DegradabilityStatus.ANTI_DEGRADABLE,
)


def status_codes(keep_abs, env_abs):
    """Index into STATUSES of |h_keep| against |h_env| with a 1e-12 tie band.

    Takes floats or arrays of magnitudes.
    """
    return (keep_abs > env_abs + TIE_BAND) + 2 * (keep_abs < env_abs - TIE_BAND)


def classify(ch: TransferChannel) -> DegradabilityStatus:
    """Compare |h_keep| against |h_env| with a 1e-12 tie band."""
    return STATUSES[status_codes(abs(complex(ch.h_keep)), abs(complex(ch.h_env)))]


def degrading_map(ch: TransferChannel) -> JCParams:
    """Resonant second-stage parameters whose reception channel degrades ch.

    The second stage must turn the kept output into the environment
    output, so its amplitude has to be w = h_env / h_keep; that is
    realizable by a resonant stage exactly when |w| <= 1.  Magnitude is
    set through sin(g' t') and the phase through nu' t' (principal
    value).  Only decay-free channels are supported.
    """
    if abs(ch.keep_prob + ch.env_prob - 1.0) > 1e-9:
        raise ValueError("degrading map construction requires a decay-free channel")
    if ch.keep_prob < 0.5 - TIE_BAND:
        raise NotDegradable(
            f"|h_keep|^2 = {ch.keep_prob} < 1/2: environment holds the larger share"
        )
    hk, he = complex(ch.h_keep), complex(ch.h_env)
    ratio = min(1.0, abs(he) / abs(hk))
    if ratio <= TIE_BAND:
        # nothing reaches the environment: a stage that transfers nothing;
        # nu' = phase / t' would blow up as t' -> 0
        return JCParams.resonant(g=1.0, t=0.0, nu=0.0)
    tp = math.asin(ratio)  # g' t' with g' = 1
    # want i e^{i nu' t'} sin(g' t') = h_env / h_keep
    want = he / hk
    phase = math.atan2(want.imag, want.real) - 0.5 * math.pi
    phase = math.remainder(phase, 2.0 * math.pi)  # principal value
    return JCParams.resonant(g=1.0, t=tp, nu=phase / tp)


def degrading_channel(ch: TransferChannel) -> TransferChannel:
    """The reception channel realizing degrading_map(ch)."""
    return reception_channel(degrading_map(ch))


def coherent_information(ch: TransferChannel, p: float, r: complex = 0.0) -> float:
    """I_c = S(output) - S(extended output), in bits, via eigenvalues."""
    inp = QubitInput(p=p, r=r)
    return von_neumann_entropy(ch.apply(inp)) - von_neumann_entropy(
        extended_state(ch, inp)
    )


def coherent_information_diagonal(keep_prob: float, p: float) -> float:
    """Closed form H2(a p) - H2((1-a) p) for diagonal inputs, a = |h_keep|^2."""
    return binary_entropy(keep_prob * p) - binary_entropy((1.0 - keep_prob) * p)


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    """Maximize a unimodal f on [lo, hi]; returns (argmax, max)."""
    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
    xm = 0.5 * (a + b)
    return xm, f(xm)


def capacity_grid_oracle(keep_prob: float, step: float = 1e-5) -> tuple[float, float]:
    """Exhaustive p-grid maximization of the diagonal coherent information.

    Brute-force reference for capacity_root; returns
    (Q, p_star) at the stated grid resolution, a step in (0, 1].
    """
    if not 0 < step <= 1:  # also rejects NaN and inf
        raise ValueError(f"step must lie in (0, 1], got {step!r}")
    n = int(round(1.0 / step))
    best_q, best_p = -math.inf, 0.0
    # the grid p = i * step, i = 0..n, in blocks to keep the arrays small;
    # a later block wins only with a strictly larger value, like argmax
    for start in range(0, n + 1, _ORACLE_BLOCK):
        ps = np.arange(start, min(start + _ORACLE_BLOCK, n + 1)) * step
        vals = binary_entropy_array(keep_prob * ps) - binary_entropy_array((1.0 - keep_prob) * ps)
        i = int(np.argmax(vals))
        if vals[i] > best_q:
            best_q, best_p = float(vals[i]), float(ps[i])
    return best_q, best_p


def capacity_root(a):
    """(p_star, Q) of H2(a p) - H2((1 - a) p) for keep shares 1/2 < a < 1.

    Takes a float or an array of shares, with the same operations on
    either, so a share gives the same floats alone or in a column.  The
    objective is strictly concave, and its maximum is the root of

        f'(p) ln 2 = a ln((1 - ap) / (ap)) - (1 - a) ln((1 - (1 - a) p) / ((1 - a) p))

    whose derivative f''(p) ln 2 = (1 - 2a) / (p (1 - ap) (1 - (1 - a) p))
    is negative: (1 - a) - a is 1 - 2a exactly, never 0.  Newton's method runs
    NEWTON_STEPS steps from p = 1/2, each clamped to [P_FLOOR, 1/2], which
    holds every root: p* rises from 0.4356 as a -> 1/2 to 1/2 as a -> 1.
    """
    b = 1.0 - a
    p = 0.5
    for _ in range(NEWTON_STEPS):
        ap, bp = a * p, b * p
        slope = a * np.log((1.0 - ap) / ap) - b * np.log((1.0 - bp) / bp)
        curvature = (b - a) / (p * (1.0 - ap) * (1.0 - bp))
        p = np.minimum(np.maximum(p - slope / curvature, P_FLOOR), 0.5)
    ap, bp = a * p, b * p
    q = bp * np.log(bp) + (1.0 - bp) * np.log(1.0 - bp) - ap * np.log(ap) - (1.0 - ap) * np.log(1.0 - ap)
    return p, q / _LN2


def quantum_capacity(ch: TransferChannel) -> CapacityResult:
    status, a = classify(ch), ch.keep_prob
    q, p_star = 0.0, 0.0  # not degradable, or a <= 1/2, or a root with Q <= 0
    if status is DegradabilityStatus.DEGRADABLE and a == 1.0:
        q, p_star = 1.0, 0.5
    elif status is DegradabilityStatus.DEGRADABLE and a > 0.5:
        p, v = capacity_root(a)
        if v > 0.0:
            q, p_star = float(v), float(p)
    return CapacityResult(status=status, q=q, p_star=p_star)


def capacity_columns(codes: np.ndarray, keep_probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (Q, p_star) of channels given by status code and keep share.

    quantum_capacity's rules as array expressions, with one capacity_root
    over every share that needs it: each channel gets the floats
    quantum_capacity gives it.
    """
    degradable = codes == STATUSES.index(DegradabilityStatus.DEGRADABLE)
    perfect = degradable & (keep_probs == 1.0)
    searched = degradable & (keep_probs > 0.5) & ~perfect
    p, v = capacity_root(keep_probs[searched])
    q, p_star = np.where(perfect, 1.0, 0.0), np.where(perfect, 0.5, 0.0)
    q[searched] = np.where(v > 0.0, v, 0.0)
    p_star[searched] = np.where(v > 0.0, p, 0.0)
    return q, p_star


def quantum_capacities(channels: Sequence[TransferChannel]) -> list[CapacityResult]:
    """quantum_capacity of each channel, with one capacity_root for all of them."""
    codes = np.array([STATUSES.index(classify(ch)) for ch in channels], dtype=int)
    q, p_star = capacity_columns(codes, np.array([ch.keep_prob for ch in channels], dtype=float))
    return [
        CapacityResult(status=STATUSES[code], q=v, p_star=p)
        for code, v, p in zip(codes.tolist(), q.tolist(), p_star.tolist())
    ]
