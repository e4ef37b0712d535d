"""Degradability classification and single-letter quantum capacity.

A one-amplitude channel is degradable exactly when the receiver gets the
larger share of the amplitude, |h_keep| > |h_env|.  Degradable channels
have capacity

    Q = max_p  H2(|h_keep|^2 p) - H2((1 - |h_keep|^2) p)

and the maximum is found by golden-section search on [0, 1] (the
objective is strictly concave in p when |h_keep|^2 > 1/2).
quantum_capacity runs the scalar search for one channel;
capacity_columns (and quantum_capacities, its view over channels) settles
many channels at once, replaying the same search on all of their keep
shares together, lane by lane, so each result is bit for bit the one
quantum_capacity gives.  All share the rules that settle a channel
without a search.  Channels that are not degradable are
assigned Q = 0; for channels with decay leakage this follows the same
amplitude comparison, with the decay environment not modeled as an extra
output.
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
    tp = math.asin(ratio)  # g' t' with g' = 1
    if tp == 0.0:
        return JCParams.resonant(g=1.0, t=0.0, nu=0.0)
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


def golden_section_max_batch(keep_probs, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """golden_section_max of the diagonal coherent information, many lanes at once.

    Each lane holds one keep share a, 1/2 < a < 1, and replays the scalar
    search on [0, 1] for H2(a p) - H2((1-a) p): the same operations in the
    same order, each lane stopping at the same b - a > tol test.  Returns
    the arrays (argmax, max), equal bit for bit to the scalar results.
    """
    k = np.asarray(keep_probs, dtype=float)
    env = 1.0 - k

    def f(p):
        return binary_entropy_array(k * p) - binary_entropy_array(env * p)

    a, b = np.zeros_like(k), np.ones_like(k)
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    active = b - a > tol
    while active.any():
        # both scalar branches on every lane, then keep the taken one
        up = f1 < f2
        a_next, b_next = np.where(up, x1, a), np.where(up, b, x2)
        x_new = np.where(
            up,
            a_next + GOLDEN * (b_next - a_next),
            b_next - GOLDEN * (b_next - a_next),
        )
        f_new = f(x_new)
        stepped = (
            a_next,
            b_next,
            np.where(up, x2, x_new),
            np.where(up, f2, f_new),
            np.where(up, x_new, x1),
            np.where(up, f_new, f1),
        )
        # lanes whose interval is already within tol keep their state
        a, b, x1, f1, x2, f2 = (
            np.where(active, new, old) for new, old in zip(stepped, (a, b, x1, f1, x2, f2))
        )
        active = b - a > tol
    xm = 0.5 * (a + b)
    return xm, f(xm)


def capacity_grid_oracle(keep_prob: float, step: float = 1e-5) -> tuple[float, float]:
    """Exhaustive p-grid maximization of the diagonal coherent information.

    Brute-force reference for the golden-section optimizer; returns
    (Q, p_star) at the stated grid resolution.
    """
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


def _settled(status: DegradabilityStatus, a: float) -> tuple[float, float] | None:
    """(Q, p_star) of a channel with keep share a that needs no search, or None."""
    if status is not DegradabilityStatus.DEGRADABLE or a <= 0.5:
        # a <= 1/2 is degradable only with decay leakage; the objective is nonpositive
        return 0.0, 0.0
    if a == 1.0:
        return 1.0, 0.5
    return None


def _searched(p_star: float, q: float) -> tuple[float, float]:
    """(Q, p_star) of a degradable channel whose search gave (p_star, q)."""
    return (q, p_star) if q > 0.0 else (0.0, 0.0)


def quantum_capacity(ch: TransferChannel) -> CapacityResult:
    status, a = classify(ch), ch.keep_prob
    q, p_star = _settled(status, a) or _searched(
        *golden_section_max(lambda p: coherent_information_diagonal(a, p), 0.0, 1.0)
    )
    return CapacityResult(status=status, q=q, p_star=p_star)


def capacity_columns(statuses, keep_probs) -> list[tuple[float, float]]:
    """(Q, p_star) of each channel, given by its status and keep share.

    Every search runs in one golden_section_max_batch, which gives each
    channel the floats quantum_capacity gives it.
    """
    out = [_settled(status, a) for status, a in zip(statuses, keep_probs)]
    lanes = [i for i, res in enumerate(out) if res is None]
    p_star, q = golden_section_max_batch([keep_probs[i] for i in lanes])
    for i, p, v in zip(lanes, p_star.tolist(), q.tolist()):
        out[i] = _searched(p, v)
    return out


def quantum_capacities(channels: Sequence[TransferChannel]) -> list[CapacityResult]:
    """quantum_capacity of each channel, with every search run in one batch."""
    statuses = [classify(ch) for ch in channels]
    found = capacity_columns(statuses, [ch.keep_prob for ch in channels])
    return [CapacityResult(status=s, q=q, p_star=p) for s, (q, p) in zip(statuses, found)]
