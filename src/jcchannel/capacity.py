"""Degradability classification and single-letter quantum capacity.

A one-amplitude channel is degradable exactly when the receiver gets the
larger share of the amplitude, |h_keep| > |h_env|.  Degradable channels
have capacity

    Q = max_p  H2(|h_keep|^2 p) - H2((1 - |h_keep|^2) p)

(the amplitude-damping capacity).  The objective is strictly concave in p
when |h_keep|^2 > 1/2, and capacity_root finds its maximum as the root of
its derivative by a fixed number of Newton steps: one Newton body, run
in Python floats on one keep share (quantum_capacity) and in numpy
columns on many (capacity_columns), with the same floats on each share.
golden_section_lanes stays as an independent maximizer for the checks: a
golden-section search per lane over a column of objectives, each lane
with its own bracket, branches and stop, so golden_section_max is its
one-lane view.  Channels that are not degradable
are assigned Q = 0; for channels with decay leakage this follows the same
amplitude comparison, with the decay environment not modeled as an extra
output.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channels import TransferChannel, extended_state, reception_channel
from .jc import CArray, JCParams, math_columns
from .qmat import QubitInput, binary_entropy, binary_entropy_array, von_neumann_entropy

TIE_BAND = 1e-12
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_ORACLE_BLOCK = 4096  # grid points per array expression in capacity_grid_oracle
NEWTON_STEPS = 6  # capacity_root's steps: 4 reach every root to rounding
P_FLOOR = 0.43  # below every optimum p*, which is 0.4356 at least
_LN2 = math.log(2.0)
# capacity_root's log and clamp to [P_FLOOR, 1/2] on one share and on a column: numpy's log on both
# (libm's rounds differently), a share's as a Python float, which spares numpy's scalar overhead
_FLOATS = (lambda x: float(np.log(x)), lambda p: min(max(p, P_FLOOR), 0.5))
_LANES = (np.log, lambda p: np.minimum(np.maximum(p, P_FLOOR), 0.5))


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
STATUSES = (DegradabilityStatus.BOUNDARY, DegradabilityStatus.DEGRADABLE, DegradabilityStatus.ANTI_DEGRADABLE)


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
    realizable by a resonant stage when |w| <= 1; NotDegradable exactly where
    classify gives ANTI_DEGRADABLE.  Magnitude is set through sin(g' t') and
    the phase through nu' t' (principal value).  Only decay-free channels.
    """
    if abs(ch.keep_prob + ch.env_prob - 1.0) > 1e-9:
        raise ValueError("degrading map construction requires a decay-free channel")
    if classify(ch) is DegradabilityStatus.ANTI_DEGRADABLE:
        raise NotDegradable(f"|h_keep|^2 = {ch.keep_prob} < 1/2: environment holds the larger share")
    hk, he = complex(ch.h_keep), complex(ch.h_env)
    tp, nu = degrading_map_columns(CArray(hk.real, hk.imag), CArray(he.real, he.imag))
    return JCParams.resonant(g=1.0, t=float(tp), nu=float(nu))


def degrading_map_columns(h_keep: CArray, h_env: CArray) -> tuple[np.ndarray, np.ndarray]:
    """(t', nu') of degrading_map, g' = 1, over columns of decay-free degradable channels, bit for bit."""
    with np.errstate(all="ignore"):  # CArray's quotient evaluates both of its branches
        ratio = np.minimum(1.0, abs(h_env) / abs(h_keep))
        tp = math_columns(math.asin, ratio)  # g' t' with g' = 1
        # want i e^{i nu' t'} sin(g' t') = h_env / h_keep
        want = h_env / h_keep
        phase = math_columns(math.atan2, want.imag, want.real) - 0.5 * math.pi
        phase = math_columns(math.remainder, phase, 2.0 * math.pi)  # principal value
        # nothing reaches the environment: a stage that transfers nothing;
        # nu' = phase / t' would blow up as t' -> 0
        empty = ratio <= TIE_BAND
        return np.where(empty, 0.0, tp), np.where(empty, 0.0, phase / tp)


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


def coherent_information_columns(keep_prob, p) -> np.ndarray:
    """coherent_information_diagonal over arrays in [0, 1], bit for bit."""
    return binary_entropy_array(keep_prob * p) - binary_entropy_array((1.0 - keep_prob) * p)


def golden_section_lanes(f, lo, hi, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Maximize unimodal functions on brackets [lo, hi] lane by lane; returns arrays (argmax, max).

    f maps a point per lane to the value of each lane's function.  A lane
    takes its own branches and stops at its own tol: the floats it gets alone.
    """
    a, b = (np.array(x, dtype=float) for x in np.broadcast_arrays(lo, hi))
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while (live := b - a > tol).any():
        rise = live & (f1 < f2)  # the bracket moves up: its new point is past x2
        fall = live & ~(f1 < f2)
        a, b = np.where(rise, x1, a), np.where(fall, x2, b)
        x1, x2 = np.where(rise, x2, x1), np.where(fall, x1, x2)
        f1, f2 = np.where(rise, f2, f1), np.where(fall, f1, f2)
        probe = np.where(rise, a + GOLDEN * (b - a), b - GOLDEN * (b - a))
        value = f(probe)
        x1, f1 = np.where(fall, probe, x1), np.where(fall, value, f1)
        x2, f2 = np.where(rise, probe, x2), np.where(rise, value, f2)
    xm = 0.5 * (a + b)
    return xm, f(xm)


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    """Maximize a unimodal f on [lo, hi]; returns (argmax, max): golden_section_lanes on one lane."""
    xm, fm = golden_section_lanes(lambda x: f(float(x)), lo, hi, tol)
    return float(xm), float(fm)


def capacity_grid_oracle(keep_prob: float, step: float = 1e-5) -> tuple[float, float]:
    """Exhaustive p-grid maximization of the diagonal coherent information.

    Brute-force reference for capacity_root; returns
    (Q, p_star) at the stated grid resolution, a step in (0, 1] with
    1/step at most 10**8 (10**8 + 1 grid points, seconds of work), for a
    keep share in [0, 1].
    """
    if not 0 <= keep_prob <= 1:  # also rejects NaN and inf
        raise ValueError(f"keep share must lie in [0, 1], got {keep_prob!r}")
    if not 0 < step <= 1:  # also rejects NaN and inf
        raise ValueError(f"step must lie in (0, 1], got {step!r}")
    if 1.0 / step > 1e8:  # inf for the smallest subnormals
        raise ValueError(f"step {step!r} is too fine: 1/step must be at most 1e8")
    n = int(round(1.0 / step))
    best_q, best_p = -math.inf, 0.0
    # the grid p = i * step, i = 0..n, in blocks to keep the arrays small;
    # a later block wins only with a strictly larger value, like argmax
    for start in range(0, n + 1, _ORACLE_BLOCK):
        ps = np.arange(start, min(start + _ORACLE_BLOCK, n + 1)) * step
        vals = coherent_information_columns(keep_prob, ps)
        i = int(np.argmax(vals))
        if vals[i] > best_q:
            best_q, best_p = float(vals[i]), float(ps[i])
    return best_q, best_p


def capacity_root(a):
    """(p_star, Q) of H2(a p) - H2((1 - a) p) for keep shares 1/2 < a < 1.

    Takes a float or an array of shares and runs one Newton body on
    either, in Python floats or in numpy columns (_FLOATS or _LANES), with
    numpy's log on both, so a share gives the same floats alone or in a
    column.  The objective is strictly concave, and its maximum is the root of

        f'(p) ln 2 = a ln((1 - ap) / (ap)) - (1 - a) ln((1 - (1 - a) p) / ((1 - a) p))

    whose derivative f''(p) ln 2 = (1 - 2a) / (p (1 - ap) (1 - (1 - a) p))
    is negative: (1 - a) - a is 1 - 2a exactly, never 0.  Newton's method runs
    NEWTON_STEPS steps from p = 1/2, each clamped to [P_FLOOR, 1/2], which
    holds every root: p* rises from 0.4356 as a -> 1/2 to 1/2 as a -> 1.
    """
    log, clamp = _LANES if isinstance(a, np.ndarray) else _FLOATS
    b = 1.0 - a
    p = 0.5
    for _ in range(NEWTON_STEPS):
        ap, bp = a * p, b * p
        slope = a * log((1.0 - ap) / ap) - b * log((1.0 - bp) / bp)
        curvature = (b - a) / (p * (1.0 - ap) * (1.0 - bp))
        p = clamp(p - slope / curvature)
    ap, bp = a * p, b * p
    q = bp * log(bp) + (1.0 - bp) * log(1.0 - bp) - ap * log(ap) - (1.0 - ap) * log(1.0 - ap)
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
    over every share that needs it, and none where no share does: each
    channel gets the floats quantum_capacity gives it.
    """
    degradable = codes == STATUSES.index(DegradabilityStatus.DEGRADABLE)
    perfect = degradable & (keep_probs == 1.0)
    searched = degradable & (keep_probs > 0.5) & ~perfect
    q, p_star = np.where(perfect, 1.0, 0.0), np.where(perfect, 0.5, 0.0)
    if searched.any():
        p, v = capacity_root(keep_probs[searched])
        q[searched] = np.where(v > 0.0, v, 0.0)
        p_star[searched] = np.where(v > 0.0, p, 0.0)
    return q, p_star

