"""The one-amplitude channel family and its constructions.

Every channel in this package acts on a qubit input (p, r) as

    [[1 - p |h|^2,  r h], [conj(r h),  p |h|^2]]

for a single complex amplitude h.  A TransferChannel stores the amplitude
h_keep reaching the receiver together with the amplitude h_env reaching the
traced-out partner system.  Decay-free constructions satisfy
|h_keep|^2 + |h_env|^2 = 1; the Lindblad constructor may leak probability
to the decay environments, making the sum smaller.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import jc
from .jc import squares
from .qmat import STATE_TOL, QubitInput

_AMP_TOL = 1e-9


@dataclass(frozen=True)
class TransferChannel:
    h_keep: complex
    h_env: complex

    def __post_init__(self):
        hk, he = complex(self.h_keep), complex(self.h_env)
        if not (cmath.isfinite(hk) and cmath.isfinite(he)):
            raise ValueError("channel amplitudes must be finite")
        keep, env = abs(hk), abs(he)
        try:
            inside = TransferChannel.accepts(keep, env, keep ** 2, env ** 2)
        except OverflowError:  # a square past the float range, of a magnitude far past 1
            inside = False
        if not inside:
            raise ValueError("channel amplitudes must be at most 1 in magnitude, their squares at most 1 in sum")

    @property
    def keep_prob(self) -> float:
        return min(abs(complex(self.h_keep)) ** 2, 1.0)

    @property
    def env_prob(self) -> float:
        return min(abs(complex(self.h_env)) ** 2, 1.0)

    def apply(self, inp: QubitInput) -> np.ndarray:
        return self.outputs(inp.p, inp.r)

    def outputs(self, p, r) -> np.ndarray:
        """Output of the input (p, r), stacked on the last two axes for arrays p and r."""
        h = complex(self.h_keep)
        return channel_outputs(h, abs(h) ** 2, p, r)

    @staticmethod
    def accepts(keep_abs, env_abs, keep_sq, env_sq) -> np.ndarray:
        """The bounds every channel meets, over floats or arrays of |h_keep|, |h_env| and their squares."""
        return (keep_abs <= 1 + _AMP_TOL) & (env_abs <= 1 + _AMP_TOL) & (keep_sq + env_sq <= 1 + _AMP_TOL)

    def complement(self) -> "TransferChannel":
        return TransferChannel(self.h_env, self.h_keep)

    def kraus(self) -> tuple[np.ndarray, np.ndarray]:
        """Minimal dilation Kraus pair; depends on h_keep only.

        The environment branch uses sqrt(1 - |h_keep|^2) so the pair is
        trace-preserving even for channels with decay leakage (whose
        physical h_env describes a larger environment).
        """
        return tuple(_kraus(jc.SCALARS, complex(self.h_keep)))


def _kraus(m, h_keep) -> np.ndarray:
    """Kraus pairs [A1, A2] (..., 2, 2, 2) of amplitudes h_keep in m's arithmetic: see TransferChannel.kraus."""
    a = np.zeros(np.shape(h_keep.real) + (2, 2, 2), dtype=complex)
    a[..., 0, 0, 0], a[..., 0, 1, 1] = 1.0, m.values(h_keep.conjugate())
    a[..., 1, 0, 1] = np.sqrt(np.maximum(0.0, 1.0 - m.square(abs(h_keep))))
    return a


def channel_outputs(h_keep, keep_sq, p, r) -> np.ndarray:
    """Outputs of inputs (p, r) through amplitudes h_keep (complex or CArray), |h_keep|^2 = keep_sq; all broadcast."""
    hr, hi = jc.CArray.parts(h_keep)
    pa = np.multiply(p, keep_sq)
    out = np.empty(np.broadcast(pa, r, hr).shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 1, 1] = 1.0 - pa, pa
    # r h from real products, as Python multiplies complex numbers: a stack member is apply's
    rh = out[..., 0, 1]
    rh.real = np.real(r) * hr - np.imag(r) * hi
    rh.imag = np.real(r) * hi + np.imag(r) * hr
    out[..., 1, 0] = np.conj(rh)
    return out


def conversion_channel(params: jc.JCParams) -> TransferChannel:
    """Atom-to-field conversion: keep the field, trace the atom."""
    _, transfer, residual = jc.block_amplitudes(params, params.t)
    return TransferChannel(h_keep=transfer, h_env=residual)


def reception_channel(params: jc.JCParams) -> TransferChannel:
    """Field-to-atom conversion: atom prepared in ground, keep the atom."""
    residual, transfer, _ = jc.block_amplitudes(params, params.t)
    return TransferChannel(h_keep=transfer, h_env=residual)


@dataclass(frozen=True)
class LossChannel:
    """Beam-splitter loss on the photonic qubit with transmittance T."""

    T: float

    def __post_init__(self):
        if not (0.0 <= self.T <= 1.0):
            raise ValueError(f"transmittance {self.T} outside [0, 1]")

    def as_transfer(self) -> TransferChannel:
        return TransferChannel(h_keep=math.sqrt(self.T), h_env=math.sqrt(1.0 - self.T))


def compose(first: TransferChannel, second: TransferChannel) -> TransferChannel:
    """Serial composition: amplitudes multiply, remainder goes to the environment.

    The composite environment amplitude is fixed by magnitude only (the
    two leftover branches live on different systems), taken real and
    nonnegative.
    """
    hk = complex(first.h_keep) * complex(second.h_keep)
    return TransferChannel(h_keep=hk, h_env=math.sqrt(max(0.0, 1.0 - abs(hk) ** 2)))


def concatenate(e1: jc.JCParams, loss: LossChannel, e2: jc.JCParams) -> TransferChannel:
    """Atom -> field -> lossy fiber -> field -> atom, as one channel.

    The three stages composed in order: the keep amplitude is the product
    of the stage amplitudes and sqrt(T), the environment magnitude is the
    unit complement, and the overall phase of the product is retained as a
    single global phase.
    """
    fiber = compose(conversion_channel(e1), loss.as_transfer())
    return compose(fiber, reception_channel(e2))


def concatenate_columns(e1: tuple, T, e2: tuple) -> tuple:
    """concatenate bit for bit over stage arrays (g, delta, nu, t) and T: (h_keep as a CArray, h_env), NaN where it raises."""
    keep = jc.block_amplitude_columns(*e1)[1] * np.sqrt(T) * jc.block_amplitude_columns(*e2)[1]
    return keep, np.sqrt(np.maximum(0.0, 1.0 - squares(abs(keep))))


def extended_state(ch: TransferChannel, inp: QubitInput) -> np.ndarray:
    """(E (x) I) applied to a purification of the input, as a 4x4 state.

    Basis order is (channel output) (x) (reference).  For a diagonal input
    the purification is the canonical sqrt(1-p)|g,0> + sqrt(p)|e,1>; general
    inputs are purified through their eigendecomposition (the reference
    basis choice cannot affect any entropy).
    """
    if abs(inp.r) == 0.0:
        return extended_apply(ch, inp.p)
    lam, v = np.linalg.eigh(inp.matrix)  # columns of v are eigenvectors
    return _extended(_kraus(jc.SCALARS, complex(ch.h_keep)), v * np.sqrt(np.clip(lam, 0.0, None)))


def extended_apply(ch: TransferChannel, p) -> np.ndarray:
    """Extended channel on the canonical purification of diag(1-p, p), stacked for an array p."""
    return _extended(_kraus(jc.SCALARS, complex(ch.h_keep)), _purification(p))


def extended_columns(h_keep: jc.CArray, p) -> np.ndarray:
    """extended_apply of the channels with amplitudes h_keep on populations p, all broadcast, bit for bit."""
    return _extended(_kraus(jc.COLUMNS, h_keep), _purification(p))


def _purification(p) -> np.ndarray:
    """psi of the canonical purification sqrt(1-p)|0,0> + sqrt(p)|1,1> of diag(1-p, p): see _extended."""
    if not np.all((-STATE_TOL <= np.asarray(p)) & (np.asarray(p) <= 1.0 + STATE_TOL)):
        raise ValueError(f"population {p} outside [0, 1]")
    return np.eye(2) * np.sqrt(np.stack([1.0 - p, p], axis=-1))[..., None, :]


def _extended(kraus: np.ndarray, psi: np.ndarray) -> np.ndarray:
    # psi[..., i, k] = sqrt(lam_k) <i|u_k>; row k of j is (K_k (x) I) |psi> with
    # |psi> = sum_k sqrt(lam_k) |u_k>|k>, output index major, reference index minor
    j = kraus @ psi[..., None, :, :]
    j = j.reshape(j.shape[:-3] + (2, 4))
    return j.swapaxes(-1, -2) @ j.conj()
