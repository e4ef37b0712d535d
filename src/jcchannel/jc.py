"""Jaynes-Cummings dynamics restricted to the zero/one excitation sector.

A two-level atom (levels |down>, |up>) couples to one field mode truncated
to photon numbers {0, 1}.  The joint basis is ordered

    index 0: |down, 0>   index 1: |down, 1>   index 2: |up, 0>   index 3: |up, 1>

(atom-major).  With total excitation at most one the |up, 1> slot is never
populated, so all dynamics lives on indices 0..2.  block_propagator, the
2x2 propagator of the pair (|down, 1>, |up, 0>) with optional decay, is the
only place the Rabi dynamics is written: every closed form here and in the
lindblad module reads its entries.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .qmat import QubitInput, partial_trace


@dataclass(frozen=True)
class JCParams:
    """Coupling g, field frequency nu, atomic frequency omega, interaction time t.

    Detuning delta = omega - nu and the oscillation rate
    rabi = sqrt(g^2 + delta^2/4) are derived.
    """

    g: float
    nu: float
    omega: float
    t: float

    def __post_init__(self):
        for name in ("g", "nu", "omega", "t"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"JCParams.{name} must be finite")
        if self.g <= 0:
            raise ValueError("coupling g must be positive")
        if self.t < 0:
            raise ValueError("interaction time t must be nonnegative")

    @property
    def delta(self) -> float:
        return self.omega - self.nu

    @property
    def rabi(self) -> float:
        return math.hypot(self.g, 0.5 * self.delta)

    @classmethod
    def from_detuning(cls, g: float, delta: float, t: float, nu: float = 0.0) -> "JCParams":
        return cls(g=g, nu=nu, omega=nu + delta, t=t)

    @classmethod
    def resonant(cls, g: float, t: float, nu: float = 0.0) -> "JCParams":
        return cls(g=g, nu=nu, omega=nu, t=t)


def block_propagator(
    params: JCParams, t: float, kappa: float = 0.0, gamma: float = 0.0
) -> tuple[complex, complex, complex]:
    """Entries (G00, G01 = G10, G11) of the one-excitation propagator at time t.

    G carries the amplitudes of (|down,1>, |up,0>), entry [i, j] from slot j
    to slot i.  Decay enters as -i kappa/2 and -i gamma/2 diagonal shifts:

        G = e^{-i nu t - k1 t/2} [cos(mu t) - i sin(mu t)/mu W],
        W = [[-w, g], [g, w]],  w = (delta + i k2)/2,  mu^2 = g^2 + w^2,

    k1, k2 the half sum and difference of the rates.  cos(mu t) and
    sin(mu t)/mu are even in mu, so either root serves.
    """
    k1 = 0.5 * (kappa + gamma)
    w = complex(0.5 * params.delta, 0.25 * (kappa - gamma))
    mu = cmath.sqrt(params.g * params.g + w * w)
    mut = mu * t
    sin_term = t * (1.0 - mut * mut / 6.0) if abs(mut) < 1e-8 else cmath.sin(mut) / mu
    cos_term = cmath.cos(mut)
    common = cmath.exp(complex(-0.5 * k1 * t, -params.nu * t))
    return (
        common * (cos_term + 1j * sin_term * w),
        common * (-1j * sin_term * params.g),
        common * (cos_term - 1j * sin_term * w),
    )


def ground_phase(params: JCParams, t: float) -> complex:
    """Phase e^{i delta t/2} that |down, 0> picks up during t."""
    return cmath.exp(0.5j * params.delta * t)


def block_amplitudes(params: JCParams) -> tuple[complex, complex, complex]:
    """Amplitudes e^{i delta t/2} conj(G) of the entries G00, G01, G11 at params.t.

    Each is the ground-state coherence left per unit input on one side of
    the exchange: (reception residual, transfer, residual), all read off
    one block_propagator call.
    """
    phase = ground_phase(params, params.t)
    g00, g01, g11 = block_propagator(params, params.t)
    return phase * g00.conjugate(), phase * g01.conjugate(), phase * g11.conjugate()


def transfer_amplitude(params: JCParams) -> complex:
    """Amplitude moved between the atom and field qubits during t, from G01.

    i e^{i(delta/2 + nu) t} sin(rabi t) g / rabi.  Its squared magnitude is
    the probability that the single excitation swaps sides; the same factor
    multiplies the input coherence.  By symmetry of the excitation-1 block
    it applies to both transfer directions.
    """
    return block_amplitudes(params)[1]


def residual_amplitude(params: JCParams) -> complex:
    """Amplitude left on the sender side (atom to field direction), from G11.

    e^{i(delta/2 + nu) t} [cos(rabi t) + i sin(rabi t) delta / (2 rabi)].
    Together with the transfer amplitude it satisfies |h_t|^2 + |h_r|^2 = 1.
    """
    return block_amplitudes(params)[2]


def reception_residual_amplitude(params: JCParams) -> complex:
    """Residual field amplitude for the field-to-atom direction, from G00.

    Same magnitude as residual_amplitude but with the detuning term
    conjugated, because the remaining excitation then sits on the
    |down, 1> side of the excitation-1 block, which carries -delta/2.
    """
    return block_amplitudes(params)[0]


def kraus_operators(params: JCParams) -> tuple[np.ndarray, np.ndarray]:
    """Kraus pair of the atom-to-field conversion channel.

    Both operators map the atomic basis (|down>, |up>) to the photon basis
    (|0>, |1>); rows index the photon state.  A1 = diag(e^{i delta t/2}, G10)
    carries the population that transfers, A2 = [[0, G11], [0, 0]] the
    branch where the excitation stays on the atom and the field stays empty.
    """
    _, g10, g11 = block_propagator(params, params.t)
    a1 = np.diag([ground_phase(params, params.t), g10])
    a2 = np.array([[0.0, g11], [0.0, 0.0]], dtype=complex)
    return a1, a2


def hamiltonian(params: JCParams) -> np.ndarray:
    """The interaction Hamiltonian on the truncated 4-dim joint space.

    nu (n_field + 1/2) + (omega/2) sigma_z + g (a^dag sigma_- + a sigma_+),
    with the ladder operators cut off above one photon.  Only the 3x3
    excitation <= 1 block is physical; the |up, 1> diagonal entry is the
    truncated remainder and is never reached by allowed initial states.
    """
    g, nu, om = params.g, params.nu, params.omega
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0] = 0.5 * nu - 0.5 * om
    h[1, 1] = 1.5 * nu - 0.5 * om
    h[2, 2] = 0.5 * nu + 0.5 * om
    h[3, 3] = 1.5 * nu + 0.5 * om
    h[1, 2] = h[2, 1] = g
    return h


def joint_unitary(params: JCParams) -> np.ndarray:
    """Closed-form e^{-iHt} on the truncated joint space.

    |down,0> picks up e^{i delta t/2}, the excitation-1 pair
    (|down,1>, |up,0>) evolves under the decay-free block_propagator, and
    the unreachable |up,1> slot keeps its diagonal phase.
    """
    g00, g01, g11 = block_propagator(params, params.t)
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = ground_phase(params, params.t)
    u[1:3, 1:3] = [[g00, g01], [g01, g11]]
    u[3, 3] = cmath.exp(-1j * (1.5 * params.nu + 0.5 * params.omega) * params.t)
    return u


def evolve_joint(inp: QubitInput, params: JCParams) -> np.ndarray:
    """Evolve (atomic input) x (vacuum field) for time t; returns the 4x4 joint state."""
    rho = np.zeros((4, 4), dtype=complex)
    m = inp.matrix
    # atom (x) |0><0|: atomic indices 0,1 land on joint indices 0,2
    rho[np.ix_([0, 2], [0, 2])] = m
    u = joint_unitary(params)
    return u @ rho @ u.conj().T


def channel_output(inp: QubitInput, params: JCParams) -> np.ndarray:
    """Field state after conversion: trace the atom out of the evolved joint state."""
    return partial_trace(evolve_joint(inp, params), keep="second")


def residual_output(inp: QubitInput, params: JCParams) -> np.ndarray:
    """Atom state left behind: trace the field out of the evolved joint state."""
    return partial_trace(evolve_joint(inp, params), keep="first")
