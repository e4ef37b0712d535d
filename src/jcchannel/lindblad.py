"""Atom-field transfer with cavity decay kappa and atomic decay gamma.

The master equation adds two dissipators to the Jaynes-Cummings dynamics:
photon loss at rate kappa and spontaneous emission at rate gamma_at.  Both
jump operators only lower the excitation number, so the one-excitation
block (|down,1>, |up,0>) evolves under jc.block_propagator with both rates
passed in; the closed-form state and the decayed channel amplitudes are
read off its entries.  An independent fixed-step RK4 integrator over the
full Liouvillian serves as the oracle for those closed forms; it applies
its n steps as the n-th power of the one-step map, by repeated squaring,
and raises StepFailure before running a step count past its cap.  It, the
closed-form state and the decayed conversion raise ValueError unless their
time t is finite and nonnegative.

derive_constants supplies the constants of the paper's separate sign
expression for degradability.  Their conventions are fixed against the
integrator and the zero-decay limit (each choice changes observable
values, so both are pinned):

* x uses the minus branch and y the plus branch of the shared radical,
  sqrt((R -+ z)/2) with R = sqrt(z^2 + 4 k2^2 delta^2); the zero-decay
  resonant limit (x=0, y=2g, giving sin^2(gt) transfer) selects them.
* y carries the sign of k2*delta, because the pair must satisfy
  x*y = k2*delta; y < 0 happens only for gamma_at > kappa with delta > 0.
  All formulas are even under (x, y) -> (-x, -y), so this is the whole
  convention freedom.

Initial states here are |down><down| (x) rho_photon: the qubit arrives on
the field and is transferred to the atom.  The opposite transfer direction
has the same structure with the two decay rates swapping roles; it is not
implemented separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import TransferChannel
from .jc import JCParams, block_amplitudes, block_propagator
from .qmat import QubitInput

ORACLE_ATOL = 1e-10
_MAX_STEPS = 1 << 21


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"time t must be finite and nonnegative, got {t!r}")


class StepFailure(RuntimeError):
    """Integrator step refinement failed to converge to the target accuracy."""


@dataclass(frozen=True)
class DecayParams:
    """Cavity decay rate kappa and atomic decay rate gamma_at (both >= 0)."""

    kappa: float
    gamma_at: float

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and math.isfinite(self.gamma_at)):
            raise ValueError("decay rates must be finite")
        if self.kappa < 0 or self.gamma_at < 0:
            raise ValueError("decay rates must be nonnegative")


@dataclass(frozen=True)
class DecayConstants:
    """Derived constants of the one-excitation block under decay.

    k1, k2 are the half sum/difference of the decay rates, z combines
    coupling, detuning and decay asymmetry, and x + i y is the complex
    splitting rate: (x + i y)^2 = -z + 2 i k2 delta.  x damps (cosh/sinh
    terms), y oscillates (cos/sin terms).
    """

    k1: float
    k2: float
    z: float
    x: float
    y: float

    def eta(self, t: float) -> float:
        return math.exp(-self.k1 * t) / (self.x**2 + self.y**2)


def derive_constants(jc: JCParams, d: DecayParams) -> DecayConstants:
    k1 = 0.5 * (d.kappa + d.gamma_at)
    k2 = 0.5 * (d.kappa - d.gamma_at)
    delta = jc.delta
    z = 4.0 * jc.g**2 + delta**2 - k2**2
    radical = math.hypot(z, 2.0 * k2 * delta)
    # stable complex-sqrt split: take the well-conditioned radical branch
    # and recover the other factor through x y = k2 delta, avoiding the
    # cancellation in sqrt((radical - |z|)/2)
    if z >= 0.0:
        y_mag = math.sqrt(0.5 * (radical + z))
        x = abs(k2 * delta) / y_mag if y_mag > 0.0 else 0.0
    else:
        x = math.sqrt(0.5 * (radical - z))
        y_mag = abs(k2 * delta) / x if x > 0.0 else 0.0
    y = -y_mag if k2 * delta < 0.0 else y_mag
    return DecayConstants(k1=k1, k2=k2, z=z, x=x, y=y)


def closed_form_state(jc: JCParams, d: DecayParams, init: QubitInput, t: float) -> np.ndarray:
    """Joint state at time t for the initial state |down><down| (x) rho_photon.

    rho_photon has one-photon population init.p and coherence init.r.  The
    interaction time stored in jc is not consulted; t is the argument.
    Returns the 4x4 matrix over |down,0>, |down,1>, |up,0>, |up,1>; the
    last row/column is identically zero.
    """
    _check_time(t)
    phase, keep_photon, to_atom, _ = block_propagator(jc, t, d.kappa, d.gamma_at)
    p, r = init.p, complex(init.r)
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = p * abs(keep_photon) ** 2
    rho[2, 2] = p * abs(to_atom) ** 2
    rho[1, 2] = p * keep_photon * to_atom.conjugate()
    rho[2, 1] = np.conj(rho[1, 2])
    rho[0, 1] = r * phase * keep_photon.conjugate()
    rho[1, 0] = np.conj(rho[0, 1])
    rho[0, 2] = r * phase * to_atom.conjugate()
    rho[2, 0] = np.conj(rho[0, 2])
    rho[0, 0] = 1.0 - rho[1, 1].real - rho[2, 2].real
    return rho


def _liouvillian(jc: JCParams, d: DecayParams) -> np.ndarray:
    """16x16 superoperator of the master equation over row-major vec(rho)."""
    from .jc import hamiltonian

    h = hamiltonian(jc)
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    eye2 = np.eye(2, dtype=complex)
    f = np.kron(eye2, lower)   # field photon loss
    a = np.kron(lower, eye2)   # atomic decay
    eye4 = np.eye(4, dtype=complex)

    def left(x):
        return np.kron(x, eye4)

    def right(x):
        return np.kron(eye4, x.T)

    sup = -1j * (left(h) - right(h))
    for op, rate in ((f, d.kappa), (a, d.gamma_at)):
        num = op.conj().T @ op
        sup += 0.5 * rate * (
            2.0 * np.kron(op, op.conj()) - left(num) - right(num)
        )
    return sup


def integrate_master_equation(jc: JCParams, d: DecayParams, init: np.ndarray, t: float) -> np.ndarray:
    """Brute-force master-equation solution by fixed-step RK4 with halving.

    For this linear autonomous system a classic RK4 step with width h is
    the degree-4 Taylor polynomial P(hL) of exp(h L) applied to the state,
    so n steps are P(hL)^n applied to it; the power is taken by repeated
    squaring.  Step counts double until two successive refinements agree
    within 1e-10 per entry; StepFailure, before any run, if the count
    would pass _MAX_STEPS.  This routine is the oracle for
    closed_form_state and deliberately shares none of its derivation.
    """
    _check_time(t)
    init = np.asarray(init, dtype=complex)
    if init.shape != (4, 4):
        raise ValueError("initial state must be 4x4 over the joint basis")
    if t == 0.0:
        return init.copy()
    sup = _liouvillian(jc, d)
    scale = max(1.0, jc.rabi, abs(jc.nu), abs(jc.delta), d.kappa, d.gamma_at)
    steps = max(16, int(math.ceil(4.0 * t * scale)))
    prev = None
    while steps <= _MAX_STEPS:
        cur = _rk4_run(sup, init, t, steps)
        if prev is not None and np.max(np.abs(cur - prev)) < ORACLE_ATOL:
            return cur
        prev, steps = cur, steps * 2
    raise StepFailure(f"no convergence to {ORACLE_ATOL} per entry within {_MAX_STEPS} steps")


def _rk4_run(sup: np.ndarray, init: np.ndarray, t: float, steps: int) -> np.ndarray:
    hl = (t / steps) * sup
    eye = np.eye(16, dtype=complex)
    step = eye + hl @ (eye + hl @ (eye / 2 + hl @ (eye / 6 + hl / 24)))
    return (np.linalg.matrix_power(step, steps) @ init.reshape(16)).reshape(4, 4)


@dataclass(frozen=True)
class DecayedConversion:
    """Field-to-atom channel pair extracted from the decaying dynamics.

    h_keep is the photon-to-atom transfer amplitude, h_env the amplitude
    remaining on the field; |h_keep|^2 + |h_env|^2 < 1 when decay leaks
    probability out of the one-excitation sector.  Carries its parameters
    so the degradability inequality can be evaluated in both forms.
    """

    h_keep: complex
    h_env: complex
    params: JCParams
    decay: DecayParams
    t: float

    @property
    def constants(self) -> DecayConstants:
        return derive_constants(self.params, self.decay)

    @property
    def delta(self) -> float:
        return self.params.delta

    def as_transfer(self) -> TransferChannel:
        return TransferChannel(h_keep=self.h_keep, h_env=self.h_env)


def decayed_conversion(jc: JCParams, d: DecayParams, t: float) -> DecayedConversion:
    """Extract (h_keep, h_env) of the decayed field-to-atom conversion.

    Both are read straight off the decayed propagator as the ground-state
    coherences per unit input coherence: h_keep = e^{i delta t/2} conj(G10),
    h_env = e^{i delta t/2} conj(G00).  The decay constants are derived
    only when asked for.
    """
    _check_time(t)
    env, keep, _ = block_amplitudes(jc, t, d.kappa, d.gamma_at)
    return DecayedConversion(h_keep=keep, h_env=env, params=jc, decay=d, t=t)


def degradability_expression(conv: DecayedConversion) -> float:
    """The cosh/sinh/cos/sin combination whose sign decides degradability.

    Scaled by eta(t) it equals |h_env|^2 - |h_keep|^2 exactly, so a
    nonpositive value means the atom received at least as much amplitude
    as the field kept.
    """
    c, dl, t = conv.constants, conv.delta, conv.t
    x, y, k2 = c.x, c.y, c.k2
    return (
        (x**2 + dl**2) * math.cosh(x * t)
        - (k2 * x + dl * y) * math.sinh(x * t)
        + (y**2 - dl**2) * math.cos(y * t)
        - (k2 * y - dl * x) * math.sin(y * t)
    )


def decay_degradability(conv: DecayedConversion) -> bool:
    """True when the decayed conversion is degradable (inequality route)."""
    return degradability_expression(conv) <= 0.0


def oracle_grid(points_per_combo: int = 9):
    """The standard verification grid: 216 (params, decay, t) tuples.

    g = 1 with g*t spanning [0, 2pi], detunings {0, 0.5, 1, 2}, cavity
    decays {0, 0.1, 0.5}, atomic decays {0, 0.05}.  The field frequency
    is fixed at an arbitrary nonzero value so phase factors are exercised.
    """
    grid = []
    for delta in (0.0, 0.5, 1.0, 2.0):
        for kappa in (0.0, 0.1, 0.5):
            for gamma_at in (0.0, 0.05):
                for gt in np.linspace(0.0, 2.0 * math.pi, points_per_combo):
                    jc = JCParams.from_detuning(g=1.0, delta=delta, t=float(gt), nu=0.25)
                    grid.append((jc, DecayParams(kappa=kappa, gamma_at=gamma_at), float(gt)))
    return grid
