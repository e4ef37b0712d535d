"""Atom-field transfer with cavity decay kappa and atomic decay gamma.

The master equation adds two dissipators to the Jaynes-Cummings dynamics:
photon loss at rate kappa and spontaneous emission at rate gamma_at.  Both
jump operators only lower the excitation number, so the one-excitation
block (|down,1>, |up,0>) evolves under the jc propagator with both rates
passed in; the closed-form state (one point, or closed_form_columns) and
the decayed channel amplitudes are read off its entries.  The oracle for
those closed forms is exp(tL) vec(rho) on the full 16x16 Liouvillian L,
by qmat.expm_taylor and none of the propagator's derivation;
integrate_master_equation is its one-point view.  The oracle, the
closed-form state and the decayed conversion raise ValueError unless
their time t is finite and nonnegative.

derive_constants supplies the constants of the paper's separate sign
expression for degradability.  Their conventions are fixed against the
oracle and the zero-decay limit (each choice changes observable
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
from .jc import COLUMNS, SCALARS, JCParams, block_amplitudes, block_propagator, hamiltonian_columns, propagator_columns
from .qmat import QubitInput, expm_taylor

_ORACLE_BLOCK = 32  # points per stack in integrate_master_equations


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"time t must be finite and nonnegative, got {t!r}")


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
    terms), y oscillates (cos/sin terms).  At critical damping, delta = 0
    and |kappa - gamma_at| = 4 g, x = y = 0: eta then drops its factor
    1 / (x^2 + y^2), which degradability_expression takes as its limit.
    """

    k1: float
    k2: float
    z: float
    x: float
    y: float

    def eta(self, t: float) -> float:
        return math.exp(-self.k1 * t) / ((self.x**2 + self.y**2) or 1.0)


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


def _closed_form(m, init: QubitInput, phase, keep_photon, to_atom) -> np.ndarray:
    """The joint state from the propagator entries it reads, in m's arithmetic: see closed_form_state."""
    p, r = init.p, complex(init.r)
    rho = np.zeros(np.shape(phase.real) + (4, 4), dtype=complex)
    rho[..., 1, 1] = p * m.square(abs(keep_photon))
    rho[..., 2, 2] = p * m.square(abs(to_atom))
    rho[..., 1, 2] = m.values(p * keep_photon * to_atom.conjugate())
    rho[..., 0, 1] = m.values(r * phase * keep_photon.conjugate())
    rho[..., 0, 2] = m.values(r * phase * to_atom.conjugate())
    for i, j in ((1, 2), (0, 1), (0, 2)):
        rho[..., j, i] = np.conj(rho[..., i, j])
    rho[..., 0, 0] = 1.0 - rho[..., 1, 1].real - rho[..., 2, 2].real
    return rho


def closed_form_state(jc: JCParams, d: DecayParams, init: QubitInput, t: float) -> np.ndarray:
    """Joint state at time t for the initial state |down><down| (x) rho_photon.

    rho_photon has one-photon population init.p and coherence init.r.  The
    interaction time stored in jc is not consulted; t is the argument.
    Returns the 4x4 matrix over |down,0>, |down,1>, |up,0>, |up,1>; the
    last row/column is identically zero.
    """
    _check_time(t)
    return _closed_form(SCALARS, init, *block_propagator(jc, t, d.kappa, d.gamma_at)[:3])


def closed_form_columns(init: QubitInput, g, nu, omega, t, kappa=0.0, gamma=0.0) -> np.ndarray:
    """closed_form_state over arrays of JCParams fields, times and rates, bit for bit; NaN where it raises."""
    t = np.where(np.isfinite(t) & (np.asarray(t) >= 0.0), t, np.nan)  # the times _check_time passes
    with np.errstate(all="ignore"):
        return _closed_form(COLUMNS, init, *propagator_columns(g, nu, omega, t, kappa, gamma)[:3])


def _liouvillians(points) -> np.ndarray:
    """(n, 16, 16) master-equation superoperators over row-major vec(rho), one per (jc, d, t)."""
    h = hamiltonian_columns(*np.array([(jc.g, jc.nu, jc.omega) for jc, _, _ in points]).T)
    rates = np.array([(d.kappa, d.gamma_at) for _, d, _ in points])[:, :, None, None]
    lower, eye2, eye4 = np.array([[0, 1], [0, 0]], dtype=complex), np.eye(2), np.eye(4)
    sup = -1j * (np.kron(h, eye4[None]) - np.kron(eye4[None], h.transpose(0, 2, 1)))
    # field photon loss at kappa, then atomic decay at gamma_at
    for k, op in enumerate((np.kron(eye2, lower), np.kron(lower, eye2))):
        num = op.conj().T @ op
        sup += 0.5 * rates[:, k] * (2.0 * np.kron(op, op.conj()) - np.kron(num, eye4) - np.kron(eye4, num.T))
    return sup


def integrate_master_equation(jc: JCParams, d: DecayParams, init: np.ndarray, t: float) -> np.ndarray:
    """The one-point view of integrate_master_equations: the state at time t."""
    return integrate_master_equations([(jc, d, t)], init)[0]


def integrate_master_equations(points, init: np.ndarray) -> np.ndarray:
    """Brute-force master-equation solutions: exp(tL) vec(init) at each point.

    The (n, 4, 4) states init reaches at each (jc, d, t) of points, L the
    point's Liouvillian over row-major vec(rho), exp by expm_taylor in
    stacks of _ORACLE_BLOCK, which give each point its floats alone.
    ValueError where exp(tL) leaves the float range.  This is the oracle
    for closed_form_state and shares none of its derivation.
    """
    for _, _, t in points:
        _check_time(t)
    init = np.asarray(init, dtype=complex)
    if init.shape != (4, 4):
        raise ValueError("initial state must be 4x4 over the joint basis")
    out = np.empty((len(points), 4, 4), dtype=complex)
    for start in range(0, len(points), _ORACLE_BLOCK):
        block = points[start:start + _ORACLE_BLOCK]
        with np.errstate(over="ignore"):  # a generator past the float range: expm_taylor's ValueError
            generators = np.array([t for _, _, t in block])[:, None, None] * _liouvillians(block)
        out[start:start + len(block)] = (expm_taylor(generators) @ init.reshape(16)).reshape(-1, 4, 4)
    return out


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
    as the field kept.  At critical damping (x = y = 0) the combination
    vanishes identically; there it is its limit over x^2 + y^2, 1 - k2 t.
    """
    c, dl, t = conv.constants, conv.params.delta, conv.t
    x, y, k2 = c.x, c.y, c.k2
    if x**2 + y**2 == 0.0:
        return 1.0 - k2 * t
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
