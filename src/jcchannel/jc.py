"""Jaynes-Cummings dynamics restricted to the zero/one excitation sector.

A two-level atom (levels |down>, |up>) couples to one field mode truncated
to photon numbers {0, 1}.  The joint basis is ordered

    index 0: |down, 0>   index 1: |down, 1>   index 2: |up, 0>   index 3: |up, 1>

(atom-major).  With total excitation at most one the |up, 1> slot is never
populated, so all dynamics lives on indices 0..2.  _block, the 2x2
propagator of the pair (|down, 1>, |up, 0>) with optional decay, is the
only place the Rabi dynamics is written.  It runs unchanged on Python
complex scalars (block_propagator, which the one-point amplitudes read) and
on CArray columns (propagator_columns), with the same bits on each point.
The closed forms read off its entries (the Kraus pair, the joint unitary,
the lindblad module's decayed state) are written once too, in the same
arithmetic as the entries: SCALARS for one point, COLUMNS for columns.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace

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
        isfinite = math.isfinite
        if not (isfinite(self.g) and isfinite(self.nu) and isfinite(self.omega) and isfinite(self.t)):
            name = next(n for n in ("g", "nu", "omega", "t") if not isfinite(getattr(self, n)))
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


class CArray:
    """Complex arrays as (real, imag) float arrays, with CPython's complex arithmetic.

    Each element of + - * / gets the bits CPython's complex gives: products
    and quotients are written on the real parts, quotients in _Py_c_quot's
    branch order, a real operand x enters as x + 0j as CPython promotes it,
    and abs is hypot.  Sums and products commute bit for bit, so they serve
    reflected too.
    """

    __array_ufunc__ = None  # numpy operands defer to the reflected methods

    def __init__(self, real, imag):
        self.real, self.imag = real, imag

    @staticmethod
    def parts(z) -> tuple:
        return (z.real, z.imag) if isinstance(z, (CArray, complex)) else (z, 0.0)

    def __add__(self, other):
        br, bi = CArray.parts(other)
        return CArray(self.real + br, self.imag + bi)

    def __sub__(self, other):
        br, bi = CArray.parts(other)
        return CArray(self.real - br, self.imag - bi)

    def __rsub__(self, other):
        return CArray(*CArray.parts(other)) - self

    def __mul__(self, other):
        br, bi = CArray.parts(other)
        return CArray(self.real * br - self.imag * bi, self.real * bi + self.imag * br)

    def __truediv__(self, other):
        """CPython's _Py_c_quot, branch by branch; NaN where it raises."""
        parts = (*CArray.parts(self), *CArray.parts(other))
        ar, ai, br, bi = (np.asarray(x, dtype=float) for x in parts)
        by_real = (np.abs(br) >= np.abs(bi)) & (br != 0.0)
        ratio = np.where(by_real, bi / br, br / bi)
        denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
        re = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom
        im = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom
        fails = ~by_real & ~(np.abs(bi) >= np.abs(br))  # a NaN part, or a zero divisor
        return CArray(np.where(fails, np.nan, re), np.where(fails, np.nan, im))

    def __abs__(self):
        return np.hypot(self.real, self.imag)

    __radd__, __rmul__ = __add__, __mul__

    def conjugate(self) -> "CArray":
        return CArray(self.real, -self.imag)

    def to_complex(self) -> np.ndarray:
        out = np.empty(np.broadcast(self.real, self.imag).shape, dtype=complex)
        out.real, out.imag = self.real, self.imag
        return out


def math_columns(fn, *arrays) -> np.ndarray:
    """A math module fn on each element of the broadcast arrays (numpy's asin, atan2, ... round differently)."""
    return np.asarray(np.frompyfunc(fn, len(arrays), 1)(*arrays), dtype=float)


def squares(magnitudes) -> np.ndarray:
    """x ** 2 of each float, bit for bit as Python gives it, in an array of the same shape.

    Python's float ** calls libm's pow, and so does np.float_power, in one
    numpy call; np.power and x * x round some values differently.  A NaN
    comes back as it is, as Python returns it (pow quiets a signalling one).
    Where pow overflows (|x| above ~1.34e154) Python raises OverflowError,
    and so does squares, with Python's own error for the first such value.
    """
    m = np.asarray(magnitudes)
    with np.errstate(over="ignore", invalid="ignore"):  # invalid: a signalling NaN
        out = np.float_power(m, 2.0, out=np.empty(m.shape))
    np.copyto(out, m, where=np.isnan(m))
    overflow = np.isinf(out) & np.isfinite(m)
    if overflow.any():
        float(m[overflow][0]) ** 2  # raises
    return out


def _sqrt(z: CArray) -> CArray:
    """cmath.sqrt's algorithm (numpy's complex sqrt rounds differently)."""
    ax, ay = np.abs(z.real), np.abs(z.imag)
    up = np.ldexp(ax, 53)  # both parts subnormal: scaled so hypot keeps its precision
    s = np.where(
        (ax < sys.float_info.min) & (ay < sys.float_info.min),
        np.ldexp(np.sqrt(up + np.hypot(up, np.ldexp(ay, 53))), -27),
        2.0 * np.sqrt(ax / 8.0 + np.hypot(ax / 8.0, ay / 8.0)),
    )
    d, right, zero = ay / (2.0 * s), z.real >= 0.0, (z.real == 0.0) & (z.imag == 0.0)
    im = np.where(zero, z.imag, np.copysign(np.where(right, d, s), z.imag))
    return CArray(np.where(zero, 0.0, np.where(right, s, d)), im)


def _numpy(fn):
    """numpy's complex fn on a CArray; where _block uses it, it equals cmath's."""

    def apply(z: CArray) -> CArray:
        out = fn(z.to_complex())
        return CArray(out.real, out.imag)

    return apply


# what _block and the closed forms compute with: Python complex scalars, or
# CArray columns; values gives the complex numbers to store in a matrix
SCALARS = SimpleNamespace(
    complex=complex, sqrt=cmath.sqrt, sin=cmath.sin, cos=cmath.cos, exp=cmath.exp,
    where=lambda cond, a, b: a if cond else b, square=lambda x: x ** 2, values=lambda z: z,
)
COLUMNS = SimpleNamespace(
    complex=CArray, sqrt=_sqrt, sin=_numpy(np.sin), cos=_numpy(np.cos), exp=_numpy(np.exp),
    where=lambda cond, a, b: CArray(
        *(np.where(cond, x, y) for x, y in zip(CArray.parts(a), CArray.parts(b)))
    ),
    square=squares, values=CArray.to_complex,
)

# beyond this |Im(mu t)|, e^{-k1 t/2} <= e^{-|Im(mu t)|} falls below the
# normal floats, and cmath's sin and cos rescale by e where numpy's do not
_LARGE_EXPONENT = math.log(sys.float_info.max / 4.0)


def _block(m, g, delta, nu, t, kappa, gamma) -> tuple:
    """(in range; e^{i delta t/2}; G00, G01 = G10, G11) in m's arithmetic.

    This is the Rabi dynamics.  The phase is what |down, 0> picks up during
    t.  G, the propagator of the one-excitation pair (|down,1>, |up,0>),
    carries entry [i, j] from slot j to slot i; decay enters as -i kappa/2
    and -i gamma/2 diagonal shifts:

        G = e^{-i nu t - k1 t/2} [cos(mu t) - i sin(mu t)/mu W],
        W = [[-w, g], [g, w]],  w = (delta + i k2)/2,  mu^2 = g^2 + w^2,

    k1, k2 the half sum and difference of the rates.  cos(mu t) and
    sin(mu t)/mu are even in mu, so either root serves.  The values are in
    range where |Im(mu t)| <= log(DBL_MAX / 4) and g^2 is a normal float
    (below that, g^2 drops out of mu and the transfer stops being a sine).
    """
    k1 = 0.5 * (kappa + gamma)
    w = m.complex(0.5 * delta, 0.25 * (kappa - gamma))
    gg = g * g
    mu = m.sqrt(gg + w * w)
    mut = mu * t
    small = abs(mut) < 1e-8
    # arrays evaluate both branches, so the quotient's divisor is 1 where unused
    sin_term = m.where(small, t * (1.0 - mut * mut / 6.0), m.sin(mut) / m.where(small, 1.0, mu))
    cos_term = m.cos(mut)
    common = m.exp(m.complex(-0.5 * k1 * t, -nu * t))
    return (
        (abs(mut.imag) <= _LARGE_EXPONENT) & (gg >= sys.float_info.min),
        # delta enters as a complex, so columns take CArray's product, not numpy's
        m.exp(0.5j * m.complex(delta, 0.0) * t),
        common * (cos_term + 1j * sin_term * w),
        common * (-1j * sin_term * g),
        common * (cos_term - 1j * sin_term * w),
    )


def block_propagator(params: JCParams, t: float, kappa: float = 0.0, gamma: float = 0.0) -> tuple[complex, ...]:
    """(e^{i delta t/2}; G00, G01 = G10, G11) at time t: see _block.

    Raises ValueError where they are out of range or not finite, naming g
    where g^2 underflows, the input with the largest square where g^2 + w^2
    overflows (mu is then not finite at any t), and t otherwise.
    """
    try:
        in_range, *out = _block(SCALARS, params.g, params.delta, params.nu, t, kappa, gamma)
    except (OverflowError, ValueError):  # where cmath raises, numpy gives inf or NaN
        in_range = False
    if not (in_range and all(map(cmath.isfinite, out))):
        g, w = params.g, complex(0.5 * params.delta, 0.25 * (kappa - gamma))
        rate = f"kappa = {kappa!r}" if kappa >= gamma else f"gamma = {gamma!r}"
        culprits = [(g, f"g = {g!r}, whose square overflows"), (abs(w.real), f"delta = {params.delta!r}"),
                    (abs(w.imag), rate)]
        at = (f"g = {g!r}, whose square underflows" if g * g < sys.float_info.min
              else f"t = {t!r}" if cmath.isfinite(g * g + w * w) else max(culprits)[1])
        raise ValueError(f"the propagator leaves the float range at {at}")
    return tuple(out)


def propagator_columns(g, nu, omega, t, kappa=0.0, gamma=0.0) -> tuple[CArray, ...]:
    """block_propagator of JCParams(g, nu, omega, .) over arrays, bit for bit; all NaN where it raises."""
    with np.errstate(all="ignore"):
        ok, *out = _block(COLUMNS, *np.broadcast_arrays(g, omega - nu, nu, t, kappa, gamma))
        ok &= np.logical_and.reduce([np.isfinite(x) for z in out for x in CArray.parts(z)])
        return tuple(CArray(*(np.where(ok, x, np.nan) for x in CArray.parts(z))) for z in out)


def block_amplitudes(params: JCParams, t: float, kappa: float = 0.0, gamma: float = 0.0) -> tuple[complex, ...]:
    """Amplitudes e^{i delta t/2} conj(G) of the entries G00, G01, G11 at time t.

    Each is the ground-state coherence left per unit input on one side of
    the exchange: (reception residual, transfer, residual), all read off
    one block_propagator call.
    """
    phase, g00, g01, g11 = block_propagator(params, t, kappa, gamma)
    return phase * g00.conjugate(), phase * g01.conjugate(), phase * g11.conjugate()


def block_amplitude_columns(g, delta, nu, t, kappa=0.0, gamma=0.0) -> tuple[CArray, ...]:
    """block_amplitudes of JCParams.from_detuning(g, delta, t, nu) over arrays, bit for bit.

    All three amplitudes are NaN at the points where the scalar call raises.
    """
    with np.errstate(all="ignore"):
        phase, *entries = propagator_columns(g, nu, nu + delta, t, kappa, gamma)
        return tuple(phase * entry.conjugate() for entry in entries)


def transfer_amplitude(params: JCParams) -> complex:
    """Amplitude moved between the atom and field qubits during t, from G01.

    i e^{i(delta/2 + nu) t} sin(rabi t) g / rabi.  Its squared magnitude is
    the probability that the single excitation swaps sides; the same factor
    multiplies the input coherence.  By symmetry of the excitation-1 block
    it applies to both transfer directions.
    """
    return block_amplitudes(params, params.t)[1]


def residual_amplitude(params: JCParams) -> complex:
    """Amplitude left on the sender side (atom to field direction), from G11.

    e^{i(delta/2 + nu) t} [cos(rabi t) + i sin(rabi t) delta / (2 rabi)].
    Together with the transfer amplitude it satisfies |h_t|^2 + |h_r|^2 = 1.
    """
    return block_amplitudes(params, params.t)[2]


def reception_residual_amplitude(params: JCParams) -> complex:
    """Residual field amplitude for the field-to-atom direction, from G00.

    Same magnitude as residual_amplitude but with the detuning term
    conjugated, because the remaining excitation then sits on the
    |down, 1> side of the excitation-1 block, which carries -delta/2.
    """
    return block_amplitudes(params, params.t)[0]


def _kraus(m, phase, g10, g11) -> np.ndarray:
    """Kraus pairs [A1, A2] (..., 2, 2, 2) from propagator entries in m's arithmetic: see kraus_operators."""
    a = np.zeros(np.shape(phase.real) + (2, 2, 2), dtype=complex)
    a[..., 0, 0, 0], a[..., 0, 1, 1], a[..., 1, 0, 1] = m.values(phase), m.values(g10), m.values(g11)
    return a


def kraus_operators(params: JCParams) -> tuple[np.ndarray, np.ndarray]:
    """Kraus pair of the atom-to-field conversion channel.

    Both operators map the atomic basis (|down>, |up>) to the photon basis
    (|0>, |1>); rows index the photon state.  A1 = diag(e^{i delta t/2}, G10)
    carries the population that transfers, A2 = [[0, G11], [0, 0]] the
    branch where the excitation stays on the atom and the field stays empty.
    """
    phase, _, g10, g11 = block_propagator(params, params.t)
    a = _kraus(SCALARS, phase, g10, g11)
    return a[0], a[1]


def kraus_operator_columns(g, nu, omega, t) -> np.ndarray:
    """kraus_operators over arrays of JCParams fields, bit for bit: (..., 2, 2, 2), NaN where it raises."""
    phase, _, g10, g11 = propagator_columns(g, nu, omega, t)
    return _kraus(COLUMNS, phase, g10, g11)


def hamiltonian_columns(g, nu, omega) -> np.ndarray:
    """The interaction Hamiltonian on the truncated 4-dim joint space, over arrays.

    nu (n_field + 1/2) + (omega/2) sigma_z + g (a^dag sigma_- + a sigma_+),
    with the ladder operators cut off above one photon.  Only the 3x3
    excitation <= 1 block is physical; the |up, 1> diagonal entry is the
    truncated remainder and is never reached by allowed initial states.
    """
    h = np.zeros(np.broadcast(g, nu, omega).shape + (4, 4), dtype=complex)
    h[..., 0, 0] = 0.5 * nu - 0.5 * omega
    h[..., 1, 1] = 1.5 * nu - 0.5 * omega
    h[..., 2, 2] = 0.5 * nu + 0.5 * omega
    h[..., 3, 3] = 1.5 * nu + 0.5 * omega
    h[..., 1, 2] = h[..., 2, 1] = g
    return h


def hamiltonian(params: JCParams) -> np.ndarray:
    """hamiltonian_columns at one point: a 4x4 matrix."""
    return hamiltonian_columns(params.g, params.nu, params.omega)


def _joint_unitary(m, nu, omega, t, phase, g00, g01, g11) -> np.ndarray:
    """joint_unitary from the propagator entries, in m's arithmetic."""
    top = m.exp(-1j * m.complex(1.5 * nu + 0.5 * omega, 0.0) * t)
    phase, g00, g01, g11, top = (m.values(z) for z in (phase, g00, g01, g11, top))
    u = np.zeros(np.shape(phase) + (4, 4), dtype=complex)
    u[..., 0, 0], u[..., 1, 1], u[..., 1, 2], u[..., 2, 1], u[..., 2, 2], u[..., 3, 3] = phase, g00, g01, g01, g11, top
    return u


def joint_unitary(params: JCParams) -> np.ndarray:
    """Closed-form e^{-iHt} on the truncated joint space.

    |down,0> picks up e^{i delta t/2}, the excitation-1 pair
    (|down,1>, |up,0>) evolves under the decay-free block_propagator, and
    the unreachable |up,1> slot keeps its diagonal phase.
    """
    return _joint_unitary(SCALARS, params.nu, params.omega, params.t, *block_propagator(params, params.t))


def joint_unitary_columns(g, nu, omega, t) -> np.ndarray:
    """joint_unitary over arrays of JCParams fields, bit for bit; NaN propagator entries where it raises."""
    with np.errstate(all="ignore"):
        return _joint_unitary(COLUMNS, nu, omega, t, *propagator_columns(g, nu, omega, t))


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
