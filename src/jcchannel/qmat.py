"""Small dense Hermitian matrix helpers for 2x2 and 4x4 states.

Everything in this package works with plain complex numpy arrays as density
matrices.  The helpers here validate them, take eigenvalues and partial
traces, and compute entropies in bits.  Only the two sizes that occur in
the physics (a qubit and a pair of qubits) are supported.

The matrix helpers also take a stack (..., n, n) and answer per matrix in
one numpy call: a matrix gives the same floats alone or in a stack, and a
stack raises the error its first bad member raises alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-9
STATE_TOL = 1e-12
EIG_FLOOR = -1e-10


class NonHermitianInput(ValueError):
    """Matrix handed to a Hermitian-only routine is not Hermitian."""


class DimensionError(ValueError):
    """Matrix has a size other than the supported 2x2 / 4x4."""


class DomainError(ValueError):
    """Scalar argument outside the mathematical domain of the function."""


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] not in (2, 4):
        raise DimensionError(f"only 2x2 and 4x4 supported, got {a.shape[-1]}x{a.shape[-1]}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def _skew(a) -> float:
    """max |a_ij - conj(a_ji)| over a matrix or stack, one entry pair at a time: small temporaries."""
    pairs = [(i, j) for i in range(a.shape[-1]) for j in range(i, a.shape[-1])]
    return max(np.max(np.abs(a[..., i, j] - np.conj(a[..., j, i])), initial=0.0) for i, j in pairs)


def hermitian_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a Hermitian 2x2 or 4x4 matrix, descending, on the last axis.

    The 2x2 case uses the closed quadratic form (|m01| by libm's hypot), the
    4x4 case numpy's Hermitian solver.  Raises NonHermitianInput if the
    matrix deviates from its conjugate transpose by more than 1e-9.
    """
    a = _as_square(m)
    if _skew(a) > HERMITICITY_TOL:
        raise NonHermitianInput("matrix is not Hermitian within 1e-9")
    if a.shape[-1] == 2:
        d0, d1, off = a[..., 0, 0].real, a[..., 1, 1].real, a[..., 0, 1]
        mean = 0.5 * (d0 + d1)
        disc = np.hypot(0.5 * (d0 - d1), np.hypot(off.real, off.imag))
        return np.stack([mean + disc, mean - disc], axis=-1)
    return np.linalg.eigvalsh(a)[..., ::-1]


def von_neumann_entropy(m) -> float:
    """S(m) = -Tr m log2 m in bits, with the 0 log 0 := 0 convention.

    Eigenvalues in [-1e-10, 0) are treated as rounding noise and clamped
    to zero.  Anything more negative means the caller produced a state
    that is not positive semidefinite, which is a bug, so raise.
    """
    lam = hermitian_eigenvalues(m)
    low = lam[..., -1][lam[..., -1] < EIG_FLOOR]
    if low.size:
        raise ValueError(f"eigenvalue {low[0]} below the -1e-10 noise floor")
    lam = np.where(lam > 1e-12, lam, 1.0)  # 1 log2 1 = 0: the rest drop out
    s = -np.sum(lam * np.log2(lam), axis=-1)
    return float(s) if s.ndim == 0 else s


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2(1-x), in bits."""
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"binary_entropy argument {x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def binary_entropy_array(x: np.ndarray) -> np.ndarray:
    """Elementwise H2 of an array in [0, 1], bit for bit with binary_entropy.

    Same expression in the same order; 0 and 1 map to exactly 0.
    """
    inner = (x > 0.0) & (x < 1.0)
    xs = np.where(inner, x, 0.5)
    h = -xs * np.log2(xs) - (1.0 - xs) * np.log2(1.0 - xs)
    return np.where(inner, h, 0.0)


def partial_trace(m, keep: str) -> np.ndarray:
    """Trace out one qubit of a 4x4 state over the ordered basis sys1 (x) sys2.

    keep='first' returns the sys1 state, keep='second' the sys2 state.
    """
    a = _as_square(m)
    if a.shape[-1] != 4:
        raise DimensionError("partial_trace needs a 4x4 matrix")
    t = a.reshape(a.shape[:-2] + (2, 2, 2, 2))
    if keep == "first":
        return np.einsum("...ikjk->...ij", t)
    if keep == "second":
        return np.einsum("...kikj->...ij", t)
    raise ValueError("keep must be 'first' or 'second'")


def check_state(m) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, eigenvalues >= -1e-10."""
    a = _as_square(m)
    if _skew(a) > STATE_TOL:
        raise NonHermitianInput("state deviates from Hermiticity beyond 1e-12")
    tr = np.trace(a, axis1=-2, axis2=-1)
    if np.max(np.abs(tr.real - 1.0)) > STATE_TOL or np.max(np.abs(tr.imag)) > STATE_TOL:
        raise ValueError(f"state trace {tr} is not 1 within 1e-12")
    if np.min(hermitian_eigenvalues(a)[..., -1]) < EIG_FLOOR:
        raise ValueError("state has an eigenvalue below -1e-10")
    return a


def trace_distance(a, b) -> float:
    """Half the trace norm of (a - b) for Hermitian matrices or stacks of them."""
    lam = hermitian_eigenvalues(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))
    d = 0.5 * np.sum(np.abs(lam), axis=-1)
    return float(d) if d.ndim == 0 else d


@dataclass(frozen=True)
class QubitInput:
    """A qubit state given by excited population p and coherence r.

    Matrix form [[1-p, r], [conj(r), p]].  Positivity requires
    |r|^2 <= p(1-p); violations beyond rounding are rejected.
    """

    p: float
    r: complex = 0.0

    def __post_init__(self):
        if not np.isfinite(self.p) or not np.isfinite(complex(self.r)):
            raise ValueError("QubitInput fields must be finite")
        if not (-STATE_TOL <= self.p <= 1.0 + STATE_TOL):
            raise ValueError(f"population {self.p} outside [0, 1]")
        if abs(self.r) ** 2 > self.p * (1.0 - self.p) + 1e-9:
            raise ValueError("coherence violates positivity: |r|^2 > p(1-p)")

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[1.0 - self.p, self.r], [np.conj(self.r), self.p]], dtype=complex
        )

    @classmethod
    def from_matrix(cls, m) -> "QubitInput":
        a = check_state(m)
        if a.shape != (2, 2):
            raise DimensionError("QubitInput.from_matrix needs a 2x2 state")
        return cls(p=float(a[1, 1].real), r=complex(a[0, 1]))
