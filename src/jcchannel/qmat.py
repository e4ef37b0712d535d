"""Small dense Hermitian matrix helpers for 2x2 and 4x4 states.

Everything in this package works with plain complex numpy arrays as density
matrices.  The helpers here validate them, take eigenvalues and partial
traces, and compute entropies in bits.  The state helpers take only the
two sizes of the physics (a qubit and a pair of qubits); expm_taylor,
the matrix exponential of every oracle, takes any square size.

The matrix helpers also take a stack (..., n, n) and answer per matrix in
one numpy call: a matrix gives the same floats alone or in a stack, and a
stack raises the error its first bad member raises alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-9
STATE_TOL = 1e-12
EIG_FLOOR = -1e-10
_TAYLOR = tuple(1.0 / math.factorial(j) for j in range(13))  # expm_taylor's coefficients 1/j!


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
    """S(m) = -Tr m log2 m in bits, with the 0 log 0 := 0 convention: eigenvalue_entropy of its eigenvalues."""
    return eigenvalue_entropy(hermitian_eigenvalues(m))


def eigenvalue_entropy(lam) -> float:
    """-sum lam log2 lam in bits over eigenvalues lam, descending on the last axis as hermitian_eigenvalues gives them.

    Eigenvalues in [-1e-10, 0) are treated as rounding noise and clamped
    to zero.  Anything more negative means the caller produced a state
    that is not positive semidefinite, which is a bug, so raise.
    """
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


def expm_taylor(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a degree-12 Taylor core.

    The argument is scaled by 2^-k, the fewest halvings that take its
    max-column-sum norm to at most 1/4, the Taylor polynomial of degree 12
    is taken in 5 products by Paterson and Stockmeyer's split (A^2, A^3,
    A^4, then Horner in A^4), and the result is squared k times.  The
    terms it drops stay below 2.4e-18 at norm 1/4.  Deliberately
    independent of any spectral decomposition.  In a stack (..., n, n)
    each matrix has its own k and squarings: the floats it gives alone.  A
    non-finite entry, norm or result raises ValueError.  A real stack stays
    real: it returns float64, in real products.
    """
    a = np.asarray(m)
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    if not np.isfinite(a).all():
        raise ValueError("expm_taylor needs finite entries")
    stack = a.reshape((-1,) + a.shape[-2:])
    with np.errstate(over="ignore"):  # a column sum past the float range: the ValueError below
        norm = np.max(np.sum(np.abs(stack), axis=1), axis=1)
    if not np.isfinite(norm).all():
        raise ValueError("expm_taylor needs a finite max-column-sum norm")
    # norm = mant * 2**e, mant in [1/2, 1): norm / 2**k <= 1/4 from k = e + 2, or e + 1 at mant = 1/2
    mant, e = np.frexp(norm)
    k = np.where(norm > 0.25, e + 2 - (mant == 0.5), 0)
    # most halvings first, so the matrices each squaring takes are a prefix
    order = np.argsort(-k, kind="stable")
    k = k[order]
    x = stack[order] / np.ldexp(1.0, np.minimum(k, 1023))[:, None, None]
    over = k > 1023  # 2**k is past the float range: divide by the rest apart
    x[over] /= np.ldexp(1.0, k[over] - 1023)[:, None, None]
    n, x2 = a.shape[-1], x @ x
    powers, x4 = (x, x2, x2 @ x), x2 @ x2
    total = x4 * _TAYLOR[12]
    for top in (8, 4, 0):  # Horner in x4, adding c_top I + c_(top+1) x + c_(top+2) x^2 + c_(top+3) x^3 each step
        for j, power in enumerate(powers, 1):
            total += power * _TAYLOR[top + j]
        total.reshape(-1, n * n)[:, :: n + 1] += _TAYLOR[top]  # the diagonal, in place
        if top:
            total = total @ x4
    with np.errstate(over="ignore", invalid="ignore"):  # a square past the float range: the ValueError below
        for s in range(int(np.max(k, initial=0))):
            c = int(np.count_nonzero(k > s))
            total[:c] = total[:c] @ total[:c]
    if not np.isfinite(total).all():
        raise ValueError("expm_taylor's result leaves the float range")
    out = np.empty_like(total)
    out[order] = total
    return out.reshape(a.shape)


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
