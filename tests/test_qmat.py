"""Matrix helpers: eigenvalues, entropies, partial traces, state validation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jcchannel.qmat import (
    DimensionError,
    DomainError,
    NonHermitianInput,
    QubitInput,
    binary_entropy,
    check_state,
    hermitian_eigenvalues,
    partial_trace,
    trace_distance,
    von_neumann_entropy,
)


def valid_qubit_inputs():
    return st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
    ).map(
        lambda s: QubitInput(
            p=s[0],
            r=math.sqrt(s[0] * (1.0 - s[0])) * s[1] * complex(math.cos(s[2]), math.sin(s[2])),
        )
    )


def test_eigenvalues_2x2_known():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(hermitian_eigenvalues(m), [3.0, 1.0])


def test_eigenvalues_2x2_complex_offdiag():
    m = np.array([[0.0, -1j], [1j, 0.0]])
    assert np.allclose(hermitian_eigenvalues(m), [1.0, -1.0])


def test_eigenvalues_4x4_descending():
    d = np.diag([0.1, 0.4, 0.2, 0.3])
    assert np.allclose(hermitian_eigenvalues(d), [0.4, 0.3, 0.2, 0.1])


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(NonHermitianInput):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigenvalues_reject_wrong_size():
    with pytest.raises(DimensionError):
        hermitian_eigenvalues(np.eye(3))


def test_entropy_pure_state_zero():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0


def test_entropy_maximally_mixed():
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)


def test_entropy_clamps_rounding_noise():
    m = np.diag([1.0 + 5e-11, -5e-11])
    assert von_neumann_entropy(m) == pytest.approx(0.0, abs=1e-9)


def test_entropy_rejects_negative_state():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([1.2, -0.2]))


def test_binary_entropy_endpoints_and_middle():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)


def test_binary_entropy_domain():
    with pytest.raises(DomainError):
        binary_entropy(-0.01)
    with pytest.raises(DomainError):
        binary_entropy(1.01)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_symmetric(x):
    assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


def test_partial_trace_product_state():
    a = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
    b = np.array([[0.6, 0.2], [0.2, 0.4]])
    joint = np.kron(a, b)
    assert np.allclose(partial_trace(joint, "first"), a)
    assert np.allclose(partial_trace(joint, "second"), b)


def test_partial_trace_entangled_is_mixed():
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
    joint = np.outer(psi, psi)
    assert np.allclose(partial_trace(joint, "first"), np.eye(2) / 2)


def test_partial_trace_needs_4x4():
    with pytest.raises(DimensionError):
        partial_trace(np.eye(2), "first")


def test_check_state_accepts_valid():
    check_state(np.diag([0.25, 0.75]))


def test_check_state_rejects_trace():
    with pytest.raises(ValueError):
        check_state(np.diag([0.6, 0.6]))


def test_trace_distance_orthogonal_pure():
    assert trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(1.0)


def test_trace_distance_self_zero():
    m = np.array([[0.5, 0.1], [0.1, 0.5]])
    assert trace_distance(m, m) == 0.0


def test_qubit_input_matrix_roundtrip():
    q = QubitInput(p=0.3, r=0.2 + 0.1j)
    back = QubitInput.from_matrix(q.matrix)
    assert back.p == pytest.approx(q.p)
    assert back.r == pytest.approx(q.r)


def test_qubit_input_rejects_bad_population():
    with pytest.raises(ValueError):
        QubitInput(p=1.5)


def test_qubit_input_rejects_positivity_violation():
    # |r| above sqrt(p(1-p)) makes the matrix non positive semidefinite
    with pytest.raises(ValueError):
        QubitInput(p=0.1, r=0.5)


@given(valid_qubit_inputs())
def test_qubit_input_matrix_is_a_state(q):
    m = check_state(q.matrix)
    assert hermitian_eigenvalues(m)[-1] >= -1e-10


@given(valid_qubit_inputs())
def test_entropy_bounds(q):
    s = von_neumann_entropy(q.matrix)
    assert -1e-12 <= s <= 1.0 + 1e-12


def _seeded_states(rng, n, count):
    a = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    rho = a @ a.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


@pytest.mark.parametrize("n", [2, 4])
def test_stacked_helpers_equal_single_calls(n):
    rng = np.random.default_rng(20261018 + n)
    herm = rng.normal(size=(3, 5, n, n)) + 1j * rng.normal(size=(3, 5, n, n))
    herm = herm + herm.conj().swapaxes(-1, -2)
    first, second = _seeded_states(rng, n, 40), _seeded_states(rng, n, 40)
    first[3] = np.diag(np.eye(n)[0])  # a pure state: eigenvalues below 1e-12 drop out
    lam = hermitian_eigenvalues(herm)
    assert lam.shape == (3, 5, n)
    for i, j in np.ndindex(3, 5):
        assert np.array_equal(lam[i, j], hermitian_eigenvalues(herm[i, j]))
    entropies = von_neumann_entropy(first)
    distances = trace_distance(first, second)
    assert entropies.shape == distances.shape == (40,)
    for k in range(40):
        assert entropies[k] == von_neumann_entropy(first[k])
        assert distances[k] == trace_distance(first[k], second[k])
    empty = np.zeros((0, n, n))
    assert hermitian_eigenvalues(empty).shape == (0, n)
    assert von_neumann_entropy(empty).shape == trace_distance(empty, empty).shape == (0,)


def _bad_members():
    nan = np.eye(2, dtype=complex)
    nan[0, 1] = np.nan
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    negative = np.diag([1.5, -0.5])
    return [
        (hermitian_eigenvalues, nan, ValueError),
        (hermitian_eigenvalues, skew, NonHermitianInput),
        (von_neumann_entropy, negative, ValueError),
    ]


@pytest.mark.parametrize("fn, bad, error", _bad_members())
def test_one_bad_member_fails_a_stack_as_it_fails_alone(fn, bad, error):
    stack = np.array([np.eye(2) / 2, np.diag([0.25, 0.75]), bad, np.eye(2) / 2])
    with pytest.raises(error) as alone:
        fn(bad)
    with pytest.raises(error) as stacked:
        fn(stack)
    assert str(stacked.value) == str(alone.value)


def test_a_stack_of_3x3_fails_as_one_3x3_does():
    with pytest.raises(DimensionError) as alone:
        hermitian_eigenvalues(np.eye(3))
    with pytest.raises(DimensionError) as stacked:
        von_neumann_entropy(np.array([np.eye(3)] * 4))
    assert str(stacked.value) == str(alone.value)
