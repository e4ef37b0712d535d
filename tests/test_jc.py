"""Closed-form dynamics of the atom-field exchange block."""

import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jcchannel.jc import (
    JCParams,
    block_amplitude_columns,
    block_amplitudes,
    block_propagator,
    channel_output,
    evolve_joint,
    hamiltonian,
    hamiltonian_columns,
    joint_unitary,
    joint_unitary_columns,
    kraus_operator_columns,
    kraus_operators,
    reception_residual_amplitude,
    residual_amplitude,
    squares,
    transfer_amplitude,
)
from jcchannel.qmat import QubitInput, partial_trace
from jcchannel import verify
from jcchannel.verify import expm_taylor

# Frozen via the independent matrix-exponential oracle (expm_taylor of the
# Hamiltonian); agreement there was ~5e-16.
_GOLD_PARAMS = dict(g=1.3, delta=0.7, t=2.1, nu=0.4)
_GOLD_H1 = -0.2985927842518175 - 0.0012551938798606383j
_GOLD_H2 = -0.07639273427220396 - 0.9513174674268774j
_GOLD_H2R = 0.08438799570954393 - 0.95064159379926j


def params_strategy():
    return st.builds(
        JCParams.from_detuning,
        g=st.floats(min_value=0.05, max_value=4.0),
        delta=st.floats(min_value=-5.0, max_value=5.0),
        t=st.floats(min_value=0.0, max_value=10.0),
        nu=st.floats(min_value=-3.0, max_value=3.0),
    )


def inputs_strategy():
    return st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
    ).map(
        lambda s: QubitInput(
            p=s[0],
            r=math.sqrt(s[0] * (1 - s[0])) * s[1] * complex(math.cos(s[2]), math.sin(s[2])),
        )
    )


def test_params_validation():
    with pytest.raises(ValueError):
        JCParams(g=0.0, nu=0.0, omega=0.0, t=1.0)
    with pytest.raises(ValueError):
        JCParams(g=1.0, nu=0.0, omega=0.0, t=-1.0)
    # every mix of non-finite fields names its first one, in the order g, nu, omega, t
    fields = ("g", "nu", "omega", "t")
    for mask in range(1, 16):
        bad = [name for i, name in enumerate(fields) if mask >> i & 1]
        for value in (math.nan, math.inf, -math.inf):
            values = {"g": 1.0, "nu": 0.0, "omega": 0.0, "t": 1.0, **dict.fromkeys(bad, value)}
            with pytest.raises(ValueError, match=f"^JCParams.{bad[0]} must be finite$"):
                JCParams(**values)


def test_derived_quantities():
    p = JCParams(g=1.0, nu=2.0, omega=5.0, t=0.1)
    assert p.delta == 3.0
    assert p.rabi == pytest.approx(math.hypot(1.0, 1.5))
    assert JCParams.from_detuning(g=1.0, delta=3.0, t=0.1, nu=2.0) == p
    r = JCParams.resonant(g=1.0, t=0.1, nu=2.0)
    assert r.delta == 0.0


def test_resonant_half_period_full_transfer():
    p = JCParams.resonant(g=1.0, t=math.pi / 2)
    assert transfer_amplitude(p) == pytest.approx(1j, abs=1e-15)
    assert abs(residual_amplitude(p)) == pytest.approx(0.0, abs=1e-15)


def test_resonant_full_period_no_transfer():
    p = JCParams.resonant(g=1.0, t=math.pi)
    assert abs(transfer_amplitude(p)) == pytest.approx(0.0, abs=1e-12)
    assert abs(residual_amplitude(p)) == pytest.approx(1.0, abs=1e-12)


def test_amplitude_goldens_from_expm_oracle():
    p = JCParams.from_detuning(**_GOLD_PARAMS)
    assert transfer_amplitude(p) == pytest.approx(_GOLD_H1, abs=1e-12)
    assert residual_amplitude(p) == pytest.approx(_GOLD_H2, abs=1e-12)
    assert reception_residual_amplitude(p) == pytest.approx(_GOLD_H2R, abs=1e-12)


@given(params_strategy())
def test_amplitude_norms_sum_to_one(p):
    send = abs(transfer_amplitude(p)) ** 2 + abs(residual_amplitude(p)) ** 2
    recv = abs(transfer_amplitude(p)) ** 2 + abs(reception_residual_amplitude(p)) ** 2
    assert send == pytest.approx(1.0, abs=1e-12)
    assert recv == pytest.approx(1.0, abs=1e-12)


@given(params_strategy())
def test_kraus_completeness(p):
    a1, a2 = kraus_operators(p)
    total = a1.conj().T @ a1 + a2.conj().T @ a2
    assert np.max(np.abs(total - np.eye(2))) < 1e-12


@given(params_strategy())
def test_kraus_operators_are_the_propagator_entries(p):
    a1, a2 = kraus_operators(p)
    phase, _, g10, g11 = block_propagator(p, p.t)
    for got, want in ((a1, np.diag([phase, g10])), (a2, np.array([[0.0, g11], [0.0, 0.0]], dtype=complex))):
        assert got.shape == (2, 2) and got.dtype == complex
        assert (got == want).all()


@given(params_strategy())
def test_joint_unitary_is_unitary(p):
    u = joint_unitary(p)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


def test_joint_unitary_matches_expm_oracle():
    for t in (0.0, 0.7, 2.9):
        for delta in (-1.5, 0.0, 2.0):
            p = JCParams.from_detuning(g=0.8, delta=delta, t=t, nu=0.6)
            u = expm_taylor(-1j * p.t * hamiltonian(p))
            assert np.max(np.abs(joint_unitary(p) - u)) < 1e-11
            # the amplitudes and the Kraus pair are read off the same
            # propagator, so pin each of them to the oracle entries too
            assert abs(transfer_amplitude(p) - u[0, 0] * np.conj(u[1, 2])) < 1e-11
            assert abs(residual_amplitude(p) - u[0, 0] * np.conj(u[2, 2])) < 1e-11
            assert abs(reception_residual_amplitude(p) - u[0, 0] * np.conj(u[1, 1])) < 1e-11
            a1, a2 = kraus_operators(p)
            assert np.max(np.abs(a1 - np.diag([u[0, 0], u[2, 1]]))) < 1e-11
            assert np.max(np.abs(a2 - [[0.0, u[2, 2]], [0.0, 0.0]])) < 1e-11


def test_hamiltonian_is_hermitian_and_coupling_sits_in_one_excitation_block():
    h = hamiltonian(JCParams(g=1.2, nu=0.5, omega=0.9, t=1.0))
    assert np.allclose(h, h.conj().T)
    assert h[1, 2] == 1.2
    assert h[0, 1] == 0.0 and h[0, 3] == 0.0


@given(params_strategy(), inputs_strategy())
def test_evolution_never_populates_double_excitation(p, inp):
    joint = evolve_joint(inp, p)
    assert abs(joint[3, 3]) < 1e-12
    assert np.trace(joint).real == pytest.approx(1.0, abs=1e-12)


@given(params_strategy(), inputs_strategy())
def test_channel_output_matches_kraus_route(p, inp):
    # partial trace of the joint evolution vs the 2x2 Kraus pair
    a1, a2 = kraus_operators(p)
    m = inp.matrix
    kraus_out = a1 @ m @ a1.conj().T + a2 @ m @ a2.conj().T
    assert np.max(np.abs(channel_output(inp, p) - kraus_out)) < 1e-12


@given(params_strategy(), inputs_strategy())
def test_population_bookkeeping(p, inp):
    a = abs(transfer_amplitude(p)) ** 2
    out = channel_output(inp, p)
    left = partial_trace(evolve_joint(inp, p), keep="first")  # the atom state left behind
    assert out[1, 1].real == pytest.approx(inp.p * a, abs=1e-12)
    assert left[1, 1].real == pytest.approx(inp.p * (1.0 - a), abs=1e-12)


def test_residual_coherence_uses_residual_amplitude():
    p = JCParams.from_detuning(g=1.1, delta=0.9, t=1.3, nu=0.2)
    inp = QubitInput(p=0.4, r=0.3)
    left = partial_trace(evolve_joint(inp, p), keep="first")
    assert complex(left[0, 1]) == pytest.approx(inp.r * residual_amplitude(p), abs=1e-12)


def test_block_amplitude_columns_equal_scalar_bit_for_bit():
    rng = np.random.default_rng(20261018)
    n = 4000
    g = np.exp(rng.uniform(-5.0, 3.0, n))
    delta = rng.standard_normal(n) * np.exp(rng.uniform(-10.0, 7.0, n))
    nu = np.where(rng.uniform(size=n) < 0.5, 0.0, rng.standard_normal(n) * 3.0)
    t = np.exp(rng.uniform(-25.0, 4.0, n))
    kappa = np.where(rng.uniform(size=n) < 0.3, 0.0, np.exp(rng.uniform(-5.0, 7.0, n)))
    gamma = np.where(rng.uniform(size=n) < 0.3, 0.0, np.exp(rng.uniform(-5.0, 5.0, n)))
    t[::10] = 0.0
    gamma[1::17] = kappa[1::17]
    # exceptional points: delta = 0, kappa - gamma = 4 g, so mu = 0
    delta[::13], gamma[::13], kappa[::13] = 0.0, 0.0, 4.0 * g[::13]
    # g^2 + delta^2/4 = (kappa - gamma)^2/16 exactly: mu^2 is purely imaginary
    for i, (gg, dd, kk) in enumerate([(2.0, 3.0, 10.0), (3.0, -2.5, 13.0), (1.25, 6.0, 13.0)]):
        g[5 + i::41], delta[5 + i::41], kappa[5 + i::41], gamma[5 + i::41] = gg, dd, kk, 0.0
    # |Im(mu t)| on both sides of log(DBL_MAX / 4), where the range ends
    kappa[7::29], gamma[7::29], t[7::29] = rng.uniform(2820.0, 2850.0, len(t[7::29])), 0.0, 1.0
    # g^2 below the normal floats, at g t = 0.1: out of range, where mu would lose g
    tiny = np.zeros(n, dtype=bool)
    for i, small_g in enumerate((1e-160, 1e-300)):
        g[11 + i::97], t[11 + i::97], tiny[11 + i::97] = small_g, 0.1 / small_g, True
    columns = block_amplitude_columns(g, delta, nu, t, kappa, gamma)
    rejected = []
    points = zip(*(x.tolist() for x in (g, delta, nu, t, kappa, gamma)))
    for i, (gi, di, nui, ti, ki, ci) in enumerate(points):
        params = JCParams.from_detuning(g=gi, delta=di, t=ti, nu=nui)
        got = tuple(complex(a.real[i], a.imag[i]) for a in columns)
        try:
            want = block_amplitudes(params, ti, ki, ci)
        except ValueError:
            rejected.append(i)
            assert all(math.isnan(z.real) and math.isnan(z.imag) for z in got), i
            continue
        assert repr(got) == repr(want), i  # repr tells -0.0 from 0.0
    assert 0 < len(rejected) < n // 5
    assert set(np.flatnonzero(tiny).tolist()) <= set(rejected)


def _column_grid():
    """(g, delta, t, nu) rows: kraus-completeness's full sample, the unitary-oracle grid, t = 0, then g = 1e200."""
    sample = verify.Draws(verify._SEED).uniform(*verify._PARAM_BOUNDS, size=(1000, 4))
    axes = np.linspace(0.0, 2.0 * math.pi, 10), np.linspace(-3.0, 3.0, 10), np.linspace(-2.0, 2.0, 10)
    t, delta, nu = (x.ravel() for x in np.meshgrid(*axes, indexing="ij"))
    grid = np.stack([np.ones_like(t), delta, t, nu], axis=1)
    return np.concatenate([sample, grid, [[1.3, 0.7, 0.0, 0.4], [1e200, 0.0, 1.0, 0.0]]])


def _kraus_by_hand(params):
    phase, _, g10, g11 = block_propagator(params, params.t)
    a = np.zeros((2, 2, 2), dtype=complex)
    a[0, 0, 0], a[0, 1, 1], a[1, 0, 1] = phase, g10, g11
    return a


def _unitary_by_hand(params):
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0], g00, g01, g11 = block_propagator(params, params.t)
    u[1, 1], u[1, 2], u[2, 1], u[2, 2] = g00, g01, g01, g11
    u[3, 3] = cmath.exp(-1j * (1.5 * params.nu + 0.5 * params.omega) * params.t)
    return u


def _hamiltonian_by_hand(params):
    g, nu, om = params.g, params.nu, params.omega
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0], h[1, 1] = 0.5 * nu - 0.5 * om, 1.5 * nu - 0.5 * om
    h[2, 2], h[3, 3] = 0.5 * nu + 0.5 * om, 1.5 * nu + 0.5 * om
    h[1, 2] = h[2, 1] = g
    return h


@pytest.mark.parametrize("columns, by_hand, entries", [
    (kraus_operator_columns, _kraus_by_hand, [(0, 0, 0), (0, 1, 1), (1, 0, 1)]),
    (joint_unitary_columns, _unitary_by_hand, [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)]),
], ids=["kraus", "joint_unitary"])
def test_propagator_column_forms_equal_the_per_point_bodies_bit_for_bit(columns, by_hand, entries):
    rows = _column_grid()
    points = [JCParams.from_detuning(*row) for row in rows.tolist()]
    got = columns(*np.array([(p.g, p.nu, p.omega, p.t) for p in points]).T)
    assert got.dtype == complex and got.shape == (len(rows),) + by_hand(points[0]).shape
    one_point = {kraus_operator_columns: kraus_operators, joint_unitary_columns: joint_unitary}[columns]
    for i, params in enumerate(points[:-1]):
        assert got[i].tobytes() == by_hand(params).tobytes() == np.array(one_point(params)).tobytes(), i
    # where block_propagator raises, the propagator's entries are NaN and the one-point function raises
    with pytest.raises(ValueError, match="the propagator leaves the float range at t = 1.0"):
        by_hand(points[-1])
    assert all(np.isnan(got[-1][e]) for e in entries)
    with pytest.raises(ValueError, match="the propagator leaves the float range at t = 1.0"):
        one_point(points[-1])


def test_hamiltonian_columns_equal_the_per_point_body_bit_for_bit():
    points = [JCParams.from_detuning(*row) for row in _column_grid().tolist()]
    got = hamiltonian_columns(*np.array([(p.g, p.nu, p.omega) for p in points]).T)
    assert got.tobytes() == np.array([_hamiltonian_by_hand(p) for p in points]).tobytes()
    assert hamiltonian(points[3]).tobytes() == got[3].tobytes()


def _python_square(x):
    try:
        return x ** 2
    except OverflowError as e:
        return e


def test_squares_equal_python_bit_for_bit_and_raise_where_it_does():
    # 10^6 random bit patterns: every exponent and sign, subnormals, inf, NaN payloads
    values = np.random.default_rng(22).integers(0, 2**64, size=10**6, dtype=np.uint64).view(float)
    edge = [math.sqrt(sys.float_info.max)]  # ~1.34e154, the last value Python squares
    for _ in range(4):
        edge = [math.nextafter(edge[0], 0.0), *edge, math.nextafter(edge[-1], math.inf)]
    special = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, sys.float_info.min, 1.0, -1.0,
               math.inf, -math.inf, math.nan, -math.nan, *edge, *(-x for x in edge)]
    values = np.concatenate([values, special])
    expected = [_python_square(x) for x in values.tolist()]
    raises = np.array([isinstance(e, OverflowError) for e in expected])
    assert 0 < raises.sum() < len(values) // 2
    want = np.array([e for e in expected if not isinstance(e, OverflowError)])
    assert np.array_equal(squares(values[~raises]).view(np.uint64), want.view(np.uint64))
    # one value at a time about the overflow edge, and a sample of the rest
    for x in [*edge, *(-x for x in edge), *values[raises][:500].tolist()]:
        python = _python_square(x)
        if isinstance(python, OverflowError):
            with pytest.raises(OverflowError) as err:
                squares(np.array([x]))
            assert err.value.args == python.args
        else:
            assert squares(np.array([x])).view(np.uint64)[0] == np.array(python).view(np.uint64)
    with pytest.raises(OverflowError):
        squares(values)


def test_squares_keep_the_shape():
    m = np.array([[0.5, 3.0], [-2.0, 1e-200]])
    assert squares(m).shape == (2, 2) and squares(m).tolist() == [[0.25, 9.0], [4.0, 0.0]]
    assert isinstance(squares(0.5), np.ndarray) and squares(0.5).shape == () and squares(0.5) == 0.25
