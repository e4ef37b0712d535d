"""Decaying transfer: closed-form state vs the exp(tL) master-equation oracle, derived constants, channel."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jcchannel import jc as jc_module
from jcchannel import lindblad
from jcchannel.jc import JCParams, block_propagator, joint_unitary, transfer_amplitude
from jcchannel.lindblad import (
    DecayParams,
    closed_form_columns,
    closed_form_state,
    decay_degradability,
    decayed_conversion,
    degradability_expression,
    derive_constants,
    integrate_master_equation,
    integrate_master_equations,
    oracle_grid,
)
from jcchannel.qmat import QubitInput, check_state

# Atom population after a resonant half period with kappa = 0.2 and no
# atomic decay; pinned by an RK4 integrator (agreement 2.3e-13).
DECAYED_KEEP_075PI = 0.8567746367339336

_REF_INPUT = QubitInput(p=0.6, r=0.25 + 0.31j)


def _joint_init(inp):
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0 - inp.p
    rho[1, 1] = inp.p
    rho[0, 1] = inp.r
    rho[1, 0] = np.conj(complex(inp.r))
    return rho


def decay_strategy():
    return st.builds(
        DecayParams,
        kappa=st.floats(min_value=0.0, max_value=0.6),
        gamma_at=st.floats(min_value=0.0, max_value=0.3),
    )


def params_strategy():
    return st.builds(
        JCParams.from_detuning,
        g=st.floats(min_value=0.2, max_value=2.0),
        delta=st.floats(min_value=-2.5, max_value=2.5),
        t=st.floats(min_value=0.0, max_value=2 * math.pi),
        nu=st.floats(min_value=-1.0, max_value=1.0),
    )


def test_decay_params_validation():
    with pytest.raises(ValueError):
        DecayParams(kappa=-0.1, gamma_at=0.0)
    with pytest.raises(ValueError):
        DecayParams(kappa=0.0, gamma_at=math.inf)


def test_constants_zero_decay_limit():
    jc = JCParams.from_detuning(g=1.0, delta=0.8, t=1.0)
    c = derive_constants(jc, DecayParams(kappa=0.0, gamma_at=0.0))
    assert c.k1 == 0.0 and c.k2 == 0.0
    assert c.x == 0.0
    assert c.y == pytest.approx(2.0 * jc.rabi, abs=1e-12)


@given(params_strategy(), decay_strategy())
@settings(max_examples=80)
def test_constants_identities(jc, d):
    c = derive_constants(jc, d)
    # (x + iy)^2 = -z + 2 i k2 delta, split into real and imaginary parts
    assert c.x**2 - c.y**2 == pytest.approx(-c.z, abs=1e-9)
    assert c.x * c.y == pytest.approx(c.k2 * jc.delta, abs=1e-9)
    assert c.x >= 0.0
    assert c.eta(1.3) > 0.0


def test_y_sign_follows_decay_asymmetry():
    jc = JCParams.from_detuning(g=1.0, delta=1.0, t=1.0)
    stronger_cavity = derive_constants(jc, DecayParams(kappa=0.4, gamma_at=0.0))
    stronger_atom = derive_constants(jc, DecayParams(kappa=0.0, gamma_at=0.4))
    assert stronger_cavity.y > 0.0
    assert stronger_atom.y < 0.0  # k2 < 0 with positive detuning


def test_closed_form_zero_decay_equals_unitary_evolution():
    no_decay = DecayParams(kappa=0.0, gamma_at=0.0)
    for delta in (0.0, 0.9, -1.7):
        for t in (0.0, 0.8, 2.6):
            jc = JCParams.from_detuning(g=1.1, delta=delta, t=t, nu=0.35)
            closed = closed_form_state(jc, no_decay, _REF_INPUT, t)
            u = joint_unitary(jc)
            direct = u @ _joint_init(_REF_INPUT) @ u.conj().T
            assert np.max(np.abs(closed - direct)) < 1e-12


def test_closed_form_is_a_state_and_leaves_top_level_empty():
    jc = JCParams.from_detuning(g=1.0, delta=0.5, t=1.0, nu=0.25)
    rho = closed_form_state(jc, DecayParams(kappa=0.3, gamma_at=0.1), _REF_INPUT, 2.0)
    check_state(rho)
    assert np.max(np.abs(rho[3, :])) == 0.0
    assert np.max(np.abs(rho[:, 3])) == 0.0


@given(params_strategy(), decay_strategy())
@settings(max_examples=25, deadline=None)
def test_closed_form_matches_integrator(jc, d):
    closed = closed_form_state(jc, d, _REF_INPUT, jc.t)
    numeric = integrate_master_equation(jc, d, _joint_init(_REF_INPUT), jc.t)
    assert np.max(np.abs(closed - numeric)) < 1e-6


def test_integrator_pure_cavity_decay_exponential():
    # with negligible coupling the photon population is e^{-kappa t}
    jc = JCParams.from_detuning(g=1e-8, delta=0.0, t=1.0, nu=0.0)
    d = DecayParams(kappa=0.7, gamma_at=0.0)
    init = np.zeros((4, 4), dtype=complex)
    init[1, 1] = 1.0
    out = integrate_master_equation(jc, d, init, 1.0)
    assert out[1, 1].real == pytest.approx(math.exp(-0.7), abs=1e-8)
    closed = closed_form_state(jc, d, QubitInput(p=1.0, r=0.0), 1.0)
    assert closed[1, 1].real == pytest.approx(math.exp(-0.7), abs=1e-8)


def test_integrator_preserves_trace_and_positivity():
    jc = JCParams.from_detuning(g=1.0, delta=1.5, t=3.0, nu=0.25)
    d = DecayParams(kappa=0.5, gamma_at=0.05)
    out = integrate_master_equation(jc, d, _joint_init(_REF_INPUT), 3.0)
    check_state(out)


def _sequential_rk4(jc, d, init, t):
    """Reference: fixed-step RK4, one step at a time, doubling the steps until two runs agree within 1e-10."""
    sup = lindblad._liouvillians([(jc, d, t)])[0]
    scale = max(1.0, jc.rabi, abs(jc.nu), abs(jc.delta), d.kappa, d.gamma_at)
    steps, prev = max(16, math.ceil(4.0 * t * scale)), None
    while True:
        hl = (t / steps) * sup
        step = np.eye(16) + hl @ (np.eye(16) + hl @ (np.eye(16) / 2 + hl @ (np.eye(16) / 6 + hl / 24)))
        y = init.reshape(16).astype(complex)
        for _ in range(steps):
            y = step @ y
        if prev is not None and np.max(np.abs(y - prev)) < 1e-10:
            return y.reshape(4, 4)
        prev, steps = y, steps * 2


def _wide_points():
    """Four seeded (jc, d, t) points with t up to 30, well past the grid's times."""
    rng = np.random.default_rng(808)
    wide = []
    for _ in range(4):
        t = float(rng.uniform(5.0, 30.0))
        jc = JCParams.from_detuning(
            g=float(rng.uniform(0.2, 2.0)), delta=float(rng.uniform(-3.0, 3.0)), t=t, nu=0.3
        )
        wide.append((jc, DecayParams(float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 1.0))), t))
    return wide


def test_oracle_matches_sequential_rk4_steps():
    # an independent time-stepping method checks the matrix exponential
    init = _joint_init(_REF_INPUT)
    for jc, d, t in oracle_grid()[::11] + _wide_points():
        oracle = integrate_master_equation(jc, d, init, t)
        if t == 0.0:
            assert np.array_equal(oracle, init)
            continue
        assert np.max(np.abs(oracle - _sequential_rk4(jc, d, init, t))) < 1e-9


def test_stacked_integrator_equals_one_point_calls():
    # the wide points go in among the grid's, so a block boundary falls between two
    points = oracle_grid()
    block = lindblad._ORACLE_BLOCK
    for k, point in zip((3, block - 1, block, 2 * block + 5), _wide_points()):
        points.insert(k, point)
    init = _joint_init(_REF_INPUT)
    stacked = integrate_master_equations(points, init)
    assert stacked.shape == (len(points), 4, 4)
    for (jc, d, t), state in zip(points, stacked):
        assert np.array_equal(state, integrate_master_equation(jc, d, init, t))


def test_stacked_integrator_empty_and_zero_times():
    init = _joint_init(_REF_INPUT)
    assert integrate_master_equations([], init).shape == (0, 4, 4)
    jc = JCParams.resonant(g=1.0, t=1.0)
    d = DecayParams(0.1, 0.0)
    out = integrate_master_equations([(jc, d, 0.0), (jc, d, 1.0), (jc, d, 0.0)], init)
    assert np.array_equal(out[0], init) and np.array_equal(out[2], init)
    assert not np.shares_memory(out, init)
    assert np.array_equal(out[1], integrate_master_equation(jc, d, init, 1.0))


@pytest.mark.parametrize("kappa", [0.1, 0.0])
def test_oracle_reaches_long_times_quickly(kappa):
    # about 2^22 times the Liouvillian's norm: 23 squarings, no stepping
    jc, d = JCParams.resonant(g=1.0, t=1.0), DecayParams(kappa, 0.0)
    start = time.perf_counter()
    out = integrate_master_equation(jc, d, _joint_init(_REF_INPUT), 6e5)
    assert time.perf_counter() - start < 1.0
    assert np.max(np.abs(out - closed_form_state(jc, d, _REF_INPUT, 6e5))) < 1e-6


def test_oracle_past_the_float_range_raises_value_error():
    jc = JCParams.resonant(g=1.0, t=1.0)
    d = DecayParams(0.1, 0.0)
    for points in ([(jc, d, 1e308)], [(jc, d, 1.0), (jc, d, 1e308)]):
        with pytest.raises(ValueError, match="expm_taylor"):
            integrate_master_equations(points, _joint_init(_REF_INPUT))


def _overdamped_points():
    """(jc, d, t) beyond the grid's kappa <= 0.5: overdamped and at the exceptional point mu = 0."""
    points = [
        (JCParams.from_detuning(g=1.0, delta=delta, t=t, nu=0.25), DecayParams(kappa, gamma_at), t)
        for kappa, gamma_at, delta, t in itertools.product((4.0, 4.5, 8.0, 20.0), (0.0, 0.5), (0.0, 1.0, -2.0),
                                                           (0.3, 1.0, 3.0, 10.0))
    ]
    # kappa - gamma_at = 4 g at delta = 0: the closed form's series branch
    return points + [
        (JCParams.from_detuning(g=g, delta=0.0, t=t, nu=0.25), DecayParams(gamma_at + 4.0 * g, gamma_at), t)
        for g, gamma_at, t in itertools.product((0.5, 1.0, 2.0), (0.0, 0.5), (0.3, 1.0, 3.0, 10.0))
    ]


def test_closed_form_matches_the_oracle_overdamped_and_at_the_exceptional_point():
    points = _overdamped_points()
    numeric = integrate_master_equations(points, _joint_init(_REF_INPUT))
    for (jc, d, t), state in zip(points, numeric):
        assert np.max(np.abs(closed_form_state(jc, d, _REF_INPUT, t) - state)) < 1e-9, (jc, d, t)


def test_oracle_shares_no_code_with_the_closed_form(monkeypatch):
    init = _joint_init(_REF_INPUT)
    plain = integrate_master_equations(oracle_grid(), init)

    def closed_form_code(*args, **kwargs):
        raise AssertionError("the oracle called the closed form's propagator")

    for module in (jc_module, lindblad):
        for name in ("_block", "propagator_columns", "block_propagator"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, closed_form_code)
    with pytest.raises(AssertionError):  # the patch reaches the closed form
        closed_form_state(*oracle_grid()[1][:2], _REF_INPUT, 1.0)
    assert np.array_equal(integrate_master_equations(oracle_grid(), init), plain)


def test_integrator_rejects_bad_shape():
    jc = JCParams.resonant(g=1.0, t=1.0)
    with pytest.raises(ValueError):
        integrate_master_equation(jc, DecayParams(0.1, 0.0), np.eye(2), 1.0)


def test_decayed_conversion_golden():
    jc = JCParams.from_detuning(g=1.0, delta=0.0, t=math.pi / 2, nu=0.0)
    conv = decayed_conversion(jc, DecayParams(kappa=0.2, gamma_at=0.0), math.pi / 2)
    assert abs(conv.h_keep) ** 2 == pytest.approx(DECAYED_KEEP_075PI, abs=1e-9)
    assert abs(conv.h_keep) ** 2 + abs(conv.h_env) ** 2 < 1.0


def test_decayed_conversion_reduces_to_ideal_transfer():
    jc = JCParams.from_detuning(g=1.0, delta=0.7, t=1.9, nu=0.4)
    conv = decayed_conversion(jc, DecayParams(kappa=0.0, gamma_at=0.0), 1.9)
    assert complex(conv.h_keep) == pytest.approx(transfer_amplitude(jc), abs=1e-12)
    assert abs(conv.h_keep) ** 2 + abs(conv.h_env) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_decayed_conversion_matches_integrator_coherences():
    # a p = r = 1/2 photon leaves r h_keep on <down,0|up,0> and r h_env on
    # <down,0|down,1>, so both amplitudes, magnitude and phase, are pinned
    # to the master-equation oracle
    init = _joint_init(QubitInput(p=0.5, r=0.5))
    for jc, d, t in oracle_grid()[::11]:
        conv = decayed_conversion(jc, d, t)
        rho = integrate_master_equation(jc, d, init, t)
        assert abs(conv.h_keep - 2.0 * rho[0, 2]) < 1e-6
        assert abs(conv.h_env - 2.0 * rho[0, 1]) < 1e-6


@given(params_strategy(), decay_strategy())
@settings(max_examples=80)
def test_decayed_amplitudes_never_exceed_unit_budget(jc, d):
    conv = decayed_conversion(jc, d, jc.t)
    total = abs(conv.h_keep) ** 2 + abs(conv.h_env) ** 2
    assert total <= 1.0 + 1e-12


@given(params_strategy(), decay_strategy())
@settings(max_examples=80)
def test_inequality_expression_identity(jc, d):
    # eta-scaled expression equals |h_env|^2 - |h_keep|^2
    conv = decayed_conversion(jc, d, jc.t)
    lhs = conv.constants.eta(jc.t) * degradability_expression(conv)
    rhs = abs(conv.h_env) ** 2 - abs(conv.h_keep) ** 2
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_degradability_booleans_spot():
    jc = JCParams.from_detuning(g=1.0, delta=0.0, t=math.pi / 2, nu=0.0)
    conv = decayed_conversion(jc, DecayParams(kappa=0.2, gamma_at=0.0), math.pi / 2)
    assert decay_degradability(conv)  # most amplitude lands on the atom
    conv_early = decayed_conversion(
        jc, DecayParams(kappa=0.2, gamma_at=0.0), math.pi / 8
    )
    assert not decay_degradability(conv_early)


@pytest.mark.parametrize("kappa, gamma_at, t, degradable", [
    (4.0, 0.0, 0.3, False),  # k2 t = 0.6 < 1: the field keeps more
    (4.0, 0.0, 0.7, True),  # k2 t = 1.4 > 1: the atom holds more
    (0.0, 4.0, 0.3, False),  # k2 = -2 < 0: 1 - k2 t > 0 at every t
    (0.0, 4.0, 2.0, False),
])
def test_critical_damping_takes_the_limit_of_the_sign_expression(kappa, gamma_at, t, degradable):
    # delta = 0 and |kappa - gamma_at| = 4 g: x = y = 0 and the combination
    # vanishes identically, but its sign is still the population gap's
    jc = JCParams.from_detuning(g=1.0, delta=0.0, t=t, nu=0.0)
    conv = decayed_conversion(jc, DecayParams(kappa=kappa, gamma_at=gamma_at), t)
    c = conv.constants
    assert (c.x, c.y) == (0.0, 0.0)
    gap = abs(conv.h_env) ** 2 - abs(conv.h_keep) ** 2
    assert (gap < 0.0) == degradable and abs(gap) > 0.05
    assert decay_degradability(conv) == degradable
    assert degradability_expression(conv) == pytest.approx(1.0 - c.k2 * t, abs=1e-15)
    assert c.eta(t) * degradability_expression(conv) == pytest.approx(gap, abs=1e-12)


def test_overdamped_constants_keep_the_identity_and_the_sign():
    # |kappa - gamma_at| > 2 sqrt(4 g^2 + delta^2): z < 0, where derive_constants takes x off the
    # radical and y from x y = k2 delta; no oracle-grid point (kappa <= 0.5) reaches that branch
    gaps = []
    for kappa, gamma_at, delta in itertools.product((4.5, 5.0, 8.0), (0.0, 0.5), (0.0, 1.0, -1.0, 2.0)):
        if abs(kappa - gamma_at) <= 2.0 * math.hypot(2.0, delta):
            continue
        for t in np.linspace(0.0, 6.0, 25).tolist():
            jc = JCParams.from_detuning(g=1.0, delta=delta, t=t, nu=0.0)
            conv = decayed_conversion(jc, DecayParams(kappa=kappa, gamma_at=gamma_at), t)
            c = conv.constants
            assert c.z < 0.0 and c.x > 0.0
            gap = abs(conv.h_keep) ** 2 - abs(conv.h_env) ** 2
            assert abs(c.eta(t) * degradability_expression(conv) + gap) <= 1e-12
            if abs(gap) > 1e-10:
                assert decay_degradability(conv) == (gap > 0.0)
            gaps.append(gap)
    assert len(gaps) == 17 * 25
    assert min(gaps) < -1e-10 and max(gaps) > 1e-10  # both verdicts are checked


def test_oracle_grid_shape():
    grid = oracle_grid()
    assert len(grid) == 216
    assert len(grid) >= 200
    gs = {params.g for params, _, _ in grid}
    assert gs == {1.0}


@pytest.mark.parametrize("t", [math.inf, math.nan, -3.0])
@pytest.mark.parametrize("call", [
    lambda jc, d, t: integrate_master_equation(jc, d, _joint_init(_REF_INPUT), t),
    lambda jc, d, t: closed_form_state(jc, d, _REF_INPUT, t),
    lambda jc, d, t: decayed_conversion(jc, d, t),
], ids=["integrate_master_equation", "closed_form_state", "decayed_conversion"])
def test_edge_times_raise_a_clear_error(call, t):
    jc = JCParams.resonant(g=1e-8, t=1.0)
    with pytest.raises(ValueError, match=r"time t must be finite and nonnegative, got"):
        call(jc, DecayParams(kappa=0.1, gamma_at=0.0), t)


def _closed_form_by_hand(jc, d, init, t):
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


@pytest.mark.parametrize("init", [_REF_INPUT, QubitInput(p=1.0, r=0.0)], ids=["coherent", "photon"])
def test_closed_form_columns_equal_the_per_point_body_bit_for_bit(init):
    # the decay oracle grid (t = 0 included), the decay-free check's times, then a rate beyond the float range
    no_decay = DecayParams(kappa=0.0, gamma_at=0.0)
    points = oracle_grid() + [
        (JCParams.resonant(g=1.0, t=gt, nu=0.25), no_decay, gt) for gt in np.linspace(0.0, 2.0 * math.pi, 25).tolist()
    ] + [(JCParams.resonant(g=1.0, t=1.0), DecayParams(kappa=1e150, gamma_at=0.0), 1.0)]
    columns = np.array([(jc.g, jc.nu, jc.omega, t, d.kappa, d.gamma_at) for jc, d, t in points])
    got = closed_form_columns(init, *columns.T)
    assert got.shape == (len(points), 4, 4)
    for i, point in enumerate(points[:-1]):
        assert got[i].tobytes() == _closed_form_by_hand(*point[:2], init, point[2]).tobytes(), i
        assert got[i].tobytes() == closed_form_state(*point[:2], init, point[2]).tobytes(), i
    assert np.isnan(got[-1, :3, :3]).all()
    for call in (_closed_form_by_hand, closed_form_state):
        with pytest.raises(ValueError, match="the propagator leaves the float range at t = 1.0"):
            call(*points[-1][:2], init, points[-1][2])
    # times closed_form_state rejects give NaN states
    assert np.isnan(closed_form_columns(init, 1.0, 0.0, 0.0, np.array([-1.0, np.inf, np.nan]))[:, :3, :3]).all()
