"""One-amplitude channel family: construction, composition, extension."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jcchannel.channels import (
    LossChannel,
    TransferChannel,
    compose,
    concatenate,
    concatenate_columns,
    conversion_channel,
    extended_apply,
    extended_state,
    reception_channel,
    squares,
)
from jcchannel.jc import JCParams, channel_output, transfer_amplitude
from jcchannel.qmat import (
    QubitInput,
    check_state,
    hermitian_eigenvalues,
    partial_trace,
    trace_distance,
    von_neumann_entropy,
)


def unit_channels():
    def build(s):
        a, ph1, ph2 = s
        return TransferChannel(
            h_keep=math.sqrt(a) * complex(math.cos(ph1), math.sin(ph1)),
            h_env=math.sqrt(1.0 - a) * complex(math.cos(ph2), math.sin(ph2)),
        )

    return st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=2 * math.pi),
        st.floats(min_value=0.0, max_value=2 * math.pi),
    ).map(build)


def qubit_inputs():
    return st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=2 * math.pi),
    ).map(
        lambda s: QubitInput(
            p=s[0],
            r=math.sqrt(s[0] * (1 - s[0])) * s[1] * complex(math.cos(s[2]), math.sin(s[2])),
        )
    )


def test_validation_rejects_oversized_amplitudes():
    with pytest.raises(ValueError):
        TransferChannel(h_keep=1.2, h_env=0.0)
    with pytest.raises(ValueError):
        TransferChannel(h_keep=0.9, h_env=0.9)  # squares sum above 1


@pytest.mark.parametrize("bad", [
    complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0),
    complex(-math.inf, 0.0), complex(0.0, math.inf), complex(0.0, -math.inf),
])
@pytest.mark.parametrize("side", ["h_keep", "h_env"])
def test_validation_rejects_non_finite_amplitudes(bad, side):
    with pytest.raises(ValueError, match="^channel amplitudes must be finite$"):
        TransferChannel(**{"h_keep": 0.6, "h_env": 0.3, side: bad})


def _stacked_cells(ch, p, r):
    """outputs as the cells broadcast, stacked and reshaped: the reference the one-array fill must equal."""
    h = complex(ch.h_keep)
    a = abs(h) ** 2
    rh = np.empty(np.broadcast(p, r).shape, dtype=complex)
    rh.real = np.real(r) * h.real - np.imag(r) * h.imag
    rh.imag = np.real(r) * h.imag + np.imag(r) * h.real
    cells = np.broadcast_arrays(1.0 - np.multiply(p, a), rh, np.conj(rh), np.multiply(p, a))
    return np.stack(cells, axis=-1).reshape(rh.shape + (2, 2))


@pytest.mark.parametrize("p, r", [
    (0.4, 0.2 + 0.1j),
    (1.0, 0.0),
    (np.float64(0.3), -0.25j),
    (np.linspace(0.05, 0.95, 7), 0.2 * np.exp(1j * np.arange(7))),
    (np.linspace(0.0, 1.0, 5), 0.0),
    (np.linspace(0.1, 0.9, 3)[:, None], 0.1 * np.cos(np.arange(4)) - 0.1j),
    (0.5, np.array([[0.1, -0.2j], [0.3 + 0.1j, -0.0]])),
])
@pytest.mark.parametrize("h_keep", [0.6 + 0.3j, -0.8j, 1.0, 0.0])
def test_outputs_equal_the_stacked_cells_bit_for_bit(h_keep, p, r):
    ch = TransferChannel(h_keep=h_keep, h_env=0.0)
    out, ref = ch.outputs(p, r), _stacked_cells(ch, p, r)
    assert out.shape == ref.shape
    assert np.array_equal(out, ref)
    assert out.tobytes() == ref.tobytes()  # signed zeros too


def test_leakage_channel_is_allowed():
    ch = TransferChannel(h_keep=0.6, h_env=0.3)
    assert ch.keep_prob + ch.env_prob < 1.0


def test_apply_matches_direct_formula():
    ch = TransferChannel(h_keep=0.6 + 0.3j, h_env=0.0)
    inp = QubitInput(p=0.4, r=0.2 + 0.1j)
    out = ch.apply(inp)
    a = abs(ch.h_keep) ** 2
    assert out[1, 1] == pytest.approx(0.4 * a)
    assert out[0, 0] == pytest.approx(1 - 0.4 * a)
    assert complex(out[0, 1]) == pytest.approx(inp.r * ch.h_keep)


@given(unit_channels(), qubit_inputs())
def test_apply_agrees_with_kraus_pair(ch, inp):
    a1, a2 = ch.kraus()
    m = inp.matrix
    via_kraus = a1 @ m @ a1.conj().T + a2 @ m @ a2.conj().T
    assert np.max(np.abs(ch.apply(inp) - via_kraus)) < 1e-12


@given(unit_channels(), qubit_inputs())
def test_apply_output_is_a_state(ch, inp):
    check_state(ch.apply(inp))


def test_conversion_channel_matches_joint_evolution():
    p = JCParams.from_detuning(g=1.2, delta=-0.8, t=2.3, nu=0.5)
    ch = conversion_channel(p)
    for inp in (QubitInput(p=0.3, r=0.25), QubitInput(p=1.0), QubitInput(p=0.5, r=0.5j)):
        assert np.max(np.abs(ch.apply(inp) - channel_output(inp, p))) < 1e-12


def test_reception_channel_same_transfer_probability():
    p = JCParams.from_detuning(g=0.9, delta=1.4, t=1.1, nu=0.0)
    assert reception_channel(p).keep_prob == pytest.approx(conversion_channel(p).keep_prob)
    # residual phases differ unless the stage is resonant
    assert reception_channel(p).h_env != conversion_channel(p).h_env


def test_complement_swaps_roles():
    ch = TransferChannel(h_keep=0.8j, h_env=0.6)
    cc = ch.complement()
    assert cc.h_keep == 0.6 and cc.h_env == 0.8j
    assert cc.complement() == ch


def test_loss_channel_range():
    with pytest.raises(ValueError):
        LossChannel(T=1.2)
    with pytest.raises(ValueError):
        LossChannel(T=-0.1)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_loss_channel_amplitudes_are_numpys_square_roots(tr):
    ch = LossChannel(T=tr).as_transfer()
    assert (ch.h_keep, ch.h_env) == (np.sqrt(tr), np.sqrt(1.0 - tr))


def test_loss_channel_action():
    loss = LossChannel(T=0.36)
    inp = QubitInput(p=0.5, r=0.5)
    out = loss.as_transfer().apply(inp)
    assert out[1, 1].real == pytest.approx(0.18)
    assert out[0, 1].real == pytest.approx(0.3)  # sqrt(T) r


@given(unit_channels(), unit_channels(), qubit_inputs())
def test_compose_equals_sequential_application(first, second, inp):
    chained = compose(first, second)
    hk = complex(first.h_keep) * complex(second.h_keep)
    assert chained.h_env == np.sqrt(max(0.0, 1.0 - abs(hk) ** 2))
    mid = QubitInput.from_matrix(first.apply(inp))
    direct = second.apply(mid)
    assert np.max(np.abs(chained.apply(inp) - direct)) < 1e-12


def test_concatenate_amplitude_product():
    e1 = JCParams.from_detuning(g=1.0, delta=0.4, t=1.7, nu=0.3)
    e2 = JCParams.from_detuning(g=1.5, delta=-0.6, t=0.9, nu=0.3)
    loss = LossChannel(T=0.7)
    ch = concatenate(e1, loss, e2)
    want = transfer_amplitude(e1) * math.sqrt(0.7) * transfer_amplitude(e2)
    assert complex(ch.h_keep) == pytest.approx(want, abs=1e-15)
    assert ch.keep_prob + ch.env_prob == pytest.approx(1.0, abs=1e-12)


def test_concatenate_equals_three_stage_composition():
    e1 = JCParams.from_detuning(g=1.0, delta=0.4, t=1.7, nu=0.3)
    e2 = JCParams.from_detuning(g=1.5, delta=-0.6, t=0.9, nu=0.3)
    loss = LossChannel(T=0.7)
    stage = compose(compose(conversion_channel(e1), loss.as_transfer()), reception_channel(e2))
    ch = concatenate(e1, loss, e2)
    inp = QubitInput(p=0.6, r=0.4)
    assert np.max(np.abs(stage.apply(inp) - ch.apply(inp))) < 1e-12


def test_concatenate_columns_equal_scalar_concatenate():
    rng = np.random.default_rng(20261019)
    n = 600
    # (g, delta, t, nu) of each point's two stages, each stage with its own nu
    draws = rng.uniform((0.1, -4.0, 0.0, -2.0), (3.0, 4.0, 8.0, 2.0), size=(n, 2, 4))
    tr = rng.uniform(0.0, 1.0, n)
    tr[::7], tr[3::7] = 0.0, 1.0
    draws[::5, 0, 2], draws[::3, 1, 2] = 0.0, 0.0
    draws[-1, 0, 0] = 1e200  # g^2 overflows: the scalar propagator raises
    h_keep, h_env = concatenate_columns(draws[:, 0, [0, 1, 3, 2]].T, tr, draws[:, 1, [0, 1, 3, 2]].T)
    keep_abs = abs(h_keep)
    keep_prob = np.minimum(squares(keep_abs), 1.0)
    for i in range(n - 1):
        e1, e2 = (JCParams.from_detuning(*stage) for stage in draws[i].tolist())
        ch = concatenate(e1, LossChannel(T=float(tr[i])), e2)
        assert complex(h_keep.real[i], h_keep.imag[i]) == ch.h_keep, i
        assert h_env[i] == ch.h_env and keep_prob[i] == ch.keep_prob, i
    e1, e2 = (JCParams.from_detuning(*stage) for stage in draws[-1].tolist())
    with pytest.raises(ValueError):
        concatenate(e1, LossChannel(T=float(tr[-1])), e2)
    assert np.isnan([h_keep.real[-1], h_keep.imag[-1], h_env[-1]]).all()
    accepted = TransferChannel.accepts(keep_abs, h_env, squares(keep_abs), squares(h_env))
    assert accepted[:-1].all() and not accepted[-1]


@given(unit_channels(), qubit_inputs())
def test_extended_state_is_a_state_of_rank_two(ch, inp):
    ext = extended_state(ch, inp)
    check_state(ext)
    lam = hermitian_eigenvalues(ext)
    assert abs(lam[2]) < 1e-10 and abs(lam[3]) < 1e-10


@given(unit_channels(), qubit_inputs())
def test_extended_state_marginal_is_channel_output(ch, inp):
    ext = extended_state(ch, inp)
    assert trace_distance(partial_trace(ext, "first"), ch.apply(inp)) < 1e-10


def test_extended_state_eigenvalues_diagonal_input():
    # canonical purification gives the pair (1 - p(1-a), p(1-a))
    ch = TransferChannel(h_keep=math.sqrt(0.7), h_env=math.sqrt(0.3))
    p = 0.4
    lam = hermitian_eigenvalues(extended_apply(ch, p))
    assert lam[0] == pytest.approx(1 - p * 0.3, abs=1e-12)
    assert lam[1] == pytest.approx(p * 0.3, abs=1e-12)


@given(unit_channels(), qubit_inputs())
def test_extended_entropy_independent_of_purification_route(ch, inp):
    # a diagonal input can also be purified through the eigen branch;
    # entropies of the extension must not care
    diag = QubitInput(p=inp.p, r=0.0)
    s_canon = von_neumann_entropy(extended_state(ch, diag))
    s_eigen = von_neumann_entropy(extended_state(ch, QubitInput(p=inp.p, r=1e-30)))
    assert s_canon == pytest.approx(s_eigen, abs=1e-8)
