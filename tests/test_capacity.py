"""Degradability classification, degrading-map construction, capacity."""

import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jcchannel import capacity
from jcchannel.capacity import (
    STATUSES,
    CapacityResult,
    DegradabilityStatus,
    NotDegradable,
    capacity_columns,
    capacity_grid_oracle,
    capacity_root,
    classify,
    GOLDEN,
    TIE_BAND,
    coherent_information,
    coherent_information_columns,
    coherent_information_diagonal,
    degrading_channel,
    degrading_map,
    degrading_map_columns,
    golden_section_lanes,
    golden_section_max,
    quantum_capacity,
    status_codes,
)
from jcchannel.channels import TransferChannel, compose
from jcchannel.jc import CArray, JCParams
from jcchannel.qmat import QubitInput, binary_entropy, binary_entropy_array, trace_distance

# Grid-oracle maxima (exhaustive p sweep, step 1e-5), frozen after one run.
GRID_Q_075 = 0.41503749925179323
GRID_Q_090 = 0.7094182634666657

# Golden-section maxima at the same points, frozen for regression tracking.
OPT_Q_075 = 0.41503749927884337
OPT_Q_090 = 0.7094182634736717
# Optima p*: at a = 3/4, ap = 1/3 and (1 - a)p = 1/9 make both log terms of
# the derivative 0.75 ln 2; at a = 0.9, the root of the derivative found by
# 60-digit decimal bisection on [0.43, 0.5].
OPT_P_075 = 4.0 / 9.0
OPT_P_090 = 0.46305823160590015


def _unit(a, ph_keep=0.0, ph_env=0.0):
    return TransferChannel(
        h_keep=math.sqrt(a) * complex(math.cos(ph_keep), math.sin(ph_keep)),
        h_env=math.sqrt(1.0 - a) * complex(math.cos(ph_env), math.sin(ph_env)),
    )


def test_classify_three_ways():
    assert classify(_unit(0.8)) is DegradabilityStatus.DEGRADABLE
    assert classify(_unit(0.2)) is DegradabilityStatus.ANTI_DEGRADABLE
    assert classify(_unit(0.5)) is DegradabilityStatus.BOUNDARY


def test_classify_tie_band():
    ch = TransferChannel(h_keep=math.sqrt(0.5) + 1e-13, h_env=math.sqrt(0.5))
    assert classify(ch) is DegradabilityStatus.BOUNDARY


def test_degrading_map_golden_duration():
    # |h_keep|^2 = 3/4 needs a second stage with g' t' = arcsin(1/sqrt(3))
    stage = degrading_map(_unit(0.75))
    assert stage.g == 1.0
    assert stage.t == pytest.approx(math.asin(1.0 / math.sqrt(3.0)), abs=1e-15)


def test_degrading_map_rejects_antidegradable():
    with pytest.raises(NotDegradable):
        degrading_map(_unit(0.3))


def test_degrading_map_rejects_leakage_channels():
    with pytest.raises(ValueError):
        degrading_map(TransferChannel(h_keep=0.8, h_env=0.1))


@given(
    st.floats(min_value=0.501, max_value=1.0),
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60)
def test_degrading_composition_reaches_complement(a, ph1, ph2, pin):
    ch = _unit(a, ph1, ph2)
    mapped = compose(ch, degrading_channel(ch))
    inp = QubitInput(p=pin, r=0.4 * math.sqrt(pin * (1 - pin)))
    dist = trace_distance(mapped.apply(inp), ch.complement().apply(inp))
    assert dist < 1e-9


def test_degrading_identity_channel():
    # nothing to degrade: the complement of a perfect transfer is total loss
    ch = _unit(1.0)
    stage = degrading_map(ch)
    assert stage.t == 0.0 or abs(math.sin(stage.rabi * stage.t)) < 1e-12


def test_coherent_information_routes_agree():
    for a in (0.55, 0.75, 0.93):
        ch = _unit(a, ph_keep=0.7)
        for p in (0.1, 0.5, 0.9):
            assert coherent_information(ch, p) == pytest.approx(
                coherent_information_diagonal(a, p), abs=1e-9
            )


def test_coherent_information_zero_input():
    assert coherent_information_diagonal(0.7, 0.0) == 0.0
    assert coherent_information_diagonal(0.7, 1.0) == 0.0  # H2 symmetry


def test_golden_section_on_parabola():
    x, v = golden_section_max(lambda x: -((x - 0.3) ** 2), 0.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-9)
    assert v == pytest.approx(0.0, abs=1e-15)


def test_grid_oracle_frozen_value():
    q, p = capacity_grid_oracle(0.75, step=1e-3)  # coarse rerun for speed
    assert q == pytest.approx(GRID_Q_075, abs=1e-6)
    assert p == pytest.approx(4.0 / 9.0, abs=2e-3)


@pytest.mark.parametrize("step", [-0.1, 0.0, -0.0, math.nan, math.inf, -math.inf, 1.5])
def test_grid_oracle_rejects_a_step_outside_0_1(step):
    with pytest.raises(ValueError, match=r"step must lie in \(0, 1\], got"):
        capacity_grid_oracle(0.75, step=step)


@pytest.mark.parametrize("step", [5e-324, 1e-12, 9e-9])
def test_grid_oracle_rejects_a_step_too_fine_at_once(step):
    # 1/5e-324 is inf, and 1e-12 would walk 10**12 grid points
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"step " + re.escape(repr(step)) + r" is too fine: 1/step must be at most 1e8"):
        capacity_grid_oracle(0.75, step=step)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("keep", [math.nan, math.inf, -math.inf, -0.2, 1.5])
def test_grid_oracle_rejects_a_keep_share_outside_0_1(keep):
    with pytest.raises(ValueError, match=r"keep share must lie in \[0, 1\], got " + re.escape(repr(keep))):
        capacity_grid_oracle(keep, step=1e-3)


def test_grid_oracle_takes_the_whole_interval_as_one_step():
    # the grid p = 0, 1 gives 0 at both ends
    assert capacity_grid_oracle(0.75, step=1.0) == (0.0, 0.0)


def test_capacity_perfect_transfer_exact():
    res = quantum_capacity(_unit(1.0))
    assert res.q == 1.0 and res.p_star == 0.5
    assert res.status is DegradabilityStatus.DEGRADABLE


def test_capacity_zero_cases_exact():
    for a in (0.5, 0.3, 0.0):
        res = quantum_capacity(_unit(a))
        assert res.q == 0.0 and res.p_star == 0.0
        assert res.status is not DegradabilityStatus.DEGRADABLE


def test_capacity_goldens_match_grid_oracle():
    assert quantum_capacity(_unit(0.75)).q == pytest.approx(GRID_Q_075, abs=1e-6)
    assert quantum_capacity(_unit(0.9)).q == pytest.approx(GRID_Q_090, abs=1e-6)


def test_capacity_optimizer_regression_values():
    r75 = quantum_capacity(_unit(0.75))
    r90 = quantum_capacity(_unit(0.9))
    assert r75.q == pytest.approx(OPT_Q_075, abs=1e-12)
    assert r75.p_star == pytest.approx(OPT_P_075, abs=1e-15)
    assert r90.q == pytest.approx(OPT_Q_090, abs=1e-12)
    assert r90.p_star == pytest.approx(OPT_P_090, abs=1e-15)


def test_capacity_phase_invariance():
    # phases shift keep_prob by at most one ulp, so demand near-exactness
    plain = quantum_capacity(_unit(0.8))
    rotated = quantum_capacity(_unit(0.8, ph_keep=1.1, ph_env=2.2))
    assert rotated.q == pytest.approx(plain.q, abs=1e-12)
    assert rotated.p_star == pytest.approx(plain.p_star, abs=1e-6)


def test_capacity_monotone_spot():
    assert quantum_capacity(_unit(0.6)).q < quantum_capacity(_unit(0.8)).q


def test_capacity_continuous_at_boundary():
    assert quantum_capacity(_unit(0.5 + 1e-6)).q < 1e-4


def test_leaky_channel_with_small_keep_share_has_zero_capacity():
    # degradable by amplitude comparison, but the kept share is too small
    ch = TransferChannel(h_keep=math.sqrt(0.4), h_env=math.sqrt(0.2))
    res = quantum_capacity(ch)
    assert res.status is DegradabilityStatus.DEGRADABLE
    assert res.q == 0.0


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60)
def test_capacity_bounds(a):
    res = quantum_capacity(_unit(a))
    assert 0.0 <= res.q <= 1.0
    assert 0.0 <= res.p_star <= 1.0


@given(st.floats(min_value=0.51, max_value=1.0))
@settings(max_examples=40)
def test_degradable_above_half_has_positive_capacity(a):
    assert quantum_capacity(_unit(a)).q > 0.0


def test_binary_entropy_array_matches_scalar_bit_for_bit():
    rng = np.random.default_rng(11)
    xs = np.concatenate([
        [0.0, 1.0, 0.5, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)],
        rng.uniform(0.0, 1.0, 5000),
        10.0 ** rng.uniform(-300.0, 0.0, 2000),
        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 2000),
    ])
    assert binary_entropy_array(xs).tolist() == [binary_entropy(x) for x in xs.tolist()]


def test_grid_oracle_equals_pointwise_scalar_grid():
    step = 1e-3
    for a in (0.75, 0.9, 0.5000001):
        ps = np.arange(1001) * step
        vals = [binary_entropy(a * p) - binary_entropy((1.0 - a) * p) for p in ps]
        i = int(np.argmax(vals))
        assert capacity_grid_oracle(a, step=step) == (vals[i], float(ps[i]))


def test_newton_root_gives_the_same_floats_alone_and_in_a_column():
    rng = np.random.default_rng(20261018)
    shares = np.concatenate([
        [np.nextafter(0.5, 1.0), 0.5 + 1e-15, 0.5 + 1e-9, 0.75, 0.9, 1.0 - 1e-12,
         1.0 - 1e-15, np.nextafter(1.0, 0.0)],
        rng.uniform(0.5, 1.0, 8000),
        0.5 + 10.0 ** rng.uniform(-15.0, -1.0, 1000),
        1.0 - 10.0 ** rng.uniform(-15.0, -1.0, 1000),
    ])
    assert np.all((shares > 0.5) & (shares < 1.0)) and len(shares) >= 10_000
    p_star, q = capacity_root(shares)
    alone = [capacity_root(a) for a in shares.tolist()]
    assert [(float(p), float(v)) for p, v in alone] == list(zip(p_star.tolist(), q.tolist()))


def _slope(a, p):
    """ln 2 times the derivative of H2(a p) - H2((1 - a) p)."""
    b = 1.0 - a
    return a * math.log((1.0 - a * p) / (a * p)) - b * math.log((1.0 - b * p) / (b * p))


def test_newton_root_lies_in_its_bracket_and_reaches_the_grid_maximum():
    rng = np.random.default_rng(7)
    shares = [0.5 + 1e-6, 0.75, 0.9, 1.0 - 1e-9, *rng.uniform(0.5, 1.0, 300).tolist()]
    for a in shares:
        assert _slope(a, 0.43) > 0.0 > _slope(a, 0.5), a
        p_star, q = capacity_root(a)
        assert 0.43 <= p_star <= 0.5
        assert q >= capacity_grid_oracle(a, step=1e-3)[0] - 1e-15, a


def test_capacity_columns_equal_quantum_capacity():
    chs = [
        _unit(1.0), _unit(0.5), _unit(0.3), _unit(0.0), _unit(0.75), _unit(0.9),
        _unit(0.8, ph_keep=1.1, ph_env=2.2), _unit(0.5 + 1e-6),
        TransferChannel(h_keep=math.sqrt(0.4), h_env=math.sqrt(0.2)),
        TransferChannel(h_keep=math.sqrt(0.6), h_env=math.sqrt(0.3)),
    ]
    keep = np.array([abs(complex(ch.h_keep)) for ch in chs])
    env = np.array([abs(complex(ch.h_env)) for ch in chs])
    codes = status_codes(keep, env)
    q, p_star = capacity_columns(codes, np.array([ch.keep_prob for ch in chs]))
    for ch, code, qi, pi in zip(chs, codes.tolist(), q.tolist(), p_star.tolist()):
        assert CapacityResult(STATUSES[code], qi, pi) == quantum_capacity(ch), ch
    empty = capacity_columns(np.zeros(0, dtype=int), np.zeros(0))
    assert [column.shape for column in empty] == [(0,), (0,)]


def test_capacity_columns_solve_nothing_without_a_searched_lane(monkeypatch):
    # perfect, boundary, anti-degradable and degradable with a <= 1/2: no lane needs a root
    chs = [_unit(1.0), _unit(0.5), _unit(0.3), _unit(0.0),
           TransferChannel(h_keep=math.sqrt(0.4), h_env=math.sqrt(0.2))]
    keep = np.array([abs(complex(ch.h_keep)) for ch in chs])
    env = np.array([abs(complex(ch.h_env)) for ch in chs])
    codes, keep_probs = status_codes(keep, env), np.array([ch.keep_prob for ch in chs])
    expected = [CapacityResult(STATUSES[code], 0.0, 0.0) for code in codes.tolist()]
    expected[0] = CapacityResult(DegradabilityStatus.DEGRADABLE, 1.0, 0.5)
    assert expected == [quantum_capacity(ch) for ch in chs]

    def unreachable(a):
        raise AssertionError(f"capacity_root called on {a!r}")

    monkeypatch.setattr(capacity, "capacity_root", unreachable)
    for n in (len(chs), 0):
        q, p_star = capacity_columns(codes[:n], keep_probs[:n])
        assert (q.dtype, p_star.dtype, q.shape, p_star.shape) == (float, float, (n,), (n,))
        got = zip(codes.tolist(), q.tolist(), p_star.tolist())
        assert [CapacityResult(STATUSES[c], qi, pi) for c, qi, pi in got] == expected[:n]
        assert not np.signbit(q).any() and not np.signbit(p_star).any()


def _golden_by_hand(f, lo, hi, tol=1e-10):
    a, b = lo, hi
    x1, x2 = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    f1, f2, steps = f(x1), f(x2), 0
    while b - a > tol:
        steps += 1
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
    xm = 0.5 * (a + b)
    return xm, f(xm), steps


def test_golden_section_lanes_equal_the_scalar_search_lane_by_lane():
    rng = np.random.default_rng(20261019)
    shares = rng.uniform(0.5, 1.0, 40)
    # brackets of widths from 1e-9 to 1, so lanes stop after different step counts; one starts already done
    lo = rng.uniform(0.0, 0.4, 40)
    hi = np.minimum(1.0, lo + np.logspace(-9.0, 0.0, 40))
    lo[7], hi[7] = 0.25, 0.25
    xs, best = golden_section_lanes(lambda p: coherent_information_columns(shares, p), lo, hi)
    steps = set()
    for i, (a, l, h) in enumerate(zip(shares.tolist(), lo.tolist(), hi.tolist())):
        x, v, n = _golden_by_hand(lambda p: coherent_information_diagonal(a, p), l, h)
        steps.add(n)
        assert golden_section_max(lambda p: coherent_information_diagonal(a, p), l, h) == (x, v), i
        assert (repr(float(xs[i])), repr(float(best[i]))) == (repr(x), repr(v)), i
    assert len(steps) > 20 and 0 in steps


def test_coherent_information_columns_equal_the_scalar_form():
    grid = np.linspace(0.0, 1.0, 51)
    got = coherent_information_columns(grid[:, None], grid)
    want = np.array([[coherent_information_diagonal(float(a), float(p)) for p in grid] for a in grid])
    assert got.tobytes() == want.tobytes()


def _degrading_map_by_hand(ch):
    hk, he = complex(ch.h_keep), complex(ch.h_env)
    ratio = min(1.0, abs(he) / abs(hk))
    if ratio <= TIE_BAND:
        return JCParams.resonant(g=1.0, t=0.0, nu=0.0)
    tp = math.asin(ratio)
    want = he / hk
    phase = math.remainder(math.atan2(want.imag, want.real) - 0.5 * math.pi, 2.0 * math.pi)
    return JCParams.resonant(g=1.0, t=tp, nu=phase / tp)


def test_degrading_map_columns_equal_the_per_channel_construction():
    rng = np.random.default_rng(20261020)
    chs = [_unit(*row) for row in rng.uniform((0.5, 0.0, 0.0), (1.0, 7.0, 7.0), size=(2000, 3)).tolist()]
    chs += [_unit(1.0, 0.3), _unit(0.5, 1.0, 2.0), _unit(1.0 - 2.0**-52, 1.0, 1.0)]
    keep, env = (CArray(np.array([complex(getattr(ch, h)).real for ch in chs]),
                        np.array([complex(getattr(ch, h)).imag for ch in chs])) for h in ("h_keep", "h_env"))
    t2, nu2 = degrading_map_columns(keep, env)
    for i, ch in enumerate(chs):
        want = _degrading_map_by_hand(ch)
        assert (repr(float(t2[i])), repr(float(nu2[i]))) == (repr(want.t), repr(want.nu)), i
        assert degrading_map(ch) == want, i
    assert t2[-3] == 0.0 and nu2[-3] == 0.0
