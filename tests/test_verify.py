"""The verify oracles: stacked matrix exponentials, the first failing point of a batched suite, the tolerance table."""

import math

import numpy as np
import pytest

from jcchannel import capacity, jc, verify
from jcchannel.verify import TOLERANCES, expm_taylor, run_verify


def test_stacked_expm_equals_single_calls():
    rng = np.random.default_rng(20261018)
    norms = (0.0, 0.1, 0.25, 0.4, 0.9, 1.7, 3.5, 7.0, 30.0, 200.0)
    # halvings until the max-column-sum norm is at most 1/4: k = 0 (the zero matrix too) up to 10
    assert [max(0, math.ceil(math.log2(n / 0.25))) if n else 0 for n in norms] == [0, 0, 0, 1, 2, 3, 4, 5, 7, 10]
    mats = []
    for norm in norms:
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        mats.append(m * norm / np.max(np.sum(np.abs(m), axis=0)))
    stack = np.array(mats * 3).reshape(3, 10, 4, 4)
    out = expm_taylor(stack)
    assert out.shape == stack.shape
    assert np.array_equal(out[0, 0], np.eye(4))
    for i, j in np.ndindex(3, 10):
        assert np.array_equal(out[i, j], expm_taylor(stack[i, j]))


def _suite(report, name):
    return next(r for r in report.results if r.name == name)


def test_unitary_oracle_names_its_first_failing_point(monkeypatch):
    grid = np.linspace(0.0, 2.0 * math.pi, 5), np.linspace(-3.0, 3.0, 5), np.linspace(-2.0, 2.0, 5)
    early, late = (
        jc.JCParams.from_detuning(g=1.0, delta=float(grid[1][d]), t=float(grid[0][t]), nu=float(grid[2][n]))
        for t, d, n in ((1, 4, 3), (3, 0, 1))
    )
    closed = jc.joint_unitary

    def perturbed(params):
        # the later point is off by more, so it holds the maximum deviation
        return closed(params) + {early: 1e-6, late: 1e-3}.get(params, 0.0)

    monkeypatch.setattr(jc, "joint_unitary", perturbed)
    result = _suite(run_verify("quick"), "unitary-oracle")
    assert not result.passed
    assert result.detail == f"unitary mismatch at {early}"
    assert result.max_dev == pytest.approx(1e-3, rel=1e-6)


def test_coherent_info_suite_names_its_first_failing_point(monkeypatch):
    closed = capacity.coherent_information_diagonal
    grid = np.linspace(0.0, 1.0, 11)

    def perturbed(a, p):
        shift = {(grid[6], grid[2]): 1e-6, (grid[8], grid[1]): 1e-3}.get((a, p), 0.0)
        return closed(a, p) + shift

    monkeypatch.setattr(capacity, "coherent_information_diagonal", perturbed)
    result = _suite(run_verify("quick"), "coherent-info-two-route")
    assert not result.passed
    assert result.detail == f"route mismatch at a={grid[6]} p={grid[2]}"
    assert result.max_dev == pytest.approx(1e-3, rel=1e-6)


@pytest.mark.parametrize("name", [n for n in TOLERANCES if n != "degradability-equivalence"])
def test_each_suite_fails_when_its_tolerances_in_the_table_are_negative(name, monkeypatch):
    monkeypatch.setitem(TOLERANCES, name, dict.fromkeys(TOLERANCES[name], -1.0))
    assert not verify._suite(name, dict(verify._SUITES)[name], "quick").passed


def test_degradability_equivalence_reads_its_tie_band_from_the_table(monkeypatch):
    name = "degradability-equivalence"
    monkeypatch.setitem(TOLERANCES, name, {"tie_band": 1.0})  # every point is a tie: none checked
    result = verify._suite(name, dict(verify._SUITES)[name], "quick")
    assert result.passed and result.max_dev == 0.0
    assert list(TOLERANCES) == [n for n, _ in verify._SUITES]
