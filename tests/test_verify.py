"""The verify oracles: stacked matrix exponentials, the one verdict every suite's checks get, the tolerance table."""

import ast
import math
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from jcchannel import capacity, channels, jc, lindblad, qmat, verify
from jcchannel.verify import SUITES, expm_taylor, run_verify


def test_stacked_expm_equals_single_calls():
    rng = np.random.default_rng(20261018)
    norms = (0.0, 0.1, 0.25, 0.4, 0.9, 1.7, 3.5, 7.0, 30.0, 200.0)
    # halvings until the max-column-sum norm is at most 1/4: k = 0 (the zero matrix too) up to 10
    assert [max(0, math.ceil(math.log2(n / 0.25))) if n else 0 for n in norms] == [0, 0, 0, 1, 2, 3, 4, 5, 7, 10]
    mats = []
    for norm in norms:
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        mats.append(m * norm / np.max(np.sum(np.abs(m), axis=0)))
    # and their real parts, which stay real: the decay oracle's stacks
    for stack in (np.array(mats * 3).reshape(3, 10, 4, 4), np.array(mats * 3).real.reshape(3, 10, 4, 4)):
        out = expm_taylor(stack)
        assert out.shape == stack.shape and out.dtype == np.result_type(stack, float)
        assert np.array_equal(out[0, 0], np.eye(4))
        for i, j in np.ndindex(3, 10):
            assert out[i, j].tobytes() == expm_taylor(stack[i, j]).tobytes()


@pytest.mark.parametrize("seed", [0, verify._SEED, 2**70 + 3])
def test_draws_are_random_randoms_sequence_in_c_order(seed):
    draws, plain = verify.Draws(seed), random.Random(seed)
    got = draws.uniform(-1.5, 2.0, 7)
    assert got.shape == (7,) and got.tolist() == [-1.5 + 3.5 * plain.random() for _ in range(7)]
    low, high = np.array([0.0, -4.0, 0.1]), np.array([1.0, 4.0, 3.0])
    got = draws.uniform(low, high, size=(5, 3))
    want = [[lo + (hi - lo) * plain.random() for lo, hi in zip(low.tolist(), high.tolist())] for _ in range(5)]
    assert got.shape == (5, 3) and got.tolist() == want
    one = draws.uniform(0.5, 1.0)
    assert type(one) is float and one == 0.5 + 0.5 * plain.random()
    assert draws.uniform(size=0).shape == (0,) and draws.uniform(size=(0, 3)).shape == (0, 3)
    assert draws.uniform() == plain.random()  # an empty block takes no draw


def test_verify_and_degrade_never_load_numpy_random():
    script = (
        "import sys\n"
        "from jcchannel.cli import main\n"
        "main(['verify', 'quick'])\n"
        "main(['degrade', '--mode', 'conversion', '--g', '1', '--delta', '0.3', '--t', '1.2'])\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.random' or m.startswith('numpy.random.')))\n"
    )
    src = str(Path(verify.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], cwd=src, timeout=60, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_real_coordinates_round_trip_and_hold_each_liouvillian_exactly():
    rng = np.random.default_rng(20261021)
    m = rng.normal(size=(50, 4, 4)) + 1j * rng.normal(size=(50, 4, 4))
    vec = (m + m.conj().swapaxes(-1, -2)).reshape(50, 16)
    coords = lindblad._to_coordinates(vec)
    assert coords.dtype == float and coords.shape == (50, 16)
    assert lindblad._from_coordinates(coords).tobytes() == vec.tobytes()
    # L of every grid setting takes each coordinate's basis matrix to a Hermitian one: the real form drops nothing
    basis = lindblad._from_coordinates(np.eye(16))
    images = (lindblad._liouvillians(lindblad.oracle_grid()) @ basis.T).swapaxes(1, 2)
    assert np.array_equal(lindblad._from_coordinates(lindblad._to_coordinates(images)), images)
    assert np.array_equal(lindblad._to_coordinates(basis), np.eye(16))
    # the coordinates hold a Hermitian state only, so the oracle takes no other
    with pytest.raises(ValueError, match="initial state must be Hermitian"):
        lindblad.integrate_master_equations(lindblad.oracle_grid()[:1], np.triu(np.ones((4, 4))))


def test_stacked_kraus_completeness_equals_the_per_sample_expression():
    (_, devs, _), = verify._kraus_completeness("full")
    devs = np.asarray(devs)
    draws = verify.Draws(verify._SEED).uniform(*verify._PARAM_BOUNDS, size=(1000, 4))
    samples = [jc.JCParams.from_detuning(*row) for row in draws.tolist()]
    per_sample = np.array([
        np.max(np.abs(a1.conj().T @ a1 + a2.conj().T @ a2 - np.eye(2)))
        for a1, a2 in map(jc.kraus_operators, samples)
    ])
    assert devs.shape == per_sample.shape
    assert devs.tobytes() == per_sample.tobytes()


def _suite(report, name):
    return next(r for r in report.results if r.name == name)


def test_unitary_oracle_names_its_first_failing_point(monkeypatch):
    grid = np.linspace(0.0, 2.0 * math.pi, 5), np.linspace(-3.0, 3.0, 5), np.linspace(-2.0, 2.0, 5)
    early, late = (
        jc.JCParams.from_detuning(g=1.0, delta=float(grid[1][d]), t=float(grid[0][t]), nu=float(grid[2][n]))
        for t, d, n in ((1, 4, 3), (3, 0, 1))
    )
    closed = jc.joint_unitary_columns

    def perturbed(g, nu, omega, t):
        # the later point is off by more, so it holds the maximum deviation
        at = {(p.nu, p.omega, p.t): d for p, d in ((early, 1e-6), (late, 1e-3))}
        shift = np.array([at.get(point, 0.0) for point in zip(nu.tolist(), omega.tolist(), t.tolist())])
        return closed(g, nu, omega, t) + shift[:, None, None]

    monkeypatch.setattr(jc, "joint_unitary_columns", perturbed)
    result = _suite(run_verify("quick"), "unitary-oracle")
    assert not result.passed
    assert result.detail == f"unitary mismatch at {early}"
    assert result.max_dev == pytest.approx(1e-3, rel=1e-6)


def test_coherent_info_suite_names_its_first_failing_point(monkeypatch):
    closed = capacity.coherent_information_columns
    grid = np.linspace(0.0, 1.0, 11)

    def perturbed(a, p):
        a, p = np.broadcast_arrays(a, p)
        at = {(grid[6], grid[2]): 1e-6, (grid[8], grid[1]): 1e-3}
        shift = np.reshape([at.get(point, 0.0) for point in zip(a.ravel().tolist(), p.ravel().tolist())], a.shape)
        return closed(a, p) + shift

    monkeypatch.setattr(capacity, "coherent_information_columns", perturbed)
    result = _suite(run_verify("quick"), "coherent-info-two-route")
    assert not result.passed
    assert result.detail == f"route mismatch at a={grid[6]} p={grid[2]}"
    assert result.max_dev == pytest.approx(1e-3, rel=1e-6)


@pytest.mark.parametrize("name", list(SUITES))
def test_each_suite_fails_when_its_tolerances_in_the_table_are_negative(name, monkeypatch):
    checks, tolerances = SUITES[name]
    monkeypatch.setitem(SUITES, name, (checks, dict.fromkeys(tolerances, -1.0)))
    assert not verify._suite(name, "quick").passed


def test_degradability_equivalence_reads_its_tie_band_from_the_table(monkeypatch):
    name = "degradability-equivalence"
    monkeypatch.setitem(SUITES[name][1], "tie_band", 1.0)  # every point is a tie: none checked
    result = verify._suite(name, "quick")
    assert result.passed and result.max_dev == 0.0


def test_the_suite_table_names_the_suites_the_benchmark_times():
    # the benchmark's per-suite metrics, verify.suite.<name>_s, are keyed by these names; read without running
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "run.py").read_text(encoding="utf-8"))
    names = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["VERIFY_SUITE_NAMES"])
    assert list(names) == list(SUITES)


@pytest.mark.parametrize("entry", ["np.nan", "np.inf"])
def test_expm_rejects_a_non_finite_entry_without_hanging(entry):
    # an infinite norm never halves below 1/4: a scaling loop run on it would never end
    code = (
        "import numpy as np\n"
        "from jcchannel.verify import expm_taylor\n"
        "try:\n"
        f"    expm_taylor(np.array([[0.0, {entry}], [0.0, 0.0]]))\n"
        "except ValueError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(verify.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], cwd=src, timeout=30, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()


@pytest.mark.parametrize("matrix", ["np.full((2, 2), 1e308)", "np.diag([1e308, 0.0])", "np.diag([5e307, 0.0])"])
def test_expm_rejects_a_norm_or_result_past_the_float_range_at_once(matrix):
    # an infinite column sum once kept a halving loop from ending; 2.0**k past
    # k = 1023 once scaled the matrix to zero and returned the identity
    code = (
        "import time\n"
        "import numpy as np\n"
        "from jcchannel.verify import expm_taylor\n"
        "start = time.perf_counter()\n"
        "try:\n"
        f"    expm_taylor({matrix})\n"
        "except ValueError:\n"
        "    raise SystemExit(0 if time.perf_counter() - start < 1.0 else 2)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(verify.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], cwd=src, timeout=30, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_expm_past_the_float_range_raises_without_a_warning():
    # the column sum overflows in the first matrix, a squaring in the others
    for matrix in (np.full((2, 2), 1e308), np.diag([1e308, 1e308]), np.diag([1e308, 0.0]), np.diag([5e307, 0.0])):
        with pytest.raises(ValueError, match="expm_taylor"):
            expm_taylor(matrix)


def test_expm_scales_a_norm_past_two_to_the_1021_exactly():
    # k = 1026 halvings: the nilpotent part survives them and the squarings exactly
    out = expm_taylor(np.array([[0.0, 1e308], [0.0, 0.0]]))
    assert out.tolist() == [[1.0, 1e308], [0.0, 1.0]]
    decaying = expm_taylor(np.diag([-1e308, 0.0]))
    assert decaying.tolist() == [[0.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("x", [0.1, 0.25, 3.0, -7.5 + 2.0j, 1e5])
def test_expm_of_a_nilpotent_matrix_is_exactly_one_plus_it(x):
    # every power past the first is zero, so only the 1 and the 1/1! of the core reach the result
    a = np.array([[0.0, x], [0.0, 0.0]], dtype=complex)
    assert np.array_equal(expm_taylor(a), np.eye(2) + a)


def test_expm_of_a_quarter_shift_holds_each_taylor_coefficient_exactly():
    # N^j is the j-th superdiagonal up to N^12, and N^13 = 0; at norm 1/4 there is no
    # squaring, so entry [0, j] is 4^-j / j! to the last bit: every coefficient, even those below rounding
    out = expm_taylor(np.eye(13, k=1) / 4.0)
    assert out[0].tolist() == [4.0 ** -j / math.factorial(j) for j in range(13)]
    assert np.array_equal(np.triu(out), out) and np.array_equal(np.diag(out), np.ones(13))


@pytest.mark.parametrize("theta", [0.1, 1.0, 10.0, 100.0])
def test_expm_of_a_rotation_generator_is_the_rotation(theta):
    # the odd coefficients of the core give the sine, the even ones the cosine
    c, s = math.cos(theta), math.sin(theta)
    out = expm_taylor(np.array([[0.0, -theta], [theta, 0.0]]))
    assert np.max(np.abs(out - np.array([[c, -s], [s, c]]))) <= 1e-13 * max(1.0, theta)


@pytest.mark.parametrize("n", [4, 16])
def test_expm_of_minus_a_inverts_expm_of_a(n):
    rng = np.random.default_rng(20261020 + n)
    norms = (0.0, 0.1, 0.25, 0.4, 0.9, 1.7, 3.5, 7.0, 30.0, 200.0)  # k = 0 up to 10, as above
    mats = []
    for norm in norms:
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m -= m.conj().T  # anti-Hermitian: exp(A) is unitary, so the product is well conditioned
        mats.append(m * norm / max(np.max(np.sum(np.abs(m), axis=0)), 1.0))
    a = np.array(mats)
    assert np.max(np.abs(np.max(np.sum(np.abs(a), axis=1), axis=1) - np.array(norms))) < 1e-12
    product = expm_taylor(a) @ expm_taylor(-a)
    assert np.max(np.abs(product - np.eye(n))) <= 1e-12


def test_coherent_info_columns_equal_each_channels_outputs(monkeypatch):
    grid = np.linspace(0.0, 1.0, 51)
    seen, eigenvalues = [], qmat.hermitian_eigenvalues
    monkeypatch.setattr(verify, "hermitian_eigenvalues", lambda m: seen.append(np.shape(m)) or eigenvalues(m))
    built = {}
    for name in ("channel_outputs", "extended_columns"):
        monkeypatch.setattr(channels, name, lambda *args, f=getattr(channels, name), name=name: built.setdefault(name, f(*args)))
    for _ in verify._coherent_info_two_route("full"):
        pass
    monkeypatch.undo()  # TransferChannel.outputs calls channel_outputs too
    assert seen.count((51, 51, 4, 4)) == 1
    for i, a in enumerate(grid.tolist()):
        ph = complex(math.cos(0.3 * math.pi * a), math.sin(0.3 * math.pi * a))
        ch = channels.TransferChannel(h_keep=math.sqrt(a) * ph, h_env=math.sqrt(1.0 - a))
        assert built["channel_outputs"][i].tobytes() == ch.outputs(grid, 0.0).tobytes()
        assert built["extended_columns"][i].tobytes() == channels.extended_apply(ch, grid).tobytes()


@pytest.mark.parametrize("level", ["medium", "Quick", ""])
def test_run_verify_rejects_an_unknown_level(level):
    with pytest.raises(ValueError, match=r"^level must be 'quick' or 'full'$"):
        run_verify(level)


def _run(name):
    return verify._suite(name, "quick")


def test_unitary_oracle_fails_on_nan_and_names_its_point(monkeypatch):
    closed = jc.joint_unitary_columns
    monkeypatch.setattr(jc, "joint_unitary_columns",
                        lambda g, nu, omega, t: closed(g, nu, omega, t) * np.where(t > 3, np.nan, 1.0)[:, None, None])
    result = _run("unitary-oracle")
    first = next(
        jc.JCParams.from_detuning(g=1.0, delta=float(delta), t=float(t), nu=float(nu))
        for t in np.linspace(0.0, 2.0 * math.pi, 5)
        for delta in np.linspace(-3.0, 3.0, 5)
        for nu in np.linspace(-2.0, 2.0, 5)
        if t > 3
    )
    assert result.passed is False
    assert result.detail == f"unitary mismatch at {first}"
    assert math.isnan(result.max_dev)
    report = verify.VerifyReport(level="quick", results=(result,))
    assert report.render().startswith("FAIL unitary-oracle: max deviation nan (")


def test_lindblad_closed_form_fails_on_nan_at_one_grid_point(monkeypatch):
    params, decay, t = verify._lindblad_points("quick")[7]
    closed = lindblad.closed_form_columns

    def patched(inp, g, nu, omega, time, kappa=0.0, gamma=0.0):
        state = closed(inp, g, nu, omega, time, kappa, gamma)
        at = (g == params.g) & (nu == params.nu) & (omega == params.omega) & (time == t)
        at &= (kappa == decay.kappa) & (gamma == decay.gamma_at)
        return np.where(at[..., None, None], state * np.nan, state)

    monkeypatch.setattr(lindblad, "closed_form_columns", patched)
    result = _run("lindblad-closed-form")
    assert result.passed is False
    assert result.detail == f"closed form off at {params} {decay} t={t}"
    assert math.isnan(result.max_dev)


def test_a_loose_check_cannot_hide_a_later_tight_breach_in_the_lindblad_suite(monkeypatch):
    closed = lindblad.closed_form_columns

    def patched(inp, *columns):
        # 1e-7 passes closed_form's 1e-6 on the grid; 1e-8 breaks decay_free's 1e-9
        return closed(inp, *columns) + (1e-7 if inp is verify._DECAY_INPUT else 1e-8)

    monkeypatch.setattr(lindblad, "closed_form_columns", patched)
    result = _run("lindblad-closed-form")
    assert result.passed is False
    assert result.detail == "decay-free limit broken at g t=0.0"


def test_a_loose_check_cannot_hide_a_later_tight_breach_in_the_concatenation_suite(monkeypatch):
    concatenate_columns, capacity_columns = channels.concatenate_columns, capacity.capacity_columns
    calls, shifted = {"capacity": 0}, []

    def shifted_q(codes, keep_probs):
        # the first chain's Q is off by 5e-11: under phase's 1e-10, above every later deviation
        calls["capacity"] += 1
        q, p_star = capacity_columns(codes, keep_probs)
        if calls["capacity"] == 1:
            q[0] += 5e-11
        return q, p_star

    def shifted_keep(e1, tr, e2):
        # the second chain's keep share is off by 1e-11: above product's 1e-12
        h_keep, h_env = concatenate_columns(e1, tr, e2)
        first, second = (jc.JCParams.from_detuning(*(float(e[k][1]) for k in (0, 1, 3, 2))) for e in (e1, e2))
        shifted.append(f"{first}, T={float(tr[1])}, {second}")
        keep_prob = min(float(abs(h_keep)[1]) ** 2, 1.0)
        h_keep.real[1], h_keep.imag[1] = math.sqrt(keep_prob + 1e-11), 0.0
        return h_keep, h_env

    monkeypatch.setattr(capacity, "capacity_columns", shifted_q)
    monkeypatch.setattr(channels, "concatenate_columns", shifted_keep)
    result = _run("concatenation-law")
    assert result.passed is False
    assert result.detail == f"product law broken at {shifted[0]}"
    assert result.max_dev == pytest.approx(5e-11, rel=1e-3)


@pytest.mark.parametrize("name", ["kraus-completeness", "amplitude-completeness", "concatenation-law"])
def test_a_sample_whose_scalar_amplitudes_raise_fails_every_check(name, monkeypatch):
    # g^2 overflows, so block_propagator raises on every sample: no check may pass one
    low, high = verify._PARAM_BOUNDS
    monkeypatch.setattr(verify, "_PARAM_BOUNDS", ((1e200, *low[1:]), (1e201, *high[1:])))
    with pytest.raises(ValueError):
        jc.transfer_amplitude(jc.JCParams.from_detuning(g=1e200, delta=0.0, t=1.0))
    for _, devs, _ in SUITES[name][0]("quick"):
        assert np.isnan(devs).all()
    result = _run(name)
    assert result.passed is False
    assert math.isnan(result.max_dev)
    assert "e+200, nu=" in result.detail  # names the first sample


def test_stacked_unitary_oracle_equals_the_per_point_maxima():
    (_, devs, _), = verify._unitary_oracle("full")
    npts = np.linspace(0.0, 2.0 * math.pi, 10), np.linspace(-3.0, 3.0, 10), np.linspace(-2.0, 2.0, 10)
    grid = [
        jc.JCParams.from_detuning(g=1.0, delta=float(delta), t=float(t), nu=float(nu))
        for t in npts[0] for delta in npts[1] for nu in npts[2]
    ]
    numeric = expm_taylor(np.array([-1j * params.t * jc.hamiltonian(params) for params in grid]))
    per_point = np.array([np.max(np.abs(jc.joint_unitary(params) - u)) for params, u in zip(grid, numeric)])
    assert np.asarray(devs).tobytes() == per_point.tobytes()


# every suite's max deviation, as repr, on the samples of verify.Draws; lindblad-closed-form's are those of its
# exp(tL) oracle over real coordinates
MAX_DEVS = {
    "quick": {
        "kraus-completeness": "4.447344674646146e-16",
        "unitary-oracle": "9.619939965703525e-15",
        "amplitude-completeness": "6.661338147750939e-16",
        "degrading-composition": "1.967515994399625e-16",
        "capacity-goldens": "2.7050472972689477e-11",
        "coherent-info-two-route": "4.440892098500626e-16",
        "concatenation-law": "3.3306690738754696e-16",
        "lindblad-closed-form": "4.829470157119431e-15",
        "degradability-equivalence": "1.0824674490095276e-15",
        "capacity-monotonicity": "1.6069576597205894e-06",
    },
    "full": {
        "kraus-completeness": "5.551759735578066e-16",
        "unitary-oracle": "2.3063864607644457e-14",
        "amplitude-completeness": "8.881784197001252e-16",
        "degrading-composition": "2.3714374201337736e-16",
        "capacity-goldens": "2.7050472972689477e-11",
        "coherent-info-two-route": "1.1102230246251565e-15",
        "concatenation-law": "1.3461454173580023e-15",
        "lindblad-closed-form": "6.375148188898431e-15",
        "degradability-equivalence": "1.9984014443252818e-15",
        "capacity-monotonicity": "1.6069576597205894e-06",
    },
}


@pytest.mark.parametrize("level", ["quick", "full"])
def test_every_suite_max_deviation_is_pinned(level):
    report = run_verify(level)
    assert report.passed
    assert {r.name: repr(r.max_dev) for r in report.results} == MAX_DEVS[level]


def test_degradability_equivalence_gates_its_identity(monkeypatch):
    name = "degradability-equivalence"
    monkeypatch.setitem(SUITES[name][1], "identity", 1e-16)
    result = _run(name)
    assert result.passed is False
    assert result.detail.startswith("degradability identity off at ")


def test_degradability_equivalence_fails_on_a_boolean_mismatch(monkeypatch):
    monkeypatch.setattr(lindblad, "decay_degradability", lambda conv: False)
    result = _run("degradability-equivalence")
    assert result.passed is False
    assert result.detail.startswith("boolean mismatch at ")
    assert result.max_dev == math.inf


def test_degrading_composition_draws_each_side_as_one_block():
    # the block holds the draws one channel at a time made: its share and phases, then its inputs' (n, 3) block
    for level, n_ch, n_in in (("full", 100, 20), ("quick", 10, 5)):
        one_by_one, block = verify.Draws(verify._SEED + 2), verify.Draws(verify._SEED + 2)
        (_, _, describe), = verify._degrading_composition(level)
        for side, lo, hi in (("degradable", 0.5, 1.0), ("anti-degradable", 0.0, 0.5)):
            rows = []
            for c in range(n_ch):
                a = float(one_by_one.uniform(lo, hi))
                ph1, ph2 = (float(one_by_one.uniform(0.0, 2.0 * math.pi)) for _ in range(2))
                p, r = verify.random_inputs(one_by_one, n_in)
                rows.append((a, ph1, ph2, p, r))
                ch = channels.TransferChannel(h_keep=math.sqrt(a) * complex(math.cos(ph1), math.sin(ph1)),
                                              h_env=math.sqrt(1.0 - a) * complex(math.cos(ph2), math.sin(ph2)))
                row = np.int64(c + (n_ch if side == "anti-degradable" else 0))
                assert describe(row, np.int64(0)) == f"{side} composition off at {ch}"
            (in_low, in_high) = verify._INPUT_BOUNDS
            draws = block.uniform((lo, 0.0, 0.0) + in_low * n_in, (hi, 2.0 * math.pi, 2.0 * math.pi) + in_high * n_in,
                                  size=(n_ch, 3 + 3 * n_in))
            p, r = verify._inputs(draws[:, 3:].reshape(n_ch, n_in, 3))
            assert draws[:, :3].tobytes() == np.array([row[:3] for row in rows]).tobytes()
            assert p.tobytes() == np.array([row[3] for row in rows]).tobytes()
            assert r.tobytes() == np.array([row[4] for row in rows]).tobytes()
        assert block.uniform() == one_by_one.uniform()


def test_verify_full_makes_no_per_sample_scalar_call(monkeypatch):
    # every namespace that holds one of these functions gets a counting wrapper, as a tracer would install it
    targets = {jc: ("kraus_operators", "joint_unitary", "hamiltonian"), lindblad: ("closed_form_state",),
               capacity: ("golden_section_max", "coherent_information_diagonal"), qmat: ("binary_entropy",)}
    modules = [m for name, m in sorted(sys.modules.items()) if name == "jcchannel" or name.startswith("jcchannel.")]
    calls = Counter()
    for owner, names in targets.items():
        for name in names:
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
    assert run_verify("full").passed
    assert calls == Counter()
    jc.hamiltonian(jc.JCParams.resonant(g=1.0, t=1.0))
    capacity.coherent_information_diagonal(0.7, 0.5)  # calls binary_entropy twice
    assert calls == Counter(hamiltonian=1, coherent_information_diagonal=1, binary_entropy=2)
