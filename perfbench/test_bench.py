"""Tests of the benchmark itself: checker, self time, tracer removal, contract.

  PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from jcchannel import capacity, cli, lindblad, verify  # noqa: E402
from tracer import Tracer, leftover_wrappers, self_times  # noqa: E402


def _main(argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


@pytest.fixture(scope="module")
def small_sweep():
    sweep = workloads.conversion_sweep(seed=3, t_count=24, delta_count=10)
    return sweep, _main(sweep.argv())


def _corrupt(text: str, column: int, change) -> str:
    """Apply change to one cell of the first degradable row with Q > 0."""
    lines = text.splitlines()
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if cells[12] == "degradable" and float(cells[13]) > 0.0:
            cells[column] = change(cells[column])
            lines[i] = ",".join(cells)
            return "\n".join(lines) + "\n"
    raise AssertionError("no degradable row in the sample sweep")


def test_checker_accepts_real_sweep(small_sweep):
    sweep, output = small_sweep
    verdict = check.check_sweep(sweep, output, seed=3)
    assert verdict.attempted == sweep.points
    assert verdict.failed == 0, verdict.problems


@pytest.mark.parametrize(
    "column, change",
    [
        (13, lambda q: repr(float(q) + 1e-4)),  # wrong Q
        (13, lambda q: "0.0"),  # degradable row stripped of its capacity
        (3, lambda t: repr(float(t) + 1e-9)),  # shifted t grid value
        (2, lambda d: repr(-float(d))),  # shifted delta grid value
        (10, lambda a: repr(float(a) * (1 + 1e-9))),  # wrong |h_keep|^2
    ],
)
def test_corrupted_row_is_an_error(small_sweep, column, change):
    sweep, (rc, text) = small_sweep
    verdict = check.check_sweep(sweep, (rc, _corrupt(text, column, change)), seed=3)
    assert verdict.failed == 1
    assert verdict.failed / verdict.attempted > 0


def test_missing_row_is_an_error(small_sweep):
    sweep, (rc, text) = small_sweep
    verdict = check.check_sweep(sweep, (rc, text.rsplit("\n", 2)[0] + "\n"), seed=3)
    assert verdict.failed == 1


def test_checker_judges_queries():
    queries = workloads.capacity_queries(seed=5, count=60)
    outputs = [_main(q.argv()) for q in queries]
    assert check.check_queries(queries, outputs, seed=5).failed == 0
    i = next(i for i, (q, out) in enumerate(zip(queries, outputs)) if q.json and '"Q": 0.0' not in out[1])
    obj = json.loads(outputs[i][1])
    obj["Q"] += 1e-4
    outputs[i] = (0, json.dumps(obj))
    assert check.check_queries(queries, outputs, seed=5).failed == 1


def test_decayed_shares_match_integrator():
    sweep = workloads.decayed_sweep(seed=2, kappa_count=4, gamma_count=3)
    rc, text = _main(sweep.argv())
    assert check.check_sweep(sweep, (rc, text), seed=2).failed == 0
    lines = text.splitlines()
    cells = lines[5].split(",")
    cells[10] = repr(float(cells[10]) + 1e-5)
    lines[5] = ",".join(cells)
    corrupted = "\n".join(lines) + "\n"
    # every row is in the integrator sample of a 12-point sweep
    assert check.check_sweep(sweep, (rc, corrupted), seed=2).failed == 1


def test_self_time_is_span_minus_union_of_children():
    spans = [
        ("root", 0.0, 10.0, -1, 1),
        ("a", 1.0, 4.0, 0, 1),
        ("b", 3.0, 6.0, 0, 1),  # overlaps a: the union counts [3, 4] once
        ("c", 8.0, 12.0, 0, 1),  # runs past its parent: only [8, 10] counts
        ("leaf", 1.5, 2.5, 1, 1),  # grandchild: subtracted from a, not from root
    ]
    own, inclusive, calls = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own["a"] == pytest.approx(3.0 - 1.0)
    assert own["b"] == pytest.approx(3.0)
    assert inclusive["root"] == pytest.approx(10.0)
    assert calls == {"root": 1, "a": 1, "b": 1, "c": 1, "leaf": 1}


def _namespaces():
    modules = (cli, capacity, lindblad, verify)
    return {m.__name__: dict(vars(m)) for m in modules} | {
        "RunRecord": dict(vars(cli.RunRecord)),
        "JCParams": dict(vars(cli.JCParams)),
    }


def test_traced_run_leaves_no_wrapper():
    before = _namespaces()
    tracer = Tracer()
    with tracer.installed():
        assert cli.quantum_capacity.__wrapped__ is before["jcchannel.cli"]["quantum_capacity"]
        assert leftover_wrappers(), "tracer installed nothing"
        sweep = workloads.conversion_sweep(seed=1, t_count=6, delta_count=4)
        assert _main(sweep.argv())[0] == 0
        for query in workloads.capacity_queries(seed=1, count=12):
            assert _main(query.argv())[0] == 0
    own, _, calls = self_times(tracer.drain())
    assert calls["cli.main"] == 13 and tracer.request == 13
    assert calls["cli.compute_record"] == 24 + 12
    assert tracer.counts["capacity.objective_evals"] > 0
    assert leftover_wrappers() == []
    after = _namespaces()
    for name, namespace in before.items():
        assert all(after[name][k] is v for k, v in namespace.items()), name


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_wrong_record_fails_once_per_pass():
    # one deterministically wrong record of 10, repeated byte for byte by 5 passes
    attempted, failed = run.failure_counts(10, 5, wrong=1, mismatched=0)
    assert (attempted, failed) == (50, 5)
    assert failed / attempted == pytest.approx(0.1)
    # a record that changes between passes fails in each pass where it differs
    assert run.failure_counts(10, 5, wrong=0, mismatched=3) == (50, 3)
    assert run.failure_counts(10, 2, wrong=10, mismatched=10) == (20, 20)


def test_queries_cover_modes_and_formats_equally():
    queries = workloads.capacity_queries(seed=9)
    pairs = Counter((q.mode, q.json) for q in queries)
    assert len(pairs) == 6
    assert set(pairs.values()) == {len(queries) // 6}
