"""jcchannel benchmark: one workload, one seed, one result line.

  python3 perfbench/run.py --workload sweep-conversion --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  It times fresh interpreters through set-up,
runs the workload in a child process for --seconds, checks the first pass's
outputs against an independent oracle and prints a readable report.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, or the per-layer
metrics of a separate traced run with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import SPANS  # noqa: E402

SETUP_PROBES = 15  # fresh interpreters timed per run, besides the measured child
CHILD_TIMEOUT_S = 150

VERIFY_SUITE_NAMES = (
    "kraus-completeness",
    "unitary-oracle",
    "amplitude-completeness",
    "degrading-composition",
    "capacity-goldens",
    "coherent-info-two-route",
    "concatenation-law",
    "lindblad-closed-form",
    "degradability-equivalence",
    "capacity-monotonicity",
)

# (name, unit) of the result line with --trace 0
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("request_ms_p50", "ms"),
    ("request_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)

# span calls and tracer counters reported per pass with --trace 1
_CALL_COUNTS = (
    ("cli.compute_record_calls", "cli.compute_record"),
    ("cli.format_calls", "cli.format"),
    ("channels.build_calls", "channels.build"),
    ("capacity.optimize_calls", "capacity.optimize"),
    ("lindblad.closed_form_calls", "lindblad.closed_form"),
    ("lindblad.integrate_calls", "lindblad.integrate"),
)
_COUNTERS = (
    "jc.amplitude_calls",
    "capacity.objective_evals",
    "qmat.binary_entropy_calls",
    "qmat.eigen_calls",
)

# spans whose own name would hide that only their self time is reported
_SELF_ONLY = ("cli.main", "verify.run")


def span_metric(span: str) -> str:
    """Result-line name of a span's self seconds per traced pass."""
    return f"{span}_self_s" if span in _SELF_ONLY else f"{span}_s"


# (name, unit) of the result line with --trace 1
PER_LAYER = (
    (("trace.wall_s", "s"), ("trace.overhead_s", "s"))
    + tuple((span_metric(span), "s") for span in SPANS)
    + tuple((f"verify.suite.{suite}_s", "s") for suite in VERIFY_SUITE_NAMES)
    + tuple((name, "count") for name, _ in _CALL_COUNTS)
    + tuple((name, "count") for name in _COUNTERS)
    + (
        ("cli.emit_bytes", "bytes"),
        ("capacity.optimize_share", "fraction"),
        ("capacity.useful_optimize_ratio", "fraction"),
        ("capacity.label_q_mismatch_rows", "count"),
    )
)


def percentile(values, pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _child(args, extra) -> tuple:
    """Start a worker; return (perf_counter at start, parsed last line)."""
    cmd = [
        sys.executable, "-I", str(HERE / "worker.py"),
        "--root", str(ROOT), "--workload", args.workload, "--seed", str(args.seed),
    ] + extra
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark worker failed with exit code {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def failure_counts(records_per_pass: int, passes: int, wrong: int, mismatched: int) -> tuple:
    """(attempted, failed) over every pass of a run.

    The checker judges the first pass; ``wrong`` is its failed records.  A
    later pass that repeats a wrong record byte for byte repeats the error,
    so each wrong record fails once per pass, and every record that differs
    from the first pass fails too.  A wrong record that also differs is
    counted twice in that pass, so the total is capped at ``attempted``.
    """
    attempted = records_per_pass * passes
    return attempted, min(attempted, wrong * passes + mismatched)


def _per_layer(trace: dict, untraced_walls: list, emit_bytes: int, mismatch_rows: int) -> dict:
    passes = len(trace["walls"])
    wall = statistics.median(trace["walls"])
    self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]
    optimize = calls.get("capacity.optimize", 0)
    queries = calls.get("capacity.quantum_capacity", 0)
    out = {
        "trace.wall_s": wall,
        "trace.overhead_s": wall - statistics.median(untraced_walls),
    }
    out.update({span_metric(span): self_s.get(span, 0.0) / passes for span in SPANS})
    out.update({
        f"verify.suite.{suite}_s": trace["suite_s"].get(suite, 0.0) / passes
        for suite in VERIFY_SUITE_NAMES
    })
    out.update({name: calls.get(span, 0) / passes for name, span in _CALL_COUNTS})
    out.update({name: counts.get(name, 0) / passes for name in _COUNTERS})
    out["cli.emit_bytes"] = emit_bytes
    out["capacity.optimize_share"] = optimize / queries if queries else 0.0
    out["capacity.useful_optimize_ratio"] = (
        counts.get("capacity.optimize_useful", 0) / optimize if optimize else 0.0
    )
    out["capacity.label_q_mismatch_rows"] = mismatch_rows
    return out


def _print_trace_table(trace: dict, per_layer: dict) -> None:
    passes = len(trace["walls"])
    traced_total = sum(trace["walls"])
    print(f"traced run: {passes} passes, {trace['requests']} requests; per pass:")
    print(f"  {'span':32} {'self s':>10} {'inclusive s':>12} {'calls':>10} {'self/wall':>10}")
    for span in sorted(SPANS, key=lambda span: -trace["self_s"].get(span, 0.0)):
        own = trace["self_s"].get(span, 0.0)
        print(f"  {span_metric(span):32} {own / passes:10.6f} "
              f"{trace['inclusive_s'].get(span, 0.0) / passes:12.6f} "
              f"{trace['calls'].get(span, 0) / passes:10.0f} {own / traced_total:10.4f}")
    shown = {span_metric(span) for span in SPANS}
    for name, value in per_layer.items():
        if name not in shown:
            print(f"  {name:44} {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="jcchannel benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "jcchannel" / "__init__.py").is_file():
        print(f"no jcchannel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    _child(args, ["--setup-only"])  # fills __pycache__; users do not pay that per run
    setup = []
    for _ in range(SETUP_PROBES):
        start, probe = _child(args, ["--setup-only"])
        setup.append(probe["ready_at"] - start)
    spans_out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.csv"
    extra = ["--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_out.parent.mkdir(exist_ok=True)
        extra += ["--spans-out", str(spans_out)]
    start, result = _child(args, extra)
    setup.append(result["ready_at"] - start)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import check

    inputs = workloads.make_inputs(args.workload, args.seed)
    verdict = check.check(inputs, result["outputs"])
    walls, latencies = result["walls"], result["latencies"]
    trace = result["trace"]
    passes = len(walls) + (len(trace["walls"]) if trace else 0)
    mismatched = result["mismatched"] + (trace["mismatched"] if trace else 0)
    attempted, failed = failure_counts(inputs.records_per_pass, passes, verdict.failed, mismatched)

    wall = statistics.median(walls)
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "request_ms_p50": 1e3 * statistics.median(latencies),
        "request_ms_p90": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
    }
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
    }
    print("env " + json.dumps(env))
    print(f"untraced run: {len(walls)} passes, {len(latencies)} requests, "
          f"{inputs.records_per_pass} records per pass")
    units = dict(END_TO_END)
    for name, value in e2e.items():
        print(f"  {name:20} {value:14.6f} {units[name]}")
    # p99 is printed only: on a shared machine its run-to-run spread is too
    # wide to gate a change on (see README.md)
    p99 = 1e3 * percentile(latencies, 99)
    print(f"  {'request_ms_p99':20} {p99:14.6f} ms (not in the result line)")
    if inputs.sweep is not None:
        print(f"  {'points_per_s':20} {inputs.records_per_pass / wall:14.6f} points/s")
    if inputs.queries:
        print(f"  {'query_ms_p50':20} {e2e['request_ms_p50']:14.6f} ms")
        print(f"  {'query_ms_p99':20} {p99:14.6f} ms")
    print(f"  {'error_rate':20} {failed / attempted:14.6f} fraction "
          f"({failed} of {attempted} records failed)")
    print(f"  label/Q mismatch rows per pass: {verdict.label_q_mismatch}")
    for problem in verdict.problems:
        print(f"  check: {problem}")
    if mismatched:
        print(f"  {mismatched} records differed from the first pass")

    if trace:
        emit_bytes = sum(len(text.encode()) for _, text in result["outputs"])
        metrics = _per_layer(trace, walls, emit_bytes, verdict.label_q_mismatch)
        _print_trace_table(trace, metrics)
        print(f"  spans of the first traced pass: {spans_out.relative_to(ROOT)}")
        units = dict(PER_LAYER)
    else:
        metrics = e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
