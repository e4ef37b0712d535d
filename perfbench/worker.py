"""Benchmark child process: set up, run timed passes, then traced passes.

run.py starts one child per set-up probe and one per measured run, so the
set-up time covers a fresh interpreter and the peak memory is the
program's own:

  python3 -I perfbench/worker.py --root DIR --workload W --seed N --setup-only
  python3 -I perfbench/worker.py --root DIR --workload W --seed N \\
      --seconds S --trace 0|1 [--spans-out FILE]

Every request is an in-process ``jcchannel.cli.main`` call with its stdout
captured.  The child keeps the first pass's outputs for the checker in
run.py and compares every later pass with them.  It prints one JSON object
as its last line of stdout.
"""

import argparse
import contextlib
import io
import itertools
import json
import re
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, leftover_wrappers, self_times  # noqa: E402

# the only parts of an output allowed to vary between passes: the wall time
# that capacity --json reports and the per-suite seconds of the verify report
_VOLATILE = re.compile(r', "wall_time_s": [^,}]*|\(\d+\.\d+s\)')


def _call(cli, argv):
    """Run one request; return (exit code or error text, captured stdout)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as e:  # argparse rejects a request by exiting
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a raising request is a failed request, not a crash
        rc = f"{type(e).__name__}: {e}"
    return rc, buf.getvalue()


def _differing_records(first, later, records) -> int:
    """Records of one request whose output differs between two passes."""
    if first[0] != later[0]:
        return records
    a, b = _VOLATILE.sub("", first[1]), _VOLATILE.sub("", later[1])
    if a == b:
        return 0
    diff = sum(x != y for x, y in itertools.zip_longest(a.splitlines(), b.splitlines()))
    return min(diff, records)


class Passes:
    """Repeats passes over the requests until a deadline; keeps pass 1 outputs."""

    def __init__(self, cli, inputs, first=None):
        self.cli = cli
        self.requests = inputs.requests
        self.records = inputs.records_per_pass // len(inputs.requests)
        self.first = first
        self.walls, self.latencies = [], []
        self.mismatched = 0

    def run(self, seconds, after_pass=None):
        clock = time.perf_counter
        deadline = clock() + seconds
        while True:
            outputs = []
            pass_start = clock()
            for argv in self.requests:
                start = clock()
                outputs.append(_call(self.cli, argv))
                self.latencies.append(clock() - start)
            self.walls.append(clock() - pass_start)
            if self.first is None:
                self.first = outputs
            else:
                self.mismatched += sum(
                    _differing_records(a, b, self.records) for a, b in zip(self.first, outputs)
                )
            if after_pass is not None:
                after_pass(len(self.walls))
            if clock() >= deadline:
                return


def _write_spans(path, spans) -> None:
    origin = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("request,index,parent,name,start_s,end_s\n")
        for index, (name, start, end, parent, request) in enumerate(spans):
            fh.write(f"{request},{index},{parent},{name},{start - origin!r},{end - origin!r}\n")


def _traced(cli, inputs, first, seconds, spans_out):
    tracer = Tracer()
    passes = Passes(cli, inputs, first=first)
    self_s, inclusive_s, calls = Counter(), Counter(), Counter()
    kept = []  # spans of the first traced pass, written out at the end

    def after_pass(n):
        spans = tracer.drain()
        for total, part in zip((self_s, inclusive_s, calls), self_times(spans)):
            total.update(part)
        if n == 1:
            kept.extend(spans)

    with tracer.installed():
        passes.run(seconds, after_pass)
    leftovers = leftover_wrappers()
    if leftovers:
        raise RuntimeError(f"tracer wrappers left installed: {leftovers}")
    if spans_out:
        _write_spans(spans_out, kept)
    return {
        "walls": passes.walls,
        "mismatched": passes.mismatched,
        "self_s": dict(self_s),
        "inclusive_s": dict(inclusive_s),
        "calls": dict(calls),
        "counts": dict(tracer.counts),
        "suite_s": dict(tracer.suite_seconds),
        "requests": tracer.request,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))
    import jcchannel
    from jcchannel import cli

    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    ready_at = time.perf_counter()
    if not Path(jcchannel.__file__).resolve().is_relative_to(src):
        print(f"jcchannel imported from {jcchannel.__file__}, not {src}", file=sys.stderr)
        return 1
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    # a traced run splits its time between the untraced and the traced passes
    seconds = args.seconds / 2 if args.trace else args.seconds
    passes = Passes(cli, inputs)
    passes.run(seconds)
    result = {
        "ready_at": ready_at,
        "walls": passes.walls,
        "latencies": passes.latencies,
        "mismatched": passes.mismatched,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "outputs": passes.first,
        "trace": None,
    }
    if args.trace:
        result["trace"] = _traced(cli, inputs, passes.first, seconds, args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
