"""In-memory span tracer for the calls into jcchannel's modules.

The tracer wraps public callables where their callers look them up: every
``jcchannel`` module namespace that holds the function, or the class
attribute for a method.  A span records name, start, end, parent span and
request; a request is one root call, i.e. one ``cli.main`` call.  Callables
that take only a few microseconds are counted, not timed, because a timer
on every call would cost more than the call.

Spans stay in memory; the caller drains them after each pass and writes
what it wants to keep.  ``remove`` restores every original, and
``leftover_wrappers`` proves it.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

# span name -> callables it times, as "module:qualname"
SPANS = {
    "cli.main": ("jcchannel.cli:main",),
    "cli.build_parser": ("jcchannel.cli:build_parser",),
    "cli.compute_record": ("jcchannel.cli:compute_record",),
    "cli.format": ("jcchannel.cli:RunRecord.csv_row", "jcchannel.cli:RunRecord.json_obj"),
    "jc.params": ("jcchannel.jc:JCParams.from_detuning",),
    "channels.build": ("jcchannel.channels:conversion_channel", "jcchannel.channels:concatenate"),
    "capacity.quantum_capacity": ("jcchannel.capacity:quantum_capacity",),
    "capacity.optimize": ("jcchannel.capacity:golden_section_max",),
    "lindblad.decayed_conversion": ("jcchannel.lindblad:decayed_conversion",),
    "lindblad.closed_form": ("jcchannel.lindblad:closed_form_state",),
    "lindblad.integrate": ("jcchannel.lindblad:integrate_master_equation",),
    "verify.run": ("jcchannel.verify:run_verify",),
    "verify.grid_oracle": ("jcchannel.capacity:capacity_grid_oracle",),
    "verify.expm": ("jcchannel.verify:expm_taylor",),
}

# counter name -> callables whose calls it counts without timing them
COUNTERS = {
    "jc.amplitude_calls": (
        "jcchannel.jc:transfer_amplitude",
        "jcchannel.jc:residual_amplitude",
        "jcchannel.jc:reception_residual_amplitude",
    ),
    "capacity.objective_evals": ("jcchannel.capacity:coherent_information_diagonal",),
    "qmat.binary_entropy_calls": ("jcchannel.qmat:binary_entropy",),
    "qmat.eigen_calls": ("jcchannel.qmat:hermitian_eigenvalues",),
}

_MARK = "_perfbench_wrapper"


def _package_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if name == "jcchannel" or name.startswith("jcchannel.")
    ]


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, request)
        self.counts = Counter()
        self.suite_seconds = Counter()  # verify suite name -> SuiteResult.seconds
        self.request = 0
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self._hooks = {
            "capacity.optimize": self._optimizer_result,
            "verify.run": self._verify_result,
        }

    # ------------------------------------------------------------ results

    def _optimizer_result(self, result) -> None:
        if result[1] > 0.0:
            self.counts["capacity.optimize_useful"] += 1

    def _verify_result(self, report) -> None:
        for suite in report.results:
            self.suite_seconds[suite.name] += suite.seconds

    # ----------------------------------------------------------- wrappers

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                self.request += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if hook is not None:
                hook(result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for name, targets in table.items():
                for target in targets:
                    mod_name, qualname = target.split(":")
                    owner = sys.modules[mod_name]
                    if "." in qualname:
                        cls_name, attr = qualname.split(".")
                        cls = getattr(owner, cls_name)
                        original = cls.__dict__[attr]
                        if isinstance(original, classmethod):
                            wrapped = classmethod(make(name, original.__func__))
                        else:
                            wrapped = make(name, original)
                        self._patch(cls, attr, original, wrapped)
                        continue
                    original = getattr(owner, qualname)
                    wrapped = make(name, original)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, key, original, wrapped)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def drain(self) -> list:
        """Return the spans recorded so far and forget them."""
        if self._stack:
            raise RuntimeError("cannot drain while a span is open")
        spans, self.spans[:] = list(self.spans), []
        return spans


def _is_wrapper(value) -> bool:
    if isinstance(value, (classmethod, staticmethod)):
        value = value.__func__
    return getattr(value, _MARK, False) is True


def leftover_wrappers() -> list:
    """Names of tracer wrappers still reachable from jcchannel's modules."""
    found = []
    for module in _package_modules():
        for key, value in vars(module).items():
            if _is_wrapper(value):
                found.append(f"{module.__name__}.{key}")
            elif isinstance(value, type) and value.__module__ == module.__name__:
                found += [
                    f"{module.__name__}.{key}.{attr}"
                    for attr, member in vars(value).items()
                    if _is_wrapper(member)
                ]
    return found


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the part of [lo, hi] that the union of intervals covers."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> tuple:
    """Per span name, (self seconds, inclusive seconds, calls).

    A span's self time is its duration minus the part of it that the
    union of its children's intervals covers.
    """
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    own, inclusive, calls = defaultdict(float), defaultdict(float), Counter()
    for index, (name, start, end, _, _) in enumerate(spans):
        own[name] += end - start - covered(start, end, children.get(index, ()))
        inclusive[name] += end - start
        calls[name] += 1
    return dict(own), dict(inclusive), dict(calls)
