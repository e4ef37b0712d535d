"""The benchmark's tracer still finds every callable it wraps.

perfbench/tracer.py looks each of them up by module and name, so deleting
or renaming one makes its install raise.  The tier-1 run leaves perfbench/
out; this test loads the tracer by path and installs it on the package.
"""

import importlib.util
from pathlib import Path

from jcchannel import cli  # noqa: F401  (the package does not import cli, and the tracer wraps its names)


def test_the_benchmark_tracer_installs_and_leaves_no_wrapper():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = tracer.Tracer()
    try:
        traced.install()
        assert tracer.leftover_wrappers(), "the tracer installed nothing"
    finally:
        traced.remove()  # also undoes a partial install
    assert tracer.leftover_wrappers() == []
