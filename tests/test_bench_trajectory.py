"""Schema of the committed benchmark trajectory, BENCH_<issue>.json at the repo root.

Each file holds the result lines of perfbench/run.py for the runs a change
reports, for the parent commit and for the change, with the env line each
run printed before its result.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
UNITS = {
    0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
    1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
}


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_file_schema(path):
    doc = json.loads(path.read_text())
    assert doc["issue"] == int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))
    assert isinstance(doc["machine"], str) and doc["machine"]
    assert isinstance(doc["command"], str) and "perfbench/run.py" in doc["command"]
    sides = {}
    for run in doc["runs"]:
        assert run["side"] in ("parent", "change")
        env, result = run["env"], run["result"]
        assert env["workload"] in WORKLOADS
        assert isinstance(env["seed"], int) and env["seconds"] > 0
        assert env["trace"] in (0, 1)
        assert isinstance(result["correct"], bool)
        assert 0 <= result["failed"] <= result["attempted"]
        metrics = result["metrics"]
        assert set(metrics) == set(UNITS[env["trace"]])
        for name, metric in metrics.items():
            assert metric["unit"] == UNITS[env["trace"]][name]
            assert isinstance(metric["value"], (int, float))
        sides.setdefault(env["workload"], set()).add(run["side"])
    assert sides and all(s == {"parent", "change"} for s in sides.values())
