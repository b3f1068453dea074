"""Tests of the wall-clock benchmark itself, at tiny sizes.

Run from the repository root::

    python -m pytest wallbench/tests -q

Each test drives ``wallbench/run.py`` as a user would, in a fresh
process, and reads its printed lines and its last-line result object.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402


def run(workload, *extra, seed=5, trace=0, cwd=ROOT, script=BENCH / "run.py"):
    done = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done, lines, result


def printed(lines, name):
    """``(value, unit, clock)`` of the metric line for ``name``."""
    for line in lines:
        match = re.match(rf"\s+{re.escape(name)}\s+(\S+)\s+(\S+)\s+(\S+)", line)
        if match:
            return match.groups()
    return None


def test_benchmark_json_matches_the_catalogue():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "wallbench/run.py"]
    assert doc["paths"] == ["wallbench"]
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = [(m["name"], m["unit"], m["better"]) for m in spec.json_metrics(trace)]
        assert [(m["name"], m["unit"], m["better"]) for m in doc[key]] == want
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done, lines, result = run(workload, trace=trace)
    assert done.returncode == 0, done.stderr
    catalogue = spec.PER_LAYER if trace else spec.END_TO_END
    for m in catalogue:
        if m["json"] or workload in m["workloads"]:
            shown = printed(lines, m["name"])
            assert shown is not None, m["name"]
            assert shown[1:] == (m["unit"], m["clock"]), m["name"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {
        name: v["unit"] for name, v in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in spec.json_metrics(bool(trace))}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert any(line.strip().startswith("machine: cpu=") for line in lines)
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_a_perturbed_output_trips_the_check(workload):
    done, _, result = run(workload, "--perturb")
    assert done.returncode == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


@pytest.mark.parametrize(
    "workload, trace, names",
    [
        ("flock-emulated", 0, ["virtual_step_us"]),
        ("flock-emulated", 1, ["simgpu.warp_issues_per_step"]),
        ("serve-open-loop", 0, ["virtual_latency_p50_ms", "virtual_latency_p99_ms"]),
        ("serve-open-loop", 1, ["serve.queue_wait_ms_p50", "serve.batch_size_mean"]),
    ],
)
def test_virtual_figures_repeat_exactly(workload, trace, names):
    record = ROOT / ".wallbench" / f"{workload}-seed5-trace{trace}.json"
    values = []
    for _ in range(2):
        assert run(workload, trace=trace)[0].returncode == 0
        values.append(json.loads(record.read_text())["metrics"])
    for name in names:
        assert values[0][name] == values[1][name], name
        assert values[0][name] > 0


def test_a_tree_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "wallbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done, lines, result = run("flock-small", cwd=tmp_path,
                              script=tmp_path / "wallbench" / "run.py")
    assert done.returncode == 2
    assert result is None and not lines
