"""Smoke test of the benchmark itself: every workload at minimum size.

Run from the repository root with ``python3 -m pytest -q bench/test_smoke.py``
(about half a minute).  It checks that the metric names and units match
BENCHMARK.json, that every child span lies inside its parent, and that the
benchmark refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_of(run_bench(workload, 0))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_nested_spans(workload):
    result = result_of(run_bench(workload, 1))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    spans = json.loads((ROOT / ".bench_run" / workload / "spans.json").read_text())["spans"]
    assert spans
    for idx, (name, start, end, parent, _) in enumerate(spans):
        assert start <= end, name
        if parent >= 0:
            assert parent < idx
            assert spans[parent][1] <= start and end <= spans[parent][2], (name, spans[parent][0])


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".bench_run" / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(WORKLOADS[0], 0, root=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
