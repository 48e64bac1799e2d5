"""Self-tests for the benchmark.

    python3 -m pytest perfbench -q

Every workload runs at toy size (traced and untraced) and passes its output
checks; self time is checked on a synthetic span tree; the same seed gives
the same quality metrics twice; and a copy without the package sources
fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import Span, layer_metrics, percentile, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(out: Path, *args, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--scale", "toy", "--out", str(out), *args],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_passes_its_checks_at_toy_size(tmp_path, workload, trace):
    r = result_of(run_bench(tmp_path, "--workload", workload, "--seed", "5",
                            "--seconds", "1", "--trace", str(trace)))
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in r["metrics"].items()} == declared
    if trace:
        assert (tmp_path / f"{workload}-seed5.spans.jsonl").stat().st_size > 0
        assert "trace.overhead_s" in (tmp_path / f"{workload}-seed5.layers.md").read_text()


@pytest.mark.parametrize("workload", ["train", "score"])
def test_same_seed_gives_identical_quality_metrics(tmp_path, workload):
    quality = ("decode_throughput", "detection_error", "spikes_per_slot")
    runs = [
        result_of(run_bench(tmp_path, "--workload", workload, "--seed", "11", "--seconds", "1"))
        for _ in range(2)
    ]
    first, second = ({k: r["metrics"][k]["value"] for k in quality} for r in runs)
    assert first == second


def test_copy_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path / "out", "--workload", "gen", "--seed", "1", "--seconds", "1", root=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _tree() -> list[Span]:
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9]
    return [
        Span("iteration", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a1", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]


def test_self_time_subtracts_covered_child_intervals():
    assert self_times(_tree()) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 10.0, -1), Span("c", 1.0, 5.0, 0), Span("d", 4.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_layer_metrics_count_setup_once_and_average_iterations():
    spans = [
        Span("setup", 0.0, 4.0, -1),
        Span("cli.main", 0.0, 4.0, 0, info={"command": "gen"}),
        Span("dataset.example_rng", 1.0, 2.0, 1),
        Span("iteration", 10.0, 12.0, -1),
        Span("cli.main", 10.0, 12.0, 3, info={"command": "gen"}),
        Span("dataset.example_rng", 10.0, 11.0, 4),
        Span("iteration", 20.0, 24.0, -1),
        Span("cli.main", 20.0, 24.0, 6, info={"command": "gen"}),
    ]
    m = layer_metrics(spans, untraced_walls=[2.0, 3.0], traced_walls=[2.5, 3.5])
    assert m["dataset.example_rng.busy_s"] == (1.0 + 1.0 / 2, "s")
    # cli.main self: setup 4 - 1, iterations (2 - 1 + 4) / 2
    assert m["cli.main.self_s"] == (3.0 + 2.5, "s")
    assert m["trace.overhead_s"] == (0.5, "s")


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 11)]
    assert percentile(values, 50) == 5.0
    assert percentile(values, 90) == 9.0
    assert percentile([], 50) == 0.0
