"""Smoke and reconciliation tests for the benchmark, at tiny sizes.

    python3 -m pytest perfbench -q

Every workload runs untraced and traced in a fresh process and must pass
its own output checks and print exactly the metric names of
``BENCHMARK.json``.  The traced ``challenge`` run's per-layer self times
must add up to its wall time, and the traced ``serve`` run's queue wait,
service and other time must add up to its mean round trip.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import layer_self_seconds, load_jsonl, self_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Largest share of the traced challenge wall time the layer self times may miss.
RECONCILE_SHARE = 0.05


def _run(tmp_path: Path, workload: str, trace: int, *, seed: int = 5):
    spans = tmp_path / f"spans-{workload}-{trace}.jsonl"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny", "--spans", str(spans)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1]), spans


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_runs_and_checks_its_outputs(tmp_path, workload, trace):
    _, result, _ = _run(tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_challenge_layer_self_times_add_up_to_the_wall_time(tmp_path):
    stdout, result, path = _run(tmp_path, "challenge", 1)
    spans = load_jsonl(path)
    # a child counted twice drives its parent's self time negative
    assert min(self_seconds(spans).values()) >= 0.0
    roots = [s for s in spans if s.name == "bench.challenge"]
    assert roots
    attributed = 0.0
    for root in roots:
        layers = layer_self_seconds(spans, root.span_id)
        assert {"generator", "io", "pipeline", "backends", "verify"} <= set(layers)
        attributed += sum(layers.values())
    # an unclosed span is never recorded, so what it covered goes missing
    wall = sum(root.seconds for root in roots)
    assert abs(attributed - wall) <= RECONCILE_SHARE * wall
    assert 0.0 <= result["metrics"]["trace.residual_share"]["value"] <= RECONCILE_SHARE
    # the traced pipeline composition infers exactly what the untraced call does
    untraced, _, _ = _run(tmp_path, "challenge", 0)
    checksum = re.compile(r"checksum ([0-9a-f]+)")
    assert checksum.findall(stdout) == checksum.findall(untraced) != []


def test_serve_round_trip_splits_into_queue_service_and_other(tmp_path):
    _, result, _ = _run(tmp_path, "serve", 1)
    m = {name: metric["value"] for name, metric in result["metrics"].items()}
    parts = (m["serve.batcher.queue_wait_ms"] + m["serve.batcher.service_ms"]
             + m["serve.app.other_ms"])
    assert parts == pytest.approx(m["serve.app.round_trip_ms"], rel=1e-9)
    assert m["serve.batcher.service_ms"] > 0
    assert m["serve.app.other_ms"] >= 0  # the server saw no more time than the client


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "challenge", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
