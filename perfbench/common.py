"""Plumbing shared by the workloads: run context, outcomes, statistics."""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for networks, server logs and span files (never committed).
SCRATCH = ROOT / ".perfbench-run"
#: How many times a workload repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 5


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@dataclass
class Context:
    seed: int
    seconds: float
    size: str
    tracer: object
    scratch: Path

    @property
    def traced(self) -> bool:
        return self.tracer.enabled


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Percentile where a missing answer (``inf``) misses every limit."""
    array = np.asarray(list(values), dtype=np.float64)
    return float(np.percentile(array, q, method="higher")) if array.size else math.inf


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any child it reaped, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def repeated_setup(setup, release=None):
    """Run ``setup()`` :data:`SETUP_REPEATS` times; (median seconds, last result).

    ``release(result)`` (untimed) frees what every repetition but the
    last one built, such as a started server.
    """
    seconds = []
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        result = setup()
        seconds.append(time.perf_counter() - start)
        if release is not None and rep < SETUP_REPEATS - 1:
            release(result)
    return median(seconds), result


def until_elapsed(seconds: float, op, *, minimum: int = 1) -> list:
    """Repeat ``op()`` until ``seconds`` have passed (at least ``minimum`` times)."""
    results = []
    start = time.perf_counter()
    while len(results) < minimum or time.perf_counter() - start < seconds:
        results.append(op())
    return results
