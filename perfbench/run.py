"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload challenge --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` records spans around the program's public calls, writes
them as JSONL and prints the per-layer metrics.  The last line of
standard output is one JSON object.  ``--workload all`` runs every
workload untraced and then traced, each in a fresh process, and prints a
summary with the tracing overhead.  The exit code is non-zero when any
output check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {
    "challenge": ("workload_challenge", "run_challenge"),
    "challenge-sharded": ("workload_challenge", "run_challenge_sharded"),
    "serve": ("workload_serve", "run_serve"),
    "train": ("workload_train", "run_train"),
}


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the operations of one run are repeated")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every workload for smoke tests")
    parser.add_argument("--spans", default=None, metavar="PATH",
                        help="where a traced run writes its spans "
                             "(default .perfbench-run/spans-<workload>-seed<seed>.jsonl)")
    return parser.parse_args(argv)


def _number(value: float):
    return value if math.isfinite(value) else None


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from common import SCRATCH, Context, load_spec
    from spans import NullTracer, Tracer

    spec = load_spec()
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tracer = Tracer(run_id) if args.trace else NullTracer()
    scratch = SCRATCH / run_id
    scratch.mkdir(parents=True, exist_ok=True)
    module, function = WORKLOADS[args.workload]
    try:
        run = getattr(importlib.import_module(module), function)
        outcome = run(Context(seed=args.seed, seconds=args.seconds, size=args.size,
                              tracer=tracer, scratch=scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        spans = Path(args.spans) if args.spans else (
            SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(spans)
        source, names = outcome.per_layer, spec["per_layer"]
    else:
        source, names = outcome.end_to_end, spec["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in source]
    if missing and not args.trace:  # a layer a workload does not use reads 0
        raise RuntimeError(f"workload {args.workload} did not measure {missing}")
    metrics = {m["name"]: {"value": float(source.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in names}

    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload} (seed {args.seed}, {mode}, size {args.size}): "
          f"{outcome.attempted} operations attempted, {outcome.failed} failed")
    for name, ok, detail in outcome.checks:
        print(f"  check {name}: {'ok' if ok else 'FAILED'} -- {detail}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        print(f"  spans written to {spans}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {k: {"value": _number(v["value"]), "unit": v["unit"]}
                    for k, v in metrics.items()},
    }))
    return 0 if outcome.correct else 1


def run_all(args) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    failures = 0
    summary = []
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            try:
                results[trace] = json.loads(lines[-1]) if lines else None
            except json.JSONDecodeError:
                results[trace] = None
            if proc.returncode or not results[trace] or not results[trace]["correct"]:
                failures += 1
        untraced, traced = results[0], results[1]
        if untraced and traced:
            wall = untraced["metrics"]["wall_s"]["value"]
            traced_wall = traced["metrics"]["trace.wall_s"]["value"]
            summary.append(f"{workload:<18} correct={untraced['correct'] and traced['correct']}  "
                           f"wall_s {wall:.4g} untraced, {traced_wall:.4g} traced "
                           f"(tracing overhead {traced_wall - wall:+.3g} s)")
        else:
            summary.append(f"{workload:<18} FAILED")
    print("\nsummary")
    for line in summary:
        print("  " + line)
    return 1 if failures else 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run the benchmark from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
