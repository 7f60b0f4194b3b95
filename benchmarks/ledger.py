"""The committed performance ledger: write and compare ``BENCH_<PR>.json``.

Benchmarks that are only ever printed to a terminal do not constrain
anything; this module institutionalizes the numbers.  Each PR that
touches performance runs::

    python benchmarks/ledger.py --pr 7 --profile quick --compare auto

which measures the standard metric set -- kernel edges/s per backend,
end-to-end inference edges/s per backend x activation policy, streaming
generation throughput, serve requests/s + p99 latency, and training
steps/s (dense-masked vs CSR-trainable per backend) -- writes
``BENCH_7.json`` at the repo root, and prints a regression table against
the latest previously committed ledger (``--compare auto``).  CI renders
the same table into the job summary (``--markdown``).

The schema is deliberately flat-friendly: ``metrics`` is a nested dict
whose leaves are numbers or null, and comparisons operate on the
dotted-path flattening, so adding a metric never breaks older ledgers --
paths present on only one side are reported as added/removed, not
errors.  Backends that are not installed in the measuring environment
(e.g. numba in a scipy-only container) appear as ``null`` leaves with an
explanatory note rather than disappearing, so the ledger records *why* a
number is missing.

Profiles: ``test`` (seconds; used by the unit tests), ``quick`` (the
default; E2-sized plus the 1024x120 official-scale fused smoke), and
``full`` (adds the 60-layer deep run; minutes).
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import re
import sys
import tempfile
import time
from pathlib import Path

SCHEMA_VERSION = 1
LEDGER_PATTERN = re.compile(r"^BENCH_(\d+)\.json$")

#: Relative slowdown on a higher-is-better metric that flags a regression.
DEFAULT_TOLERANCE = 0.30

#: Metric leaves where *lower* is better (matched by path suffix).
LOWER_IS_BETTER_SUFFIXES = ("_ms", "_seconds")

PROFILES = {
    # neurons/layers sized so `test` stays unit-test fast while `quick`
    # matches the bench_e2 defaults plus the official-scale fused smoke
    "test": dict(neurons=64, layers=4, batch=16, scale_neurons=128,
                 scale_layers=6, scale_batch=4, serve_requests=20,
                 serve_clients=2, sweep_clients=(1, 2), sweep_requests=10,
                 gen_layers=3, train_steps=3, repeats=1),
    "quick": dict(neurons=256, layers=24, batch=64, scale_neurons=1024,
                  scale_layers=120, scale_batch=16, serve_requests=200,
                  serve_clients=8, sweep_clients=(1, 2, 4, 8),
                  sweep_requests=60, gen_layers=12, train_steps=25, repeats=3),
    "full": dict(neurons=1024, layers=60, batch=64, scale_neurons=4096,
                 scale_layers=120, scale_batch=16, serve_requests=500,
                 serve_clients=8, sweep_clients=(1, 2, 4, 8, 16),
                 sweep_requests=100, gen_layers=24, train_steps=50, repeats=5),
}


def _repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


def _ensure_importable() -> None:
    src = _repo_root() / "src"
    if str(src) not in sys.path:  # pragma: no cover - direct-script convenience
        sys.path.insert(0, str(src))


def _timed_best(fn, repeats: int) -> float:
    best = math.inf
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# --------------------------------------------------------------------------- #
# collection
# --------------------------------------------------------------------------- #
def environment_info() -> dict:
    """The measuring environment, recorded alongside the numbers."""
    _ensure_importable()
    import numpy

    info: dict = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": __import__("os").cpu_count(),
        "numpy": numpy.__version__,
    }
    for optional in ("scipy", "numba"):
        try:
            info[optional] = __import__(optional).__version__
        except ImportError:
            info[optional] = None
    return info


def _perf_backends() -> list[str]:
    """Performance tiers to measure (reference is an oracle, not a tier)."""
    import repro.backends as backends

    return [n for n in ("numba", "scipy", "vectorized")
            if n in backends.available_backends()]


def _kernel_metrics(cfg: dict, notes: list[str]) -> dict:
    import repro.backends as backends
    from repro.testing import random_csr

    neurons = cfg["neurons"]
    density = 8.0 / neurons  # challenge-style: ~8 connections per neuron
    y, _ = random_csr((cfg["batch"], neurons), density, seed=1)
    y = type(y)(y.shape, y.indptr, y.indices, abs(y.data))
    w, _ = random_csr((neurons, neurons), density, seed=2)
    import numpy as np

    bias = -np.full(neurons, 0.1)
    out: dict = {}
    for name in _perf_backends():
        backend = backends.get_backend(name)
        warmup = getattr(backend, "warmup", None)
        if warmup is not None:
            warmup()
        spgemm_s = _timed_best(lambda: backend.spgemm(y, w), cfg["repeats"])
        fused_s = _timed_best(
            lambda: backend.sparse_layer_step(y, w, bias, 32.0), cfg["repeats"]
        )
        edges = w.nnz * cfg["batch"]
        out[name] = {
            "spgemm_edges_per_s": edges / spgemm_s if spgemm_s > 0 else None,
            "fused_edges_per_s": edges / fused_s if fused_s > 0 else None,
        }
    for name, reason in backends.unavailable_backends().items():
        out[name] = {"spgemm_edges_per_s": None, "fused_edges_per_s": None}
        notes.append(f"kernels.{name}: not measured ({reason})")
    return out


def _inference_metrics(cfg: dict, notes: list[str]) -> dict:
    import repro.backends as backends
    from repro.challenge.generator import (
        challenge_input_batch,
        generate_challenge_network,
    )
    from repro.challenge.inference import sparse_dnn_inference

    network = generate_challenge_network(
        cfg["neurons"], cfg["layers"], connections=8, seed=1
    )
    batch = challenge_input_batch(cfg["neurons"], cfg["batch"], seed=2)
    out: dict = {}
    for name in _perf_backends():
        for policy in ("dense", "sparse"):
            result = None
            best = math.inf
            for _ in range(max(1, cfg["repeats"])):
                result = sparse_dnn_inference(
                    network, batch, backend=name, activations=policy
                )
                best = min(best, result.total_seconds)
            out[f"{name}.{policy}"] = {
                "edges_per_s": result.edges_traversed / best if best > 0 else None,
            }
    for name, reason in backends.unavailable_backends().items():
        for policy in ("dense", "sparse"):
            out[f"{name}.{policy}"] = {"edges_per_s": None}
        notes.append(f"inference.{name}: not measured ({reason})")
    return out


def _official_scale_metrics(cfg: dict, notes: list[str]) -> dict:
    """The 1024x120-style fused smoke: one layer step at official shape."""
    import numpy as np

    import repro.backends as backends
    from repro.challenge.generator import (
        challenge_input_batch,
        generate_challenge_network,
    )

    network = generate_challenge_network(
        cfg["scale_neurons"], min(cfg["scale_layers"], 2), connections=32, seed=3
    )
    weight = network.weights[0]
    batch = challenge_input_batch(cfg["scale_neurons"], cfg["scale_batch"], seed=4)
    from repro.sparse.csr import CSRMatrix

    y = CSRMatrix.from_dense(batch)
    bias = np.asarray(network.biases[0], dtype=np.float64)
    edges = weight.nnz * cfg["scale_batch"]
    out: dict = {
        "neurons": cfg["scale_neurons"],
        "layers": cfg["scale_layers"],
        "batch": cfg["scale_batch"],
    }
    for name in _perf_backends():
        backend = backends.get_backend(name)
        warmup = getattr(backend, "warmup", None)
        if warmup is not None:
            warmup()
        seconds = _timed_best(
            lambda: backend.sparse_layer_step(y, weight, bias, 32.0),
            cfg["repeats"],
        )
        out[f"fused_edges_per_s.{name}"] = edges / seconds if seconds > 0 else None
    for name, reason in backends.unavailable_backends().items():
        out[f"fused_edges_per_s.{name}"] = None
        notes.append(f"official_scale.{name}: not measured ({reason})")
    return out


def _generation_metrics(cfg: dict) -> dict:
    from repro.challenge.generator import iter_generate_challenge_layers
    from repro.challenge.io import save_challenge_layers

    neurons, layers = cfg["neurons"], cfg["gen_layers"]
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        save_challenge_layers(
            Path(tmp) / "net",
            iter_generate_challenge_layers(neurons, layers, connections=8, seed=5),
            neurons=neurons,
            num_layers=layers,
            threshold=32.0,
        )
        seconds = time.perf_counter() - start
    edges = neurons * 8 * layers
    return {"edges_per_s": edges / seconds if seconds > 0 else None}


def _serve_metrics(cfg: dict) -> dict:
    from repro.challenge.generator import generate_challenge_network
    from repro.serve import (
        ServingEngine,
        bench_serve,
        saturation_sweep,
        serve_in_background,
        serve_worker_count,
    )

    network = generate_challenge_network(
        cfg["neurons"], max(2, cfg["layers"] // 4), connections=8, seed=6
    )
    engine = ServingEngine.from_network(network, activations="dense")
    workers_n = serve_worker_count()
    out: dict = {"workers": workers_n}
    # one worker (the PR 6 configuration) vs the multi-worker default; the
    # top-level keys stay on the default configuration so the ledger
    # comparison tracks what `challenge serve` actually ships
    for label, workers in (("single_worker", 1), ("default", workers_n)):
        with serve_in_background(engine, max_batch=32, workers=workers) as handle:
            host, port = handle.address
            report = bench_serve(
                host, port,
                requests=cfg["serve_requests"],
                clients=cfg["serve_clients"],
                rows_per_request=1,
            )
            if label == "default":
                out["requests_per_s"] = report["requests_per_second"]
                out["latency_p50_ms"] = report["latency_p50_ms"]
                out["latency_p99_ms"] = report["latency_p99_ms"]
                sweep = saturation_sweep(
                    host, port,
                    clients_grid=tuple(cfg["sweep_clients"]),
                    requests_per_point=cfg["sweep_requests"],
                    seed=7,
                )
                knee = sweep["knee"]
                if knee is not None:
                    out["knee"] = {
                        "clients": knee["clients"],
                        "requests_per_s": knee["requests_per_second"],
                        "latency_p99_ms": knee["latency_p99_ms"],
                    }
            else:
                out["single_worker_requests_per_s"] = report["requests_per_second"]
    return out


# run in fresh subprocesses: a fork()ed shard worker inherits the parent's
# resident pages, so measuring inside the (numpy-heavy) ledger process
# would flatter or penalize workers depending on import history.  Each
# probe process loads only what the run itself needs.
_SHARD_PROBE = """\
import json, sys
from repro.challenge.generator import challenge_input_batch
from repro.challenge.pipeline import run_challenge_pipeline
from repro.utils import peak_rss_mb

directory, neurons, batch_rows, shards = (
    sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]))
batch = challenge_input_batch(neurons, batch_rows, seed=9)
kwargs = {} if shards == 0 else {"shards": shards, "shard_transport": "process"}
outcome = run_challenge_pipeline(directory, neurons, batch, **kwargs)
assert outcome.completed
worker = outcome.shard_worker_rss_mb or []
print(json.dumps({
    "edges_per_s": outcome.result.edges_per_second,
    "wall_seconds": outcome.result.total_seconds,
    "rss_mb": peak_rss_mb(),
    "worker_rss_mb": max((r for r in worker if r is not None), default=None),
}))
"""


def _train_metrics(cfg: dict, notes: list[str]) -> dict:
    """Sparse training (PR 10): optimizer steps/s of dense-masked vs
    CSR-trainable layers per backend, RadiX-Net topology at fixed widths."""
    import numpy as np

    from repro.core.designer import design_for_widths
    from repro.core.radixnet import generate_from_spec
    from repro.nn.builder import model_from_topology
    from repro.nn.losses import CrossEntropyLoss
    from repro.nn.optimizers import SGD
    from repro.topology.fnnt import FNNT

    widths = [16, 32, 32, 8]
    radix_net = generate_from_spec(design_for_widths(widths).spec)
    # A copy without the Kronecker factors, so the CSR arms train
    # CSRTrainableLayer through each backend's spmm/sdmm kernels rather
    # than the backend-independent block layer.
    topology = FNNT(radix_net.submatrices, validate=False, name=radix_net.name)
    batch, steps = cfg["batch"], cfg["train_steps"]
    rng = np.random.default_rng(5)
    x = rng.standard_normal((batch, topology.layer_sizes[0]))
    labels = rng.integers(0, topology.layer_sizes[-1], size=batch)
    targets = np.eye(topology.layer_sizes[-1])[labels]
    loss = CrossEntropyLoss()

    def step_loop(model):
        optimizer = SGD(0.01)

        def fn():
            for _ in range(steps):
                outputs = model.forward(x, training=True)
                model.backward(loss.gradient(outputs, targets))
                optimizer.step(model.parameters(), model.gradients())

        return fn

    out: dict = {
        "widths": widths,
        "batch": batch,
        "steps": steps,
        "density": topology.density(),
    }
    # force_masked on both arms so dense submatrices (if any) go through
    # the same masked/CSR machinery -- the comparison stays apples-to-apples
    masked = model_from_topology(topology, seed=0, force_masked=True)
    seconds = _timed_best(step_loop(masked), cfg["repeats"])
    out["masked_steps_per_s"] = steps / seconds if seconds > 0 else None
    out["csr"] = {}
    for name in _perf_backends():
        model = model_from_topology(
            topology, seed=0, force_masked=True, sparse_training=True, backend=name
        )
        seconds = _timed_best(step_loop(model), cfg["repeats"])
        out["csr"][name] = {"steps_per_s": steps / seconds if seconds > 0 else None}
    for name in ("numba", "scipy", "vectorized"):
        if name not in out["csr"]:
            out["csr"][name] = {"steps_per_s": None}
            notes.append(f"train.csr.{name}: backend not available here")
    return out


def _shard_metrics(cfg: dict, notes: list[str]) -> dict:
    """Tensor-parallel sharding (PR 9): edges/s + per-worker peak RSS at
    K=1,2,4 against the unsharded pipeline, official shape."""
    import os
    import subprocess

    from repro.challenge.generator import generate_challenge_network
    from repro.challenge.io import save_challenge_network

    neurons, layers = cfg["scale_neurons"], cfg["scale_layers"]
    out: dict = {"neurons": neurons, "layers": layers, "batch": cfg["scale_batch"]}
    with tempfile.TemporaryDirectory(prefix="repro-shard-bench-") as tmp:
        directory = str(Path(tmp) / "net")
        save_challenge_network(
            generate_challenge_network(neurons, layers, connections=32, seed=8),
            directory,
        )
        env = dict(os.environ)
        src = str(_repo_root() / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing

        def probe(shards: int) -> dict:
            proc = subprocess.run(
                [sys.executable, "-c", _SHARD_PROBE, directory, str(neurons),
                 str(cfg["scale_batch"]), str(shards)],
                capture_output=True, text=True, env=env,
            )
            if proc.returncode:
                raise RuntimeError(
                    f"shard probe (K={shards}) failed: {proc.stderr[-2000:]}"
                )
            return json.loads(proc.stdout.strip().splitlines()[-1])

        base = probe(0)
        out["unsharded_edges_per_s"] = base["edges_per_s"]
        out["unsharded_rss_mb"] = base["rss_mb"]
        for k in (1, 2, 4):
            reading = probe(k)
            out[f"k{k}"] = {
                "edges_per_s": reading["edges_per_s"],
                "worker_rss_mb": reading["worker_rss_mb"],
                "rss_mb": reading["rss_mb"],
            }
            if reading["worker_rss_mb"] is None:
                notes.append(
                    f"shard.k{k}: worker pool unavailable here "
                    "(serial-transport fallback); worker RSS not measured"
                )
    cores = os.cpu_count()
    if cores is not None and cores < 4:
        notes.append(
            f"shard.*: only {cores} core(s) visible -- K>1 wall-clock wins "
            "need multi-core runners (CI); RSS figures are load-bearing here"
        )
    return out


def collect_metrics(profile: str = "quick") -> tuple[dict, list[str]]:
    """Measure the standard metric set; returns ``(metrics, notes)``."""
    _ensure_importable()
    if profile not in PROFILES:
        raise ValueError(
            f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"
        )
    cfg = PROFILES[profile]
    notes: list[str] = []
    metrics = {
        "kernels": _kernel_metrics(cfg, notes),
        "inference": _inference_metrics(cfg, notes),
        "official_scale": _official_scale_metrics(cfg, notes),
        "generation": _generation_metrics(cfg),
        "serve": _serve_metrics(cfg),
        "shard": _shard_metrics(cfg, notes),
        "train": _train_metrics(cfg, notes),
    }
    return metrics, notes


# --------------------------------------------------------------------------- #
# ledger files
# --------------------------------------------------------------------------- #
def write_ledger(path: str | Path, pr: int, profile: str = "quick",
                 metrics: dict | None = None, notes: list[str] | None = None) -> Path:
    """Measure (unless ``metrics`` is given) and write a ledger file."""
    if metrics is None:
        metrics, notes = collect_metrics(profile)
    ledger = {
        "schema": SCHEMA_VERSION,
        "pr": pr,
        "profile": profile,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": environment_info(),
        "notes": notes or [],
        "metrics": metrics,
    }
    path = Path(path)
    path.write_text(json.dumps(ledger, indent=2, sort_keys=False) + "\n")
    return path


def load_ledger(path: str | Path) -> dict:
    ledger = json.loads(Path(path).read_text())
    if not isinstance(ledger, dict) or "metrics" not in ledger:
        raise ValueError(f"{path} is not a BENCH ledger (no 'metrics' key)")
    return ledger


def find_latest_ledger(root: str | Path | None = None,
                       before_pr: int | None = None) -> Path | None:
    """The committed ``BENCH_<N>.json`` with the highest N (< ``before_pr``)."""
    root = Path(root) if root is not None else _repo_root()
    best: tuple[int, Path] | None = None
    for candidate in root.glob("BENCH_*.json"):
        match = LEDGER_PATTERN.match(candidate.name)
        if not match:
            continue
        number = int(match.group(1))
        if before_pr is not None and number >= before_pr:
            continue
        if best is None or number > best[0]:
            best = (number, candidate)
    return best[1] if best else None


def flatten_metrics(metrics: dict, prefix: str = "") -> dict[str, float | None]:
    """Nested metric dict -> ``{"kernels.scipy.fused_edges_per_s": 1e8, ...}``."""
    flat: dict[str, float | None] = {}
    for key, value in metrics.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(flatten_metrics(value, path))
        elif isinstance(value, (int, float)) or value is None:
            flat[path] = value
    return flat


def compare_ledgers(old: dict, new: dict,
                    tolerance: float = DEFAULT_TOLERANCE) -> list[dict]:
    """Per-metric comparison rows: path, old, new, ratio, status.

    Status is ``regression`` when a metric moved against its direction
    (higher-is-better dropped, or a ``*_ms``/``*_seconds`` latency rose)
    by more than ``tolerance``; ``improved`` for the symmetric move;
    otherwise ``ok``/``added``/``removed``/``unmeasured``.
    """
    old_flat = flatten_metrics(old["metrics"])
    new_flat = flatten_metrics(new["metrics"])
    rows: list[dict] = []
    for path in sorted(set(old_flat) | set(new_flat)):
        old_value = old_flat.get(path)
        new_value = new_flat.get(path)
        row = {"metric": path, "old": old_value, "new": new_value,
               "ratio": None, "status": "ok"}
        if path not in old_flat:
            row["status"] = "added"
        elif path not in new_flat:
            row["status"] = "removed"
        elif old_value is None or new_value is None:
            row["status"] = "unmeasured"
        elif old_value > 0:
            ratio = new_value / old_value
            row["ratio"] = ratio
            lower_better = path.endswith(LOWER_IS_BETTER_SUFFIXES)
            worse = ratio > 1 + tolerance if lower_better else ratio < 1 - tolerance
            better = ratio < 1 - tolerance if lower_better else ratio > 1 + tolerance
            row["status"] = "regression" if worse else ("improved" if better else "ok")
        rows.append(row)
    return rows


def _format_value(value: float | None) -> str:
    if value is None:
        return "-"
    if value >= 1000:
        return f"{value:,.0f}"
    return f"{value:.3g}"


def format_comparison(rows: list[dict], markdown: bool = False) -> str:
    """Render comparison rows as a text or GitHub-markdown table."""
    status_marks = {"regression": "🔻" if markdown else "!", "improved": "🔺" if markdown else "+"}
    header = ("| metric | old | new | ratio | status |",
              "| --- | ---: | ---: | ---: | :---: |") if markdown else (
        f"{'metric':<48} {'old':>14} {'new':>14} {'ratio':>7} status",)
    lines = list(header)
    for row in rows:
        ratio = f"{row['ratio']:.2f}x" if row["ratio"] is not None else "-"
        mark = status_marks.get(row["status"], "")
        status = f"{mark} {row['status']}".strip()
        if markdown:
            lines.append(
                f"| `{row['metric']}` | {_format_value(row['old'])} | "
                f"{_format_value(row['new'])} | {ratio} | {status} |"
            )
        else:
            lines.append(
                f"{row['metric']:<48} {_format_value(row['old']):>14} "
                f"{_format_value(row['new']):>14} {ratio:>7} {status}"
            )
    regressions = sum(1 for row in rows if row["status"] == "regression")
    summary = (f"{len(rows)} metrics compared, {regressions} regression(s) "
               f"beyond {DEFAULT_TOLERANCE:.0%} tolerance")
    lines.append("")
    lines.append(f"**{summary}**" if markdown else summary)
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ledger", description="write/compare BENCH_<PR>.json perf ledgers"
    )
    parser.add_argument("--pr", type=int, required=True,
                        help="PR number this ledger records (names the file)")
    parser.add_argument("--profile", choices=sorted(PROFILES), default="quick")
    parser.add_argument("--out", default=None,
                        help="output path (default <repo root>/BENCH_<PR>.json)")
    parser.add_argument("--compare", default=None, metavar="PATH|auto",
                        help="diff against a previous ledger; 'auto' finds the "
                        "latest committed BENCH_<N>.json with N < --pr")
    parser.add_argument("--markdown", default=None, metavar="PATH",
                        help="also write the comparison as a markdown table "
                        "(e.g. $GITHUB_STEP_SUMMARY)")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 if any metric regressed beyond tolerance")
    args = parser.parse_args(argv)

    out = Path(args.out) if args.out else _repo_root() / f"BENCH_{args.pr}.json"
    path = write_ledger(out, args.pr, args.profile)
    ledger = load_ledger(path)
    print(f"ledger written to {path} (profile {args.profile})")
    for note in ledger["notes"]:
        print(f"note: {note}")

    if args.compare is None:
        return 0
    if args.compare == "auto":
        previous = find_latest_ledger(before_pr=args.pr)
        if previous is None:
            print("no previous ledger to compare against (first entry)")
            return 0
    else:
        previous = Path(args.compare)
    rows = compare_ledgers(load_ledger(previous), ledger)
    print(f"comparison against {previous}:")
    print(format_comparison(rows))
    if args.markdown:
        Path(args.markdown).write_text(
            f"### Perf ledger: `{path.name}` vs `{Path(previous).name}`\n\n"
            + format_comparison(rows, markdown=True) + "\n"
        )
        print(f"markdown table written to {args.markdown}")
    if args.fail_on_regression and any(r["status"] == "regression" for r in rows):
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
