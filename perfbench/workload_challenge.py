"""The Graph Challenge workloads: ``challenge`` and ``challenge-sharded``.

``challenge`` times the whole path -- generate -> save (TSV + sidecar)
-> load + infer (``run_challenge_pipeline``) -> verify -- on the wall
clock.  ``challenge-sharded`` saves the same network during set-up and
times only ``run_challenge_pipeline(..., shards=K)`` over it, with the
process transport.

The traced ``challenge`` run calls the stages ``run_challenge_pipeline``
composes (``LoadStage`` over ``iter_challenge_layers``, ``run_pipeline``)
with timed iterators at the seams, so the wait on loading and the load
itself are visible; both runs print the category checksum, which must
agree for one seed.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

from common import Outcome, median, peak_rss_mb, percentile, repeated_setup, until_elapsed
from probes import TimedBackend, kernel_metrics, timed_iter
from spans import NullTracer, layer_self_seconds, trace_metrics

import repro.backends as backends
from repro.challenge import (
    ActivationPolicy,
    LoadStage,
    PipelineState,
    category_checksum,
    challenge_input_batch,
    iter_challenge_layers,
    iter_generate_challenge_layers,
    read_challenge_meta,
    run_challenge_pipeline,
    run_pipeline,
    save_challenge_layers,
)
from repro.challenge.verify import reference_categories

THRESHOLD = 32.0
SIZES = {
    # the official smallest shape, with a challenge batch of 1024 rows
    "full": dict(neurons=1024, layers=120, connections=32, rows=1024, sample=32, shards=2),
    "tiny": dict(neurons=64, layers=6, connections=8, rows=32, sample=8, shards=2),
}

# what reference_categories reads from a network: the layers kept while saving
_Layers = namedtuple("_Layers", "weights biases threshold")


def _seeds(seed: int) -> tuple[int, int, int]:
    net, batch, sample = np.random.SeedSequence(seed).generate_state(3)
    return int(net), int(batch), int(sample)


def _inputs(cfg: dict, seed: int):
    _, batch_seed, sample_seed = _seeds(seed)
    x = challenge_input_batch(cfg["neurons"], cfg["rows"], seed=batch_seed)
    sample = np.sort(np.random.default_rng(sample_seed).choice(
        cfg["rows"], cfg["sample"], replace=False))
    return x, sample


def _layer_source(tracer, cfg: dict, seed: int, kept: list):
    source = timed_iter(tracer, "generator.next", iter_generate_challenge_layers(
        cfg["neurons"], cfg["layers"], connections=cfg["connections"],
        threshold=THRESHOLD, seed=_seeds(seed)[0]))
    for layer in source:
        kept.append(layer)
        yield layer


def _save(tracer, cfg: dict, seed: int, directory: Path) -> list:
    kept: list = []
    with tracer.span("io.save"):
        save_challenge_layers(directory, _layer_source(tracer, cfg, seed, kept),
                              neurons=cfg["neurons"], num_layers=cfg["layers"],
                              threshold=THRESHOLD)
    return kept


def _waited(tracer, load: LoadStage):
    with load:
        yield from timed_iter(tracer, "pipeline.load_wait", load)


def _traced_pipeline(tracer, directory: Path, neurons: int, x, backend):
    """``run_challenge_pipeline``'s unsharded path, with timed seams."""
    with tracer.span("pipeline.run"):
        meta = read_challenge_meta(directory, neurons)
        policy = ActivationPolicy.resolve(None)
        state = PipelineState.initial(x, neurons=meta.neurons)
        load = LoadStage(timed_iter(tracer, "io.load",
                                    iter_challenge_layers(directory, meta.neurons)), prefetch=2)
        run_pipeline(_waited(tracer, load), state, threshold=meta.threshold,
                     backend=backend, policy=policy)
        return state.result(backend=backend.name, policy=policy)


def _reference(layers: list, x, sample):
    return reference_categories(
        _Layers([w for w, _ in layers], [b for _, b in layers], THRESHOLD), x[sample])


def _sample_categories(categories, sample):
    return np.flatnonzero(np.isin(sample, categories))


def _pipeline_layers(results: list) -> dict[str, float]:
    seconds = [s for r in results for s in r.layer_seconds]
    modes = [m for r in results for m in r.layer_modes]
    return {
        "pipeline.compute_s": median([r.total_seconds for r in results]),
        "pipeline.layer_p50_ms": percentile(seconds, 50) * 1e3,
        "pipeline.layer_max_ms": max(seconds) * 1e3,
        "pipeline.dense_layers": modes.count("dense") / len(results),
        "pipeline.sparse_layers": modes.count("sparse") / len(results),
    }


def _end_to_end(setup_s, walls, pipeline_walls, results, rows) -> dict[str, float]:
    layer_ms = [s * 1e3 for r in results for s in r.layer_seconds]
    return {
        "setup_s": setup_s,
        "wall_s": median(walls),
        "infer_edges_per_s": median(
            [r.edges_traversed / w for r, w in zip(results, pipeline_walls)]),
        "throughput_rps": median([rows / w for w in pipeline_walls]),
        "latency_p50_ms": percentile(layer_ms, 50),
        "latency_p95_ms": percentile(layer_ms, 95),
    }


# --------------------------------------------------------------------------- #
# challenge: generate -> save -> load + infer -> verify
# --------------------------------------------------------------------------- #
def run_challenge(ctx) -> Outcome:
    cfg = SIZES[ctx.size]
    tracer = ctx.tracer
    backend = backends.active_backend()

    def setup():
        # a miniature of the path, so lazy imports and first-call costs
        # are paid here and not inside the first timed operation
        mini = dict(cfg, neurons=32, layers=2, connections=8, rows=4, sample=2)
        x, _ = _inputs(mini, ctx.seed)
        directory = Path(tempfile.mkdtemp(dir=ctx.scratch))
        try:
            _save(NullTracer(), mini, ctx.seed, directory)
            run_challenge_pipeline(directory, mini["neurons"], x)
        finally:
            shutil.rmtree(directory)
        return _inputs(cfg, ctx.seed)

    setup_s, (x, sample) = repeated_setup(setup)
    probe = TimedBackend(backend, tracer) if ctx.traced else backend

    def op():
        directory = Path(tempfile.mkdtemp(dir=ctx.scratch))
        try:
            with backends.use(probe), tracer.span("bench.challenge"):
                start = time.perf_counter()
                layers = _save(tracer, cfg, ctx.seed, directory)
                saved = time.perf_counter()
                if ctx.traced:
                    result = _traced_pipeline(tracer, directory, cfg["neurons"], x, probe)
                else:
                    result = run_challenge_pipeline(
                        directory, cfg["neurons"], x, backend=probe).result
                inferred = time.perf_counter()
                with tracer.span("verify.reference"):
                    expected = _reference(layers, x, sample)
                with tracer.span("verify.checksum"):
                    checksum = category_checksum(result.categories)
                wall = time.perf_counter() - start
            save_bytes = sum(p.stat().st_size for p in directory.iterdir())
        finally:
            shutil.rmtree(directory)
        ok = (len(result.layer_seconds) == cfg["layers"]
              and np.array_equal(expected, _sample_categories(result.categories, sample)))
        return dict(wall=wall, pipeline=inferred - saved, result=result, ok=ok,
                    checksum=checksum, save_bytes=save_bytes)

    ops = until_elapsed(ctx.seconds, op)
    out = Outcome(attempted=len(ops), failed=sum(not o["ok"] for o in ops))
    checksums = {o["checksum"] for o in ops}
    out.check("challenge.categories", out.failed == 0,
              f"{cfg['sample']} sampled rows match reference_categories in "
              f"{len(ops) - out.failed}/{len(ops)} operations; checksum {' '.join(sorted(checksums))}, "
              f"{len(ops[0]['result'].categories)} categories")
    out.check("challenge.deterministic", len(checksums) == 1, "one checksum across operations")
    results = [o["result"] for o in ops]
    walls = [o["wall"] for o in ops]
    out.end_to_end = _end_to_end(setup_s, walls, [o["pipeline"] for o in ops],
                                 results, cfg["rows"])
    if ctx.traced:
        n = len(ops)

        def total(name: str) -> float:
            return sum(s.seconds for s in tracer.spans if s.name == name) / n

        # the save call's self time: generator pulls are its children
        save_s = median([layer_self_seconds(tracer.spans, root.span_id).get("io", 0.0)
                         for root in tracer.spans if root.name == "bench.challenge"])
        save_bytes = median([o["save_bytes"] for o in ops])
        out.per_layer = {
            "generator.s": total("generator.next"),
            "io.save_s": save_s,
            "io.save_bytes": save_bytes,
            "io.save_mb_per_s": save_bytes / 1e6 / save_s,
            "io.load_s": total("io.load"),
            "pipeline.load_wait_s": total("pipeline.load_wait"),
            **_pipeline_layers(results),
            **kernel_metrics(tracer.spans, n),
            "verify.s": total("verify.reference") + total("verify.checksum"),
            **trace_metrics(tracer, "bench.challenge", walls),
        }
    out.end_to_end["peak_rss_mb"] = peak_rss_mb()
    return out


# --------------------------------------------------------------------------- #
# challenge-sharded: load + infer over K resident shard workers
# --------------------------------------------------------------------------- #
def run_challenge_sharded(ctx) -> Outcome:
    cfg = SIZES[ctx.size]
    tracer = ctx.tracer
    directory = Path(tempfile.mkdtemp(dir=ctx.scratch))
    try:
        # one set-up: saving the network dominates it, and repeating the
        # save would multiply the run; the median is taken across runs
        start = time.perf_counter()
        x, sample = _inputs(cfg, ctx.seed)
        layers = _save(NullTracer(), cfg, ctx.seed, directory)
        expected = _reference(layers, x, sample)
        del layers
        setup_s = time.perf_counter() - start

        def op():
            with tracer.span("bench.challenge-sharded"):
                start = time.perf_counter()
                with tracer.span("sharding.run"):
                    outcome = run_challenge_pipeline(
                        directory, cfg["neurons"], x, shards=cfg["shards"])
                wall = time.perf_counter() - start
            rss = [r for r in (outcome.shard_worker_rss_mb or []) if r is not None]
            ok = (outcome.completed and outcome.shards == cfg["shards"]
                  and len(rss) == cfg["shards"]
                  and np.array_equal(expected,
                                     _sample_categories(outcome.result.categories, sample)))
            return dict(wall=wall, result=outcome.result, ok=ok, worker_rss=max(rss, default=0.0))

        ops = until_elapsed(ctx.seconds, op)
        unsharded = None
        if ctx.traced:
            unsharded = run_challenge_pipeline(directory, cfg["neurons"], x).result
    finally:
        shutil.rmtree(directory)
    out = Outcome(attempted=len(ops), failed=sum(not o["ok"] for o in ops))
    out.check("challenge-sharded.categories", out.failed == 0,
              f"{cfg['sample']} sampled rows match reference_categories over "
              f"{cfg['shards']} worker processes in {len(ops) - out.failed}/{len(ops)} operations")
    results = [o["result"] for o in ops]
    walls = [o["wall"] for o in ops]
    out.end_to_end = _end_to_end(setup_s, walls, walls, results, cfg["rows"])
    if ctx.traced:
        layer_s = median([r.total_seconds for r in results])
        out.per_layer = {
            **_pipeline_layers(results),
            "sharding.layer_s": layer_s,
            "sharding.overhead_s": layer_s - unsharded.total_seconds,
            "sharding.worker_peak_rss_mb": max(o["worker_rss"] for o in ops),
            **trace_metrics(tracer, "bench.challenge-sharded", walls),
        }
    out.end_to_end["peak_rss_mb"] = peak_rss_mb()
    return out
