"""Companion experiment E2: Graph Challenge style sparse DNN inference scaling.

The Graph Challenge distributes RadiX-Net-generated sparse DNNs and measures
inference throughput (edges traversed per second) as the network scales by
factors of four in neurons per layer.  This benchmark regenerates
challenge-style instances with this package's generator (scaled to laptop
sizes), runs the reference ReLU-threshold recurrence, verifies the result
against a dense reference, and reports the same throughput figure of merit.

``test_e2_backend_throughput`` additionally reports edges/second for every
registered sparse backend (see :mod:`repro.backends`), so a single run
compares kernel strategies.  Instance size is tunable through the
``E2_NEURONS`` / ``E2_LAYERS`` / ``E2_BATCH`` environment variables -- CI
smoke runs set tiny values, local runs default to a laptop-scale instance.
``E2_ACTIVATIONS`` (``auto`` / ``dense`` / ``sparse``) selects the
activation storage policy the engine benchmarks run under, so one CI
matrix produces a per-policy comparison artifact;
``test_e2_activation_policy_memory`` reports edges/second *and* peak
activation nnz for both forced policies side by side, and
``test_e2_official_scale_sparse_policy`` runs the smallest official
challenge size (1024 neurons x 120 layers, ``E2_SCALE_*``-tunable) under
the sparse policy, asserting its peak activation storage stays below the
dense ``batch * neurons`` buffer.

``test_e2_pipeline_overlap_profile`` profiles the staged streaming
pipeline (:mod:`repro.challenge.pipeline`): wall-clock and peak RSS with
the background layer prefetch off vs on (thread and sidecar-process
transports), plus ``test_e2_pipeline_checkpoint_resume_overhead`` for
the cost of periodic atomic checkpoints and a staged
interrupt-and-resume run, and the ``slow``-marked
``test_e2_official_scale_streaming_overlap`` for the same comparison at
the 1024x120 official entry size.

``test_e2_serve_throughput`` benchmarks the serving subsystem
(:mod:`repro.serve`): a live in-process server (network resident,
requests coalesced into micro-batches) under the bundled load generator,
reporting requests/second and latency percentiles per backend (and per
``E2_ACTIVATIONS`` policy) in the benchmark JSON.

``test_e2_generation_throughput`` reports the *generation* side of the
pipeline -- edges/second written through the fully sparse streaming
path (``iter_generate_challenge_layers`` -> ``save_challenge_layers``)
plus the traced per-run generation memory peak -- and
``test_e2_generation_official_scale_smoke``
(marked ``slow``) runs it at the 16384-neuron official size, where the
pre-sparse generator's dense per-layer round-trip would have allocated
2 GB per layer.
"""

import os
import time

import pytest

from repro.backends import available_backends
from repro.challenge.generator import (
    challenge_input_batch,
    generate_challenge_network,
    iter_generate_challenge_layers,
)
from repro.challenge.inference import InferenceEngine, sparse_dnn_inference
from repro.challenge.io import (
    load_challenge_network,
    save_challenge_layers,
    save_challenge_network,
)
from repro.challenge.pipeline import (
    resume_challenge_pipeline,
    run_challenge_pipeline,
)
from repro.experiments.scaling import graph_challenge_scaling
from repro.utils.timing import format_rss_mb, peak_rss_mb

E2_NEURONS = int(os.environ.get("E2_NEURONS", "256"))
E2_LAYERS = int(os.environ.get("E2_LAYERS", "24"))
E2_BATCH = int(os.environ.get("E2_BATCH", "64"))
E2_ACTIVATIONS = os.environ.get("E2_ACTIVATIONS", "auto")
E2_SCALE_NEURONS = int(os.environ.get("E2_SCALE_NEURONS", "1024"))
E2_SCALE_LAYERS = int(os.environ.get("E2_SCALE_LAYERS", "120"))
E2_SCALE_BATCH = int(os.environ.get("E2_SCALE_BATCH", "16"))
E2_GEN_NEURONS = int(os.environ.get("E2_GEN_NEURONS", "2048"))
E2_GEN_LAYERS = int(os.environ.get("E2_GEN_LAYERS", "12"))
E2_GEN_SCALE_NEURONS = int(os.environ.get("E2_GEN_SCALE_NEURONS", "16384"))
E2_GEN_SCALE_LAYERS = int(os.environ.get("E2_GEN_SCALE_LAYERS", "2"))


def test_e2_inference_scaling(benchmark, report_table):
    rows = benchmark.pedantic(
        graph_challenge_scaling,
        kwargs={
            "base_neurons": 64,
            "sizes": 3,
            "num_layers": 24,
            "batch_size": 32,
            "connections": 8,
            "seed": 0,
        },
        rounds=1,
        iterations=1,
    )

    # every size verified against the dense reference
    assert all(row["verified"] == 1.0 for row in rows)
    # neurons scale x4 per step, edges scale with them
    assert rows[1]["neurons"] == 4 * rows[0]["neurons"]
    assert rows[2]["edges"] > rows[1]["edges"] > rows[0]["edges"]

    report_table(
        "E2: Graph Challenge inference scaling (x4 neurons per step)",
        ["neurons/layer", "layers", "edges", "seconds", "edges/s", "categories"],
        [
            [
                int(r["neurons"]),
                int(r["layers"]),
                int(r["edges"]),
                round(r["seconds"], 4),
                int(r["edges_per_second"]),
                int(r["categories"]),
            ]
            for r in rows
        ],
    )


def test_e2_single_inference_kernel(benchmark):
    """Raw kernel timing at one fixed size (pytest-benchmark statistics)."""
    network = generate_challenge_network(E2_NEURONS, E2_LAYERS, connections=8, seed=1)
    batch = challenge_input_batch(E2_NEURONS, E2_BATCH, seed=2)
    result = benchmark(sparse_dnn_inference, network, batch)
    assert result.activations.shape == (E2_BATCH, E2_NEURONS)


@pytest.mark.parametrize("backend", available_backends())
def test_e2_backend_throughput(benchmark, backend):
    """Edges/second of the inference engine under every registered backend.

    The per-backend numbers land in the pytest-benchmark JSON (via
    ``extra_info``), so a ``--benchmark-json`` run is a self-contained
    backend comparison artifact.  The activation policy comes from
    ``E2_ACTIVATIONS``, so running the benchmark once per policy yields a
    per-policy comparison as well (the CI smoke does exactly that).
    """
    network = generate_challenge_network(E2_NEURONS, E2_LAYERS, connections=8, seed=1)
    batch = challenge_input_batch(E2_NEURONS, E2_BATCH, seed=2)
    engine = InferenceEngine(network, backend=backend, activations=E2_ACTIVATIONS)
    result = benchmark(engine.run, batch)
    assert result.backend == backend
    assert result.activations.shape == (E2_BATCH, E2_NEURONS)
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["activation_policy"] = E2_ACTIVATIONS
    benchmark.extra_info["edges_per_second"] = result.edges_per_second
    benchmark.extra_info["edges_traversed"] = result.edges_traversed
    benchmark.extra_info["peak_activation_nnz"] = result.peak_activation_nnz


E2_KERNEL_DENSITIES = (0.01, 0.05, 0.2)


def test_e2_kernel_throughput(benchmark, report_table):
    """Per-backend kernel microbenchmark: spgemm/spmm/fused edges/second.

    Isolates the three hot kernels from the end-to-end engine numbers at
    three weight densities, so a backend-level regression (or a JIT tier
    losing its edge at one density) is visible on its own row instead of
    being averaged into a full inference run.  Backends marked as
    performance tiers only -- ``reference`` is an audit oracle and would
    dominate the table's wall-clock for no signal.  Edges/second uses
    the challenge convention: ``nnz(W) x batch rows`` multiply-adds.
    """
    import numpy as np

    from repro.testing import random_csr

    perf_backends = [
        name for name in ("numba", "scipy", "vectorized")
        if name in available_backends()
    ]
    rows = []
    checked = {}
    for density in E2_KERNEL_DENSITIES:
        w, w_dense = random_csr((E2_NEURONS, E2_NEURONS), density, seed=7)
        y, _ = random_csr((E2_BATCH, E2_NEURONS), density, seed=8)
        y = type(y)(y.shape, y.indptr, y.indices, np.abs(y.data))
        dense = np.ascontiguousarray(w_dense.T[:, :E2_BATCH])
        bias = np.full(E2_NEURONS, -0.1)
        edges = w.nnz * E2_BATCH
        for name in perf_backends:
            from repro.backends import get_backend

            backend = get_backend(name)
            warmup = getattr(backend, "warmup", None)
            if warmup is not None:
                warmup()
            spgemm_s, _ = _timed_best(lambda: backend.spgemm(y, w))
            spmm_s, _ = _timed_best(lambda: backend.spmm(w, dense))
            fused_s, fused = _timed_best(
                lambda: backend.sparse_layer_step(y, w, bias, 32.0)
            )
            # cheap cross-backend sanity on the measured operands: every
            # backend's fused result must match the first one measured
            if density not in checked:
                checked[density] = fused.to_dense()
            else:
                np.testing.assert_allclose(
                    fused.to_dense(), checked[density], atol=1e-12
                )
            rows.append([
                name, density, w.nnz,
                int(edges / spgemm_s), int(edges / spmm_s), int(edges / fused_s),
            ])
            benchmark.extra_info[f"{name}.d{density}.spgemm_edges_per_s"] = edges / spgemm_s
            benchmark.extra_info[f"{name}.d{density}.spmm_edges_per_s"] = edges / spmm_s
            benchmark.extra_info[f"{name}.d{density}.fused_edges_per_s"] = edges / fused_s

    assert rows, "no performance-tier backends registered"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    report_table(
        "E2: kernel throughput per backend x density (edges/s)",
        ["backend", "density", "weight nnz", "spgemm", "spmm", "fused"],
        rows,
    )


@pytest.mark.skipif(
    "numba" not in available_backends(),
    reason="numba backend not registered (numba not installed)",
)
def test_e2_fused_numba_beats_scipy_official_scale(report_table):
    """The headline claim: the prange-parallel fused numba layer step beats
    the scipy backend at the 1024x120 official-scale smoke shape.

    Runs one fused ``sparse_layer_step`` at ``E2_SCALE_NEURONS`` width
    with challenge connectivity (32 connections/neuron) and asserts the
    numba tier wins outright; the same numbers are recorded in the
    committed ``BENCH_<PR>.json`` ledger when the measuring environment
    has numba installed.
    """
    import numpy as np

    from repro.backends import get_backend
    from repro.sparse.csr import CSRMatrix

    network = generate_challenge_network(
        E2_SCALE_NEURONS, 2, connections=32, seed=42
    )
    weight = network.weights[0]
    batch = challenge_input_batch(E2_SCALE_NEURONS, E2_SCALE_BATCH, seed=43)
    y = CSRMatrix.from_dense(batch)
    bias = np.asarray(network.biases[0], dtype=np.float64)
    edges = weight.nnz * E2_SCALE_BATCH

    timings = {}
    for name in ("numba", "scipy"):
        backend = get_backend(name)
        warmup = getattr(backend, "warmup", None)
        if warmup is not None:
            warmup()
        timings[name], _ = _timed_best(
            lambda: backend.sparse_layer_step(y, weight, bias, network.threshold),
            rounds=5,
        )

    report_table(
        "E2: fused layer step at official-scale shape (numba vs scipy)",
        ["backend", "seconds", "edges/s"],
        [[name, round(seconds, 5), int(edges / seconds)]
         for name, seconds in timings.items()],
    )
    assert timings["numba"] < timings["scipy"], (
        f"fused numba layer step ({timings['numba']:.5f}s) should beat "
        f"scipy ({timings['scipy']:.5f}s) at official-scale shape"
    )


def test_e2_activation_policy_memory(benchmark, report_table):
    """Dense vs sparse activation policy: identical categories, reported
    edges/second and peak activation nnz side by side."""
    network = generate_challenge_network(E2_NEURONS, E2_LAYERS, connections=8, seed=1)
    batch = challenge_input_batch(E2_NEURONS, E2_BATCH, seed=2)
    engine = InferenceEngine(network)
    dense = engine.run(batch, activations="dense")
    sparse = benchmark.pedantic(
        engine.run, args=(batch,), kwargs={"activations": "sparse"},
        rounds=3, iterations=1,
    )
    assert list(sparse.categories) == list(dense.categories)
    # the memory *win* is asserted at official scale in
    # test_e2_official_scale_sparse_policy; here the peaks are reported
    # for whatever instance the E2_* env selected
    benchmark.extra_info["dense_edges_per_second"] = dense.edges_per_second
    benchmark.extra_info["sparse_edges_per_second"] = sparse.edges_per_second
    benchmark.extra_info["dense_buffer_elements"] = batch.size
    benchmark.extra_info["sparse_peak_activation_nnz"] = sparse.peak_activation_nnz

    report_table(
        "E2: activation policy comparison (identical categories)",
        ["policy", "edges/s", "peak activation nnz", "dense buffer elements"],
        [
            ["dense", int(dense.edges_per_second), dense.peak_activation_nnz, batch.size],
            ["sparse", int(sparse.edges_per_second), sparse.peak_activation_nnz, batch.size],
        ],
    )


def test_e2_official_scale_sparse_policy(benchmark, report_table):
    """Smallest official challenge size under the sparse activation policy.

    1024 neurons x 120 layers (the entry point of the official scaling
    series; ``E2_SCALE_*`` env vars shrink it for constrained runners)
    must complete with CSR activations end-to-end, with peak activation
    storage below the dense ``batch * neurons`` buffer.  The input
    fraction keeps the instance alive through all layers without the
    early transient saturating to full density.
    """
    network = generate_challenge_network(
        E2_SCALE_NEURONS, E2_SCALE_LAYERS, connections=32, seed=42
    )
    batch = challenge_input_batch(
        E2_SCALE_NEURONS, E2_SCALE_BATCH, active_fraction=0.28, seed=43
    )
    engine = InferenceEngine(network)
    result = benchmark.pedantic(
        engine.run, args=(batch,), kwargs={"activations": "sparse"},
        rounds=1, iterations=1,
    )
    assert result.layer_modes == ["sparse"] * E2_SCALE_LAYERS
    assert result.peak_activation_nnz < batch.size
    benchmark.extra_info["edges_per_second"] = result.edges_per_second
    benchmark.extra_info["peak_activation_nnz"] = result.peak_activation_nnz
    benchmark.extra_info["dense_buffer_elements"] = batch.size

    report_table(
        "E2: official-scale sparse activation policy",
        ["neurons", "layers", "edges/s", "peak nnz", "dense buffer", "final density"],
        [[
            E2_SCALE_NEURONS,
            E2_SCALE_LAYERS,
            int(result.edges_per_second),
            result.peak_activation_nnz,
            batch.size,
            round(result.layer_density[-1], 4),
        ]],
    )


def _traced_generation_peak_mb(neurons: int, layers: int, connections: int) -> float:
    """tracemalloc peak (MB) of consuming the layer generator, disk-free.

    Isolated per call, unlike ``ru_maxrss`` (a process-lifetime
    high-water mark that earlier tests in the same pytest process would
    contaminate): this is the number that demonstrates generation memory
    is bounded by a single layer's nnz.  Measured without the TSV write
    (tracemalloc makes ``np.savetxt`` pathologically slow and per-row
    string buffers are transient anyway).
    """
    import tracemalloc

    tracemalloc.start()
    try:
        for _ in iter_generate_challenge_layers(
            neurons, layers, connections=connections, seed=7
        ):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def test_e2_generation_throughput(benchmark, tmp_path, report_table):
    """Streaming generation -> disk: edges/second generated and peak memory.

    Drives the fully sparse generation path
    (:func:`iter_generate_challenge_layers` feeding
    :func:`save_challenge_layers`): one CSR layer resident at a time,
    TSV + sidecar members written as each layer is produced.  Size is
    tunable via ``E2_GEN_NEURONS`` / ``E2_GEN_LAYERS``.  Reports both
    the per-run traced generation peak (isolated; see
    :func:`_traced_generation_peak_mb`) and the process-lifetime RSS
    high-water mark for context.
    """
    neurons, layers, connections = E2_GEN_NEURONS, E2_GEN_LAYERS, 32
    if neurons % connections != 0:
        connections = 8
    edges = neurons * connections * layers

    def generate():
        return save_challenge_layers(
            tmp_path / "net",
            iter_generate_challenge_layers(
                neurons, layers, connections=connections, seed=7
            ),
            neurons=neurons,
            num_layers=layers,
            threshold=32.0,
        )

    benchmark.pedantic(generate, rounds=3, iterations=1)
    seconds = benchmark.stats.stats.mean
    traced_mb = _traced_generation_peak_mb(neurons, layers, connections)
    benchmark.extra_info["edges_generated"] = edges
    benchmark.extra_info["edges_per_second"] = edges / seconds
    benchmark.extra_info["generation_peak_traced_mb"] = traced_mb
    benchmark.extra_info["process_peak_rss_mb"] = peak_rss_mb()

    report_table(
        "E2: streaming challenge generation -> disk",
        ["neurons", "layers", "edges", "seconds", "edges/s", "gen peak (MB, traced)"],
        [[neurons, layers, edges, round(seconds, 4), int(edges / seconds), round(traced_mb, 1)]],
    )


@pytest.mark.slow
def test_e2_generation_official_scale_smoke(tmp_path, report_table):
    """16384-neuron generation smoke: the old dense path allocated an N^2
    buffer per layer (2 GB at this size); the sparse streaming path must
    complete quickly in bounded memory.  ``E2_GEN_SCALE_*``-tunable up to
    the full official 65536."""
    neurons, layers = E2_GEN_SCALE_NEURONS, E2_GEN_SCALE_LAYERS
    connections = 32
    edges = neurons * connections * layers
    start = time.perf_counter()
    save_challenge_layers(
        tmp_path / "net",
        iter_generate_challenge_layers(neurons, layers, connections=connections, seed=8),
        neurons=neurons,
        num_layers=layers,
        threshold=32.0,
    )
    seconds = time.perf_counter() - start
    traced_mb = _traced_generation_peak_mb(neurons, layers, connections)
    dense_layer_mb = neurons * neurons * 8 / 2**20
    # far below the dense per-layer buffer; the 64 MB floor keeps the
    # bound meaningful when E2_GEN_SCALE_* shrinks the run to sizes where
    # constant interpreter/numpy overhead dominates
    assert traced_mb < max(dense_layer_mb / 8, 64.0)
    report_table(
        "E2: official-scale streaming generation smoke",
        ["neurons", "layers", "edges", "seconds", "edges/s", "gen peak (MB, traced)", "dense layer (MB)"],
        [[neurons, layers, edges, round(seconds, 4), int(edges / seconds),
          round(traced_mb, 1), int(dense_layer_mb)]],
    )


E2_SERVE_REQUESTS = int(os.environ.get("E2_SERVE_REQUESTS", "80"))
E2_SERVE_CLIENTS = int(os.environ.get("E2_SERVE_CLIENTS", "4"))
E2_SERVE_ROWS = int(os.environ.get("E2_SERVE_ROWS", "2"))


@pytest.mark.parametrize("backend", available_backends())
def test_e2_serve_throughput(benchmark, backend, report_table):
    """Requests/second + tail latency of a live serve instance per backend.

    Spins an in-process server (:func:`repro.serve.serve_in_background`,
    the same app behind ``repro challenge serve``) with the network
    resident, then drives it with the bundled load generator
    (:func:`repro.serve.bench_serve`, the ``bench-serve`` CLI body).
    Every number lands in ``extra_info``, so the ``--benchmark-json``
    artifact is a per-backend (and, via ``E2_ACTIVATIONS``, per-policy)
    serving comparison.  ``auto`` is mapped to ``dense``: serving mixes
    batch sizes, and the forced policies are the reproducible ones.
    """
    from repro.serve import ServingEngine, bench_serve, serve_in_background

    policy = E2_ACTIVATIONS if E2_ACTIVATIONS in ("dense", "sparse") else "dense"
    network = generate_challenge_network(E2_NEURONS, E2_LAYERS, connections=8, seed=1)
    engine = ServingEngine.from_network(network, backend=backend, activations=policy)

    def load():
        with serve_in_background(engine, max_batch=32) as handle:
            host, port = handle.address
            return bench_serve(
                host, port,
                requests=E2_SERVE_REQUESTS,
                clients=E2_SERVE_CLIENTS,
                rows_per_request=E2_SERVE_ROWS,
                seed=3,
            )

    report = benchmark.pedantic(load, rounds=1, iterations=1)
    assert report["errors"] == 0
    assert report["completed"] == E2_SERVE_REQUESTS
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["activation_policy"] = policy
    benchmark.extra_info["requests_per_second"] = report["requests_per_second"]
    benchmark.extra_info["rows_per_second"] = report["rows_per_second"]
    benchmark.extra_info["latency_p50_ms"] = report["latency_p50_ms"]
    benchmark.extra_info["latency_p99_ms"] = report["latency_p99_ms"]
    benchmark.extra_info["mean_batch_rows"] = report["server_stats"]["mean_batch_rows"]

    report_table(
        f"E2: serve throughput ({backend}, {policy} activations, "
        f"{E2_SERVE_CLIENTS} clients)",
        ["requests", "req/s", "rows/s", "p50 (ms)", "p99 (ms)", "mean batch rows"],
        [[
            report["completed"],
            int(report["requests_per_second"]),
            int(report["rows_per_second"]),
            round(report["latency_p50_ms"], 2),
            round(report["latency_p99_ms"], 2),
            round(report["server_stats"]["mean_batch_rows"], 1),
        ]],
    )


def _timed_best(fn, rounds=3):
    """Best-of-N wall-clock of ``fn`` plus its last result."""
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_e2_pipeline_overlap_profile(benchmark, tmp_path, report_table):
    """Staged-pipeline profile: prefetch overlap on/off, wall-clock + peak RSS.

    Streams a saved network from its TSVs (``use_cache=False``, so the
    load stage does real parsing work) three ways: no prefetch, a
    background prefetch thread, and the sidecar-process transport (which
    overlaps even the GIL-holding parse with the compute kernels).
    Categories must be identical in all three.  On single-core runners
    no overlap is physically possible, so the timing assertions pin
    *bounded overhead*, not a strict speedup -- the reported table and
    the ``extra_info`` in the benchmark JSON are the profile artifact
    (``cpu_count`` is recorded so a reader can interpret the ratios).
    """
    neurons, layers, batch_rows = 512, 24, 128
    network = generate_challenge_network(neurons, layers, connections=8, seed=9)
    net_dir = tmp_path / "net"
    save_challenge_network(network, net_dir)
    batch = challenge_input_batch(neurons, batch_rows, seed=10)

    def run(prefetch, transport="thread"):
        return run_challenge_pipeline(
            net_dir, neurons, batch, prefetch=prefetch, transport=transport,
            use_cache=False, record_timing=False,
        )

    off_seconds, off = _timed_best(lambda: run(0))
    thread_seconds, via_thread = _timed_best(lambda: run(4))
    process_seconds, via_process = _timed_best(lambda: run(4, "process"))
    via_benchmark = benchmark.pedantic(run, args=(4,), rounds=3, iterations=1)

    for outcome in (via_thread, via_process, via_benchmark):
        assert outcome.completed
        assert list(outcome.result.categories) == list(off.result.categories)
    # overlap must never cost much even where it cannot win (1-core boxes);
    # the process transport additionally pays spawn + array shipping
    assert thread_seconds < off_seconds * 1.5
    assert process_seconds < off_seconds * 2.0

    cpus = os.cpu_count() or 1
    rss = peak_rss_mb()
    benchmark.extra_info["cpu_count"] = cpus
    benchmark.extra_info["overlap_off_seconds"] = off_seconds
    benchmark.extra_info["overlap_thread_seconds"] = thread_seconds
    benchmark.extra_info["overlap_process_seconds"] = process_seconds
    benchmark.extra_info["thread_speedup"] = off_seconds / thread_seconds
    benchmark.extra_info["process_speedup"] = off_seconds / process_seconds
    benchmark.extra_info["peak_rss_mb"] = rss  # None (JSON null) when unavailable

    report_table(
        f"E2: pipeline prefetch overlap profile ({cpus} CPUs, "
        f"peak RSS {format_rss_mb(rss)})",
        ["configuration", "seconds", "speedup vs off"],
        [
            ["prefetch off", round(off_seconds, 4), "1.00x"],
            ["prefetch 4 (thread)", round(thread_seconds, 4),
             f"{off_seconds / thread_seconds:.2f}x"],
            ["prefetch 4 (process)", round(process_seconds, 4),
             f"{off_seconds / process_seconds:.2f}x"],
        ],
    )


def test_e2_pipeline_checkpoint_resume_overhead(tmp_path, report_table):
    """Checkpointed + interrupted + resumed run: bit-identical categories,
    and periodic checkpointing stays a small fraction of the run."""
    neurons, layers = 256, 24
    network = generate_challenge_network(neurons, layers, connections=8, seed=11)
    net_dir = tmp_path / "net"
    save_challenge_network(network, net_dir)
    batch = challenge_input_batch(neurons, 64, seed=12)

    plain_seconds, plain = _timed_best(
        lambda: run_challenge_pipeline(net_dir, neurons, batch, prefetch=0,
                                       record_timing=False))
    ck_seconds, checkpointed = _timed_best(
        lambda: run_challenge_pipeline(net_dir, neurons, batch, prefetch=0,
                                       checkpoint_dir=tmp_path / "ck",
                                       checkpoint_every=4, record_timing=False))
    staged = run_challenge_pipeline(net_dir, neurons, batch, prefetch=0,
                                    checkpoint_dir=tmp_path / "ck2",
                                    checkpoint_every=4, stop_after=layers // 2,
                                    record_timing=False)
    assert not staged.completed
    resumed = resume_challenge_pipeline(tmp_path / "ck2")
    assert resumed.completed and resumed.resumed_from == layers // 2
    assert list(plain.result.categories) == list(checkpointed.result.categories)
    assert list(plain.result.categories) == list(resumed.result.categories)
    assert (plain.result.activations == resumed.result.activations).all()

    report_table(
        "E2: pipeline checkpoint/resume (identical categories)",
        ["configuration", "seconds"],
        [
            ["no checkpointing", round(plain_seconds, 4)],
            [f"checkpoint every 4 of {layers}", round(ck_seconds, 4)],
        ],
    )


@pytest.mark.slow
def test_e2_official_scale_streaming_overlap(tmp_path, report_table):
    """The 1024x120 official entry size through the staged streaming pipeline.

    Generates the network to disk, then runs checkpointed streaming
    inference with the prefetch overlap off / thread / process, straight
    from the TSVs.  ``E2_SCALE_*`` tunes the size.  Assertions pin
    identical categories and bounded overhead; the wall-clock comparison
    is the report (overlap can only win where cores are available).
    """
    neurons, layers = E2_SCALE_NEURONS, E2_SCALE_LAYERS
    connections = 32 if neurons % 32 == 0 else 8
    net_dir = tmp_path / "net"
    save_challenge_layers(
        net_dir,
        iter_generate_challenge_layers(neurons, layers, connections=connections, seed=42),
        neurons=neurons, num_layers=layers, threshold=32.0,
    )
    batch = challenge_input_batch(neurons, E2_SCALE_BATCH, active_fraction=0.28, seed=43)

    results = {}
    timings = {}
    for label, kwargs in (
        ("prefetch off", {"prefetch": 0}),
        ("prefetch 4 (thread)", {"prefetch": 4}),
        ("prefetch 4 (process)", {"prefetch": 4, "transport": "process"}),
    ):
        start = time.perf_counter()
        results[label] = run_challenge_pipeline(
            net_dir, neurons, batch, use_cache=False, record_timing=False, **kwargs
        )
        timings[label] = time.perf_counter() - start
    baseline = results["prefetch off"]
    for label, outcome in results.items():
        assert outcome.completed, label
        assert list(outcome.result.categories) == list(baseline.result.categories), label
    assert timings["prefetch 4 (thread)"] < timings["prefetch off"] * 1.5
    assert timings["prefetch 4 (process)"] < timings["prefetch off"] * 2.0

    rss = peak_rss_mb()
    report_table(
        f"E2: official-scale streaming overlap ({neurons}x{layers}, "
        f"{os.cpu_count() or 1} CPUs, peak RSS {format_rss_mb(rss)})",
        ["configuration", "seconds", "edges/s"],
        [[label, round(seconds, 3),
          int(baseline.result.edges_traversed / seconds)]
         for label, seconds in timings.items()],
    )


def test_e2_io_round_trip_speed(benchmark, tmp_path, report_table):
    """TSV round-trip is vectorized and the binary sidecar beats reparsing.

    Asserts the round-trip's *shape*: save+load preserves the network,
    and a warm (sidecar-cached, memory-mapped) load is faster than a
    cold TSV parse of the same network.  The instance size is fixed
    (independent of the ``E2_*`` smoke shrinkage) at a point where
    parsing cost, not constant per-layer overhead, dominates -- the
    comparison is meaningless on a handful of TSV lines.
    """
    import time as _time

    neurons, layers = 256, 24
    network = generate_challenge_network(neurons, layers, connections=8, seed=1)

    def round_trip():
        save_challenge_network(network, tmp_path)
        return load_challenge_network(tmp_path, neurons)

    loaded = benchmark.pedantic(round_trip, rounds=3, iterations=1)
    assert loaded.topology.same_topology(network.topology)

    start = _time.perf_counter()
    load_challenge_network(tmp_path, neurons, use_cache=False)
    tsv_seconds = _time.perf_counter() - start
    start = _time.perf_counter()
    load_challenge_network(tmp_path, neurons)
    cached_seconds = _time.perf_counter() - start
    assert cached_seconds < tsv_seconds, (
        f"sidecar cache load ({cached_seconds:.4f}s) should beat "
        f"TSV parsing ({tsv_seconds:.4f}s)"
    )
    benchmark.extra_info["tsv_load_seconds"] = tsv_seconds
    benchmark.extra_info["cached_load_seconds"] = cached_seconds

    report_table(
        "E2: challenge network I/O round trip",
        ["path", "seconds"],
        [["cold TSV parse", round(tsv_seconds, 4)], ["warm sidecar (mmap)", round(cached_seconds, 4)]],
    )


def test_e2_chunked_engine_matches_single_shot(benchmark, report_table):
    """Chunked mini-batch streaming is bit-identical to the single-shot path."""
    network = generate_challenge_network(E2_NEURONS, max(4, E2_LAYERS // 2), connections=8, seed=5)
    batch = challenge_input_batch(E2_NEURONS, E2_BATCH, seed=6)
    engine = InferenceEngine(network, backend=None)
    single = engine.run(batch, record_timing=False)

    chunked = benchmark.pedantic(
        engine.run, args=(batch,), kwargs={"chunk_size": max(1, E2_BATCH // 8)},
        rounds=3, iterations=1,
    )
    assert (chunked.activations == single.activations).all()
    assert list(chunked.categories) == list(single.categories)

    report_table(
        "E2: chunked vs single-shot inference",
        ["mode", "batch", "categories", "edges"],
        [
            ["single-shot", batch.shape[0], single.categories.size, single.edges_traversed],
            [f"chunked ({max(1, E2_BATCH // 8)}/chunk)", batch.shape[0], chunked.categories.size, chunked.edges_traversed],
        ],
    )
