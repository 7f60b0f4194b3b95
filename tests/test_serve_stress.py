"""Concurrency stress tests: many clients against a live serve instance.

The acceptance property of the serving subsystem: N concurrent clients
firing mixed-size requests at a real TCP server lose nothing -- every
request is answered exactly once, every answer is bit-identical to a
single-shot :meth:`InferenceEngine.run` of the same rows, and a graceful
shutdown drains whatever was accepted.  Runs on every registered backend.

PR 7 widens the same properties to the scale-out pieces: a worker pool
hammered by producer threads keeps exact counter totals, and a replica
fleet behind the load balancer is indistinguishable from one server --
same exactly-once + bit-identity guarantees over live TCP, plus
aggregated fleet stats that account for every request.
"""

import os
import threading

import numpy as np
import pytest

from repro.backends import available_backends
from repro.challenge.generator import (
    challenge_input_batch,
    generate_challenge_network,
)
from repro.challenge.inference import InferenceEngine
from repro.challenge.io import save_challenge_network
from repro.serve import (
    EngineStep,
    MicroBatcher,
    ServeClient,
    ServingEngine,
    serve_fleet_in_background,
    serve_in_background,
)

NEURONS = 64
LAYERS = 6
CLIENTS = 6
REQUESTS_PER_CLIENT = 6


@pytest.fixture(scope="module")
def network():
    return generate_challenge_network(NEURONS, LAYERS, connections=8, seed=21)


def _mixed_requests(client_index: int) -> list[np.ndarray]:
    """Deterministic mixed-size (1..4 rows) request blocks for one client."""
    sizes = [1 + (client_index + i) % 4 for i in range(REQUESTS_PER_CLIENT)]
    return [
        challenge_input_batch(NEURONS, size, seed=1000 * client_index + i)
        for i, size in enumerate(sizes)
    ]


def _fire_clients(address, policy_reference, *, encoding="dense"):
    """CLIENTS threads x REQUESTS_PER_CLIENT requests; returns observations."""
    host, port = address
    results: dict[str, dict] = {}
    errors: list[str] = []
    lock = threading.Lock()
    barrier = threading.Barrier(CLIENTS)

    def client_body(index: int) -> None:
        try:
            with ServeClient(host, port) as client:
                barrier.wait(timeout=30)
                for i, rows in enumerate(_mixed_requests(index)):
                    request_id = f"c{index}-r{i}"
                    response = client.infer(
                        rows,
                        request_id=request_id,
                        want_activations=True,
                        encoding=encoding,
                    )
                    with lock:
                        if response["id"] in results:
                            errors.append(f"duplicate response id {response['id']}")
                        results[response["id"]] = response
        except Exception as exc:  # noqa: BLE001 - surfaced via the errors list
            with lock:
                errors.append(f"client {index}: {exc!r}")

    threads = [
        threading.Thread(target=client_body, args=(i,), daemon=True)
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive(), "stress client wedged"
    assert errors == []

    # no request dropped or duplicated: exactly one response per id
    assert len(results) == CLIENTS * REQUESTS_PER_CLIENT
    # bit-identical to single-shot runs of the same rows
    for index in range(CLIENTS):
        for i, rows in enumerate(_mixed_requests(index)):
            response = results[f"c{index}-r{i}"]
            single = policy_reference.run(rows, record_timing=False)
            assert (np.asarray(response["activations"]) == single.activations).all()
            assert response["categories"] == [int(c) for c in single.categories]
    return results


@pytest.mark.parametrize("backend", available_backends())
def test_live_server_stress_dense_policy(network, backend):
    engine = ServingEngine.from_network(network, backend=backend, activations="dense")
    reference = InferenceEngine(network, backend=backend, activations="dense")
    with serve_in_background(engine, max_batch=8) as handle:
        results = _fire_clients(handle.address, reference)
        host, port = handle.address
        with ServeClient(host, port) as client:
            stats = client.stats()
        # served everything exactly once, coalescing at least some requests
        assert stats["requests"] == CLIENTS * REQUESTS_PER_CLIENT
        assert stats["rows"] == sum(
            r.shape[0] for i in range(CLIENTS) for r in _mixed_requests(i)
        )
        assert stats["pending"] == 0
        assert stats["batches"] <= stats["requests"]
    # context exit = graceful stop: the server thread is down
    assert not handle._thread.is_alive()
    # at least one response should have ridden a multi-request batch under
    # concurrent load *or* every batch was a lone request (slow machine);
    # either way the batch accounting must be internally consistent
    observed = {r["stats"]["batch_requests"] for r in results.values()}
    assert all(n >= 1 for n in observed)


def test_live_server_stress_sparse_policy(network):
    engine = ServingEngine.from_network(network, activations="sparse")
    reference = InferenceEngine(network, activations="sparse")
    with serve_in_background(engine, max_batch=8) as handle:
        _fire_clients(handle.address, reference, encoding="sparse")


def test_mixed_ops_under_load(network):
    """Control ops interleaved with inference traffic stay consistent."""
    engine = ServingEngine.from_network(network, activations="dense")
    reference = InferenceEngine(network, activations="dense")
    rows = challenge_input_batch(NEURONS, 2, seed=7)
    single = reference.run(rows, record_timing=False)
    stop = threading.Event()
    control_errors: list[str] = []

    def control_body() -> None:
        try:
            with ServeClient(*handle.address) as client:
                while not stop.is_set():
                    assert client.ping()["op"] == "pong"
                    stats = client.stats()
                    assert stats["requests"] >= 0
        except Exception as exc:  # noqa: BLE001
            control_errors.append(repr(exc))

    with serve_in_background(engine, max_batch=4) as handle:
        control = threading.Thread(target=control_body, daemon=True)
        control.start()
        with ServeClient(*handle.address) as client:
            for i in range(20):
                response = client.infer(rows, request_id=f"mix-{i}", want_activations=True)
                assert (np.asarray(response["activations"]) == single.activations).all()
        stop.set()
        control.join(timeout=30)
        assert not control.is_alive()
    assert control_errors == []


def test_shutdown_drains_accepted_requests(network):
    """Everything accepted before close() completes -- nothing is dropped."""
    engine = ServingEngine.from_network(network, activations="dense")
    reference = InferenceEngine(network, activations="dense")
    batcher = MicroBatcher(engine.step, max_batch=4).start()
    requests = [challenge_input_batch(NEURONS, 1 + i % 3, seed=i) for i in range(25)]
    pendings = [batcher.submit(rows) for rows in requests]
    batcher.close(drain=True)  # the graceful-shutdown path the app uses
    for rows, pending in zip(requests, pendings):
        assert pending.done()
        single = reference.run(rows, record_timing=False)
        assert (pending.result(timeout=0).activations == single.activations).all()
    assert batcher.stats.requests == len(requests)


# --------------------------------------------------------------------------- #
# PR 7: worker-pool counter integrity under a producer/consumer hammer
# --------------------------------------------------------------------------- #
def test_worker_pool_thread_hammer_keeps_exact_totals():
    """P producers x N consumer workers: every counter lands exactly.

    The engine step is trivial (identity), so the test is all contention:
    queue pops, push-backs (tiny ``max_batch`` forces them constantly),
    and stats updates racing across 4 workers.  Totals must come out
    exact -- the lock-protection regression test for the counters.
    """
    producers, per_producer = 8, 40
    batcher = MicroBatcher(
        lambda rows: EngineStep(
            activations=np.asarray(rows, dtype=np.float64), layer_modes=["dense"]
        ),
        max_batch=3,  # below common request sizes: exercises push-back
        workers=4,
    ).start()
    completed: list = []
    lock = threading.Lock()
    barrier = threading.Barrier(producers)

    def producer_body(index: int) -> None:
        barrier.wait(timeout=30)
        pendings = []
        for i in range(per_producer):
            rows = np.full((1 + (index + i) % 4, 2), float(index * 1000 + i))
            pendings.append((rows, batcher.submit(rows)))
        for rows, pending in pendings:
            result = pending.result(timeout=60)
            with lock:
                completed.append((rows, result))

    threads = [
        threading.Thread(target=producer_body, args=(i,), daemon=True)
        for i in range(producers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "producer wedged"
    batcher.close(drain=True)

    total_requests = producers * per_producer
    total_rows = sum(rows.shape[0] for rows, _ in completed)
    assert len(completed) == total_requests  # exactly once, none lost
    assert batcher.stats.requests == total_requests
    assert batcher.stats.rows == total_rows
    assert batcher.stats.failures == 0
    assert len(batcher.queue) == 0
    # the batch partition accounts for every row: per-request batch stats
    # sum (weighted by batches) to the row total, and identity survived
    for rows, result in completed:
        assert (result.activations == rows).all()
    snapshot = batcher.stats_dict()
    assert snapshot["requests"] == total_requests
    assert snapshot["workers"] == 4
    assert snapshot["total_queue_wait_s"] >= 0.0
    assert snapshot["total_service_s"] >= 0.0


# --------------------------------------------------------------------------- #
# PR 7: replica fleet behind the balancer, over live TCP
# --------------------------------------------------------------------------- #
def test_replica_fleet_stress_matches_single_shot(network, tmp_path):
    """2 replicas x 2 workers behind the balancer: same guarantees as one
    server -- exactly-once, bit-identical, fleet stats account for all."""
    directory = save_challenge_network(network, tmp_path / "net")
    reference = InferenceEngine(network, activations="dense")
    with serve_fleet_in_background(
        replicas=2,
        directory=directory,
        neurons=NEURONS,
        workdir=tmp_path / "fleet",
        max_batch=8,
        workers=2,
        activations="dense",
    ) as handle:
        _fire_clients(handle.address, reference)
        host, port = handle.address
        with ServeClient(host, port) as client:
            meta = client.meta()
            stats = client.stats()
        assert meta["fleet"] is True
        assert meta["replicas"] == 2
        assert meta["neurons"] == NEURONS
        # aggregated fleet totals: every request accounted for, exactly once
        assert stats["requests"] == CLIENTS * REQUESTS_PER_CLIENT
        assert stats["rows"] == sum(
            r.shape[0] for i in range(CLIENTS) for r in _mixed_requests(i)
        )
        assert stats["pending"] == 0
        assert len(stats["replicas"]) == 2
        assert sum(r["requests"] for r in stats["replicas"]) == stats["requests"]
        # the balancer spread the load: both replicas served something
        assert all(count > 0 for count in stats["balancer"]["routed"])
        assert stats["balancer"]["replicas"] == 2
    # context exit = shutdown broadcast: every subprocess reaped
    assert all(not replica.alive() for replica in handle.fleet.replicas)


# --------------------------------------------------------------------------- #
# PR 7: multi-worker speedup (needs real cores; the CI slow job has them)
# --------------------------------------------------------------------------- #
@pytest.mark.slow
def test_multi_worker_throughput_beats_single_worker(network):
    """On a multi-core box, 4 workers must out-serve 1 on saturating load."""
    if (os.cpu_count() or 1) < 2:
        pytest.skip("needs >= 2 cores to demonstrate a worker-pool speedup")
    from repro.serve import bench_serve

    throughput = {}
    for workers in (1, 4):
        engine = ServingEngine.from_network(network, activations="dense")
        with serve_in_background(
            engine, max_batch=16, workers=workers
        ) as handle:
            host, port = handle.address
            report = bench_serve(
                host, port, requests=300, clients=8, rows_per_request=2, seed=3
            )
            assert report["errors"] == 0
            throughput[workers] = report["requests_per_second"]
    # generous margin: scheduling noise must not flake the assertion, but a
    # worker pool that adds nothing (or regresses) must fail it
    assert throughput[4] > throughput[1] * 1.1, throughput
