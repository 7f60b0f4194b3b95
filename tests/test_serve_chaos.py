"""Chaos suite: the fleet's resilience guarantees under injected faults.

Driven by :mod:`chaos` (the ``FaultProxy`` TCP shim and the
``kill_replica`` SIGKILL helper), these tests pin the resilience
contract of :mod:`repro.serve.balancer`:

* a request lost to a severed connection is retried on another replica
  and the client sees **exactly one** response, **bit-identical** to a
  single-shot :meth:`InferenceEngine.run` of the same rows;
* consecutive failures eject a replica from rotation, a successful
  readiness ping re-admits it, and ``stats`` reports the rotation
  states truthfully even while it changes (the mid-aggregation
  snapshot regression);
* a replica SIGKILLed mid-load costs zero client errors, and the
  supervisor restores the fleet to its configured strength;
* ``drain`` / rolling restart cycle every replica with zero dropped
  requests.

The connection-level tests front one in-process server with fault
proxies posing as replicas (fast, no subprocesses); the process-level
tests run a real 2-replica subprocess fleet.
"""

import threading

import numpy as np
import pytest
from chaos import FaultProxy, kill_replica, wait_until

from repro.challenge.generator import (
    challenge_input_batch,
    generate_challenge_network,
)
from repro.challenge.inference import InferenceEngine
from repro.challenge.io import save_challenge_network
from repro.errors import ServeError
from repro.serve import (
    HealthPolicy,
    ServeClient,
    ServingEngine,
    serve_balancer_in_background,
    serve_fleet_in_background,
    serve_in_background,
)
from repro.serve.health import STATE_EJECTED, STATE_HEALTHY

NEURONS = 32
LAYERS = 4

# tight timings so fault->eject->readmit cycles complete in test time
FAST_HEALTH = dict(
    interval_s=0.05,
    fail_threshold=2,
    retry_limit=5,
    retry_base_s=0.02,
    retry_cap_s=0.2,
    ping_timeout_s=2.0,
)


@pytest.fixture(scope="module")
def network():
    return generate_challenge_network(NEURONS, LAYERS, connections=8, seed=33)


@pytest.fixture(scope="module")
def reference(network):
    return InferenceEngine(network, activations="dense")


@pytest.fixture()
def backend_server(network):
    """One in-process serve instance the proxies front as fake replicas."""
    engine = ServingEngine.from_network(network, activations="dense")
    with serve_in_background(engine, max_batch=8) as handle:
        yield handle


def _assert_bit_identical(response: dict, rows: np.ndarray, reference) -> None:
    single = reference.run(rows, record_timing=False)
    assert (np.asarray(response["activations"]) == single.activations).all()
    assert response["categories"] == [int(c) for c in single.categories]


# --------------------------------------------------------------------------- #
# connection-level faults through the proxy
# --------------------------------------------------------------------------- #
def test_severed_responses_are_retried_exactly_once(
    backend_server, reference
):
    """Connections severed after the backend did the work: the client
    still sees exactly one bit-identical response per request."""
    host, port = backend_server.address
    with FaultProxy(host, port) as flaky, FaultProxy(host, port) as steady:
        with serve_balancer_in_background(
            [flaky.address, steady.address],
            health=HealthPolicy(**FAST_HEALTH),
            health_checks=False,  # no ping traffic: the armed sever must
            # hit the infer response, deterministically
            request_timeout_s=10.0,
        ) as handle:
            with ServeClient(*handle.address, timeout_s=30.0) as client:
                requests = [
                    challenge_input_batch(NEURONS, 1 + i % 3, seed=50 + i)
                    for i in range(12)
                ]
                seen: set[str] = set()
                for i, rows in enumerate(requests):
                    if i in (2, 6):
                        # the nastiest loss: the very next response line
                        # through the flaky path dies mid-flight
                        flaky.sever_after_responses(0)
                    response = client.infer(
                        rows, request_id=f"chaos-{i}", want_activations=True
                    )
                    assert response["id"] not in seen  # exactly once
                    seen.add(response["id"])
                    _assert_bit_identical(response, rows, reference)
                stats = client.stats()
            assert len(seen) == len(requests)
            assert flaky.severed >= 2
            assert stats["balancer"]["retries"] >= 2


def test_failed_replica_is_ejected_then_readmitted_by_ping(
    backend_server, reference
):
    host, port = backend_server.address
    with FaultProxy(host, port) as flaky, FaultProxy(host, port) as steady:
        with serve_balancer_in_background(
            [flaky.address, steady.address],
            health=HealthPolicy(**FAST_HEALTH),
            request_timeout_s=10.0,
        ) as handle:
            monitor = handle.balancer.monitor
            flaky.fail()  # full outage on replica 0
            wait_until(lambda: monitor.state(0) == STATE_EJECTED, timeout_s=15.0)
            # traffic keeps flowing through the healthy replica, and the
            # stats snapshot reports the rotation truthfully mid-ejection
            rows = challenge_input_batch(NEURONS, 2, seed=77)
            with ServeClient(*handle.address, timeout_s=30.0) as client:
                response = client.infer(rows, want_activations=True)
                _assert_bit_identical(response, rows, reference)
                stats = client.stats()
            assert stats["balancer"]["states"][0] == STATE_EJECTED
            assert stats["replicas"][0]["state"] == STATE_EJECTED
            assert stats["replicas"][1]["state"] == STATE_HEALTHY
            assert "requests" in stats["replicas"][1]
            assert stats["balancer"]["health"]["ejections"] >= 1

            flaky.heal()  # one successful ping re-admits it
            wait_until(lambda: monitor.state(0) == STATE_HEALTHY, timeout_s=15.0)
            with ServeClient(*handle.address, timeout_s=30.0) as client:
                response = client.infer(rows, want_activations=True)
                _assert_bit_identical(response, rows, reference)
                stats = client.stats()
            assert stats["balancer"]["health"]["admissions"] >= 1
            assert stats["balancer"]["health"]["pings_ok"] >= 1


def test_client_timeout_raises_clean_error_and_poisons_the_connection(
    backend_server,
):
    """Satellite fix: a hung server fails the request with a clean
    ServeError instead of blocking forever, and the client refuses to
    reuse the desynced connection."""
    host, port = backend_server.address
    with FaultProxy(host, port) as proxy:
        proxy.set_blackhole(True)  # requests vanish: the server never answers
        with ServeClient(*proxy.address, timeout_s=0.3) as client:
            with pytest.raises(ServeError, match="timed out"):
                client.ping()
            with pytest.raises(ServeError, match="broken"):
                client.ping()


def test_drain_rejected_by_a_single_server(backend_server):
    """``drain`` is a balancer-only op; a lone server rejects it cleanly."""
    with ServeClient(*backend_server.address) as client:
        with pytest.raises(ServeError, match="unknown op"):
            client.drain(0)


# --------------------------------------------------------------------------- #
# process-level faults against a real subprocess fleet
# --------------------------------------------------------------------------- #
def _fleet(network, tmp_path, **overrides):
    directory = save_challenge_network(network, tmp_path / "net")
    kwargs = dict(
        replicas=2,
        directory=directory,
        neurons=NEURONS,
        workdir=tmp_path / "fleet",
        max_batch=8,
        workers=2,
        activations="dense",
        health=HealthPolicy(**FAST_HEALTH),
        max_restarts=2,
        supervisor_poll_s=0.05,
    )
    kwargs.update(overrides)
    return serve_fleet_in_background(**kwargs)


def test_replica_killed_mid_load_self_heals_exactly_once(
    network, tmp_path, reference
):
    """The acceptance headline: SIGKILL a replica under load -- zero
    client errors, bit-identical results, fleet back to full strength."""
    clients, per_client = 4, 10
    with _fleet(network, tmp_path) as handle:
        victim_pid = handle.fleet.replicas[0].pid
        results: dict[str, tuple[np.ndarray, dict]] = {}
        errors: list[str] = []
        lock = threading.Lock()
        barrier = threading.Barrier(clients + 1)

        def client_body(index: int) -> None:
            try:
                with ServeClient(*handle.address, timeout_s=60.0) as client:
                    barrier.wait(timeout=30)
                    for i in range(per_client):
                        rows = challenge_input_batch(
                            NEURONS, 1 + (index + i) % 3, seed=index * 1000 + i
                        )
                        response = client.infer(
                            rows,
                            request_id=f"kill-{index}-{i}",
                            want_activations=True,
                        )
                        with lock:
                            assert response["id"] not in results
                            results[response["id"]] = (rows, response)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                with lock:
                    errors.append(f"client {index}: {exc!r}")

        threads = [
            threading.Thread(target=client_body, args=(i,), daemon=True)
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=30)
        kill_replica(victim_pid)  # mid-load, no warning
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "chaos client wedged"

        # every accepted request completed exactly once, bit-identically
        assert errors == []
        assert len(results) == clients * per_client
        for rows, response in results.values():
            _assert_bit_identical(response, rows, reference)

        # the supervisor restores the configured replica count and the
        # replacement re-enters rotation after its readiness ping
        wait_until(lambda: handle.fleet.alive_count() == 2, timeout_s=60.0)
        wait_until(
            lambda: handle.balancer.monitor.states()
            == [STATE_HEALTHY, STATE_HEALTHY],
            timeout_s=60.0,
        )
        assert handle.fleet.replicas[0].pid != victim_pid
        with ServeClient(*handle.address, timeout_s=60.0) as client:
            stats = client.stats()
        assert stats["balancer"]["restarts"] >= 1
        assert [r["state"] for r in stats["replicas"]] == [
            STATE_HEALTHY,
            STATE_HEALTHY,
        ]
    assert all(not replica.alive() for replica in handle.fleet.replicas)


def test_rolling_restart_drops_nothing(network, tmp_path, reference):
    """Drain + warm-restart every replica while load runs: zero errors,
    every replica replaced, every result bit-identical."""
    clients = 3
    with _fleet(network, tmp_path) as handle:
        old_pids = set(handle.fleet.pids)
        stop = threading.Event()
        errors: list[str] = []
        completed = [0] * clients
        lock = threading.Lock()

        def client_body(index: int) -> None:
            try:
                with ServeClient(*handle.address, timeout_s=60.0) as client:
                    i = 0
                    while not stop.is_set():
                        rows = challenge_input_batch(
                            NEURONS, 1 + i % 3, seed=index * 100_000 + i
                        )
                        response = client.infer(rows, want_activations=True)
                        _assert_bit_identical(response, rows, reference)
                        i += 1
                    with lock:
                        completed[index] = i
            except Exception as exc:  # noqa: BLE001 - surfaced below
                with lock:
                    errors.append(f"client {index}: {exc!r}")

        threads = [
            threading.Thread(target=client_body, args=(i,), daemon=True)
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        try:
            addresses = handle.rolling_restart()
        finally:
            stop.set()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "rolling-restart client wedged"

        assert errors == []
        assert all(count > 0 for count in completed)
        assert len(addresses) == 2
        # every replica is a new process, back at full strength
        assert set(handle.fleet.pids).isdisjoint(old_pids)
        assert handle.fleet.alive_count() == 2
        assert handle.balancer.monitor.states() == [STATE_HEALTHY, STATE_HEALTHY]
        with ServeClient(*handle.address, timeout_s=60.0) as client:
            stats = client.stats()
            assert stats["balancer"]["restarts"] == 2

            # the wire-level drain op: one more warm restart, plus the
            # error paths
            pid_before = handle.fleet.replicas[0].pid
            ack = client.drain(0)
            assert ack["ok"] is True and ack["replica"] == 0
            assert handle.fleet.replicas[0].pid != pid_before
            assert handle.balancer.monitor.state(0) == STATE_HEALTHY
            with pytest.raises(ServeError, match="out of range"):
                client.drain(7)
            with pytest.raises(ServeError, match="integer"):
                client.checked({"op": "drain", "replica": "zero"})
            rows = challenge_input_batch(NEURONS, 2, seed=9)
            _assert_bit_identical(
                client.infer(rows, want_activations=True), rows, reference
            )
