"""Unit tests for the serving subsystem (:mod:`repro.serve`).

The batching logic is tested deterministically: a
:class:`repro.utils.clock.FakeClock` replaces every timed wait, and the
tests drive :meth:`MicroBatcher.run_once` directly (no worker thread, no
sleeps), asserting on exact batch compositions.  The TCP layer is tested
against a real in-process server via :func:`serve_in_background`.
"""

import json
import threading

import numpy as np
import pytest

from repro.challenge.generator import (
    challenge_input_batch,
    generate_challenge_network,
)
from repro.challenge.inference import InferenceEngine
from repro.challenge.pipeline import run_challenge_pipeline
from repro.challenge.io import save_challenge_network
from repro.errors import SerializationError, ServeError, ShapeError, ValidationError
from repro.serve import (
    EngineStep,
    MicroBatcher,
    RequestQueue,
    ServeClient,
    ServingEngine,
    bench_serve,
    serve_in_background,
    serve_worker_count,
)
from repro.serve import protocol
from repro.serve.batcher import PendingRequest
from repro.utils.clock import FakeClock, SystemClock

NEURONS = 64
LAYERS = 6
BATCH = 8


@pytest.fixture(scope="module")
def network():
    return generate_challenge_network(NEURONS, LAYERS, connections=8, seed=3)


@pytest.fixture(scope="module")
def batch():
    return challenge_input_batch(NEURONS, BATCH, seed=4)


@pytest.fixture(scope="module")
def net_dir(tmp_path_factory, network):
    directory = tmp_path_factory.mktemp("serve") / "net"
    save_challenge_network(network, directory)
    return directory


def _echo_step(rows: np.ndarray) -> EngineStep:
    """A trivial engine: identity activations (row identity is visible)."""
    return EngineStep(activations=np.asarray(rows, dtype=np.float64), layer_modes=["dense"])


def _rows(*values: float) -> np.ndarray:
    """One-row-per-value matrices with recognizable content."""
    return np.asarray([[v, v + 0.5] for v in values], dtype=np.float64)


# --------------------------------------------------------------------------- #
# clock
# --------------------------------------------------------------------------- #
class TestFakeClock:
    def test_wait_observes_set_event_without_advancing(self):
        clock = FakeClock()
        event = threading.Event()
        event.set()
        assert clock.wait(event, 5.0)
        assert clock.monotonic() == 0.0

    def test_wait_timeout_advances_virtual_time(self):
        clock = FakeClock(start=10.0)
        assert not clock.wait(threading.Event(), 2.5)
        assert clock.monotonic() == 12.5
        assert clock.waits == [2.5]

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            FakeClock().advance(-1.0)

    def test_system_clock_wait_is_event_wait(self):
        event = threading.Event()
        event.set()
        assert SystemClock().wait(event, 0.0)
        assert SystemClock().monotonic() > 0


# --------------------------------------------------------------------------- #
# request queue
# --------------------------------------------------------------------------- #
class TestRequestQueue:
    def _pending(self, rows=1):
        return PendingRequest(np.zeros((rows, 2)), None, 0.0)

    def test_fifo_order_and_available_event(self):
        queue = RequestQueue()
        assert queue.pop() is None
        assert not queue.available.is_set()
        a, b = self._pending(), self._pending()
        queue.put(a)
        queue.put(b)
        assert queue.available.is_set()
        assert queue.pop() is a
        assert queue.available.is_set()  # b still waiting
        assert queue.pop() is b
        assert not queue.available.is_set()

    def test_push_back_goes_to_front(self):
        queue = RequestQueue()
        a, b, c = self._pending(), self._pending(), self._pending()
        queue.put(a)
        queue.put(b)
        popped = queue.pop()
        assert popped is a
        queue.push_back(popped)
        queue.put(c)
        assert [queue.pop(), queue.pop(), queue.pop()] == [a, b, c]

    def test_close_refuses_new_work_but_keeps_queued(self):
        queue = RequestQueue()
        a = self._pending()
        queue.put(a)
        queue.close()
        assert queue.closed
        assert queue.available.is_set()  # parked workers must wake
        with pytest.raises(ServeError, match="closed"):
            queue.put(self._pending())
        assert queue.pop() is a


# --------------------------------------------------------------------------- #
# micro-batcher (deterministic: FakeClock + run_once, no threads)
# --------------------------------------------------------------------------- #
class TestMicroBatcher:
    def test_validation(self):
        with pytest.raises(ValidationError):
            MicroBatcher(_echo_step, max_batch=0)
        with pytest.raises(ValidationError):
            MicroBatcher(_echo_step, idle_wait_s=0)
        batcher = MicroBatcher(_echo_step)
        with pytest.raises(ValidationError):
            batcher.submit(np.zeros(3))  # 1-D
        with pytest.raises(ValidationError):
            batcher.submit(np.zeros((0, 3)))  # empty

    def test_run_once_without_requests_returns_false(self):
        batcher = MicroBatcher(_echo_step, clock=FakeClock())
        assert not batcher.run_once(wait=False)

    def test_coalesces_waiting_requests_into_one_batch(self):
        calls = []

        def step(rows):
            calls.append(rows.copy())
            return _echo_step(rows)

        batcher = MicroBatcher(step, max_batch=8, clock=FakeClock())
        pendings = [batcher.submit(_rows(float(i))) for i in range(3)]
        assert batcher.run_once(wait=False)
        assert len(calls) == 1 and calls[0].shape == (3, 2)
        for i, pending in enumerate(pendings):
            result = pending.result(timeout=0)
            assert (result.activations == _rows(float(i))).all()
            assert result.stats.batch_rows == 3
            assert result.stats.batch_requests == 3
            assert result.stats.layer_modes == ["dense"]

    def test_row_budget_closes_batch_and_preserves_order(self):
        sizes = []
        batcher = MicroBatcher(
            lambda rows: (sizes.append(rows.shape[0]), _echo_step(rows))[1],
            max_batch=4,
            clock=FakeClock(),
        )
        submitted = [batcher.submit(_rows(*[float(10 * i + j) for j in range(3)]))
                     for i in range(3)]  # 3 requests x 3 rows, budget 4
        while batcher.run_once(wait=False):
            pass
        # 3 batches of one request each: 3 rows + the next 3 would overflow 4
        assert sizes == [3, 3, 3]
        for i, pending in enumerate(submitted):
            expected = _rows(*[float(10 * i + j) for j in range(3)])
            assert (pending.result(timeout=0).activations == expected).all()

    def test_oversized_request_runs_alone(self):
        sizes = []
        batcher = MicroBatcher(
            lambda rows: (sizes.append(rows.shape[0]), _echo_step(rows))[1],
            max_batch=2,
            clock=FakeClock(),
        )
        big = batcher.submit(np.ones((5, 2)))
        small = batcher.submit(np.zeros((1, 2)))
        while batcher.run_once(wait=False):
            pass
        assert sizes == [5, 1]  # never split, never merged past the budget
        assert big.result(timeout=0).stats.batch_rows == 5
        assert small.result(timeout=0).stats.batch_rows == 1

    def test_lone_request_on_idle_batcher_runs_without_clock_advance(self):
        clock = FakeClock()
        batcher = MicroBatcher(_echo_step, max_batch=100, clock=clock)
        pending = batcher.submit(_rows(1.0))
        # room in the budget, nothing else queued: the batch runs at once,
        # even for the worker loop's waiting collect
        assert batcher.run_once(wait=True)
        assert clock.waits == []
        assert clock.monotonic() == 0.0
        assert pending.result(timeout=0).stats.queue_wait_s == 0.0

    def test_requests_queued_during_a_running_step_ride_the_next_batch(self):
        clock = FakeClock()
        sizes = []
        late = []

        def step(rows):
            sizes.append(rows.shape[0])
            if len(sizes) == 1:  # arrivals while the first batch computes
                late.extend(batcher.submit(_rows(float(i))) for i in range(1, 6))
            return _echo_step(rows)

        batcher = MicroBatcher(step, max_batch=3, clock=clock)
        first = batcher.submit(_rows(0.0))
        while batcher.run_once(wait=False):
            pass
        # the lone first request ran alone; the five that queued behind it
        # coalesced up to the row budget, in arrival order
        assert sizes == [1, 3, 2]
        assert clock.waits == []
        assert first.result(timeout=0).stats.batch_requests == 1
        for i, pending in enumerate(late, start=1):
            result = pending.result(timeout=0)
            assert (result.activations == _rows(float(i))).all()
            assert result.stats.batch_requests == (3 if i <= 3 else 2)

    def test_queue_wait_and_service_seconds_use_the_clock(self):
        clock = FakeClock()
        def slow_step(rows):
            clock.advance(0.25)
            return _echo_step(rows)

        batcher = MicroBatcher(slow_step, max_batch=8, clock=clock)
        pending = batcher.submit(_rows(1.0))
        clock.advance(1.5)  # request sat queued for 1.5 virtual seconds
        assert batcher.run_once(wait=False)
        stats = pending.result(timeout=0).stats
        assert stats.queue_wait_s == pytest.approx(1.5)
        assert stats.service_s == pytest.approx(0.25)

    def test_mismatched_row_widths_fail_the_batch_not_the_worker(self):
        # stacking happens under the failure guard: a width mismatch
        # inside one coalesced batch fails those requests but the batcher
        # keeps serving (regression: np.concatenate outside the guard
        # killed the worker thread)
        batcher = MicroBatcher(_echo_step, max_batch=8, clock=FakeClock())
        narrow = batcher.submit(np.ones((1, 2)))
        wide = batcher.submit(np.ones((1, 5)))
        assert batcher.run_once(wait=False)
        for pending in (narrow, wide):
            with pytest.raises(ValueError):
                pending.result(timeout=0)
        assert batcher.stats.failures == 2
        survivor = batcher.submit(_rows(3.0))
        assert batcher.run_once(wait=False)
        assert (survivor.result(timeout=0).activations == _rows(3.0)).all()

    def test_done_callback_fires_on_completion_or_immediately(self):
        batcher = MicroBatcher(_echo_step, max_batch=4, clock=FakeClock())
        observed = []
        early = batcher.submit(_rows(1.0))
        early.add_done_callback(lambda p: observed.append(("early", p.request_id)))
        assert observed == []  # not completed yet
        assert batcher.run_once(wait=False)
        assert observed == [("early", early.request_id)]
        # already-done: the callback runs immediately on the caller
        early.add_done_callback(lambda p: observed.append(("late", p.request_id)))
        assert observed[-1] == ("late", early.request_id)

    def test_stats_dict_snapshot_matches_counters(self):
        batcher = MicroBatcher(_echo_step, max_batch=4, clock=FakeClock())
        batcher.submit(_rows(1.0))
        batcher.run_once(wait=False)
        snapshot = batcher.stats_dict()
        # counter snapshot matches, plus the configuration/telemetry keys
        for key, value in batcher.stats.as_dict().items():
            assert snapshot[key] == value
        assert snapshot["workers"] == 1
        assert snapshot["max_batch"] == 4
        assert "max_wait_ms" not in snapshot
        assert snapshot["recent"]["batches"] == 1
        assert snapshot["recent"]["mean_batch_rows"] == 1.0

    def test_step_error_fails_every_request_in_the_batch(self):
        def exploding(rows):
            raise RuntimeError("kernel exploded")

        batcher = MicroBatcher(exploding, max_batch=8, clock=FakeClock())
        pendings = [batcher.submit(_rows(float(i))) for i in range(2)]
        assert batcher.run_once(wait=False)
        for pending in pendings:
            with pytest.raises(RuntimeError, match="kernel exploded"):
                pending.result(timeout=0)
        assert batcher.stats.failures == 2
        assert batcher.stats.requests == 0

    def test_result_timeout(self):
        batcher = MicroBatcher(_echo_step, clock=FakeClock())
        pending = batcher.submit(_rows(1.0))
        with pytest.raises(ServeError, match="not completed"):
            pending.result(timeout=0.0)

    def test_close_without_worker_drains_inline(self):
        batcher = MicroBatcher(_echo_step, max_batch=4, clock=FakeClock())
        pendings = [batcher.submit(_rows(float(i))) for i in range(6)]
        batcher.close()
        assert all(p.done() for p in pendings)
        assert batcher.stats.requests == 6
        with pytest.raises(ServeError, match="closed"):
            batcher.submit(_rows(9.0))

    def test_close_no_drain_fails_queued_requests(self):
        batcher = MicroBatcher(_echo_step, clock=FakeClock())
        pending = batcher.submit(_rows(1.0))
        batcher.close(drain=False)
        with pytest.raises(ServeError, match="shut down"):
            pending.result(timeout=0)

    def test_worker_thread_serves_and_close_drains(self):
        # the one threaded batcher test: real clock, but entirely
        # event-driven -- close() is the synchronization point
        batcher = MicroBatcher(_echo_step, max_batch=4).start()
        with pytest.raises(ServeError, match="already started"):
            batcher.start()
        pendings = [batcher.submit(_rows(float(i))) for i in range(10)]
        batcher.close()  # drains: every accepted request completes
        for i, pending in enumerate(pendings):
            assert (pending.result(timeout=0).activations == _rows(float(i))).all()
        assert batcher.stats.requests == 10
        assert batcher.stats.rows == 10

    def test_stats_aggregate(self):
        batcher = MicroBatcher(_echo_step, max_batch=3, clock=FakeClock())
        for i in range(5):
            batcher.submit(_rows(float(i)))
        while batcher.run_once(wait=False):
            pass
        stats = batcher.stats.as_dict()
        assert stats["requests"] == 5
        assert stats["rows"] == 5
        assert stats["batches"] == 2  # 3 + 2
        assert stats["max_batch_rows"] == 3
        assert stats["mean_batch_rows"] == pytest.approx(2.5)


# --------------------------------------------------------------------------- #
# serving engine
# --------------------------------------------------------------------------- #
class TestServingEngine:
    @pytest.mark.parametrize("policy", ["dense", "sparse"])
    def test_from_network_step_matches_inference_engine(self, network, batch, policy):
        serving = ServingEngine.from_network(network, activations=policy)
        expected = InferenceEngine(network, activations=policy).run(
            batch, record_timing=False
        )
        outcome = serving.step(batch)
        assert (outcome.activations == expected.activations).all()
        assert outcome.layer_modes == [policy] * LAYERS

    def test_from_directory_matches_in_memory(self, net_dir, network, batch):
        serving = ServingEngine.from_directory(net_dir, NEURONS)
        expected = ServingEngine.from_network(network).step(batch)
        outcome = serving.step(batch)
        assert (outcome.activations == expected.activations).all()
        assert serving.num_layers == LAYERS
        assert serving.edges_per_sample == sum(w.nnz for w in network.weights)

    def test_from_checkpoint_warm_restart(self, tmp_path, net_dir, network, batch):
        run_challenge_pipeline(
            net_dir, NEURONS, batch, activations="dense",
            checkpoint_dir=tmp_path / "ck", checkpoint_every=2,
        )
        serving = ServingEngine.from_checkpoint(tmp_path / "ck")
        assert serving.neurons == NEURONS
        assert serving.num_layers == LAYERS
        assert serving.policy.mode == "dense"  # recovered from the checkpoint
        expected = InferenceEngine(network, activations="dense").run(
            batch, record_timing=False
        )
        assert (serving.step(batch).activations == expected.activations).all()

    def test_from_checkpoint_missing(self, tmp_path):
        with pytest.raises(SerializationError):
            ServingEngine.from_checkpoint(tmp_path)

    def test_step_shape_validation(self, network):
        serving = ServingEngine.from_network(network)
        with pytest.raises(ShapeError):
            serving.step(np.ones((2, NEURONS + 1)))
        with pytest.raises(ShapeError):
            serving.step(np.ones(NEURONS))

    def test_describe(self, network):
        serving = ServingEngine.from_network(network, activations="dense")
        meta = serving.describe()
        assert meta["neurons"] == NEURONS
        assert meta["layers"] == LAYERS
        assert meta["activations"] == "dense"
        assert meta["threshold"] == network.threshold


# --------------------------------------------------------------------------- #
# wire protocol
# --------------------------------------------------------------------------- #
class TestServeWorkerCount:
    @pytest.mark.parametrize("requested", [1, 3, 8])
    def test_requested_count_is_used(self, requested):
        assert serve_worker_count(requested) == requested

    @pytest.mark.parametrize("cpus,expected", [(None, 1), (2, 2), (16, 4)])
    def test_default_is_cpu_count_capped_at_four(self, monkeypatch, cpus, expected):
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        assert serve_worker_count() == expected

    @pytest.mark.parametrize("requested", [0, -2])
    def test_non_positive_count_rejected(self, requested):
        with pytest.raises(ValidationError):
            serve_worker_count(requested)


class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"op": "infer", "id": "x", "rows": [[0.0, 1.5]]}
        assert protocol.decode(protocol.encode(message).rstrip(b"\n")) == message

    def test_decode_rejects_garbage(self):
        with pytest.raises(ServeError, match="malformed"):
            protocol.decode(b"not json")
        with pytest.raises(ServeError, match="objects"):
            protocol.decode(b"[1,2]")

    @pytest.mark.parametrize("encoding", ["dense", "sparse"])
    def test_rows_wire_round_trip_is_bit_exact(self, encoding, batch):
        wire = protocol.rows_to_wire(batch, encoding=encoding)
        # through actual JSON text, as the socket would carry it
        payload = json.loads(json.dumps(wire))
        decoded = protocol.rows_from_wire(payload, neurons=NEURONS)
        assert decoded.dtype == np.float64
        assert (decoded == batch).all()

    def test_unknown_encoding(self, batch):
        with pytest.raises(ServeError, match="encoding"):
            protocol.rows_to_wire(batch, encoding="morse")

    def test_rows_from_wire_validation(self):
        with pytest.raises(ServeError, match="non-empty"):
            protocol.rows_from_wire([], neurons=4)
        with pytest.raises(ServeError, match=r"shape \(k, 4\)"):
            protocol.rows_from_wire([[1.0, 2.0]], neurons=4)
        with pytest.raises(ServeError, match="malformed dense"):
            protocol.rows_from_wire([["a", "b", "c", "d"]], neurons=4)
        with pytest.raises(ServeError, match="equal length"):
            protocol.rows_from_wire({"cols": [[0]], "vals": []}, neurons=4)
        with pytest.raises(ServeError, match="server expects 4"):
            protocol.rows_from_wire(
                {"neurons": 8, "cols": [[0]], "vals": [[1.0]]}, neurons=4
            )
        with pytest.raises(ServeError, match="must be an integer"):
            protocol.rows_from_wire(
                {"neurons": "abc", "cols": [[0]], "vals": [[1.0]]}, neurons=4
            )
        with pytest.raises(ServeError, match="must be an integer"):
            protocol.rows_from_wire(
                {"neurons": None, "cols": [[0]], "vals": [[1.0]]}, neurons=4
            )
        with pytest.raises(ServeError, match="out of range"):
            protocol.rows_from_wire({"cols": [[4]], "vals": [[1.0]]}, neurons=4)
        with pytest.raises(ServeError, match="at least one row"):
            protocol.rows_from_wire({"cols": [], "vals": []}, neurons=4)


# --------------------------------------------------------------------------- #
# the live TCP server
# --------------------------------------------------------------------------- #
class TestServeApp:
    @pytest.fixture()
    def server(self, network):
        engine = ServingEngine.from_network(network, activations="dense")
        with serve_in_background(engine, max_batch=16) as handle:
            yield handle

    def test_ping_meta_stats(self, server):
        host, port = server.address
        with ServeClient(host, port) as client:
            assert client.ping()["op"] == "pong"
            meta = client.meta()
            assert meta["neurons"] == NEURONS
            assert meta["layers"] == LAYERS
            assert meta["max_batch"] == 16
            assert "max_wait_ms" not in meta
            stats = client.stats()
            assert stats["requests"] == 0
            assert stats["connections_opened"] >= 1

    @pytest.mark.parametrize("encoding", ["dense", "sparse"])
    def test_infer_parity_with_single_shot(self, server, network, batch, encoding):
        expected = InferenceEngine(network, activations="dense").run(
            batch, record_timing=False
        )
        host, port = server.address
        with ServeClient(host, port) as client:
            response = client.infer(
                batch, request_id="r1", want_activations=True, encoding=encoding
            )
        assert response["id"] == "r1"
        assert (np.asarray(response["activations"]) == expected.activations).all()
        assert response["categories"] == [int(c) for c in expected.categories]
        assert response["stats"]["batch_rows"] >= BATCH

    def test_error_response_keeps_connection_usable(self, server):
        host, port = server.address
        with ServeClient(host, port) as client:
            response = client.request({"op": "frobnicate", "id": 7})
            assert response["ok"] is False
            assert "unknown op" in response["error"]
            assert response["id"] == 7
            response = client.request({"op": "infer", "rows": [[1.0]]})
            assert response["ok"] is False and "shape" in response["error"]
            assert client.ping()["op"] == "pong"  # connection survived
            assert client.stats()["protocol_errors"] == 2

    def test_malformed_sparse_neurons_gets_error_response(self, server):
        # a non-integer client-supplied 'neurons' must produce an error
        # response, not an unhandled exception that drops the connection
        host, port = server.address
        with ServeClient(host, port) as client:
            response = client.request(
                {"op": "infer", "id": "bad",
                 "rows": {"neurons": "abc", "cols": [[0]], "vals": [[1.0]]}}
            )
            assert response["ok"] is False
            assert "integer" in response["error"]
            assert client.ping()["op"] == "pong"  # connection survived

    def test_malformed_json_line_gets_error_response(self, server):
        host, port = server.address
        with ServeClient(host, port) as client:
            client._file.write(b"this is not json\n")
            client._file.flush()
            line = client._file.readline()
            response = protocol.decode(line)
            assert response["ok"] is False
            assert "malformed" in response["error"]
            assert client.ping()["op"] == "pong"

    def test_shutdown_op_stops_the_server(self, network):
        engine = ServingEngine.from_network(network)
        handle = serve_in_background(engine)
        host, port = handle.address
        with ServeClient(host, port) as client:
            assert client.shutdown()["ok"]
        handle._thread.join(timeout=10)
        assert not handle._thread.is_alive()
        with pytest.raises(ServeError, match="cannot connect"):
            ServeClient(host, port, connect_timeout_s=2.0)
        handle.stop()  # idempotent after self-shutdown

    def test_bench_serve_aggregates(self, server):
        host, port = server.address
        report = bench_serve(
            host, port, requests=12, clients=3, rows_per_request=2, seed=5
        )
        assert report["completed"] == 12
        assert report["errors"] == 0
        assert report["requests_per_second"] > 0
        assert report["latency_p99_ms"] >= report["latency_p50_ms"] >= 0
        assert report["server_stats"]["requests"] == 12
        assert report["server_stats"]["rows"] == 24
        assert report["server"]["neurons"] == NEURONS

    def test_bench_serve_validation(self, server):
        host, port = server.address
        with pytest.raises(ValidationError):
            bench_serve(host, port, requests=0)
        with pytest.raises(ValidationError):
            bench_serve(host, port, clients=0)
        with pytest.raises(ValidationError):
            bench_serve(host, port, rows_per_request=0)


# --------------------------------------------------------------------------- #
# CLI round trip
# --------------------------------------------------------------------------- #
class TestServeCLI:
    def _serve_in_thread(self, argv):
        from repro.cli import main

        codes = []
        thread = threading.Thread(target=lambda: codes.append(main(argv)), daemon=True)
        thread.start()
        return thread, codes

    def test_serve_and_bench_serve_round_trip(self, tmp_path, net_dir, capsys):
        from repro.cli import main

        port_file = tmp_path / "port.txt"
        thread, codes = self._serve_in_thread(
            ["challenge", "serve", "--dir", str(net_dir), "--neurons", str(NEURONS),
             "--port", "0", "--port-file", str(port_file),
             "--max-batch", "8"]
        )
        pause = threading.Event()
        for _ in range(200):
            if port_file.exists():
                break
            pause.wait(0.05)
        assert port_file.exists(), "server never wrote its port file"
        _, port = port_file.read_text().split()
        json_path = tmp_path / "bench.json"
        code = main(["challenge", "bench-serve", "--port", port,
                     "--requests", "10", "--clients", "2", "--rows", "2",
                     "--json", str(json_path), "--shutdown"])
        assert code == 0
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert codes == [0]
        out = capsys.readouterr().out
        assert "requests/s" in out
        assert "p99" in out
        report = json.loads(json_path.read_text())
        assert report["completed"] == 10 and report["errors"] == 0
        assert report["shutdown_ok"] is True

    def test_warm_start_serves_from_checkpoint(self, tmp_path, net_dir, batch, capsys):
        from repro.cli import main

        run_challenge_pipeline(
            net_dir, NEURONS, batch,
            checkpoint_dir=tmp_path / "ck", checkpoint_every=2,
        )
        port_file = tmp_path / "port.txt"
        thread, codes = self._serve_in_thread(
            ["challenge", "serve", "--warm-start", str(tmp_path / "ck"),
             "--port", "0", "--port-file", str(port_file)]
        )
        for _ in range(200):
            if port_file.exists():
                break
            threading.Event().wait(0.05)
        assert port_file.exists()
        _, port = port_file.read_text().split()
        with ServeClient("127.0.0.1", int(port)) as client:
            meta = client.meta()
            assert meta["neurons"] == NEURONS
            assert meta["layers"] == LAYERS
            client.shutdown()
        thread.join(timeout=15)
        assert codes == [0]
