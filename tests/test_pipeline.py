"""Tests for the staged streaming-inference pipeline.

Covers the generic bounded producer/consumer primitive
(:class:`repro.parallel.pipeline.Prefetcher`), the random-access layer
reads that make resume seeks free (:func:`repro.challenge.io.read_layer`,
``iter_challenge_layers(start=...)``), checkpoint serialization, the
interrupt -> resume bit-identity guarantee on every registered backend,
the disk-backed drivers behind ``repro challenge run``, and the fact that
the engine and ``streaming_inference`` route through the single pipeline
implementation, and that the row-compacted dense path (only live rows are
carried through the layers) is bitwise equal to the uncompacted recurrence.
"""

import io
import threading
import zipfile

import numpy as np
import pytest

import repro.challenge.pipeline as pipeline_mod
from repro.backends import available_backends, resolve_backend
from repro.challenge.generator import (
    challenge_input_batch,
    generate_challenge_network,
)
from repro.challenge.inference import (
    ActivationPolicy,
    InferenceEngine,
    streaming_inference,
)
from repro.challenge.io import (
    iter_challenge_layers,
    read_challenge_meta,
    read_layer,
    save_challenge_network,
)
from repro.challenge.pipeline import (
    CheckpointStage,
    LoadStage,
    PipelineState,
    load_checkpoint,
    resume_challenge_pipeline,
    run_challenge_pipeline,
    run_pipeline,
    save_checkpoint,
)
from repro.challenge.verify import reference_categories
from repro.errors import SerializationError, ShapeError, ValidationError
from repro.parallel.pipeline import Prefetcher, prefetched
from repro.parallel.sharding import ShardLayout
from repro.serve.engine import ServingEngine

NEURONS = 64
LAYERS = 10
BATCH = 16


@pytest.fixture(scope="module")
def network():
    return generate_challenge_network(NEURONS, LAYERS, connections=8, seed=3)


@pytest.fixture(scope="module")
def batch():
    return challenge_input_batch(NEURONS, BATCH, seed=4)


@pytest.fixture
def net_dir(tmp_path, network):
    directory = tmp_path / "net"
    save_challenge_network(network, directory)
    return directory


# --------------------------------------------------------------------------- #
# the generic producer/consumer primitive
# --------------------------------------------------------------------------- #
class TestPrefetcher:
    def test_preserves_order_and_items(self):
        with Prefetcher(range(100), depth=3) as source:
            assert list(source) == list(range(100))

    def test_depth_validation(self):
        with pytest.raises(ValidationError):
            Prefetcher([1], depth=0)
        with pytest.raises(ValidationError):
            prefetched([1], -1)

    def test_prefetched_zero_depth_is_plain_iteration(self):
        it = prefetched(iter([1, 2, 3]), 0)
        assert not isinstance(it, Prefetcher)
        assert list(it) == [1, 2, 3]

    def test_source_error_raised_at_consumption_point(self):
        def failing():
            yield 1
            yield 2
            raise RuntimeError("producer died")

        with Prefetcher(failing(), depth=2) as source:
            # items produced before the failure are still delivered, in order
            assert next(source) == 1
            assert next(source) == 2
            with pytest.raises(RuntimeError, match="producer died"):
                next(source)
            # exhausted after the error, like a normal iterator
            with pytest.raises(StopIteration):
                next(source)

    def test_close_unblocks_full_queue_producer(self):
        produced = []

        def endless():
            i = 0
            while True:
                produced.append(i)
                yield i
                i += 1

        # a tight injected poll interval bounds how long the parked
        # producer takes to observe the stop -- no sleep calibration
        source = Prefetcher(endless(), depth=2, poll_interval=0.005)
        assert next(source) == 0
        source.close()
        assert not source._thread.is_alive()
        # bounded: the producer never ran far ahead of the queue depth
        assert len(produced) <= 8
        with pytest.raises(StopIteration):
            next(source)

    def test_poll_interval_validation(self):
        with pytest.raises(ValidationError):
            Prefetcher([1], depth=1, poll_interval=0.0)
        with pytest.raises(ValidationError):
            Prefetcher([1], depth=1, poll_interval=-0.1)

    def test_error_delivery_is_event_driven(self):
        # the producer parks on an Event the consumer releases -- the
        # whole interleaving is explicit, with zero time.sleep calls
        release = threading.Event()

        def source():
            yield 1
            assert release.wait(10.0), "consumer never released the producer"
            raise RuntimeError("released failure")

        with Prefetcher(source(), depth=2, poll_interval=0.005) as prefetcher:
            assert next(prefetcher) == 1
            release.set()
            with pytest.raises(RuntimeError, match="released failure"):
                next(prefetcher)

    def test_consumer_blocks_until_producer_posts(self):
        # consumer-side wait is driven by the producer's put, not by
        # polling some shared flag: release the item mid-next() and the
        # value arrives
        release = threading.Event()

        def source():
            assert release.wait(10.0)
            yield 42

        with Prefetcher(source(), depth=1, poll_interval=0.005) as prefetcher:
            got: list[int] = []
            consumer = threading.Thread(target=lambda: got.append(next(prefetcher)))
            consumer.start()
            release.set()
            consumer.join(timeout=10.0)
            assert not consumer.is_alive()
            assert got == [42]


# --------------------------------------------------------------------------- #
# random-access layer reads (the resume seek)
# --------------------------------------------------------------------------- #
class TestReadLayer:
    @pytest.mark.parametrize("use_cache", [True, False])
    def test_matches_network_layers(self, net_dir, network, use_cache):
        for i in (1, LAYERS // 2, LAYERS):
            weight = read_layer(net_dir, NEURONS, i, use_cache=use_cache)
            expected = network.weights[i - 1]
            assert (weight.to_dense() == expected.to_dense()).all()

    def test_index_out_of_range(self, net_dir):
        with pytest.raises(SerializationError):
            read_layer(net_dir, NEURONS, 0)
        with pytest.raises(SerializationError):
            read_layer(net_dir, NEURONS, LAYERS + 1)

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_iter_start_skips_without_reading(self, net_dir, network, use_cache):
        skip = LAYERS // 2
        tail = list(iter_challenge_layers(net_dir, NEURONS, start=skip, use_cache=use_cache))
        assert len(tail) == LAYERS - skip
        for offset, (weight, bias) in enumerate(tail):
            expected = network.weights[skip + offset]
            assert (weight.to_dense() == expected.to_dense()).all()
            assert bias.shape == (NEURONS,)

    def test_iter_start_bounds(self, net_dir):
        assert list(iter_challenge_layers(net_dir, NEURONS, start=LAYERS)) == []
        with pytest.raises(SerializationError):
            list(iter_challenge_layers(net_dir, NEURONS, start=LAYERS + 1))
        with pytest.raises(SerializationError):
            list(iter_challenge_layers(net_dir, NEURONS, start=-1))

    def test_iter_validates_at_the_call(self, net_dir, tmp_path):
        # not on first next(): under LoadStage that runs on the prefetch
        # thread, far from where the stream was set up
        with pytest.raises(SerializationError, match="metadata file not found"):
            iter_challenge_layers(tmp_path / "missing", NEURONS)
        with pytest.raises(SerializationError, match="out of range"):
            iter_challenge_layers(net_dir, NEURONS, start=LAYERS + 1)
        with pytest.raises(SerializationError, match="metadata file not found"):
            LoadStage.from_directory(tmp_path / "missing", NEURONS, prefetch=2)

    def test_read_challenge_meta(self, net_dir, network):
        meta = read_challenge_meta(net_dir, NEURONS)
        assert meta.neurons == NEURONS
        assert meta.num_layers == LAYERS
        assert meta.threshold == network.threshold
        assert meta.bias_value == float(network.biases[0][0])


# --------------------------------------------------------------------------- #
# checkpoint serialization
# --------------------------------------------------------------------------- #
class TestCheckpointSerialization:
    def _advanced_state(self, network, batch, *, policy):
        state = PipelineState.initial(batch)
        return run_pipeline(
            ((w, b) for w, b in zip(network.weights[:4], network.biases[:4])),
            state,
            threshold=network.threshold,
            policy=policy,
        )

    @pytest.mark.parametrize("policy_mode", ["dense", "sparse"])
    def test_round_trip(self, tmp_path, network, batch, policy_mode):
        state = self._advanced_state(network, batch, policy=policy_mode)
        policy = ActivationPolicy(mode=policy_mode)
        path = save_checkpoint(
            tmp_path / "ck", state, policy=policy, threshold=network.threshold,
            backend="scipy", num_layers=LAYERS, every=2,
            context={"directory": "somewhere", "neurons": NEURONS},
        )
        assert path.exists()
        ckpt = load_checkpoint(tmp_path / "ck")
        assert ckpt.state.layers_done == 4
        assert ckpt.state.batch.kind == policy_mode
        assert (ckpt.state.batch.to_array() == state.batch.to_array()).all()
        assert ckpt.state.layer_modes == state.layer_modes
        assert ckpt.state.layer_seconds == state.layer_seconds
        assert ckpt.state.layer_density == state.layer_density
        assert ckpt.state.peak_nnz == state.peak_nnz
        assert ckpt.state.edges_per_sample == state.edges_per_sample
        assert ckpt.policy == policy
        assert ckpt.threshold == network.threshold
        assert ckpt.backend == "scipy"
        assert ckpt.num_layers == LAYERS and ckpt.every == 2
        assert not ckpt.completed
        assert ckpt.context["directory"] == "somewhere"

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(SerializationError, match="no pipeline checkpoint"):
            load_checkpoint(tmp_path)

    def test_corrupt_checkpoint(self, tmp_path, network, batch):
        state = self._advanced_state(network, batch, policy="dense")
        path = save_checkpoint(
            tmp_path, state, policy=ActivationPolicy(), threshold=32.0,
            backend="scipy", num_layers=LAYERS,
        )
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(SerializationError):
            load_checkpoint(tmp_path)

    def test_completed_flag(self, tmp_path, network, batch):
        state = self._advanced_state(network, batch, policy="dense")
        save_checkpoint(
            tmp_path, state, policy=ActivationPolicy(), threshold=32.0,
            backend="scipy", num_layers=4,
        )
        assert load_checkpoint(tmp_path).completed


# --------------------------------------------------------------------------- #
# interrupt -> resume bit-identity (the headline guarantee)
# --------------------------------------------------------------------------- #
def _layers_failing_after(directory, neurons, fail_after):
    """Yield layers from disk, then die -- a mid-run kill at layer ``fail_after``."""
    for produced, layer in enumerate(iter_challenge_layers(directory, neurons)):
        if produced == fail_after:
            raise RuntimeError("simulated mid-run kill")
        yield layer


class TestInterruptResume:
    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("prefetch", [0, 2])
    def test_killed_run_resumes_bit_identical(
        self, tmp_path, net_dir, network, batch, backend, prefetch
    ):
        uninterrupted = streaming_inference(
            iter_challenge_layers(net_dir, NEURONS), batch,
            threshold=network.threshold, backend=backend,
        )
        stage = CheckpointStage(
            tmp_path / "ck", every=2, policy=ActivationPolicy(),
            threshold=network.threshold, backend=backend, num_layers=LAYERS,
            context={"directory": str(net_dir), "neurons": NEURONS,
                     "prefetch": prefetch},
        )
        fail_after = 7
        with pytest.raises(RuntimeError, match="simulated mid-run kill"):
            run_pipeline(
                _layers_failing_after(net_dir, NEURONS, fail_after),
                PipelineState.initial(batch),
                threshold=network.threshold,
                backend=backend,
                checkpoint=stage,
                prefetch=prefetch,
            )
        # best-effort save on the kill: the resume point is the last layer
        # actually completed, not the last periodic boundary
        ckpt = load_checkpoint(tmp_path / "ck")
        assert ckpt.state.layers_done == fail_after
        assert not ckpt.completed

        resumed = resume_challenge_pipeline(tmp_path / "ck")
        assert resumed.completed
        assert resumed.resumed_from == fail_after
        assert resumed.layers_done == LAYERS
        assert list(resumed.result.categories) == list(uninterrupted.categories)
        assert (resumed.result.activations == uninterrupted.activations).all()
        assert resumed.result.edges_traversed == uninterrupted.edges_traversed

    def test_resume_under_a_different_backend(self, tmp_path, net_dir, network, batch):
        backends = available_backends()
        if len(backends) < 2:
            pytest.skip("needs two registered backends")
        reference = streaming_inference(
            iter_challenge_layers(net_dir, NEURONS), batch,
            threshold=network.threshold, backend=backends[0],
        )
        stage = CheckpointStage(
            tmp_path / "ck", every=3, policy=ActivationPolicy(),
            threshold=network.threshold, backend=backends[0], num_layers=LAYERS,
            context={"directory": str(net_dir), "neurons": NEURONS},
        )
        with pytest.raises(RuntimeError):
            run_pipeline(
                _layers_failing_after(net_dir, NEURONS, 5),
                PipelineState.initial(batch),
                threshold=network.threshold,
                backend=backends[0],
                checkpoint=stage,
            )
        resumed = resume_challenge_pipeline(tmp_path / "ck", backend=backends[1])
        assert resumed.completed
        assert list(resumed.result.categories) == list(reference.categories)

    def test_sparse_policy_checkpoint_survives_kill(self, tmp_path, net_dir, network, batch):
        """A CSR activation batch checkpoints and resumes bit-identically."""
        policy = ActivationPolicy(mode="sparse")
        uninterrupted = streaming_inference(
            iter_challenge_layers(net_dir, NEURONS), batch,
            threshold=network.threshold, activations=policy,
        )
        stage = CheckpointStage(
            tmp_path / "ck", every=2, policy=policy,
            threshold=network.threshold, backend="scipy", num_layers=LAYERS,
            context={"directory": str(net_dir), "neurons": NEURONS},
        )
        with pytest.raises(RuntimeError):
            run_pipeline(
                _layers_failing_after(net_dir, NEURONS, 5),
                PipelineState.initial(batch),
                threshold=network.threshold,
                policy=policy,
                backend="scipy",
                checkpoint=stage,
            )
        ckpt = load_checkpoint(tmp_path / "ck")
        assert ckpt.state.batch.kind == "sparse"
        resumed = resume_challenge_pipeline(tmp_path / "ck")
        assert resumed.completed
        assert list(resumed.result.categories) == list(uninterrupted.categories)
        assert (resumed.result.activations == uninterrupted.activations).all()


# --------------------------------------------------------------------------- #
# disk-backed drivers (behind `repro challenge run`)
# --------------------------------------------------------------------------- #
class TestRunChallengePipeline:
    @pytest.mark.parametrize("prefetch", [0, 3])
    @pytest.mark.parametrize("use_cache", [True, False])
    def test_matches_engine(self, net_dir, network, batch, prefetch, use_cache):
        expected = InferenceEngine(network).run(batch)
        outcome = run_challenge_pipeline(
            net_dir, NEURONS, batch, prefetch=prefetch, use_cache=use_cache
        )
        assert outcome.completed
        assert outcome.layers_done == LAYERS == outcome.num_layers
        assert outcome.checkpoint is None
        assert list(outcome.result.categories) == list(expected.categories)
        assert (outcome.result.activations == expected.activations).all()

    def test_process_transport_matches(self, net_dir, network, batch):
        # falls back to the thread transport where processes cannot spawn;
        # parity must hold either way
        expected = InferenceEngine(network).run(batch)
        outcome = run_challenge_pipeline(
            net_dir, NEURONS, batch, prefetch=3, transport="process"
        )
        assert outcome.completed
        assert list(outcome.result.categories) == list(expected.categories)

    def test_invalid_transport(self, net_dir, batch):
        with pytest.raises(ValidationError, match="transport"):
            LoadStage.from_directory(net_dir, NEURONS, transport="carrier-pigeon")

    def test_staged_stop_and_resume(self, tmp_path, net_dir, network, batch):
        expected = InferenceEngine(network).run(batch)
        staged = run_challenge_pipeline(
            net_dir, NEURONS, batch,
            checkpoint_dir=tmp_path / "ck", checkpoint_every=4, stop_after=6,
        )
        assert not staged.completed
        assert staged.layers_done == 6
        assert staged.checkpoint is not None and staged.checkpoint.exists()
        resumed = resume_challenge_pipeline(tmp_path / "ck")
        assert resumed.completed and resumed.resumed_from == 6
        assert list(resumed.result.categories) == list(expected.categories)
        assert (resumed.result.activations == expected.activations).all()

    def test_resume_of_completed_checkpoint_is_noop(self, tmp_path, net_dir, batch):
        done = run_challenge_pipeline(
            net_dir, NEURONS, batch, checkpoint_dir=tmp_path / "ck", checkpoint_every=5
        )
        assert done.completed
        again = resume_challenge_pipeline(tmp_path / "ck")
        assert again.completed
        assert again.resumed_from == LAYERS
        assert list(again.result.categories) == list(done.result.categories)

    def test_checkpointing_requires_directory(self, net_dir, batch):
        with pytest.raises(ValidationError, match="checkpoint_dir"):
            run_challenge_pipeline(net_dir, NEURONS, batch, checkpoint_every=2)
        with pytest.raises(ValidationError, match="stop_after"):
            run_challenge_pipeline(net_dir, NEURONS, batch, stop_after=3)

    def test_stop_after_bounds(self, tmp_path, net_dir, batch):
        with pytest.raises(ValidationError):
            run_challenge_pipeline(
                net_dir, NEURONS, batch,
                checkpoint_dir=tmp_path / "ck", stop_after=LAYERS + 1,
            )
        staged = run_challenge_pipeline(
            net_dir, NEURONS, batch, checkpoint_dir=tmp_path / "ck2",
            checkpoint_every=2, stop_after=4,
        )
        assert staged.layers_done == 4
        with pytest.raises(ValidationError):
            resume_challenge_pipeline(tmp_path / "ck2", stop_after=3)

    def test_wrong_input_shape(self, net_dir):
        with pytest.raises(ShapeError):
            run_challenge_pipeline(net_dir, NEURONS, np.ones((4, NEURONS + 1)))


# --------------------------------------------------------------------------- #
# single recurrence implementation
# --------------------------------------------------------------------------- #
class TestSinglePipelineImplementation:
    def test_engine_and_streaming_route_through_run_pipeline(
        self, monkeypatch, network, batch
    ):
        calls = []
        original = pipeline_mod.run_pipeline

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "run_pipeline", counting)
        InferenceEngine(network).run(batch)
        assert len(calls) == 1
        streaming_inference(
            zip(network.weights, network.biases), batch, threshold=network.threshold
        )
        assert len(calls) == 2
        # the chunked path is N pipeline runs, one per chunk
        InferenceEngine(network).run(batch, chunk_size=BATCH // 4)
        assert len(calls) == 2 + 4

    def test_streaming_prefetch_parity(self, network, batch):
        serial = streaming_inference(
            zip(network.weights, network.biases), batch, threshold=network.threshold
        )
        overlapped = streaming_inference(
            zip(network.weights, network.biases), batch,
            threshold=network.threshold, prefetch=3,
        )
        assert list(overlapped.categories) == list(serial.categories)
        assert (overlapped.activations == serial.activations).all()
        assert overlapped.edges_traversed == serial.edges_traversed


# --------------------------------------------------------------------------- #
# CLI: repro challenge run
# --------------------------------------------------------------------------- #
class TestChallengeRunCLI:
    def test_full_run(self, net_dir, capsys):
        from repro.cli import main

        code = main(["challenge", "run", "--dir", str(net_dir),
                     "--neurons", str(NEURONS), "--batch", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"layers: {LAYERS} of {LAYERS} applied" in out
        assert "checksum" in out

    def test_staged_run_and_resume_match_uninterrupted(self, tmp_path, net_dir, capsys):
        from repro.cli import main

        ck = tmp_path / "ck"
        code = main(["challenge", "run", "--dir", str(net_dir),
                     "--neurons", str(NEURONS), "--batch", "8",
                     "--checkpoint", str(ck), "--checkpoint-every", "2",
                     "--stop-after", "5", "--prefetch", "0"])
        assert code == 0
        staged_out = capsys.readouterr().out
        assert "stopped after layer 5" in staged_out
        assert "resume with:" in staged_out

        code = main(["challenge", "run", "--resume", str(ck)])
        assert code == 0
        resumed_out = capsys.readouterr().out
        assert "resumed from checkpoint at layer 5" in resumed_out

        code = main(["challenge", "run", "--dir", str(net_dir),
                     "--neurons", str(NEURONS), "--batch", "8"])
        assert code == 0
        full_out = capsys.readouterr().out

        def checksum(text):
            [line] = [l for l in text.splitlines() if "checksum" in l]
            return line.split("checksum")[1]

        assert checksum(resumed_out) == checksum(full_out)

    def test_run_requires_dir_or_resume(self, capsys):
        from repro.cli import main

        assert main(["challenge", "run"]) == 1
        assert "needs --dir" in capsys.readouterr().err
        assert main(["challenge", "run", "--dir", "somewhere"]) == 1
        assert "--neurons is required" in capsys.readouterr().err

    def test_run_resume_and_dir_conflict(self, net_dir, capsys):
        from repro.cli import main

        assert main(["challenge", "run", "--dir", str(net_dir),
                     "--resume", str(net_dir)]) == 1
        assert "mutually exclusive" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# row compaction: the dense path carries only the rows that are still alive
# --------------------------------------------------------------------------- #
def _uncompacted(layers, inputs, threshold, backend=None):
    """Per-layer activations of the recurrence over *every* row.

    This is the dense loop as it ran before dead rows were dropped: each
    layer multiplies, biases, clamps and keeps all batch rows.
    """
    impl = resolve_backend(backend)
    y = np.asarray(inputs, dtype=np.float64)
    out = []
    for weight, bias in layers:
        z = impl.spmm(impl.transpose(weight), y.T).T
        z[y.sum(axis=1) > 0] += bias
        np.maximum(z, 0.0, out=z)
        np.minimum(z, threshold, out=z)
        out.append(z)
        y = z
    return out


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class _CountingBackend:
    """Forwards to the active backend, counting the layer kernels."""

    def __init__(self):
        self.inner = resolve_backend(None)
        self.name = self.inner.name
        self.calls = {"spmm": 0, "transpose": 0}

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def spmm(self, a, dense):
        self.calls["spmm"] += 1
        return self.inner.spmm(a, dense)

    def transpose(self, a):
        self.calls["transpose"] += 1
        return self.inner.transpose(a)


@pytest.fixture(scope="module")
def dying_batch():
    """32 rows over ``network``: rows die at layers 3-6 and 23 survive."""
    return challenge_input_batch(NEURONS, 32, seed=5)


def _layers(network):
    return list(zip(network.weights, network.biases))


def _alive(array):
    return int(np.any(array != 0.0, axis=1).sum())


class TestRowCompaction:
    @pytest.mark.parametrize("backend", available_backends())
    def test_rows_dying_mid_run_are_bitwise_equal(self, network, dying_batch, backend):
        oracle = _uncompacted(_layers(network), dying_batch, network.threshold, backend)
        alive = [_alive(a) for a in oracle]
        assert alive[1] == 32 and alive[-1] == 23  # rows die mid-run
        result = InferenceEngine(network, backend=backend).run(
            dying_batch, activations="dense", record_timing=False
        )
        # the result holds only the survivors until asked for the full array
        assert result.batch.array.shape == (23, NEURONS)
        _assert_bitwise(result.activations, oracle[-1])
        np.testing.assert_array_equal(
            result.categories, reference_categories(network, dying_batch)
        )
        assert result.layer_density == [
            np.count_nonzero(a) / a.size for a in oracle
        ]
        assert result.peak_activation_nnz == max(
            [np.count_nonzero(dying_batch)] + [np.count_nonzero(a) for a in oracle]
        )

    def test_all_zero_batch_runs_no_kernel(self, network):
        counting = _CountingBackend()
        state = run_pipeline(
            _layers(network), PipelineState.initial(np.zeros((8, NEURONS))),
            threshold=network.threshold, backend=counting, record_timing=False,
        )
        assert counting.calls == {"spmm": 0, "transpose": 0}
        result = state.result(backend=counting.name, policy=ActivationPolicy())
        _assert_bitwise(result.activations, np.zeros((8, NEURONS)))
        assert result.categories.size == 0
        assert result.layer_density == [0.0] * LAYERS
        assert result.layer_modes == ["dense"] * LAYERS

    def test_zero_rows(self, network):
        counting = _CountingBackend()
        state = run_pipeline(
            _layers(network), PipelineState.initial(np.zeros((0, NEURONS))),
            threshold=network.threshold, backend=counting, record_timing=False,
        )
        assert counting.calls == {"spmm": 0, "transpose": 0}
        result = state.result(backend=counting.name, policy=ActivationPolicy())
        assert result.activations.shape == (0, NEURONS)
        assert result.categories.size == 0
        assert result.edges_traversed == 0

    @pytest.mark.parametrize("policy", ["dense", "auto"])
    def test_nonzero_rows_with_nonpositive_sums_are_kept(self, network, dying_batch, policy):
        x = dying_batch.copy()
        x[0] = 0.0
        x[0, :2] = (1.0, -1.0)  # sum 0
        for row in (1, 2, 3):
            x[row, np.flatnonzero(x[row] == 0.0)[0]] = -(x[row].sum() + 1.0)  # sum -1
        assert (x[:4].sum(axis=1) <= 0).all()
        oracle = _uncompacted(_layers(network), x, network.threshold)
        # without a bias these rows still reach the next layer
        assert np.any(oracle[0][:4] != 0.0, axis=1).all()
        result = InferenceEngine(network).run(x, activations=policy, record_timing=False)
        _assert_bitwise(result.activations, oracle[-1])
        np.testing.assert_array_equal(result.categories, reference_categories(network, x))

    def test_auto_switches_dense_sparse_dense_on_a_compacted_batch(
        self, network, dying_batch
    ):
        layers = _layers(network)
        # a positive bias forces the dense path on a layer auto would run sparse
        layers[6] = (layers[6][0], np.full(NEURONS, 0.01))
        policy = ActivationPolicy(crossover_density=0.8, min_sparse_elements=0)
        state = run_pipeline(
            layers, PipelineState.initial(dying_batch), threshold=network.threshold,
            policy=policy, record_timing=False,
        )
        assert state.layer_modes[2:8] == [
            "dense", "dense", "dense", "sparse", "dense", "sparse"
        ]
        oracle = _uncompacted(layers, dying_batch, network.threshold)
        _assert_bitwise(state.batch.to_array(), oracle[-1])
        assert state.layer_density == [np.count_nonzero(a) / a.size for a in oracle]

    @pytest.mark.parametrize("backend", available_backends())
    def test_checkpoint_after_rows_died_then_resume(
        self, tmp_path, network, dying_batch, backend
    ):
        layers = _layers(network)
        oracle = _uncompacted(layers, dying_batch, network.threshold, backend)
        stage = CheckpointStage(
            tmp_path, policy=ActivationPolicy(mode="dense"),
            threshold=network.threshold, backend=backend, num_layers=LAYERS,
        )
        state = run_pipeline(
            layers, PipelineState.initial(dying_batch), threshold=network.threshold,
            backend=backend, policy="dense", record_timing=False,
            checkpoint=stage, max_layers=7,
        )
        assert state.batch.array.shape[0] == _alive(oracle[6]) < 32
        # the stored batch is the uncompacted run's array, header and bytes
        expected = io.BytesIO()
        np.lib.format.write_array(expected, oracle[6])
        with zipfile.ZipFile(stage.path) as archive:
            assert archive.read("batch_array.npy") == expected.getvalue()
        ckpt = load_checkpoint(tmp_path)
        resumed = run_pipeline(
            layers[7:], ckpt.state, threshold=network.threshold, backend=backend,
            policy="dense", record_timing=False,
        )
        result = resumed.result(backend=backend, policy=ActivationPolicy(mode="dense"))
        _assert_bitwise(result.activations, oracle[-1])
        np.testing.assert_array_equal(
            result.categories, reference_categories(network, dying_batch)
        )

    @pytest.mark.parametrize("transport", ["serial", "process"])
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_sharded_runs(self, net_dir, network, dying_batch, shards, transport):
        oracle = _uncompacted(_layers(network), dying_batch, network.threshold)
        outcome = run_challenge_pipeline(
            net_dir, NEURONS, dying_batch, activations="dense",
            record_timing=False, shards=shards, shard_transport=transport,
        )
        assert outcome.shards == shards
        _assert_bitwise(outcome.result.activations, oracle[-1])
        np.testing.assert_array_equal(
            outcome.result.categories, reference_categories(network, dying_batch)
        )

    def test_sharded_step_keeps_the_row_ids_of_a_compacted_batch(
        self, network, dying_batch
    ):
        layers = _layers(network)
        state = run_pipeline(
            layers, PipelineState.initial(dying_batch), threshold=network.threshold,
            policy="dense", record_timing=False, max_layers=7,
        )
        row_ids = state.batch.row_ids
        assert row_ids is not None and row_ids.size < 32
        run_pipeline(
            layers[7:], state, threshold=network.threshold, policy="dense",
            record_timing=False, layout=ShardLayout.balanced(NEURONS, 3),
        )
        np.testing.assert_array_equal(state.batch.row_ids, row_ids)
        oracle = _uncompacted(layers, dying_batch, network.threshold)
        _assert_bitwise(state.batch.to_array(), oracle[-1])

    @pytest.mark.parametrize("shards", [None, 2])
    def test_serve_answers_unchanged(self, network, dying_batch, shards):
        oracle = _uncompacted(_layers(network), dying_batch, network.threshold)
        engine = ServingEngine.from_network(network, activations="dense", shards=shards)
        _assert_bitwise(engine.step(dying_batch).activations, oracle[-1])
