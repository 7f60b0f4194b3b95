"""Tests for the staged streaming-inference pipeline.

Covers the generic bounded producer/consumer primitive
(:class:`repro.parallel.pipeline.Prefetcher`), the random-access layer
reads that make resume seeks free (:func:`repro.challenge.io.read_layer`,
``iter_challenge_layers(start=...)``), checkpoint serialization, the
interrupt -> resume bit-identity guarantee on every registered backend,
the disk-backed drivers behind ``repro challenge run``, and the fact that
the engine and ``streaming_inference`` route through the single pipeline
implementation.
"""

import threading

import numpy as np
import pytest

import repro.challenge.pipeline as pipeline_mod
from repro.backends import available_backends
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
from repro.errors import SerializationError, ShapeError, ValidationError
from repro.parallel.pipeline import Prefetcher, prefetched

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
