"""Streaming challenge generation: parity, IO, scale smoke, accounting.

The generation path is fully sparse as of the streaming-generator
refactor -- per-layer neuron shuffles are CSR column permutations
(O(nnz)), never a dense ``N x N`` round-trip -- and
:func:`iter_generate_challenge_layers` +
:func:`save_challenge_layers` /
:func:`streaming_inference` run generate -> disk / generate -> infer
with only one layer resident.  This module pins:

* the streaming generator against the materialized one, bit for bit;
* the streaming save against the materialized save, byte for byte;
* the stream-description validation of ``save_challenge_layers``
  (including partial-sidecar cleanup on error);
* edge accounting (``edges_traversed``, ``connections_per_neuron``)
  staying exact for permuted networks -- the regression guard for the
  accounting fixed in the backend-engine PR;
* the layers sharing one read-only row pointer and value array;
* the official 16384-neuron scale (marked ``slow``): generation and
  save in memory bounded by a small multiple of a single layer's CSR
  footprint,
  and the ``repro challenge generate`` CLI completing end to end.
"""

import tracemalloc

import numpy as np
import pytest

from repro.challenge.generator import (
    challenge_input_batch,
    generate_challenge_network,
    iter_generate_challenge_layers,
)
from repro.challenge.inference import InferenceEngine, streaming_inference
from repro.challenge.io import (
    cache_path,
    iter_challenge_layers,
    load_challenge_network,
    save_challenge_layers,
    save_challenge_network,
)
from repro.cli import main
from repro.errors import SerializationError, ValidationError


def _tsv_and_meta_bytes(directory):
    return {
        path.name: path.read_bytes()
        for path in sorted(directory.glob("*.tsv"))
    }


class TestStreamingGenerator:
    def test_matches_materialized_generator_bit_for_bit(self):
        network = generate_challenge_network(64, 5, connections=8, seed=11)
        layers = list(
            iter_generate_challenge_layers(64, 5, connections=8, seed=11)
        )
        assert len(layers) == network.num_layers
        for (weight, bias), expected_w, expected_b in zip(
            layers, network.weights, network.biases
        ):
            assert weight.same_pattern(expected_w)
            assert np.array_equal(weight.data, expected_w.data)
            assert np.array_equal(bias, expected_b)

    def test_generator_is_lazy(self):
        # nothing is built until the first layer is pulled, and argument
        # validation still happens eagerly at iteration time
        iterator = iter_generate_challenge_layers(16, 1000000, connections=4)
        weight, bias = next(iterator)
        assert weight.shape == (16, 16)
        assert bias.shape == (16,)

    def test_validation_matches_generate_and_is_eager(self):
        # bad arguments fail at the call, not on first next(): callers
        # that mkdir/open files before consuming see the error up front
        with pytest.raises(ValidationError, match="divisible"):
            iter_generate_challenge_layers(10, 2, connections=4)
        with pytest.raises(ValidationError):
            iter_generate_challenge_layers(8, 2, connections=2, threshold=0.0)

    def test_layers_share_read_only_indptr_and_data(self):
        # a column permutation keeps row counts and the weight is
        # constant: only indices are new per layer
        layers = [w for w, _ in iter_generate_challenge_layers(64, 4, connections=8, seed=5)]
        first = layers[0]
        for weight in layers[1:]:
            assert np.shares_memory(weight.indptr, first.indptr)
            assert np.shares_memory(weight.data, first.data)
            assert not np.shares_memory(weight.indices, first.indices)
            assert not np.array_equal(weight.indices, first.indices)
        with pytest.raises(ValueError, match="read-only"):
            first.data[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            first.indptr[-1] = 0

    def test_unshuffled_layers_all_identical(self):
        layers = list(
            iter_generate_challenge_layers(
                16, 3, connections=4, shuffle_neurons=False
            )
        )
        first = layers[0][0]
        for weight, _ in layers[1:]:
            assert weight.same_pattern(first)

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_backend_selection_is_bit_identical(self, backend):
        default = list(iter_generate_challenge_layers(32, 3, connections=4, seed=2))
        picked = list(
            iter_generate_challenge_layers(32, 3, connections=4, seed=2, backend=backend)
        )
        for (a, _), (b, _) in zip(default, picked):
            assert a.same_pattern(b)
            assert np.array_equal(a.data, b.data)

    def test_generate_stream_infer_without_disk(self):
        network = generate_challenge_network(32, 6, connections=4, seed=21)
        batch = challenge_input_batch(32, 10, seed=22)
        resident = InferenceEngine(network).run(batch, record_timing=False)
        streamed = streaming_inference(
            iter_generate_challenge_layers(32, 6, connections=4, seed=21),
            batch,
            threshold=network.threshold,
        )
        assert list(streamed.categories) == list(resident.categories)
        np.testing.assert_array_equal(streamed.activations, resident.activations)
        assert streamed.edges_traversed == resident.edges_traversed


class TestStreamingSave:
    def test_byte_identical_to_materialized_save(self, tmp_path):
        network = generate_challenge_network(32, 4, connections=8, seed=13)
        materialized = tmp_path / "materialized"
        streamed = tmp_path / "streamed"
        save_challenge_network(network, materialized)
        save_challenge_layers(
            streamed,
            iter_generate_challenge_layers(32, 4, connections=8, seed=13),
            neurons=32,
            num_layers=4,
            threshold=network.threshold,
        )
        assert _tsv_and_meta_bytes(materialized) == _tsv_and_meta_bytes(streamed)

    def test_streamed_sidecar_loads_and_matches(self, tmp_path):
        save_challenge_layers(
            tmp_path,
            iter_generate_challenge_layers(16, 3, connections=4, seed=14),
            neurons=16,
            num_layers=3,
            threshold=32.0,
        )
        assert cache_path(tmp_path, 16).exists()
        cached = load_challenge_network(tmp_path, 16)
        parsed = load_challenge_network(tmp_path, 16, use_cache=False)
        for a, b in zip(cached.weights, parsed.weights):
            assert a.same_pattern(b)
            assert np.array_equal(np.asarray(a.data), np.asarray(b.data))

    def test_failed_save_over_existing_network_fails_loudly_on_load(self, tmp_path):
        # the meta file is the commit record: a save that dies midway over
        # an existing network must not leave a loadable mix of new and old
        # layer TSVs (chimera network) -- the old meta is removed up front
        # and only rewritten once every layer landed
        save_challenge_layers(
            tmp_path,
            iter_generate_challenge_layers(16, 3, connections=4, seed=1),
            neurons=16,
            num_layers=3,
            threshold=32.0,
        )

        def dies_after_two(seed):
            for i, layer in enumerate(
                iter_generate_challenge_layers(16, 3, connections=4, seed=seed)
            ):
                if i == 2:
                    raise RuntimeError("interrupted")
                yield layer

        with pytest.raises(RuntimeError, match="interrupted"):
            save_challenge_layers(
                tmp_path, dies_after_two(2), neurons=16, num_layers=3, threshold=32.0
            )
        with pytest.raises(SerializationError, match="metadata file not found"):
            load_challenge_network(tmp_path, 16)

        # a subsequent successful save fully recovers the directory
        save_challenge_layers(
            tmp_path,
            iter_generate_challenge_layers(16, 3, connections=4, seed=3),
            neurons=16,
            num_layers=3,
            threshold=32.0,
        )
        assert load_challenge_network(tmp_path, 16).num_layers == 3

    def test_too_few_layers_raises_and_discards_sidecar(self, tmp_path):
        with pytest.raises(SerializationError, match="expected 3"):
            save_challenge_layers(
                tmp_path,
                iter_generate_challenge_layers(16, 2, connections=4, seed=0),
                neurons=16,
                num_layers=3,
                threshold=32.0,
            )
        assert not cache_path(tmp_path, 16).exists()
        assert not list(tmp_path.glob("*.tmp.npz"))

    def test_zero_layers_declared_raises(self, tmp_path):
        with pytest.raises(ValidationError, match="num_layers"):
            save_challenge_layers(
                tmp_path, iter([]), neurons=16, num_layers=0, threshold=32.0
            )
        assert not list(tmp_path.glob("*"))

    def test_too_many_layers_raises(self, tmp_path):
        with pytest.raises(SerializationError, match="more than the declared"):
            save_challenge_layers(
                tmp_path,
                iter_generate_challenge_layers(16, 4, connections=4, seed=0),
                neurons=16,
                num_layers=2,
                threshold=32.0,
            )

    def test_wrong_shape_raises(self, tmp_path):
        with pytest.raises(SerializationError, match="shape"):
            save_challenge_layers(
                tmp_path,
                iter_generate_challenge_layers(16, 2, connections=4, seed=0),
                neurons=32,
                num_layers=2,
                threshold=32.0,
            )

    def test_non_constant_bias_raises(self, tmp_path):
        def layers():
            for weight, bias in iter_generate_challenge_layers(
                16, 2, connections=4, seed=0
            ):
                yield weight, np.arange(16, dtype=np.float64) * -1.0

        with pytest.raises(SerializationError, match="constant"):
            save_challenge_layers(
                tmp_path, layers(), neurons=16, num_layers=2, threshold=32.0
            )

    def test_bias_differing_across_layers_raises(self, tmp_path):
        def layers():
            for i, (weight, _) in enumerate(
                iter_generate_challenge_layers(16, 2, connections=4, seed=0)
            ):
                yield weight, np.full(16, -0.1 * (i + 1))

        with pytest.raises(SerializationError, match="differs"):
            save_challenge_layers(
                tmp_path, layers(), neurons=16, num_layers=2, threshold=32.0
            )

    def test_round_trip_through_streaming_reader(self, tmp_path):
        save_challenge_layers(
            tmp_path,
            iter_generate_challenge_layers(32, 5, connections=4, seed=15),
            neurons=32,
            num_layers=5,
            threshold=32.0,
        )
        batch = challenge_input_batch(32, 8, seed=16)
        from_disk = streaming_inference(
            iter_challenge_layers(tmp_path, 32), batch, threshold=32.0
        )
        direct = streaming_inference(
            iter_generate_challenge_layers(32, 5, connections=4, seed=15),
            batch,
            threshold=32.0,
        )
        assert list(from_disk.categories) == list(direct.categories)


class TestEdgeAccounting:
    """Permutation-invariant edge accounting (regression guards)."""

    def test_connections_per_neuron_exact_for_shuffled_networks(self):
        # the per-layer shuffle is a column permutation: nnz-preserving,
        # so the challenge's nominal connections/neuron stays *exact*
        network = generate_challenge_network(48, 7, connections=8, seed=17)
        assert network.connections_per_neuron == 8.0
        assert network.topology.num_edges == 48 * 8 * 7
        for weight in network.weights:
            assert weight.nnz == 48 * 8

    def test_permuted_layer_degrees_are_regular(self):
        network = generate_challenge_network(32, 4, connections=4, seed=18)
        for weight in network.weights:
            assert np.all(weight.row_degrees() == 4)
            assert np.all(weight.col_degrees() == 4)

    def test_edges_traversed_regression(self):
        # the engine refactor fixed edges_traversed to count *stored
        # weight entries x batch rows* on every execution path; pin all
        # three (single-shot, chunked merge, streaming) to the same
        # number so the accounting cannot silently drift again
        network = generate_challenge_network(32, 5, connections=4, seed=19)
        batch = challenge_input_batch(32, 12, seed=20)
        expected = sum(w.nnz for w in network.weights) * 12
        assert expected == 32 * 4 * 5 * 12
        engine = InferenceEngine(network)
        assert engine.run(batch, record_timing=False).edges_traversed == expected
        assert (
            engine.run(batch, chunk_size=5, record_timing=False).edges_traversed
            == expected
        )
        streamed = streaming_inference(
            zip(network.weights, network.biases), batch, threshold=network.threshold
        )
        assert streamed.edges_traversed == expected


@pytest.mark.slow
class TestOfficialScale:
    """16384-neuron generation smoke (the size the dense path could not reach)."""

    NEURONS = 16384
    CONNECTIONS = 32
    LAYERS = 2

    def test_generation_memory_bounded_by_single_layer(self, tmp_path):
        nnz = self.NEURONS * self.CONNECTIONS
        # one layer's CSR footprint: indices + data (8 bytes each) + indptr
        layer_bytes = nnz * 16 + (self.NEURONS + 1) * 8
        dense_layer_bytes = self.NEURONS * self.NEURONS * 8
        total_nnz = 0
        build_peak = 0

        def counted():
            nonlocal total_nnz, build_peak
            for weight, bias in iter_generate_challenge_layers(
                self.NEURONS, self.LAYERS, connections=self.CONNECTIONS, seed=3
            ):
                if not total_nnz:
                    # the one-off base-layer build peaks before any save
                    # work; measure the per-layer steady state apart
                    build_peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.reset_peak()
                total_nnz += weight.nnz
                assert bias.shape == (self.NEURONS,)
                yield weight, bias

        tracemalloc.start()
        try:
            save_challenge_layers(
                tmp_path, counted(), neurons=self.NEURONS,
                num_layers=self.LAYERS, threshold=32.0,
            )
            _, steady_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert total_nnz == nnz * self.LAYERS
        # the base-layer build (measured ~7.5x one layer: COO coalesce
        # temporaries) stays a small multiple of one layer's nnz, far
        # below the 2 GB dense per-layer buffer the old generator allocated
        assert build_peak < 16 * layer_bytes
        assert build_peak < dense_layer_bytes / 8
        # per layer -- permute, TSV encode, sidecar append -- measured
        # ~4.4x, mostly the column permutation's sort temporaries: the
        # encoder builds its text one TSV_CHUNK_ROWS chunk at a time
        # (the np.savetxt writer it replaced measured ~9.5x)
        assert steady_peak < 6 * layer_bytes

    def test_cli_generate_completes_at_official_size(self, tmp_path, capsys):
        code = main(
            [
                "challenge",
                "generate",
                "--neurons",
                str(self.NEURONS),
                "--layers",
                str(self.LAYERS),
                "--connections",
                str(self.CONNECTIONS),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "streaming" in out
        for i in range(1, self.LAYERS + 1):
            assert (tmp_path / f"neuron{self.NEURONS}-l{i}.tsv").exists()
        assert cache_path(tmp_path, self.NEURONS).exists()
        # the saved network streams back with the right per-layer shape/nnz
        layers = iter_challenge_layers(tmp_path, self.NEURONS)
        weight, bias = next(layers)
        assert weight.shape == (self.NEURONS, self.NEURONS)
        assert weight.nnz == self.NEURONS * self.CONNECTIONS
        assert float(bias[0]) == pytest.approx(-0.3)
        layers.close()
