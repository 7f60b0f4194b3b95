"""Tests for repro.challenge: generator, inference kernel, IO, verification."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.challenge.generator import (
    ChallengeNetwork,
    challenge_input_batch,
    generate_challenge_network,
    scale_series,
)
from repro.challenge.inference import (
    InferenceEngine,
    infer_categories,
    layer_activation_profile,
    sparse_dnn_inference,
)
from repro.challenge.io import load_challenge_network, save_challenge_network
from repro.challenge.verify import category_checksum, reference_categories, verify_categories
from repro.topology.properties import degree_statistics


class TestGenerator:
    def test_basic_structure(self):
        network = generate_challenge_network(16, 5, connections=4, seed=0)
        assert network.neurons == 16
        assert network.num_layers == 5
        assert network.connections_per_neuron == pytest.approx(4.0)
        assert network.threshold == 32.0

    def test_every_layer_is_regular(self):
        network = generate_challenge_network(16, 4, connections=4, seed=1)
        for stat in degree_statistics(network.topology):
            assert stat.out_regular
            assert stat.out_degree_min == 4

    def test_weight_values_constant(self):
        # default weight is 2 / connections (incoming weight sum of 2)
        network = generate_challenge_network(8, 3, connections=2, seed=2)
        for weight in network.weights:
            np.testing.assert_allclose(weight.data, 1.0)

    def test_custom_weight_value(self):
        network = generate_challenge_network(8, 2, connections=2, weight_value=0.0625, seed=0)
        np.testing.assert_allclose(network.weights[0].data, 0.0625)

    def test_biases_shape_and_value(self):
        network = generate_challenge_network(8, 2, connections=4, seed=0)
        assert all(b.shape == (8,) for b in network.biases)
        np.testing.assert_allclose(network.biases[0], -0.3)

    def test_neurons_must_divide_connections(self):
        with pytest.raises(ValidationError, match="divisible"):
            generate_challenge_network(10, 3, connections=4)

    def test_shuffle_false_is_deterministic_circulant(self):
        a = generate_challenge_network(16, 2, connections=4, shuffle_neurons=False)
        b = generate_challenge_network(16, 2, connections=4, shuffle_neurons=False)
        assert a.topology.same_topology(b.topology)

    def test_shuffle_seeded_reproducible(self):
        a = generate_challenge_network(16, 3, connections=4, seed=7)
        b = generate_challenge_network(16, 3, connections=4, seed=7)
        assert a.topology.same_topology(b.topology)

    def test_threshold_validation(self):
        with pytest.raises(ValidationError):
            generate_challenge_network(8, 2, connections=2, threshold=0.0)

    def test_input_batch_properties(self):
        batch = challenge_input_batch(32, 10, active_fraction=0.2, seed=0)
        assert batch.shape == (10, 32)
        assert set(np.unique(batch)).issubset({0.0, 1.0})
        assert batch.sum(axis=1).min() >= 1  # no all-zero rows

    def test_input_batch_validation(self):
        with pytest.raises(ValidationError):
            challenge_input_batch(8, 4, active_fraction=0.0)

    def test_scale_series(self):
        assert scale_series(16, 3) == [16, 64, 256]


class TestInference:
    def test_kernel_matches_dense_reference(self):
        network = generate_challenge_network(16, 6, connections=4, seed=3)
        batch = challenge_input_batch(16, 12, seed=4)
        assert verify_categories(network, batch)

    def test_activations_respect_threshold(self):
        network = generate_challenge_network(16, 8, connections=4, seed=5)
        batch = challenge_input_batch(16, 6, seed=6)
        result = sparse_dnn_inference(network, batch)
        assert result.activations.min() >= 0.0
        assert result.activations.max() <= network.threshold

    def test_zero_input_row_produces_no_category(self):
        network = generate_challenge_network(8, 3, connections=2, seed=7)
        batch = np.zeros((3, 8))
        batch[1] = 1.0  # only sample 1 active
        result = sparse_dnn_inference(network, batch)
        assert 0 not in result.categories
        assert 2 not in result.categories

    def test_edges_and_timing_recorded(self):
        network = generate_challenge_network(8, 4, connections=2, seed=8)
        batch = challenge_input_batch(8, 5, seed=9)
        result = sparse_dnn_inference(network, batch)
        assert len(result.layer_seconds) == 4
        assert result.edges_traversed == 8 * 2 * 4 * 5
        assert result.edges_per_second > 0

    def test_infer_categories_wrapper(self):
        network = generate_challenge_network(8, 2, connections=2, seed=10)
        batch = challenge_input_batch(8, 4, seed=11)
        np.testing.assert_array_equal(
            infer_categories(network, batch),
            sparse_dnn_inference(network, batch).categories,
        )

    def test_shape_validation(self):
        network = generate_challenge_network(8, 2, connections=2, seed=12)
        with pytest.raises(Exception):
            sparse_dnn_inference(network, np.zeros((3, 9)))

    def test_activation_profile_stays_alive(self):
        # the bias/weight tuning must keep a healthy fraction of neurons active
        network = generate_challenge_network(32, 10, connections=4, seed=13)
        batch = challenge_input_batch(32, 8, active_fraction=0.4, seed=14)
        profile = layer_activation_profile(network, batch)
        assert len(profile) == 10
        assert profile[-1] > 0.05


class TestLiveRowResult:
    def test_result_holds_only_live_rows_until_activations_are_read(self):
        neurons, rows = 256, 256
        network = generate_challenge_network(neurons, 8, connections=8, seed=3)
        # the sparser half of the batch dies within the first layers
        batch = np.vstack([
            challenge_input_batch(neurons, rows // 2, active_fraction=0.4, seed=1),
            challenge_input_batch(neurons, rows // 2, active_fraction=0.1, seed=2),
        ])
        engine = InferenceEngine(network)
        # chunked runs merge their chunks into one eager array; this also
        # warms up first-call imports and caches outside the trace
        eager = engine.run(
            batch, activations="dense", record_timing=False, chunk_size=rows // 4
        ).batch.array
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = engine.run(batch, activations="dense", record_timing=False)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(result.categories) == rows // 2
        assert held <= 0.6 * rows * neurons * 8
        np.testing.assert_array_equal(
            result.activations.view(np.int64), eager.view(np.int64)
        )
        np.testing.assert_array_equal(result.categories, reference_categories(network, batch))


class TestChallengeIO:
    def test_round_trip(self, tmp_path):
        network = generate_challenge_network(8, 3, connections=2, seed=0)
        save_challenge_network(network, tmp_path)
        loaded = load_challenge_network(tmp_path, 8)
        assert loaded.neurons == 8
        assert loaded.num_layers == 3
        assert loaded.threshold == network.threshold
        assert loaded.topology.same_topology(network.topology)
        for a, b in zip(loaded.weights, network.weights):
            assert a.allclose(b)

    def test_inference_identical_after_round_trip(self, tmp_path):
        network = generate_challenge_network(16, 4, connections=4, seed=1)
        save_challenge_network(network, tmp_path)
        loaded = load_challenge_network(tmp_path, 16)
        batch = challenge_input_batch(16, 6, seed=2)
        np.testing.assert_array_equal(
            infer_categories(network, batch), infer_categories(loaded, batch)
        )

    def test_missing_metadata(self, tmp_path):
        from repro.errors import SerializationError

        with pytest.raises(SerializationError):
            load_challenge_network(tmp_path, 8)

    def test_wrong_neuron_count(self, tmp_path):
        from repro.errors import SerializationError

        network = generate_challenge_network(8, 2, connections=2, seed=3)
        save_challenge_network(network, tmp_path)
        with pytest.raises(SerializationError):
            load_challenge_network(tmp_path, 16)


class TestVerification:
    def test_reference_matches_kernel_categories(self):
        network = generate_challenge_network(16, 5, connections=4, seed=4)
        batch = challenge_input_batch(16, 10, seed=5)
        np.testing.assert_array_equal(
            reference_categories(network, batch),
            sparse_dnn_inference(network, batch).categories,
        )

    def test_checksum_stable_and_distinct(self):
        a = category_checksum(np.array([1, 2, 3]))
        b = category_checksum(np.array([1, 2, 3]))
        c = category_checksum(np.array([1, 2, 4]))
        assert a == b
        assert a != c
        assert len(a) == 16
