"""Tests for the sparse-activation inference pipeline and streaming I/O.

Covers the :class:`ActivationPolicy` crossover machinery, dense-vs-sparse
activation parity across every registered backend at several input
densities, the fused ``sparse_layer_step`` backend kernel, the binary
``.npz`` sidecar cache (freshness and invalidation), the generator-based
layer loader + :func:`streaming_inference`, and a 1024-neuron / 120-layer
official-scale smoke (marked ``slow``).
"""

import os
import time

import numpy as np
import pytest

import repro.backends as backends
from repro.challenge.generator import challenge_input_batch, generate_challenge_network
from repro.challenge.inference import (
    ActivationPolicy,
    DenseActivations,
    InferenceEngine,
    SparseActivations,
    sparse_dnn_inference,
    streaming_inference,
)
from repro.challenge.io import (
    cache_is_fresh,
    cache_path,
    iter_challenge_layers,
    load_challenge_network,
    save_challenge_network,
    write_cache,
)
from repro.challenge.verify import reference_categories, verify_categories
from repro.errors import SerializationError, ShapeError, ValidationError
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import sparse_layer_step

ALL_BACKENDS = backends.available_backends()


# --------------------------------------------------------------------------- #
# activation policy
# --------------------------------------------------------------------------- #
class TestActivationPolicy:
    def test_resolve_forms(self):
        assert ActivationPolicy.resolve(None).mode == "auto"
        assert ActivationPolicy.resolve("sparse").mode == "sparse"
        policy = ActivationPolicy(mode="dense")
        assert ActivationPolicy.resolve(policy) is policy

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValidationError, match="activation mode"):
            ActivationPolicy(mode="csr")

    def test_invalid_crossover_rejected(self):
        with pytest.raises(ValidationError, match="crossover_density"):
            ActivationPolicy(crossover_density=0.0)
        with pytest.raises(ValidationError, match="crossover_density"):
            ActivationPolicy(crossover_density=1.5)

    def test_forced_modes_ignore_density(self):
        assert ActivationPolicy(mode="dense").pick(density=0.0, elements=1 << 30) == "dense"
        assert ActivationPolicy(mode="sparse").pick(density=1.0, elements=1) == "sparse"

    def test_auto_crossover(self):
        policy = ActivationPolicy(crossover_density=0.2, min_sparse_elements=100)
        assert policy.pick(density=0.1, elements=1000) == "sparse"
        assert policy.pick(density=0.3, elements=1000) == "dense"
        # below the size floor, density no longer matters
        assert policy.pick(density=0.01, elements=64) == "dense"


class TestActivationBatches:
    def test_dense_sparse_round_trip(self):
        array = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 3.0]])
        dense = DenseActivations(array)
        sparse = dense.to_sparse()
        assert isinstance(sparse, SparseActivations)
        assert sparse.nnz() == dense.nnz() == 3
        np.testing.assert_array_equal(sparse.to_dense().array, array)
        np.testing.assert_array_equal(sparse.categories(), dense.categories())

    def test_density_and_elements(self):
        batch = DenseActivations(np.eye(4))
        assert batch.elements == 16
        assert batch.density() == pytest.approx(0.25)
        assert batch.to_sparse().density() == pytest.approx(0.25)


# --------------------------------------------------------------------------- #
# fused backend kernel
# --------------------------------------------------------------------------- #
class TestSparseLayerStep:
    def _random_case(self, seed, density):
        rng = np.random.default_rng(seed)
        y_dense = np.where(rng.random((6, 20)) < density, rng.random((6, 20)) * 3, 0.0)
        y_dense[1] = 0.0  # a fully-inactive sample
        w_dense = np.where(rng.random((20, 20)) < 0.25, rng.random((20, 20)), 0.0)
        bias = -rng.random(20) * 0.5
        threshold = 1.25
        z = y_dense @ w_dense
        z[y_dense.sum(axis=1) > 0] += bias
        expected = np.clip(z, 0.0, threshold)
        return y_dense, w_dense, bias, threshold, expected

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("density", [0.05, 0.3, 0.7])
    def test_matches_dense_recurrence(self, backend, density):
        y_dense, w_dense, bias, threshold, expected = self._random_case(3, density)
        out = sparse_layer_step(
            CSRMatrix.from_dense(y_dense),
            CSRMatrix.from_dense(w_dense),
            bias,
            threshold,
            backend=backend,
        )
        np.testing.assert_allclose(out.to_dense(), expected, atol=1e-12)
        # result stays canonical: strictly positive, clamped, sorted rows
        assert out.data.min() > 0.0
        assert out.data.max() <= threshold

    def test_generic_fallback_without_fused_kernel(self):
        class BareBackend:
            name = "bare"
            spgemm = staticmethod(backends.get_backend("vectorized").spgemm)

        y_dense, w_dense, bias, threshold, expected = self._random_case(4, 0.4)
        out = sparse_layer_step(
            CSRMatrix.from_dense(y_dense),
            CSRMatrix.from_dense(w_dense),
            bias,
            threshold,
            backend=BareBackend(),
        )
        np.testing.assert_allclose(out.to_dense(), expected, atol=1e-12)

    def test_positive_bias_rejected(self):
        y = CSRMatrix.eye(4)
        with pytest.raises(ValidationError, match="non-positive bias"):
            sparse_layer_step(y, y, np.full(4, 0.5), 2.0)

    def test_shape_validation(self):
        y = CSRMatrix.eye(4)
        w = CSRMatrix.eye(5)
        with pytest.raises(ShapeError):
            sparse_layer_step(y, w, np.zeros(5), 2.0)
        with pytest.raises(ShapeError, match="bias"):
            sparse_layer_step(y, y, np.zeros(3), 2.0)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_empty_activations(self, backend):
        y = CSRMatrix.zeros((3, 8))
        w = CSRMatrix.eye(8)
        out = sparse_layer_step(y, w, np.full(8, -0.1), 4.0, backend=backend)
        assert out.nnz == 0
        assert out.shape == (3, 8)


# --------------------------------------------------------------------------- #
# dense-vs-sparse pipeline parity
# --------------------------------------------------------------------------- #
class TestPolicyParity:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("active_fraction", [0.05, 0.3, 0.6])
    def test_dense_sparse_parity_all_backends(self, backend, active_fraction):
        network = generate_challenge_network(32, 8, connections=4, seed=11)
        batch = challenge_input_batch(32, 10, active_fraction=active_fraction, seed=12)
        engine = InferenceEngine(network, backend=backend)
        dense = engine.run(batch, activations="dense")
        sparse = engine.run(batch, activations="sparse")
        np.testing.assert_array_equal(dense.categories, sparse.categories)
        np.testing.assert_allclose(dense.activations, sparse.activations, atol=1e-9)
        assert dense.layer_modes == ["dense"] * 8
        assert sparse.layer_modes == ["sparse"] * 8
        np.testing.assert_array_equal(
            sparse.categories, reference_categories(network, batch)
        )

    def test_auto_policy_matches_forced_paths(self):
        network = generate_challenge_network(32, 6, connections=4, seed=13)
        batch = challenge_input_batch(32, 8, active_fraction=0.1, seed=14)
        # crossover high enough that auto actually flips to sparse layers
        policy = ActivationPolicy(mode="auto", crossover_density=0.9, min_sparse_elements=0)
        auto = sparse_dnn_inference(network, batch, activations=policy)
        dense = sparse_dnn_inference(network, batch, activations="dense")
        assert "sparse" in auto.layer_modes
        np.testing.assert_array_equal(auto.categories, dense.categories)
        np.testing.assert_allclose(auto.activations, dense.activations, atol=1e-9)

    def test_auto_stays_dense_below_size_floor(self):
        network = generate_challenge_network(16, 3, connections=4, seed=15)
        batch = challenge_input_batch(16, 4, seed=16)
        result = sparse_dnn_inference(
            network, batch,
            activations=ActivationPolicy(min_sparse_elements=1 << 20),
        )
        assert result.layer_modes == ["dense"] * 3

    def test_chunked_sparse_matches_single_shot(self):
        network = generate_challenge_network(32, 6, connections=4, seed=17)
        batch = challenge_input_batch(32, 24, seed=18)
        engine = InferenceEngine(network)
        single = engine.run(batch, activations="sparse", record_timing=False)
        chunked = engine.run(batch, chunk_size=5, activations="sparse")
        np.testing.assert_array_equal(single.categories, chunked.categories)
        np.testing.assert_allclose(single.activations, chunked.activations, atol=1e-9)
        assert chunked.peak_activation_nnz <= single.peak_activation_nnz

    def test_sparse_policy_rejects_positive_bias(self):
        network = generate_challenge_network(8, 2, connections=2, weight_value=-1.0, seed=19)
        batch = challenge_input_batch(8, 4, seed=20)
        assert any(np.any(b > 0) for b in network.biases)  # precondition
        engine = InferenceEngine(network)
        with pytest.raises(ValidationError, match="non-positive biases"):
            engine.run(batch, activations="sparse")
        # auto silently keeps the dense path instead
        result = engine.run(batch, activations=ActivationPolicy(
            mode="auto", crossover_density=1.0, min_sparse_elements=0))
        assert result.layer_modes == ["dense"] * 2

    def test_result_metadata_recorded(self):
        network = generate_challenge_network(16, 4, connections=4, seed=21)
        batch = challenge_input_batch(16, 6, seed=22)
        result = sparse_dnn_inference(network, batch, activations="sparse")
        assert result.activation_policy == "sparse"
        assert len(result.layer_density) == 4
        assert all(0.0 <= d <= 1.0 for d in result.layer_density)
        assert result.peak_activation_nnz >= int(batch.sum())

    def test_zero_batch_runs_dense(self):
        network = generate_challenge_network(16, 3, connections=4, seed=23)
        result = sparse_dnn_inference(
            network, np.empty((0, 16)), activations="sparse"
        )
        assert result.activations.shape == (0, 16)
        assert result.categories.size == 0

    def test_verify_categories_accepts_policy(self):
        network = generate_challenge_network(16, 4, connections=4, seed=24)
        batch = challenge_input_batch(16, 6, seed=25)
        for name in ALL_BACKENDS:
            assert verify_categories(network, batch, backend=name, activations="sparse")


# --------------------------------------------------------------------------- #
# streaming inference over lazily loaded layers
# --------------------------------------------------------------------------- #
class TestStreamingInference:
    def test_matches_engine_from_directory(self, tmp_path):
        network = generate_challenge_network(32, 6, connections=4, seed=26)
        batch = challenge_input_batch(32, 9, seed=27)
        save_challenge_network(network, tmp_path)
        expected = sparse_dnn_inference(network, batch, record_timing=False)
        for policy in ("dense", "sparse", "auto"):
            result = streaming_inference(
                iter_challenge_layers(tmp_path, 32),
                batch,
                threshold=network.threshold,
                activations=policy,
            )
            np.testing.assert_array_equal(result.categories, expected.categories)
            assert result.edges_traversed == expected.edges_traversed

    def test_layers_consumed_lazily(self):
        network = generate_challenge_network(16, 4, connections=4, seed=28)
        batch = challenge_input_batch(16, 5, seed=29)
        consumed = []

        def layer_gen():
            for i, (w, b) in enumerate(zip(network.weights, network.biases)):
                consumed.append(i)
                yield w, b

        gen = layer_gen()
        result = streaming_inference(gen, batch, threshold=network.threshold)
        assert consumed == [0, 1, 2, 3]
        np.testing.assert_array_equal(
            result.categories, sparse_dnn_inference(network, batch).categories
        )

    def test_shape_mismatch_raises(self):
        network = generate_challenge_network(16, 2, connections=4, seed=30)
        with pytest.raises(ShapeError):
            streaming_inference(
                zip(network.weights, network.biases),
                np.ones((3, 8)),
                threshold=network.threshold,
            )


# --------------------------------------------------------------------------- #
# binary sidecar cache
# --------------------------------------------------------------------------- #
class TestSidecarCache:
    def test_save_writes_fresh_sidecar(self, tmp_path):
        network = generate_challenge_network(16, 3, connections=4, seed=31)
        save_challenge_network(network, tmp_path)
        assert cache_path(tmp_path, 16).exists()
        assert cache_is_fresh(tmp_path, 16, 3)

    def test_cache_consulted_when_fresh(self, tmp_path):
        network = generate_challenge_network(16, 3, connections=4, seed=32)
        save_challenge_network(network, tmp_path)
        # clobber a layer TSV but keep its mtime older than the sidecar:
        # the cached weights must win
        layer = tmp_path / "neuron16-l1.tsv"
        stat = layer.stat()
        layer.write_text("1\t1\t123.0\n", encoding="utf-8")
        os.utime(layer, (stat.st_atime - 100, stat.st_mtime - 100))
        loaded = load_challenge_network(tmp_path, 16)
        assert loaded.weights[0].allclose(network.weights[0])

    def test_stale_sidecar_invalidated_by_newer_tsv(self, tmp_path):
        network = generate_challenge_network(16, 3, connections=4, seed=33)
        save_challenge_network(network, tmp_path)
        # edit a layer TSV and age the sidecar behind it: the edited TSV
        # must win, and the sidecar must be rebuilt from it
        layer = tmp_path / "neuron16-l1.tsv"
        layer.write_text("1\t1\t123.0\n", encoding="utf-8")
        sidecar = cache_path(tmp_path, 16)
        past = time.time() - 100
        os.utime(sidecar, (past, past))
        assert not cache_is_fresh(tmp_path, 16, 3)
        loaded = load_challenge_network(tmp_path, 16)
        assert loaded.weights[0].nnz == 1
        assert loaded.weights[0].data[0] == 123.0
        # the sidecar was rebuilt from the edited TSVs and is fresh again
        assert cache_is_fresh(tmp_path, 16, 3)
        reloaded = load_challenge_network(tmp_path, 16)
        assert reloaded.weights[0].allclose(loaded.weights[0])

    def test_no_cache_forces_tsv_parse(self, tmp_path):
        network = generate_challenge_network(16, 2, connections=4, seed=34)
        save_challenge_network(network, tmp_path, write_sidecar=False)
        assert not cache_path(tmp_path, 16).exists()
        loaded = load_challenge_network(tmp_path, 16, use_cache=False)
        assert not cache_path(tmp_path, 16).exists()
        for a, b in zip(loaded.weights, network.weights):
            assert a.allclose(b)

    def test_load_without_sidecar_writes_one(self, tmp_path):
        network = generate_challenge_network(16, 2, connections=4, seed=35)
        save_challenge_network(network, tmp_path, write_sidecar=False)
        load_challenge_network(tmp_path, 16)
        assert cache_path(tmp_path, 16).exists()

    def test_corrupt_sidecar_falls_back_to_tsv(self, tmp_path):
        network = generate_challenge_network(16, 2, connections=4, seed=36)
        save_challenge_network(network, tmp_path)
        cache_path(tmp_path, 16).write_bytes(b"not a zip archive")
        loaded = load_challenge_network(tmp_path, 16)
        for a, b in zip(loaded.weights, network.weights):
            assert a.allclose(b)

    def test_write_cache_round_trip_values(self, tmp_path):
        network = generate_challenge_network(16, 3, connections=4, seed=37)
        save_challenge_network(network, tmp_path, write_sidecar=False)
        write_cache(network, tmp_path)
        loaded = load_challenge_network(tmp_path, 16)
        for a, b in zip(loaded.weights, network.weights):
            assert a.allclose(b)
        batch = challenge_input_batch(16, 5, seed=38)
        np.testing.assert_array_equal(
            sparse_dnn_inference(loaded, batch).categories,
            sparse_dnn_inference(network, batch).categories,
        )

    def test_empty_layer_round_trips(self, tmp_path):
        network = generate_challenge_network(8, 2, connections=2, seed=39)
        save_challenge_network(network, tmp_path)
        layer = tmp_path / "neuron8-l2.tsv"
        layer.write_text("", encoding="utf-8")
        future = time.time() + 10
        os.utime(layer, (future, future))
        loaded = load_challenge_network(tmp_path, 8)
        assert loaded.weights[1].nnz == 0

    def test_malformed_layer_raises(self, tmp_path):
        network = generate_challenge_network(8, 2, connections=2, seed=40)
        save_challenge_network(network, tmp_path, write_sidecar=False)
        (tmp_path / "neuron8-l1.tsv").write_text("1\tnot-a-number\t0.5\n", encoding="utf-8")
        with pytest.raises(SerializationError):
            load_challenge_network(tmp_path, 8, use_cache=False)

    def test_out_of_range_index_raises(self, tmp_path):
        network = generate_challenge_network(8, 2, connections=2, seed=41)
        save_challenge_network(network, tmp_path, write_sidecar=False)
        (tmp_path / "neuron8-l1.tsv").write_text("9\t1\t0.5\n", encoding="utf-8")
        with pytest.raises(SerializationError, match="out of range"):
            load_challenge_network(tmp_path, 8, use_cache=False)

    def test_non_integer_index_raises(self, tmp_path):
        network = generate_challenge_network(8, 2, connections=2, seed=42)
        save_challenge_network(network, tmp_path, write_sidecar=False)
        (tmp_path / "neuron8-l1.tsv").write_text("1.7\t2\t0.5\n", encoding="utf-8")
        with pytest.raises(SerializationError, match="must be integers"):
            load_challenge_network(tmp_path, 8, use_cache=False)

    def test_cache_rewrite_leaves_live_memmaps_intact(self, tmp_path):
        network = generate_challenge_network(16, 2, connections=4, seed=44)
        save_challenge_network(network, tmp_path)
        first = load_challenge_network(tmp_path, 16)  # weights memmap the sidecar
        # edit a TSV and trigger a cache rebuild via a second load
        layer = tmp_path / "neuron16-l1.tsv"
        layer.write_text("1\t1\t7.0\n", encoding="utf-8")
        sidecar = cache_path(tmp_path, 16)
        past = time.time() - 100
        os.utime(sidecar, (past, past))
        second = load_challenge_network(tmp_path, 16)
        assert second.weights[0].nnz == 1
        # the first network's (mapped) weights still read the old bytes
        assert first.weights[0].allclose(network.weights[0])

    def test_unwritable_sidecar_is_nonfatal(self, tmp_path, monkeypatch):
        # e.g. a network directory on a read-only mount: the cold load
        # must still succeed even though the opportunistic cache write
        # cannot (chmod tricks don't work under root, so fail it directly)
        import repro.challenge.io as challenge_io

        network = generate_challenge_network(16, 2, connections=4, seed=45)
        save_challenge_network(network, tmp_path, write_sidecar=False)

        def denied(*args, **kwargs):
            raise PermissionError("read-only directory")

        monkeypatch.setattr(challenge_io, "write_cache", denied)
        loaded = load_challenge_network(tmp_path, 16)
        for a, b in zip(loaded.weights, network.weights):
            assert a.allclose(b)

    def test_duplicate_entries_coalesce_by_summation(self, tmp_path):
        network = generate_challenge_network(8, 2, connections=2, seed=43)
        save_challenge_network(network, tmp_path, write_sidecar=False)
        (tmp_path / "neuron8-l1.tsv").write_text(
            "1\t1\t2.0\n3\t4\t1.0\n1\t1\t3.0\n", encoding="utf-8"
        )
        loaded = load_challenge_network(tmp_path, 8, use_cache=False)
        weight = loaded.weights[0]
        assert weight.nnz == 2  # canonical CSR: duplicates summed
        dense = weight.to_dense()
        assert dense[0, 0] == 5.0
        assert dense[2, 3] == 1.0


# --------------------------------------------------------------------------- #
# official-scale smoke
# --------------------------------------------------------------------------- #
@pytest.mark.slow
class TestOfficialScaleSmoke:
    def test_1024_neuron_120_layer_sparse_policy(self):
        """Smallest official Graph Challenge size: 1024 neurons, 120 layers.

        The sparse activation policy must complete, agree with the dense
        path on categories, and hold peak activation storage below the
        dense buffer's ``batch * neurons`` elements.  The input fraction
        is chosen so the instance stays *alive* through all 120 layers
        without the early-layer transient saturating to full density
        (the thresholded steady state settles far sparser -- the regime
        the sparse policy exists for).
        """
        network = generate_challenge_network(1024, 120, connections=32, seed=42)
        batch = challenge_input_batch(1024, 16, active_fraction=0.28, seed=43)
        engine = InferenceEngine(network)
        sparse = engine.run(batch, activations="sparse", record_timing=False)
        dense = engine.run(batch, activations="dense", record_timing=False)
        np.testing.assert_array_equal(sparse.categories, dense.categories)
        assert sparse.categories.size > 0  # the instance is alive, not dead
        assert sparse.layer_modes == ["sparse"] * 120
        assert sparse.peak_activation_nnz < batch.size
        # past the transient, thresholding keeps the batch genuinely sparse
        assert sparse.layer_density[-1] < 0.25
