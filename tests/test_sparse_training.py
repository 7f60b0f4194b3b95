"""Tests for the sparse training loop.

Covers the ``sdmm`` backward kernel across every registered backend, the
:class:`CSRTrainableLayer` (gradient checks, O(nnz) storage, numerical
equivalence with :class:`MaskedSparseLayer`, structural mask invariance
under every optimizer), the :class:`KroneckerBlockLayer` (agreement with
the masked and CSR layers, bitwise initial weights, row-blocked
inference, O(nnz) construction, builder selection), the first layer's
skipped input gradient, the trainer bugfix sweep (batch-size-weighted
epoch loss, fit-twice seed-stream advance, lr-schedule/optimizer
mismatch), the magnitude-pruning tie-break, and the ``train-study``
experiment harness and CLI subcommand.
"""

import copy
import json
import tracemalloc

import numpy as np
import pytest

import repro.backends as backends
from repro.backends.fused import _SDMM_BLOCK_ELEMENTS
from repro.baselines.pruning import magnitude_prune_mask
from repro.core.designer import design_for_widths
from repro.baselines.xnet import random_xnet
from repro.core.radixnet import RadixNetSpec, generate_from_spec
from repro.errors import ShapeError, TopologyError, ValidationError
from repro.experiments.training import accuracy_vs_density, train_study
from repro.nn.builder import dense_model, model_from_topology
from repro.nn.data import minibatches, one_hot
from repro.nn import layers as layers_module
from repro.nn.initializers import glorot_uniform, he_normal, iter_weight_rows
from repro.nn.layers import (
    CSRSparseLayer,
    CSRTrainableLayer,
    DenseLayer,
    KroneckerBlockLayer,
    MaskedSparseLayer,
    is_block_regular,
)
from repro.nn.losses import CrossEntropyLoss
from repro.nn.model import FeedforwardNetwork
from repro.nn.optimizers import SGD, Adam, Momentum, RMSProp
from repro.nn.train import Trainer
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import sdmm
from repro.topology.fnnt import FNNT, KroneckerFactors
from repro.topology.random_graphs import erdos_renyi_fnnt

ALL_BACKENDS = backends.available_backends()


def _random_pattern(rng, shape, density=0.4):
    dense = (rng.random(shape) < density).astype(float)
    dense[0, 0] = 1.0  # never fully empty
    return dense, CSRMatrix.from_dense(dense)


# --------------------------------------------------------------------------- #
# sdmm kernel
# --------------------------------------------------------------------------- #
class TestSdmm:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_matches_dense_product_sampled_at_pattern(self, backend):
        rng = np.random.default_rng(0)
        dense_pat, pattern = _random_pattern(rng, (7, 5))
        x = rng.standard_normal((4, 7))
        dy = rng.standard_normal((4, 5))
        out = sdmm(x, dy, pattern, backend=backend)
        assert out.same_pattern(pattern)
        rows, cols = np.nonzero(dense_pat)
        np.testing.assert_allclose(out.data, (x.T @ dy)[rows, cols])

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_pattern_values_are_ignored(self, backend):
        rng = np.random.default_rng(1)
        _, pattern = _random_pattern(rng, (6, 4))
        scaled = pattern.with_data(pattern.data * 17.0)
        x = rng.standard_normal((3, 6))
        dy = rng.standard_normal((3, 4))
        np.testing.assert_array_equal(
            sdmm(x, dy, pattern, backend=backend).data,
            sdmm(x, dy, scaled, backend=backend).data,
        )

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_empty_pattern(self, backend):
        out = sdmm(np.ones((2, 3)), np.ones((2, 4)), CSRMatrix.zeros((3, 4)), backend=backend)
        assert out.nnz == 0
        assert out.shape == (3, 4)

    def test_backends_agree_pairwise(self):
        rng = np.random.default_rng(2)
        _, pattern = _random_pattern(rng, (12, 9), density=0.25)
        x = rng.standard_normal((8, 12))
        dy = rng.standard_normal((8, 9))
        results = [sdmm(x, dy, pattern, backend=b).data for b in ALL_BACKENDS]
        for other in results[1:]:
            np.testing.assert_allclose(results[0], other)

    def test_generic_fallback_without_kernel(self):
        """Backends registered without an sdmm kernel still dispatch."""
        rng = np.random.default_rng(3)
        dense_pat, pattern = _random_pattern(rng, (5, 6))
        x = rng.standard_normal((4, 5))
        dy = rng.standard_normal((4, 6))
        got = sdmm(x, dy, pattern, backend=_NoSdmmBackend())
        rows, cols = np.nonzero(dense_pat)
        np.testing.assert_allclose(got.data, (x.T @ dy)[rows, cols])

    def test_shape_validation(self):
        pattern = CSRMatrix.eye(3)
        with pytest.raises(ShapeError):
            sdmm(np.ones(3), np.ones((2, 3)), pattern)
        with pytest.raises(ShapeError):
            sdmm(np.ones((2, 3)), np.ones((4, 3)), pattern)
        with pytest.raises(ShapeError):
            sdmm(np.ones((2, 3)), np.ones((2, 4)), pattern)

    # The NumPy tiers share one cache-blocked kernel; these pin it bitwise
    # to an unblocked (batch, nnz) gather, at every block boundary and on
    # every dispatch path into it.
    GATHER_PATHS = ("scipy", "vectorized", "fallback")

    @staticmethod
    def _gather_backend(path):
        if path == "fallback":
            return _NoSdmmBackend()
        if path not in ALL_BACKENDS:
            pytest.skip(f"backend {path!r} is not available")
        return path

    @staticmethod
    def _unblocked_gather(x, dy, pattern):
        rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
        return np.einsum("bp,bp->p", x[:, rows], dy[:, pattern.indices])

    @staticmethod
    def _pattern_with_nnz(rng, nnz, density):
        """A random pattern with exactly ``nnz`` entries at about ``density``."""
        cols = 64
        rows = int(np.ceil(nnz / density / cols))
        flat = np.sort(rng.choice(rows * cols, size=nnz, replace=False))
        indptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat // cols, minlength=rows), out=indptr[1:])
        return CSRMatrix((rows, cols), indptr, flat % cols, np.ones(nnz))

    @pytest.mark.parametrize("path", GATHER_PATHS)
    @pytest.mark.parametrize("blocks", [0.5, 1.0, 2.375], ids=["sub", "one", "ragged"])
    @pytest.mark.parametrize("density", [1 / 32, 1 / 4], ids=["d32", "d4"])
    @pytest.mark.parametrize("batch", [0, 1, 17, 64])
    def test_blocked_matches_unblocked_gather_bitwise(self, batch, density, blocks, path):
        rng = np.random.default_rng(batch)
        block = _SDMM_BLOCK_ELEMENTS // max(1, batch)
        pattern = self._pattern_with_nnz(rng, int(blocks * block), density)
        x = rng.standard_normal((batch, pattern.shape[0]))
        dy = rng.standard_normal((batch, pattern.shape[1]))
        got = sdmm(x, dy, pattern, backend=self._gather_backend(path))
        assert got.same_pattern(pattern)
        np.testing.assert_array_equal(
            got.data.view(np.int64), self._unblocked_gather(x, dy, pattern).view(np.int64)
        )

    @pytest.mark.parametrize("path", GATHER_PATHS)
    @pytest.mark.parametrize("layout", ["fortran", "transposed_view", "strided_view"])
    def test_operand_layout_does_not_change_bits(self, layout, path):
        rng = np.random.default_rng(7)
        _, pattern = _random_pattern(rng, (300, 200), density=0.25)
        x = rng.standard_normal((17, 300))
        dy = rng.standard_normal((17, 200))
        if layout == "fortran":
            args = np.asfortranarray(x), np.asfortranarray(dy)
        elif layout == "transposed_view":
            args = np.ascontiguousarray(x.T).T, np.ascontiguousarray(dy.T).T
        else:
            args = np.repeat(x, 2, axis=1)[:, ::2], np.repeat(dy, 2, axis=0)[::2]
        np.testing.assert_array_equal(args[0], x)
        got = sdmm(*args, pattern, backend=self._gather_backend(path))
        np.testing.assert_array_equal(
            got.data.view(np.int64), self._unblocked_gather(x, dy, pattern).view(np.int64)
        )

    @pytest.mark.parametrize("path", GATHER_PATHS)
    def test_peak_memory_is_independent_of_batch_times_nnz(self, path):
        """One batch-64 call on the 1024x1024, density-1/4 RadiX-Net layer.

        An unblocked ``(batch, nnz)`` gather of both operands peaks near
        270 MB here; the blocked kernel holds the transposed operands, the
        output, the row ids and two blocks -- a few MB.
        """
        topology = generate_from_spec(design_for_widths([256, 1024, 1024, 16]).spec)
        pattern = topology.submatrices[1]
        assert pattern.shape == (1024, 1024) and pattern.nnz == 1024 * 1024 // 4
        rng = np.random.default_rng(11)
        x = rng.standard_normal((64, 1024))
        dy = rng.standard_normal((64, 1024))
        backend = self._gather_backend(path)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sdmm(x, dy, pattern, backend=backend)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000


class _NoSdmmBackend:
    """A registered-style backend predating ``sdmm``: dispatch falls back."""

    name = "no-sdmm"

    def __getattr__(self, attr):
        if attr == "sdmm":
            raise AttributeError(attr)
        return getattr(backends.get_backend("reference"), attr)


# --------------------------------------------------------------------------- #
# CSRTrainableLayer
# --------------------------------------------------------------------------- #
class TestCSRTrainableLayer:
    def _mask(self, seed=1, shape=(8, 6), density=0.4):
        rng = np.random.default_rng(seed)
        mask = (rng.random(shape) < density).astype(float)
        # repair dead rows/columns so the FNNT invariant holds
        mask[mask.sum(axis=1) == 0, 0] = 1.0
        mask[0, mask.sum(axis=0) == 0] = 1.0
        return mask

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("activation", ["relu", "sigmoid", "identity"])
    def test_matches_masked_layer_exactly(self, backend, activation):
        mask = self._mask()
        masked = MaskedSparseLayer(mask, activation=activation, seed=3)
        csr = CSRTrainableLayer(mask, activation=activation, seed=3, backend=backend)
        np.testing.assert_allclose(csr.effective_weights(), masked.effective_weights())
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, mask.shape[0]))
        up = rng.standard_normal((5, mask.shape[1]))
        np.testing.assert_allclose(csr.forward(x), masked.forward(x))
        np.testing.assert_allclose(csr.backward(up), masked.backward(up))
        rows, cols = np.nonzero(mask)
        np.testing.assert_allclose(csr.weight_gradient, masked.weight_gradient[rows, cols])
        np.testing.assert_allclose(csr.bias_gradient, masked.bias_gradient)

    def test_storage_is_o_nnz(self):
        mask = self._mask(shape=(20, 15), density=0.2)
        nnz = int(np.count_nonzero(mask))
        layer = CSRTrainableLayer(mask, seed=0)
        weights_param, biases_param = layer.parameters()
        assert weights_param.size == nnz
        assert weights_param.size < mask.size
        assert layer.gradients()[0].size == nnz
        assert layer.parameter_count == nnz + mask.shape[1]
        # optimizer state is keyed by the parameter arrays, so it is O(nnz) too
        optimizer = Adam(0.01)
        layer.forward(np.ones((2, 20)))
        layer.backward(np.ones((2, 15)))
        optimizer.step(layer.parameters(), layer.gradients())
        assert optimizer._first_moment[0].size == nnz
        assert optimizer._second_moment[0].size == nnz

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_optimizer_updates_reach_forward(self, backend):
        # the optimizer rewrites weights.data in place: no kernel-side
        # handle may serve the next forward from stale values
        mask = self._mask()
        layer = CSRTrainableLayer(mask, seed=0, activation="identity", backend=backend)
        x = np.ones((1, mask.shape[0]))
        before = layer.forward(x, training=False).copy()
        layer.forward(x)
        layer.backward(np.ones((1, mask.shape[1])))
        SGD(0.5).step(layer.parameters(), layer.gradients())
        after = layer.forward(x, training=False)
        assert not np.allclose(before, after)
        np.testing.assert_allclose(after, x @ layer.effective_weights() + layer.biases)

    def test_second_backward_raises(self):
        mask = self._mask()
        layer = CSRTrainableLayer(mask, seed=0)
        up = np.ones((2, mask.shape[1]))
        layer.forward(np.ones((2, mask.shape[0])))
        layer.backward(up)
        with pytest.raises(ValidationError):
            layer.backward(up)

    def test_inference_forward_does_not_cache(self):
        mask = self._mask()
        layer = CSRTrainableLayer(mask, seed=0)
        layer.forward(np.ones((2, mask.shape[0])), training=False)
        with pytest.raises(ValidationError):
            layer.backward(np.ones((2, mask.shape[1])))

    def test_validation(self):
        with pytest.raises(ShapeError):
            CSRTrainableLayer(np.ones(4))
        with pytest.raises(ValidationError):
            CSRTrainableLayer(np.ones((2, 2)), init="bogus")
        layer = CSRTrainableLayer(self._mask(), seed=0)
        with pytest.raises(ShapeError):
            layer.forward(np.ones((2, 99)))
        layer.forward(np.ones((2, 8)))
        with pytest.raises(ShapeError):
            layer.backward(np.ones((2, 99)))

    def test_accepts_csr_mask_and_glorot(self):
        layer = CSRTrainableLayer(CSRMatrix.eye(4), seed=0, init="glorot")
        assert layer.connection_count == 4
        assert layer.density == pytest.approx(0.25)

    def test_to_csr_layer_detaches_weights(self):
        mask = self._mask()
        layer = CSRTrainableLayer(mask, seed=0)
        deployed = layer.to_csr_layer()
        assert isinstance(deployed, CSRSparseLayer)
        x = np.random.default_rng(0).standard_normal((3, mask.shape[0]))
        np.testing.assert_allclose(deployed.forward(x), layer.forward(x, training=False))
        layer.weights.data[:] += 1.0  # training must not mutate the deployed copy
        assert not np.allclose(deployed.weights.data, layer.weights.data)


class TestCSRTrainableGradients:
    def _numeric_gradient(self, model, loss, x, y, param, index, eps=1e-6):
        original = param.flat[index]
        param.flat[index] = original + eps
        plus = loss.value(model.forward(x, training=False), y)
        param.flat[index] = original - eps
        minus = loss.value(model.forward(x, training=False), y)
        param.flat[index] = original
        return (plus - minus) / (2 * eps)

    def _layer(self, kind, mask, activation, backend):
        if kind == "dense":
            return DenseLayer(mask.shape[0], mask.shape[1], activation=activation, seed=2)
        if kind == "masked":
            return MaskedSparseLayer(mask, activation=activation, seed=2)
        return CSRTrainableLayer(mask, activation=activation, seed=2, backend=backend)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("activation", ["relu", "sigmoid", "identity"])
    @pytest.mark.parametrize("kind", ["dense", "masked", "csr"])
    def test_backprop_matches_finite_differences(self, kind, activation, backend):
        rng = np.random.default_rng(10)
        mask = (rng.random((5, 4)) < 0.6).astype(float)
        mask[mask.sum(axis=1) == 0, 0] = 1.0
        mask[0, mask.sum(axis=0) == 0] = 1.0
        hidden = self._layer(kind, mask, activation, backend)
        model = FeedforwardNetwork(
            [hidden, DenseLayer(4, 3, activation="identity", seed=3)]
        )
        loss = CrossEntropyLoss()
        x = rng.standard_normal((6, 5))
        y = one_hot(rng.integers(0, 3, size=6), 3)
        outputs = model.forward(x)
        model.backward(loss.gradient(outputs, y))
        analytic = [g.copy() for g in model.gradients()]
        for param, grad in zip(model.parameters(), analytic):
            indices = np.random.default_rng(11).choice(
                param.size, size=min(4, param.size), replace=False
            )
            for index in indices:
                numeric = self._numeric_gradient(model, loss, x, y, param, index)
                assert grad.flat[index] == pytest.approx(numeric, abs=1e-5)


OPTIMIZERS = {
    "sgd": lambda wd: SGD(0.05, weight_decay=wd),
    "momentum": lambda wd: Momentum(0.05, momentum=0.9, weight_decay=wd),
    "rmsprop": lambda wd: RMSProp(0.01, weight_decay=wd),
    "adam": lambda wd: Adam(0.01, weight_decay=wd),
}


class TestMaskInvariance:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("opt_name", sorted(OPTIMIZERS))
    def test_weights_outside_mask_stay_exactly_zero(self, opt_name, weight_decay):
        rng = np.random.default_rng(20)
        mask = (rng.random((7, 5)) < 0.4).astype(float)
        mask[mask.sum(axis=1) == 0, 0] = 1.0
        mask[0, mask.sum(axis=0) == 0] = 1.0
        masked = MaskedSparseLayer(mask, seed=6)
        csr = CSRTrainableLayer(mask, seed=6)
        for layer in (masked, csr):
            model = FeedforwardNetwork(
                [layer, DenseLayer(5, 2, activation="identity", seed=7)]
            )
            optimizer = OPTIMIZERS[opt_name](weight_decay)
            loss = CrossEntropyLoss()
            data_rng = np.random.default_rng(21)
            for _ in range(15):
                x = data_rng.standard_normal((8, 7))
                y = one_hot(data_rng.integers(0, 2, size=8), 2)
                model.backward(loss.gradient(model.forward(x), y))
                optimizer.step(model.parameters(), model.gradients())
            dense = layer.effective_weights()
            assert np.all(dense[mask == 0] == 0.0)
            assert np.any(dense[mask == 1] != 0.0)


class TestTrainingEquivalence:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_csr_training_equals_masked_training(self, backend):
        """Same topology, seed, optimizer: identical curves and weights."""
        topology = erdos_renyi_fnnt([6, 10, 4], 0.5, seed=30)
        rng = np.random.default_rng(31)
        x = rng.standard_normal((60, 6))
        y = one_hot((x[:, 0] > 0).astype(int), 4)
        histories, weights = [], []
        for sparse_training in (False, True):
            model = model_from_topology(
                topology, seed=8, sparse_training=sparse_training, backend=backend
            )
            trainer = Trainer(model, Adam(0.01), batch_size=16, seed=9)
            history = trainer.fit(x, y, epochs=3)
            histories.append(history)
            weights.append(model.weight_matrices())
        assert histories[0].train_loss == pytest.approx(histories[1].train_loss)
        assert histories[0].train_accuracy == pytest.approx(histories[1].train_accuracy)
        for w_masked, w_csr in zip(weights[0], weights[1]):
            np.testing.assert_allclose(w_masked, w_csr, atol=1e-12)

    def test_builder_flag_produces_csr_layers(self):
        topology = erdos_renyi_fnnt([5, 8, 3], 0.5, seed=32)
        model = model_from_topology(topology, seed=0, sparse_training=True)
        assert any(isinstance(layer, CSRTrainableLayer) for layer in model.layers)
        assert not any(isinstance(layer, MaskedSparseLayer) for layer in model.layers)
        assert model.is_sparse()

    def test_to_sparse_inference_reuses_csr_pattern(self):
        topology = erdos_renyi_fnnt([5, 8, 3], 0.5, seed=33)
        model = model_from_topology(topology, seed=0, sparse_training=True)
        deployed = model.to_sparse_inference()
        x = np.random.default_rng(34).standard_normal((4, 5))
        expected = model.predict(x)
        got = x
        for layer in deployed:
            got = layer.forward(got)
        np.testing.assert_allclose(got, expected)


# --------------------------------------------------------------------------- #
# KroneckerBlockLayer
# --------------------------------------------------------------------------- #
#: (systems, widths) of RadiX-Nets whose every layer the block layer covers:
#: one system; systems whose last product divides N'; all-one widths;
#: non-square widths (including a layer that narrows to width 1).
BLOCK_SPECS = {
    "single": ([(2, 3)], [2, 3, 2]),
    "divisor": ([(3, 3), (3,)], [1, 2, 2, 1]),
    "ones": ([(2, 2), (2, 2)], [1, 1, 1, 1, 1]),
    "uneven": ([(2, 4), (4,)], [3, 1, 2, 5]),
}
BLOCK_LAYERS = [
    (name, index) for name, (systems, _) in BLOCK_SPECS.items()
    for index in range(sum(len(system) for system in systems))
]


def _spec_net(name):
    systems, widths = BLOCK_SPECS[name]
    return generate_from_spec(RadixNetSpec(systems, widths))


def _block_layer(net, index, **kwargs):
    factors = net.kron_factors
    return KroneckerBlockLayer(
        factors.bases[index], factors.widths[index], factors.widths[index + 1], **kwargs
    )


def _block_gradient_dense(layer):
    """The block weight gradient laid out on the dense expanded matrix."""
    view = copy.copy(layer)
    view.blocks = layer.weight_gradient
    return view.effective_weights()


def _assert_close_relative(got, expected, rtol=1e-12):
    scale = max(float(np.abs(expected).max()), np.finfo(float).tiny)
    assert float(np.abs(got - expected).max()) <= rtol * scale


class TestKroneckerBlockLayer:
    @pytest.mark.parametrize("activation", ["relu", "sigmoid", "identity"])
    @pytest.mark.parametrize("name,index", BLOCK_LAYERS)
    def test_agrees_with_masked_and_csr_layers(self, name, index, activation):
        net = _spec_net(name)
        submatrix = net.submatrices[index]
        block = _block_layer(net, index, activation=activation, seed=3)
        masked = MaskedSparseLayer(submatrix, activation=activation, seed=3)
        csr = CSRTrainableLayer(submatrix, activation=activation, seed=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((7, submatrix.shape[0]))
        up = rng.standard_normal((7, submatrix.shape[1]))
        out = block.forward(x)
        grad_x = block.backward(up)
        for reference in (masked, csr):
            _assert_close_relative(out, reference.forward(x))
            _assert_close_relative(grad_x, reference.backward(up))
            _assert_close_relative(block.bias_gradient, reference.bias_gradient)
        _assert_close_relative(_block_gradient_dense(block), masked.weight_gradient)
        rows, cols = np.nonzero(submatrix.to_dense())
        _assert_close_relative(
            _block_gradient_dense(block)[rows, cols], csr.weight_gradient
        )

    @pytest.mark.parametrize("fan_in_correction", [True, False])
    @pytest.mark.parametrize("init", ["he", "glorot"])
    @pytest.mark.parametrize("name,index", BLOCK_LAYERS)
    def test_initial_weights_bitwise_equal_masked(self, name, index, init, fan_in_correction):
        net = _spec_net(name)
        options = dict(seed=np.random.default_rng(9), init=init, fan_in_correction=fan_in_correction)
        block = _block_layer(net, index, **options)
        options["seed"] = np.random.default_rng(9)
        masked = MaskedSparseLayer(net.submatrices[index], **options)
        # the masked layer keeps signed zeros off the pattern; compare values
        # there and bits on it
        np.testing.assert_array_equal(block.effective_weights(), masked.effective_weights())
        rows, cols = np.nonzero(masked.mask)
        np.testing.assert_array_equal(
            block.effective_weights()[rows, cols].view(np.int64),
            masked.effective_weights()[rows, cols].view(np.int64),
        )

    def test_initial_weights_bitwise_on_the_train_layer(self):
        # several init chunks, so chunk boundaries are exercised too
        net = generate_from_spec(design_for_widths([256, 1024, 1024, 16]).spec)
        for index in (0, 1):
            block = _block_layer(net, index, seed=21)
            csr = CSRTrainableLayer(net.submatrices[index], seed=21)
            deployed = block.csr_weights()
            assert deployed.same_pattern(net.submatrices[index])
            np.testing.assert_array_equal(
                deployed.data.view(np.int64), csr.weights.data.view(np.int64)
            )

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    @pytest.mark.parametrize("name", sorted(BLOCK_SPECS))
    def test_backprop_matches_finite_differences(self, name, activation):
        net = _spec_net(name)
        last = len(net.submatrices) - 1
        layers = [
            _block_layer(net, index, activation="identity" if index == last else activation, seed=index)
            for index in range(last + 1)
        ]
        model = FeedforwardNetwork(layers)
        loss = CrossEntropyLoss()
        rng = np.random.default_rng(12)
        x = rng.standard_normal((5, model.input_size))
        y = one_hot(rng.integers(0, model.output_size, size=5), model.output_size)
        model.backward(loss.gradient(model.forward(x), y))
        analytic = [g.copy() for g in model.gradients()]
        eps = 1e-6
        for param, grad in zip(model.parameters(), analytic):
            for index in np.random.default_rng(13).choice(param.size, size=min(4, param.size), replace=False):
                original = param.flat[index]
                param.flat[index] = original + eps
                plus = loss.value(model.forward(x, training=False), y)
                param.flat[index] = original - eps
                minus = loss.value(model.forward(x, training=False), y)
                param.flat[index] = original
                assert grad.flat[index] == pytest.approx((plus - minus) / (2 * eps), abs=1e-5)

    @pytest.mark.parametrize("batch", [1, 64, 193, 1280])
    def test_row_blocked_predict_is_bitwise_single_block(self, batch):
        net = generate_from_spec(design_for_widths([256, 1024, 1024, 16]).spec)
        layer = _block_layer(net, 1, seed=0)
        assert layer._block_rows == 64  # 1280 rows walk 20 blocks; 193 merges its lone row
        x = np.random.default_rng(batch).standard_normal((batch, layer.fan_in))
        blocked = layer.forward(x, training=False)
        single = layer.forward(x, training=True)
        np.testing.assert_array_equal(blocked.view(np.int64), single.view(np.int64))

    @pytest.mark.parametrize("batch", [16, 17, 40, 49])
    def test_row_blocks_on_a_small_budget(self, batch, monkeypatch):
        monkeypatch.setattr(layers_module, "_BLOCK_FORWARD_ELEMENTS", 1)
        layer = _block_layer(_spec_net("uneven"), 2, seed=1, activation="sigmoid")
        assert layer._block_rows == 16
        x = np.random.default_rng(batch).standard_normal((batch, layer.fan_in))
        np.testing.assert_array_equal(
            layer.forward(x, training=False).view(np.int64),
            layer.forward(x, training=True).view(np.int64),
        )

    def test_storage_is_o_nnz(self):
        net = _spec_net("uneven")
        layer = _block_layer(net, 2, seed=0)
        nnz = net.submatrices[2].nnz
        assert layer.blocks.size == nnz == layer.connection_count
        assert layer.parameter_count == nnz + layer.fan_out
        assert layer.density == pytest.approx(net.submatrices[2].density)
        optimizer = Adam(0.01)
        layer.forward(np.ones((2, layer.fan_in)))
        layer.backward(np.ones((2, layer.fan_out)))
        optimizer.step(layer.parameters(), layer.gradients())
        assert optimizer._first_moment[0].size == nnz
        assert optimizer._second_moment[0].size == nnz

    def test_build_peak_is_o_nnz(self):
        """A 2048 x 2048 layer at density 1/16: dense copies would need 32 MiB each."""
        net = generate_from_spec(RadixNetSpec([(4, 4, 4)], [32, 32, 32, 32]))
        factors = net.kron_factors
        nnz_bytes = net.submatrices[1].nnz * 8
        chunk_bytes = layers_module._INIT_CHUNK_ELEMENTS * 8
        tracemalloc.start()
        try:
            KroneckerBlockLayer(factors.bases[1], 32, 32, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * nnz_bytes + 2 * chunk_bytes  # measured about 3x nnz bytes

    def test_optimizer_updates_reach_forward_and_deployment(self):
        net = _spec_net("divisor")
        layer = _block_layer(net, 1, seed=0, activation="identity")
        x = np.random.default_rng(2).standard_normal((3, layer.fan_in))
        layer.forward(x)
        layer.backward(np.ones((3, layer.fan_out)))
        SGD(0.5).step(layer.parameters(), layer.gradients())
        after = layer.forward(x, training=False)
        _assert_close_relative(after, x @ layer.effective_weights() + layer.biases)
        deployed = layer.to_csr_layer()
        assert deployed.weights.same_pattern(net.submatrices[1])
        _assert_close_relative(deployed.forward(x), after)
        layer.blocks += 1.0  # training must not mutate the deployed copy
        assert not np.allclose(deployed.weights.data, layer.csr_weights().data)

    def test_second_backward_and_inference_forward_raise(self):
        layer = _block_layer(_spec_net("single"), 0, seed=0)
        up = np.ones((2, layer.fan_out))
        layer.forward(np.ones((2, layer.fan_in)), training=False)
        with pytest.raises(ValidationError):
            layer.backward(up)
        layer.forward(np.ones((2, layer.fan_in)))
        with pytest.raises(ShapeError):
            layer.backward(np.ones((2, layer.fan_out + 1)))
        layer.backward(up)
        with pytest.raises(ValidationError):
            layer.backward(up)

    def test_validation(self):
        base = _spec_net("single").kron_factors.bases[0]
        with pytest.raises(ValidationError):
            KroneckerBlockLayer(base.to_dense(), 1, 1)
        with pytest.raises(ValidationError):
            KroneckerBlockLayer(base, 0, 1)
        with pytest.raises(ValidationError):
            KroneckerBlockLayer(base, 1, 1, init="bogus")
        irregular = CSRMatrix.from_dense(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValidationError):
            KroneckerBlockLayer(irregular, 2, 2)
        with pytest.raises(ShapeError):
            KroneckerBlockLayer(base, 1, 1).forward(np.ones((2, base.shape[0] + 1)))

    def test_is_block_regular(self):
        assert is_block_regular(CSRMatrix.eye(3))
        assert is_block_regular(CSRMatrix.ones((2, 3)))
        assert not is_block_regular(CSRMatrix.from_dense(np.array([[1.0, 1.0], [0.0, 1.0]])))
        assert not is_block_regular(CSRMatrix.eye(3).scale(2.0))
        repeated = CSRMatrix((2, 2), [0, 2, 4], [0, 0, 1, 1])
        assert not is_block_regular(repeated)


class TestKroneckerFactors:
    def test_generate_from_spec_records_the_factors(self):
        net = _spec_net("uneven")
        factors = net.kron_factors
        assert factors.widths == (3, 1, 2, 5)
        for index, (base, submatrix) in enumerate(zip(factors.bases, net.submatrices)):
            ones = CSRMatrix.ones((factors.widths[index], factors.widths[index + 1]))
            expanded = np.kron(ones.to_dense(), base.to_dense())
            np.testing.assert_array_equal(expanded, submatrix.to_dense())

    def test_derived_topologies_drop_the_factors(self):
        net = _spec_net("ones")
        assert net.concatenate(net).kron_factors is None
        assert net.kron_expand([1] * net.num_layers).kron_factors is None
        assert FNNT(net.submatrices, validate=False).kron_factors is None

    def test_mismatched_factors_are_rejected(self):
        net = _spec_net("uneven")
        factors = net.kron_factors
        with pytest.raises(TopologyError):
            FNNT(net.submatrices, kron_factors=KroneckerFactors(factors.bases, (1, 1, 2, 5)))
        with pytest.raises(TopologyError):
            FNNT(net.submatrices, kron_factors=KroneckerFactors(factors.bases[:-1], factors.widths))


class TestBlockLayerSelection:
    def test_radix_net_gets_block_layers(self):
        net = generate_from_spec(design_for_widths([16, 32, 32, 8]).spec)
        model = model_from_topology(net, seed=0, sparse_training=True)
        kinds = [type(layer) for layer in model.layers]
        # the last level is all ones, so it stays a plain dense layer
        assert kinds == [KroneckerBlockLayer, KroneckerBlockLayer, DenseLayer]
        assert model.is_sparse()
        masked = model_from_topology(net, seed=0)
        assert [type(layer) for layer in masked.layers][:2] == [MaskedSparseLayer] * 2

    @pytest.mark.parametrize("kind", ["erdos-renyi", "xnet", "concatenate", "kron_expand", "copy"])
    def test_topologies_without_factors_get_csr_layers(self, kind):
        net = _spec_net("ones")
        topology = {
            "erdos-renyi": lambda: erdos_renyi_fnnt([6, 10, 4], 0.5, seed=30),
            "xnet": lambda: random_xnet(net.layer_sizes, 2, seed=0),
            "concatenate": lambda: net.concatenate(net),
            "kron_expand": lambda: net.kron_expand([1, 2, 2, 2, 1]),
            "copy": lambda: FNNT(net.submatrices, validate=False),
        }[kind]()
        model = model_from_topology(topology, seed=0, sparse_training=True)
        sparse = [layer for layer in model.layers if not isinstance(layer, DenseLayer)]
        assert sparse and all(isinstance(layer, CSRTrainableLayer) for layer in sparse)

    def test_block_training_tracks_masked_training(self):
        net = _spec_net("uneven")
        rng = np.random.default_rng(31)
        x = rng.standard_normal((60, net.input_size))
        y = one_hot(rng.integers(0, net.output_size, size=60), net.output_size)
        histories, weights = [], []
        for sparse_training in (False, True):
            model = model_from_topology(net, seed=8, sparse_training=sparse_training)
            history = Trainer(model, Adam(0.01), batch_size=16, seed=9).fit(x, y, epochs=3)
            histories.append(history)
            weights.append(model.weight_matrices())
        assert histories[0].train_loss == pytest.approx(histories[1].train_loss, rel=1e-10)
        for w_masked, w_block in zip(*weights):
            np.testing.assert_allclose(w_block, w_masked, rtol=1e-9, atol=1e-12)

    def test_to_sparse_inference_gives_the_same_categories(self):
        net = generate_from_spec(design_for_widths([16, 32, 32, 8]).spec)
        model = model_from_topology(net, seed=0, sparse_training=True)
        rng = np.random.default_rng(34)
        x = rng.standard_normal((6, 16))
        y = one_hot(rng.integers(0, 8, size=6), 8)
        Trainer(model, Adam(0.05), batch_size=3, seed=0).fit(x, y, epochs=2)
        deployed = model.to_sparse_inference()
        for layer, submatrix in zip(deployed[:2], net.submatrices):
            assert layer.weights.same_pattern(submatrix)
        x = rng.standard_normal((50, 16))
        got = x
        for layer in deployed:
            got = layer.forward(got)
        expected = model.predict(x)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(np.argmax(got, axis=1), model.predict_classes(x))


class TestChunkedInitialDraw:
    @pytest.mark.parametrize("chunk_rows", [1, 3, 64, 1000])
    @pytest.mark.parametrize("init", ["he", "glorot"])
    def test_chunks_stack_to_the_full_draw_bitwise(self, init, chunk_rows):
        full = {"he": he_normal, "glorot": glorot_uniform}[init](70, 9, seed=5)
        chunks = list(iter_weight_rows(70, 9, init=init, seed=5, chunk_rows=chunk_rows))
        assert [start for start, _ in chunks] == list(range(0, 70, chunk_rows))
        stacked = np.vstack([block for _, block in chunks])
        np.testing.assert_array_equal(stacked.view(np.int64), full.view(np.int64))

    def test_validation(self):
        with pytest.raises(ValidationError):
            next(iter_weight_rows(3, 3, init="bogus"))
        with pytest.raises(ValidationError):
            next(iter_weight_rows(0, 3))


# --------------------------------------------------------------------------- #
# the first layer's input gradient
# --------------------------------------------------------------------------- #
def _layer_of_kind(kind, seed=0):
    net = _spec_net("single")
    submatrix = net.submatrices[0]
    if kind == "dense":
        return DenseLayer(submatrix.shape[0], submatrix.shape[1], seed=seed)
    if kind == "masked":
        return MaskedSparseLayer(submatrix, seed=seed)
    if kind == "csr":
        return CSRTrainableLayer(submatrix, seed=seed)
    return _block_layer(net, 0, seed=seed)


class TestSkippedInputGradient:
    @pytest.mark.parametrize("kind", ["dense", "masked", "csr", "block"])
    def test_layer_skips_only_the_input_gradient(self, kind):
        rng = np.random.default_rng(40)
        full, skipped = _layer_of_kind(kind), _layer_of_kind(kind)
        x = rng.standard_normal((5, full.fan_in))
        up = rng.standard_normal((5, full.fan_out))
        full.forward(x)
        skipped.forward(x)
        grad_x = full.backward(up)  # a direct call keeps returning it
        assert grad_x.shape == x.shape
        assert skipped.backward(up, input_gradient=False) is None
        for a, b in zip(full.gradients(), skipped.gradients()):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
        with pytest.raises(ValidationError):
            skipped.backward(up, input_gradient=False)

    @pytest.mark.parametrize("sparse_training", [False, True])
    def test_network_backward_skips_the_first_layer(self, sparse_training):
        net = _spec_net("uneven")
        model = model_from_topology(net, seed=1, sparse_training=sparse_training)
        calls = []
        for index, layer in enumerate(model.layers):
            original = layer.backward

            def spy(grad, *, input_gradient=True, _index=index, _original=original):
                calls.append((_index, input_gradient))
                return _original(grad, input_gradient=input_gradient)

            layer.backward = spy
        model.forward(np.random.default_rng(41).standard_normal((4, net.input_size)))
        model.backward(np.full((4, net.output_size), 0.1))
        assert calls == [(2, True), (1, True), (0, False)]


# --------------------------------------------------------------------------- #
# trainer bugfix sweep
# --------------------------------------------------------------------------- #
class TestTrainerFixes:
    def _toy(self, n=10, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 3))
        return x, one_hot((x[:, 0] > 0).astype(int), 2)

    def test_epoch_loss_weighted_by_batch_size(self):
        """A ragged last batch contributes per-sample, not per-batch."""
        x, y = self._toy(n=10)  # batch_size 4 -> batches of 4, 4, 2
        model = dense_model([3, 5, 2], seed=1)
        replica = copy.deepcopy(model)
        trainer = Trainer(model, SGD(0.1), batch_size=4, seed=0)
        reported = trainer.train_epoch(x, y, epoch_seed=42)
        # replay the identical shuffle/update sequence to get batch losses
        loss = CrossEntropyLoss()
        optimizer = SGD(0.1)
        losses, sizes = [], []
        for bx, by in minibatches(x, y, 4, shuffle=True, seed=42):
            out = replica.forward(bx)
            losses.append(loss.value(out, by))
            sizes.append(bx.shape[0])
            replica.backward(loss.gradient(out, by))
            optimizer.step(replica.parameters(), replica.gradients())
        assert sizes.count(2) == 1  # the ragged batch is actually present
        weighted = float(np.average(losses, weights=sizes))
        unweighted = float(np.mean(losses))
        assert abs(weighted - unweighted) > 1e-12
        assert reported == pytest.approx(weighted)

    @pytest.mark.parametrize("seed_kind", ["int", "generator"])
    def test_fit_twice_continues_the_shuffle_stream(self, seed_kind):
        """Two 1-epoch fits must replay one 2-epoch fit, not epoch 0 twice."""
        x, y = self._toy(n=40, seed=3)

        def make_trainer():
            model = dense_model([3, 5, 2], seed=4)
            seed = 7 if seed_kind == "int" else np.random.default_rng(7)
            return Trainer(model, SGD(0.1), batch_size=8, seed=seed), model

        split_trainer, split_model = make_trainer()
        split_trainer.fit(x, y, epochs=1)
        split_trainer.fit(x, y, epochs=1)
        whole_trainer, whole_model = make_trainer()
        whole_trainer.fit(x, y, epochs=2)
        for a, b in zip(split_model.parameters(), whole_model.parameters()):
            np.testing.assert_array_equal(a, b)
        assert split_trainer.history.train_loss == pytest.approx(
            whole_trainer.history.train_loss
        )
        # and the two epochs of the split run saw *different* shuffles
        assert split_trainer.history.train_loss[0] != pytest.approx(
            split_trainer.history.train_loss[1]
        )

    def test_lr_schedule_requires_learning_rate_attribute(self):
        class NoLrOptimizer:
            def step(self, parameters, gradients):  # pragma: no cover - never reached
                pass

        model = dense_model([3, 4, 2], seed=0)
        with pytest.raises(ValidationError, match="learning_rate"):
            Trainer(model, NoLrOptimizer(), lr_schedule=lambda epoch: 0.1)

    def test_lr_schedule_advances_across_fits(self):
        x, y = self._toy(n=24, seed=5)
        model = dense_model([3, 4, 2], seed=1)
        schedule = [1.0, 0.1, 0.01]
        trainer = Trainer(
            model, SGD(1.0), batch_size=8,
            lr_schedule=lambda epoch: schedule[epoch], seed=2,
        )
        trainer.fit(x, y, epochs=2)
        trainer.fit(x, y, epochs=1)
        assert trainer.history.learning_rates == pytest.approx(schedule)


# --------------------------------------------------------------------------- #
# magnitude pruning tie-break
# --------------------------------------------------------------------------- #
class TestPruningTieBreak:
    def test_all_equal_matrix_realizes_target_density(self):
        w = np.ones((6, 6))
        target = 0.25
        mask = magnitude_prune_mask(w, target)
        keep = max(1, int(round(target * w.size)))
        # exactly `keep` from the magnitude cut, plus at most one repair
        # entry per row and column
        assert keep <= int(mask.sum()) <= keep + sum(w.shape)
        assert mask.mean() < 1.0  # the old >=-threshold rule kept everything

    def test_tie_break_is_deterministic_row_major(self):
        w = np.full((4, 4), 2.0)
        mask = magnitude_prune_mask(w, 0.5)
        np.testing.assert_array_equal(mask, magnitude_prune_mask(w.copy(), 0.5))
        keep = 8
        # the magnitude cut keeps the first `keep` flat indices (rows 0-1);
        # repair adds the first column of the remaining rows
        expected = np.zeros(16, dtype=bool)
        expected[:keep] = True
        expected = expected.reshape(4, 4)
        expected[:, 0] = True
        np.testing.assert_array_equal(mask, expected)

    def test_distinct_magnitudes_unchanged(self):
        rng = np.random.default_rng(40)
        w = rng.standard_normal((8, 8))
        mask = magnitude_prune_mask(w, 0.25)
        keep = int(round(0.25 * w.size))
        cutoff = np.sort(np.abs(w).ravel())[-keep]
        assert int(mask.sum()) >= keep
        # with distinct magnitudes the top-keep set is unambiguous and must survive
        top = np.abs(w) >= cutoff
        assert int(top.sum()) == keep
        assert np.all(mask[top])


# --------------------------------------------------------------------------- #
# train-study harness and CLI
# --------------------------------------------------------------------------- #
class TestTrainStudy:
    def test_arm_validation(self):
        with pytest.raises(ValidationError, match="unknown arms"):
            accuracy_vs_density(arms=("radix-net", "bogus"))
        with pytest.raises(ValidationError, match="radix-net"):
            accuracy_vs_density(arms=("random-xnet",))
        with pytest.raises(ValidationError, match="dense"):
            accuracy_vs_density(arms=("radix-net", "pruned"))
        with pytest.raises(ValidationError, match="at least one arm"):
            accuracy_vs_density(arms=())
        with pytest.raises(ValidationError, match="duplicate"):
            accuracy_vs_density(arms=("dense", "dense"))

    def test_report_is_json_serializable_and_complete(self):
        report = train_study(
            datasets=("gaussian_mixture",),
            num_samples=120,
            epochs=1,
            seed=0,
            arms=("radix-net", "dense"),
            sparse_training=True,
        )
        encoded = json.loads(json.dumps(report))
        entry = encoded["datasets"]["gaussian_mixture"]
        assert set(entry["arms"]) == {"radix-net", "dense"}
        assert set(entry["accuracy_gap_vs_dense"]) == {"radix-net"}
        for arm in entry["arms"].values():
            assert 0.0 <= arm["val_accuracy"] <= 1.0
            assert 0.0 < arm["density"] <= 1.0
            assert arm["epochs_run"] == 1
        assert entry["arms"]["radix-net"]["density"] < 1.0
        assert encoded["config"]["sparse_training"] is True

    def test_sparse_and_masked_studies_agree(self):
        common = dict(
            datasets=("gaussian_mixture",), num_samples=120, epochs=1,
            seed=1, arms=("radix-net",),
        )
        sparse = train_study(sparse_training=True, **common)
        masked = train_study(sparse_training=False, **common)
        a = sparse["datasets"]["gaussian_mixture"]["arms"]["radix-net"]
        b = masked["datasets"]["gaussian_mixture"]["arms"]["radix-net"]
        assert a["train_loss"] == pytest.approx(b["train_loss"])
        assert a["val_accuracy"] == pytest.approx(b["val_accuracy"])

    def test_cli_train_study_writes_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "study.json"
        code = main([
            "train-study", "--datasets", "gaussian_mixture",
            "--arms", "radix-net,dense", "--epochs", "1",
            "--samples", "120", "--output", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "radix-net" in captured and "gap vs dense" in captured
        report = json.loads(out.read_text())
        assert report["config"]["arms"] == ["radix-net", "dense"]
        assert "gaussian_mixture" in report["datasets"]

    def test_cli_rejects_bad_arms(self, capsys):
        from repro.cli import main

        code = main([
            "train-study", "--datasets", "gaussian_mixture",
            "--arms", "bogus", "--epochs", "1", "--samples", "80",
        ])
        assert code == 1
        assert "unknown arms" in capsys.readouterr().err
