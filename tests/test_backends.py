"""Backend parity and engine tests.

The contract of :mod:`repro.backends` is that every registered backend
computes the same six kernels; this suite pins that down by comparing
``reference``, ``scipy``, and ``vectorized`` on random matrices and on
actual RadiX-Net adjacency submatrices, and checks that the
:class:`~repro.challenge.inference.InferenceEngine` chunked path is
bit-identical to single-shot inference.
"""

import tracemalloc

import numpy as np
import pytest

import repro.backends as backends
from repro.backends.base import SparseBackend
from repro.challenge.generator import challenge_input_batch, generate_challenge_network
from repro.challenge.inference import (
    InferenceEngine,
    engine_for,
    layer_activation_profile,
    sparse_dnn_inference,
)
from repro.core.radixnet import generate_radixnet
from repro.errors import ValidationError
from repro.nn.layers import CSRSparseLayer, MaskedSparseLayer
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import prepare, spgemm
from repro.testing import ADMISSIBLE_SPECS, random_csr

ALL_BACKENDS = backends.available_backends()


def radixnet_submatrices():
    """Adjacency submatrices of a small RadiX-Net (real workload matrices)."""
    systems, widths = ADMISSIBLE_SPECS[0]
    return list(generate_radixnet(systems, widths).submatrices)


# --------------------------------------------------------------------------- #
# registry and selection
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_pure_numpy_backends_always_registered(self):
        assert {"reference", "vectorized"} <= set(ALL_BACKENDS)

    def test_scipy_backend_registered_iff_scipy_importable(self):
        from repro.backends.scipy_backend import scipy_available

        assert ("scipy" in ALL_BACKENDS) == scipy_available()

    def test_get_backend_unknown_raises(self):
        with pytest.raises(ValidationError, match="unknown sparse backend"):
            backends.get_backend("no-such-backend")

    def test_backends_satisfy_protocol(self):
        for name in ALL_BACKENDS:
            assert isinstance(backends.get_backend(name), SparseBackend)

    def test_use_is_sticky(self):
        original = backends.active_backend()
        try:
            backends.use("reference")
            assert backends.active_backend().name == "reference"
        finally:
            backends.use(original)

    def test_use_as_context_restores(self):
        original = backends.active_backend()
        with backends.use("vectorized") as chosen:
            assert chosen.name == "vectorized"
            assert backends.active_backend().name == "vectorized"
        assert backends.active_backend() is original

    def test_env_var_sets_initial_default(self, monkeypatch):
        monkeypatch.setenv(backends.DEFAULT_BACKEND_ENV, "vectorized")
        assert backends._initial_backend().name == "vectorized"
        monkeypatch.delenv(backends.DEFAULT_BACKEND_ENV)
        assert backends._initial_backend().name in {"scipy", "vectorized"}

    def test_numba_backend_registered_iff_numba_importable(self):
        from repro.backends.numba_backend import numba_available

        assert ("numba" in ALL_BACKENDS) == numba_available()
        if not numba_available():
            assert "numba" in backends.unavailable_backends()

    def test_unavailable_backend_error_names_the_reason(self):
        """A known-but-missing optional tier gets an install hint, not
        the generic unknown-name message."""
        from repro.backends.numba_backend import numba_available
        from repro.errors import UnknownBackendError

        if numba_available():
            pytest.skip("numba installed: the tier is registered, not missing")
        with pytest.raises(UnknownBackendError, match="not available.*numba"):
            backends.get_backend("numba")

    def test_unknown_backend_error_lists_available(self):
        from repro.errors import UnknownBackendError

        with pytest.raises(UnknownBackendError, match="available backends:"):
            backends.get_backend("no-such-backend")

    def test_unavailable_registry_is_truthful(self):
        # no name appears as both registered and unavailable
        assert not set(backends.unavailable_backends()) & set(ALL_BACKENDS)


# --------------------------------------------------------------------------- #
# kernel parity across backends
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestKernelParity:
    def test_spgemm_random(self, backend):
        impl = backends.get_backend(backend)
        a, da = random_csr((7, 5), 0.4, 1)
        b, db = random_csr((5, 6), 0.4, 2)
        np.testing.assert_allclose(impl.spgemm(a, b).to_dense(), da @ db, atol=1e-12)

    def test_spgemm_radixnet_chain(self, backend):
        impl = backends.get_backend(backend)
        subs = radixnet_submatrices()
        result = subs[0]
        expected = subs[0].to_dense()
        for m in subs[1:]:
            result = impl.spgemm(result, m)
            expected = expected @ m.to_dense()
        np.testing.assert_allclose(result.to_dense(), expected)

    def test_spmm_random_and_radixnet(self, backend):
        impl = backends.get_backend(backend)
        a, da = random_csr((6, 8), 0.5, 3)
        x = np.random.default_rng(4).random((8, 5))
        np.testing.assert_allclose(impl.spmm(a, x), da @ x, atol=1e-12)
        w = radixnet_submatrices()[1]
        y = np.random.default_rng(5).random((w.shape[1], 3))
        np.testing.assert_allclose(impl.spmm(w, y), w.to_dense() @ y, atol=1e-12)

    def test_spmv_random(self, backend):
        impl = backends.get_backend(backend)
        a, da = random_csr((9, 4), 0.5, 6)
        v = np.random.default_rng(7).random(4)
        np.testing.assert_allclose(impl.spmv(a, v), da @ v, atol=1e-12)

    def test_sparse_layer_step_random(self, backend):
        impl = backends.get_backend(backend)
        y, dy = random_csr((6, 8), 0.4, 30)
        w, dw = random_csr((8, 8), 0.4, 31)
        bias = -np.random.default_rng(32).random(8)
        threshold = 0.75
        z = dy @ dw
        z[dy.sum(axis=1) > 0] += bias
        expected = np.clip(z, 0.0, threshold)
        got = impl.sparse_layer_step(y, w, bias, threshold)
        np.testing.assert_allclose(got.to_dense(), expected, atol=1e-12)
        # fused result is already filtered: only strictly positive,
        # clamped entries are stored
        if got.nnz:
            assert got.data.min() > 0.0
            assert got.data.max() <= threshold

    def test_kron_random_and_radixnet(self, backend):
        impl = backends.get_backend(backend)
        a, da = random_csr((3, 2), 0.6, 8)
        b, db = random_csr((2, 4), 0.6, 9)
        np.testing.assert_allclose(impl.kron(a, b).to_dense(), np.kron(da, db), atol=1e-12)
        ones = CSRMatrix.ones((2, 3))
        w = radixnet_submatrices()[0]
        np.testing.assert_allclose(
            impl.kron(ones, w).to_dense(), np.kron(np.ones((2, 3)), w.to_dense())
        )

    def test_transpose_random(self, backend):
        impl = backends.get_backend(backend)
        a, da = random_csr((5, 7), 0.4, 10)
        np.testing.assert_allclose(impl.transpose(a).to_dense(), da.T)

    def test_add_random(self, backend):
        impl = backends.get_backend(backend)
        a, da = random_csr((4, 6), 0.5, 11)
        b, db = random_csr((4, 6), 0.5, 12)
        np.testing.assert_allclose(impl.add(a, b).to_dense(), da + db, atol=1e-12)

    def test_empty_operands(self, backend):
        impl = backends.get_backend(backend)
        zero = CSRMatrix.zeros((3, 4))
        assert impl.spgemm(zero, CSRMatrix.zeros((4, 2))).nnz == 0
        assert impl.kron(zero, CSRMatrix.eye(2)).nnz == 0
        assert impl.transpose(zero).shape == (4, 3)
        np.testing.assert_allclose(impl.spmm(zero, np.ones((4, 2))), np.zeros((3, 2)))

    @pytest.mark.parametrize("size,density", [(16, 0.3), (64, 0.1), (128, 0.05)])
    def test_permute_columns_matches_old_dense_path(self, backend, size, density):
        """The sparse permutation is bit-for-bit the old ``to_dense()[:, p]``.

        The challenge generator used to round-trip every shuffled layer
        through a dense ``N x N`` buffer; the CSR column remap that
        replaced it must agree exactly (pattern and values) at small and
        medium sizes on every backend.
        """
        impl = backends.get_backend(backend)
        a, da = random_csr((size, size), density, size)
        permutation = np.random.default_rng(size + 1).permutation(size)
        old_path = CSRMatrix.from_dense(da[:, permutation])
        got = impl.permute_columns(a, permutation)
        assert got.same_pattern(old_path)
        assert np.array_equal(got.data, old_path.data)

    def test_permute_columns_round_trip(self, backend):
        from repro.core.permutation import invert_permutation
        from repro.sparse.ops import permute_columns

        a, _ = random_csr((12, 9), 0.4, 40)
        permutation = np.random.default_rng(41).permutation(9)
        back = permute_columns(
            permute_columns(a, permutation, backend=backend),
            invert_permutation(permutation),
            backend=backend,
        )
        assert back.same_pattern(a)
        assert np.array_equal(back.data, a.data)

    def test_permute_columns_retains_stored_zeros(self, backend):
        # like transpose, a pure reordering of stored entries
        impl = backends.get_backend(backend)
        m = CSRMatrix((2, 3), [0, 2, 3], [0, 2, 1], [1.0, 0.0, 2.0])
        got = impl.permute_columns(m, np.array([2, 0, 1]))
        assert got.nnz == 3
        np.testing.assert_allclose(got.to_dense(), m.to_dense()[:, [2, 0, 1]])

    def test_results_are_canonical_csr(self, backend):
        impl = backends.get_backend(backend)
        a, _ = random_csr((6, 6), 0.5, 13)
        b, _ = random_csr((6, 6), 0.5, 14)
        permutation = np.random.default_rng(15).permutation(6)
        for result in (
            impl.spgemm(a, b),
            impl.transpose(a),
            impl.add(a, b),
            impl.permute_columns(a, permutation),
        ):
            for i in range(result.shape[0]):
                cols, _ = result.row(i)
                assert np.all(np.diff(cols) > 0), "columns must be strictly increasing"


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_transpose_retains_stored_zeros(backend):
    """Explicitly stored zeros survive transpose on every backend.

    (The cross-backend contract for kernel *results* is numerical
    equality; transpose is a pure reordering, so here even the
    structural pattern must agree.)
    """
    m = CSRMatrix((2, 2), [0, 2, 3], [0, 1, 1], [1.0, 0.0, 2.0])
    t = backends.get_backend(backend).transpose(m)
    assert t.nnz == 3
    np.testing.assert_allclose(t.to_dense(), m.to_dense().T)


def test_permute_columns_validates_permutation():
    from repro.errors import ShapeError
    from repro.sparse.ops import permute_columns

    a, _ = random_csr((4, 5), 0.5, 50)
    with pytest.raises(ShapeError, match="length 5"):
        permute_columns(a, np.arange(4))
    with pytest.raises(ValidationError, match="duplicate"):
        permute_columns(a, np.array([0, 1, 2, 3, 3]))
    with pytest.raises(ValidationError, match="in \\[0, cols\\)"):
        permute_columns(a, np.array([0, 1, 2, 3, 5]))


def test_permute_columns_generic_fallback_without_kernel():
    """Backends registered without a permute_columns kernel still dispatch."""
    from repro.sparse.ops import permute_columns

    class Minimal:
        name = "minimal"

        def __getattr__(self, attr):
            if attr == "permute_columns":
                raise AttributeError(attr)
            return getattr(backends.get_backend("reference"), attr)

    a, da = random_csr((6, 6), 0.5, 51)
    permutation = np.random.default_rng(52).permutation(6)
    got = permute_columns(a, permutation, backend=Minimal())
    expected = CSRMatrix.from_dense(da[:, permutation])
    assert got.same_pattern(expected)
    assert np.array_equal(got.data, expected.data)


# --------------------------------------------------------------------------- #
# prepare: the kernel-ready form of a resident matrix
# --------------------------------------------------------------------------- #
class TestPrepare:
    #: 8x6, rows 1 and 5 empty, explicit zeros stored at (0, 3) and (3, 4)
    WEIGHT = CSRMatrix(
        (8, 6),
        [0, 2, 2, 5, 6, 8, 8, 9, 11],
        [0, 3, 1, 2, 5, 4, 0, 5, 2, 1, 3],
        [0.5, 0.0, -1.25, 2.0, 0.75, 0.0, 1.5, -0.5, 3.0, 0.25, 1.0],
    )

    @pytest.mark.parametrize("backend", [b for b in ALL_BACKENDS if b != "scipy"])
    def test_returns_the_matrix_unchanged_without_a_hook(self, backend):
        assert prepare(self.WEIGHT, backend=backend) is self.WEIGHT

    def test_scipy_attaches_one_handle_and_shares_buffers(self):
        pytest.importorskip("scipy")
        from repro.backends.scipy_backend import _to_scipy

        prepared = prepare(self.WEIGHT, backend="scipy")
        assert prepared.indices is self.WEIGHT.indices
        assert prepared.data is self.WEIGHT.data
        assert _to_scipy(prepared) is _to_scipy(prepared)
        # the caller's matrix is not prepared behind its back
        assert _to_scipy(self.WEIGHT) is not _to_scipy(self.WEIGHT)

    @pytest.mark.parametrize("rows", [1, 16])
    def test_scipy_prepared_kernels_are_bitwise_equal(self, rows):
        pytest.importorskip("scipy")
        impl = backends.get_backend("scipy")
        prepared = prepare(self.WEIGHT, backend=impl)
        rng = np.random.default_rng(rows)
        dense = rng.standard_normal((6, rows))
        assert (
            impl.spmm(prepared, dense).view(np.int64)
            == impl.spmm(self.WEIGHT, dense).view(np.int64)
        ).all()
        y_dense = rng.random((rows, 8)) * (rng.random((rows, 8)) < 0.5)
        y_dense[0] = 0.0  # an empty activation row
        y = CSRMatrix.from_dense(y_dense)
        bias = -rng.random(6)
        got = impl.sparse_layer_step(y, prepared, bias, 2.0)
        want = impl.sparse_layer_step(y, self.WEIGHT, bias, 2.0)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert (got.data.view(np.int64) == want.data.view(np.int64)).all()


def test_backends_agree_pairwise_on_spgemm():
    a, _ = random_csr((8, 8), 0.3, 20)
    b, _ = random_csr((8, 8), 0.3, 21)
    results = {name: spgemm(a, b, backend=name).to_dense() for name in ALL_BACKENDS}
    baseline = results["reference"]
    for name, got in results.items():
        np.testing.assert_allclose(got, baseline, atol=1e-12, err_msg=name)


# --------------------------------------------------------------------------- #
# numba backend algorithms (direct instance; runs as pure Python without numba)
# --------------------------------------------------------------------------- #
class TestNumbaBackendAlgorithms:
    """Bit-parity of the numba kernels against the reference oracle.

    The numba module's kernels fall back to plain Python when numba is
    not installed, so the *algorithms* are testable (against the same
    oracle, on the same inputs) in every environment -- only the
    compiled speed needs numba.  Accumulation happens in the same
    ``(k, q)`` order as the reference Gustavson row-merge, so sums must
    be bit-identical, not merely close.
    """

    @pytest.fixture()
    def impl(self):
        from repro.backends.numba_backend import NumbaBackend

        return NumbaBackend()

    @pytest.fixture()
    def oracle(self):
        return backends.get_backend("reference")

    def test_spgemm_bit_identical(self, impl, oracle):
        for seed in range(4):
            a, _ = random_csr((9, 7), 0.4, seed)
            b, _ = random_csr((7, 8), 0.4, seed + 50)
            got, want = impl.spgemm(a, b), oracle.spgemm(a, b)
            assert got.same_pattern(want)
            assert np.array_equal(got.data, want.data)

    def test_fused_layer_step_bit_identical(self, impl, oracle):
        for seed in range(4):
            y, _ = random_csr((6, 10), 0.4, seed + 100)
            y = CSRMatrix(y.shape, y.indptr, y.indices, np.abs(y.data))
            w, _ = random_csr((10, 9), 0.35, seed + 150)
            bias = -np.random.default_rng(seed).random(9) * 0.2
            got = impl.sparse_layer_step(y, w, bias, 1.5)
            want = oracle.sparse_layer_step(y, w, bias, 1.5)
            assert got.same_pattern(want)
            assert np.array_equal(got.data, want.data)

    def test_dense_kernels_bit_identical(self, impl, oracle):
        a, _ = random_csr((8, 6), 0.5, 200)
        dense = np.random.default_rng(201).standard_normal((6, 4))
        assert np.array_equal(impl.spmm(a, dense), oracle.spmm(a, dense))
        vector = np.random.default_rng(202).standard_normal(6)
        assert np.array_equal(impl.spmv(a, vector), oracle.spmv(a, vector))

    def test_structural_kernels_exact(self, impl, oracle):
        a, _ = random_csr((7, 9), 0.4, 210)
        b, _ = random_csr((7, 9), 0.4, 211)
        for got, want in (
            (impl.transpose(a), oracle.transpose(a)),
            (impl.add(a, b), oracle.add(a, b)),
        ):
            np.testing.assert_allclose(got.to_dense(), want.to_dense(), atol=1e-12)
        permutation = np.random.default_rng(212).permutation(9)
        got = impl.permute_columns(a, permutation)
        want = oracle.permute_columns(a, permutation)
        assert got.same_pattern(want)
        assert np.array_equal(got.data, want.data)

    def test_warmup_is_idempotent(self, impl):
        assert not impl.is_warm()
        impl.warmup()
        assert impl.is_warm()
        impl.warmup()  # second call is a no-op
        assert impl.is_warm()

    def test_empty_operands(self, impl):
        zero = CSRMatrix.zeros((3, 4))
        assert impl.spgemm(zero, CSRMatrix.zeros((4, 2))).nnz == 0
        assert impl.sparse_layer_step(
            zero, CSRMatrix.zeros((4, 2)), np.zeros(2), 1.0
        ).nnz == 0
        assert impl.transpose(zero).shape == (4, 3)
        assert impl.add(zero, CSRMatrix.zeros((3, 4))).nnz == 0
        assert impl.permute_columns(zero, np.array([1, 0, 3, 2])).nnz == 0


# --------------------------------------------------------------------------- #
# capability report and auto selection
# --------------------------------------------------------------------------- #
class TestSelection:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        from repro.backends import selection

        selection._reset_cache()
        yield
        selection._reset_cache()

    def test_capabilities_cover_registered_and_missing(self):
        caps = backends.capabilities()
        for name in ALL_BACKENDS:
            assert caps[name]["available"] is True
        for name, reason in backends.unavailable_backends().items():
            assert caps[name]["available"] is False
            assert caps[name]["reason"] == reason

    def test_probe_measures_performance_tiers(self):
        timings = backends.probe_backends()
        assert timings, "at least one performance tier must be registered"
        assert all(t > 0 for t in timings.values())
        assert "reference" not in timings  # oracle, not a performance tier
        # default invocation caches
        assert backends.probe_backends() == timings

    def test_auto_backend_is_cached_and_fast_tier(self):
        from repro.backends import selection

        chosen = backends.auto_backend()
        assert chosen.name in selection.AUTO_CANDIDATES
        assert backends.auto_backend() is chosen

    def test_resolve_and_use_accept_auto(self):
        chosen = backends.resolve_backend("auto")
        assert chosen.name in backends.available_backends()
        original = backends.active_backend()
        with backends.use("auto") as active:
            assert backends.active_backend() is active
            assert active.name == chosen.name
        assert backends.active_backend() is original

    def test_env_auto_selects_initial_default(self, monkeypatch):
        monkeypatch.setenv(backends.DEFAULT_BACKEND_ENV, "auto")
        from repro.backends import selection

        assert backends._initial_backend().name in selection.AUTO_CANDIDATES

    def test_capability_report_formats(self):
        report = backends.format_capability_report()
        for name in ALL_BACKENDS:
            assert name in report
        for name in backends.unavailable_backends():
            assert name in report
            assert "missing" in report
        probed = backends.format_capability_report(include_probe=True)
        assert "auto would select:" in probed


# --------------------------------------------------------------------------- #
# inference engine
# --------------------------------------------------------------------------- #
class TestInferenceEngine:
    def network_and_batch(self, neurons=32, layers=6, batch=24, seed=0):
        network = generate_challenge_network(neurons, layers, connections=4, seed=seed)
        inputs = challenge_input_batch(neurons, batch, seed=seed + 1)
        return network, inputs

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_backends_agree_on_inference(self, backend):
        network, inputs = self.network_and_batch()
        expected = InferenceEngine(network, backend="reference").run(inputs)
        result = InferenceEngine(network, backend=backend).run(inputs)
        assert list(result.categories) == list(expected.categories)
        np.testing.assert_allclose(result.activations, expected.activations, atol=1e-9)
        assert result.backend == backend

    @pytest.mark.parametrize("chunk_size", [1, 5, 7, 24, 100])
    def test_chunked_matches_single_shot_bit_identical(self, chunk_size):
        network, inputs = self.network_and_batch()
        engine = InferenceEngine(network)
        single = engine.run(inputs)
        chunked = engine.run(inputs, chunk_size=chunk_size)
        assert (chunked.activations == single.activations).all()
        assert np.array_equal(chunked.categories, single.categories)
        assert chunked.edges_traversed == single.edges_traversed

    def test_chunked_bounds_peak_memory(self):
        # the reason chunk_size exists: one chunk's intermediates live at
        # a time, so the traced peak drops well below the single-shot one
        network = generate_challenge_network(256, 8, seed=0)
        inputs = challenge_input_batch(256, 256, seed=1)
        engine = InferenceEngine(network)

        def traced_peak(**kwargs):
            engine.run(inputs, activations="dense", **kwargs)  # warm-up
            tracemalloc.start()
            try:
                result = engine.run(inputs, activations="dense", **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, result

        single_peak, single = traced_peak()
        chunked_peak, chunked = traced_peak(chunk_size=inputs.shape[0] // 4)
        assert chunked_peak <= 0.8 * single_peak
        assert (chunked.activations == single.activations).all()
        assert np.array_equal(chunked.categories, single.categories)

    def test_chunked_matches_functional_api(self):
        network, inputs = self.network_and_batch()
        single = sparse_dnn_inference(network, inputs)
        chunked = sparse_dnn_inference(network, inputs, chunk_size=6)
        assert (chunked.activations == single.activations).all()
        assert np.array_equal(chunked.categories, single.categories)

    def test_stream_is_chunk_local_with_offsets(self):
        network, inputs = self.network_and_batch(batch=10)
        engine = InferenceEngine(network)
        single = engine.run(inputs)
        merged = []
        for offset, chunk_result in engine.stream(inputs, chunk_size=3):
            assert chunk_result.activations.shape[0] <= 3
            merged.extend(chunk_result.categories + offset)
        assert merged == list(single.categories)

    def test_edges_traversed_accounting(self):
        network, inputs = self.network_and_batch(batch=24)
        nnz_total = sum(w.nnz for w in network.weights)
        result = sparse_dnn_inference(network, inputs)
        assert result.edges_traversed == nnz_total * 24
        chunked = sparse_dnn_inference(network, inputs, chunk_size=7)
        assert chunked.edges_traversed == nnz_total * 24

    def test_chunk_size_validation(self):
        network, inputs = self.network_and_batch()
        with pytest.raises(ValidationError):
            InferenceEngine(network).run(inputs, chunk_size=0)

    def test_engine_cache_reused_per_backend(self):
        network, _ = self.network_and_batch()
        assert engine_for(network) is engine_for(network)
        vec = engine_for(network, "vectorized")
        assert vec is engine_for(network, "vectorized")
        assert vec is not engine_for(network, "reference")

    def test_no_transpose_in_hot_loop(self):
        """Repeated inference and profiling never re-transpose the weights."""

        class CountingBackend:
            name = "counting"

            def __init__(self, inner):
                self.inner = inner
                self.transposes = 0

            def __getattr__(self, attr):
                return getattr(self.inner, attr)

            def transpose(self, a):
                self.transposes += 1
                return self.inner.transpose(a)

        network, inputs = self.network_and_batch()
        counting = CountingBackend(backends.active_backend())
        engine = InferenceEngine(network, backend=counting)
        assert counting.transposes == network.num_layers
        engine.run(inputs)
        engine.run(inputs, chunk_size=4)
        engine.layer_profile(inputs)
        assert counting.transposes == network.num_layers

    def test_layer_profile_matches_functional_wrapper(self):
        network, inputs = self.network_and_batch()
        assert layer_activation_profile(network, inputs) == pytest.approx(
            InferenceEngine(network).layer_profile(inputs)
        )


# --------------------------------------------------------------------------- #
# backend-aware layers
# --------------------------------------------------------------------------- #
class TestBackendAwareLayers:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_csr_layer_forward_parity(self, backend):
        weights, dense = random_csr((6, 4), 0.5, 30)
        layer = CSRSparseLayer(weights, np.arange(4, dtype=float), backend=backend)
        x = np.random.default_rng(31).random((3, 6))
        expected = np.maximum(x @ dense + np.arange(4), 0.0)
        np.testing.assert_allclose(layer.forward(x), expected, atol=1e-12)
        assert layer.backend.name == backend

    def test_masked_layer_deploys_to_csr(self):
        mask = (np.random.default_rng(32).random((5, 3)) < 0.6).astype(float)
        mask[0, 0] = 1.0  # keep at least one connection
        trained = MaskedSparseLayer(mask, activation="relu", seed=33)
        deployed = trained.to_csr_layer()
        x = np.random.default_rng(34).random((4, 5))
        np.testing.assert_allclose(
            deployed.forward(x), trained.forward(x, training=False), atol=1e-12
        )
        assert deployed.weights.nnz == trained.connection_count
