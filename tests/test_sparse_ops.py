"""Tests for repro.sparse.ops (SpGEMM, SpMM, Kronecker, powers, chains)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.backends as backends
from repro.errors import ShapeError
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import (
    _spgemm_rowmerge,
    chain_product,
    kron,
    matrix_power,
    sparse_add,
    sparse_transpose,
    spgemm,
    spmm,
    spmv,
)


def random_sparse(shape, density, seed):
    rng = np.random.default_rng(seed)
    dense = rng.random(shape) * (rng.random(shape) < density)
    return CSRMatrix.from_dense(dense), dense


sparse_pair = st.tuples(
    st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(0, 1000)
)


class TestSpgemm:
    def test_matches_dense_matmul(self):
        a, da = random_sparse((4, 6), 0.4, 1)
        b, db = random_sparse((6, 3), 0.4, 2)
        np.testing.assert_allclose(spgemm(a, b).to_dense(), da @ db)

    def test_rowmerge_matches_scipy_path(self):
        a, _ = random_sparse((5, 4), 0.5, 3)
        b, _ = random_sparse((4, 6), 0.5, 4)
        np.testing.assert_allclose(
            spgemm(a, b).to_dense(),
            _spgemm_rowmerge(a, b).to_dense(),
        )

    @pytest.mark.parametrize("backend", backends.available_backends())
    def test_rowmerge_matches_every_backend(self, backend):
        a, _ = random_sparse((7, 5), 0.4, 7)
        b, _ = random_sparse((5, 9), 0.4, 8)
        with backends.use(backend):
            product = spgemm(a, b)
        expected = _spgemm_rowmerge(a, b)
        np.testing.assert_array_equal(product.indptr, expected.indptr)
        np.testing.assert_array_equal(product.indices, expected.indices)
        np.testing.assert_allclose(product.data, expected.data)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            spgemm(CSRMatrix.eye(2), CSRMatrix.eye(3))

    def test_identity_is_neutral(self):
        a, da = random_sparse((3, 3), 0.6, 5)
        np.testing.assert_allclose(spgemm(a, CSRMatrix.eye(3)).to_dense(), da)
        np.testing.assert_allclose(spgemm(CSRMatrix.eye(3), a).to_dense(), da)

    def test_zero_matrix_annihilates(self):
        a, _ = random_sparse((3, 3), 0.6, 6)
        assert spgemm(a, CSRMatrix.zeros((3, 3))).nnz == 0

    @given(sparse_pair)
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_property(self, dims):
        m, k, n, seed = dims
        a, da = random_sparse((m, k), 0.5, seed)
        b, db = random_sparse((k, n), 0.5, seed + 1)
        np.testing.assert_allclose(spgemm(a, b).to_dense(), da @ db, atol=1e-12)


class TestSpmmSpmv:
    def test_spmm_matches_dense(self):
        a, da = random_sparse((4, 5), 0.5, 7)
        x = np.random.default_rng(8).random((5, 3))
        np.testing.assert_allclose(spmm(a, x), da @ x)

    def test_spmm_vector_delegates_to_spmv(self):
        a, da = random_sparse((4, 5), 0.5, 9)
        v = np.random.default_rng(10).random(5)
        np.testing.assert_allclose(spmm(a, v), da @ v)

    def test_spmv_matches_dense(self):
        a, da = random_sparse((6, 4), 0.5, 11)
        v = np.random.default_rng(12).random(4)
        np.testing.assert_allclose(spmv(a, v), da @ v)

    def test_spmm_shape_mismatch(self):
        with pytest.raises(ShapeError):
            spmm(CSRMatrix.eye(3), np.zeros((4, 2)))

    def test_spmv_shape_mismatch(self):
        with pytest.raises(ShapeError):
            spmv(CSRMatrix.eye(3), np.zeros(4))


class TestTransposeAdd:
    def test_transpose_matches_dense(self):
        a, da = random_sparse((3, 5), 0.5, 13)
        np.testing.assert_allclose(sparse_transpose(a).to_dense(), da.T)

    def test_double_transpose_identity(self):
        a, da = random_sparse((4, 4), 0.5, 14)
        np.testing.assert_allclose(sparse_transpose(sparse_transpose(a)).to_dense(), da)

    def test_add_matches_dense(self):
        a, da = random_sparse((3, 3), 0.5, 15)
        b, db = random_sparse((3, 3), 0.5, 16)
        np.testing.assert_allclose(sparse_add(a, b).to_dense(), da + db)

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            sparse_add(CSRMatrix.eye(2), CSRMatrix.eye(3))


class TestKron:
    def test_matches_numpy_kron(self):
        a, da = random_sparse((2, 3), 0.7, 17)
        b, db = random_sparse((3, 2), 0.7, 18)
        np.testing.assert_allclose(kron(a, b).to_dense(), np.kron(da, db))

    def test_ones_kron_gives_block_replication(self):
        ones = CSRMatrix.ones((2, 3))
        b, db = random_sparse((2, 2), 1.0, 19)
        expected = np.kron(np.ones((2, 3)), db)
        np.testing.assert_allclose(kron(ones, b).to_dense(), expected)

    def test_kron_with_empty_matrix(self):
        assert kron(CSRMatrix.zeros((2, 2)), CSRMatrix.eye(3)).nnz == 0

    def test_mixed_product_property(self):
        # (A (x) B) (C (x) D) == (AC) (x) (BD) -- the identity Theorem 1 relies on
        a, da = random_sparse((2, 3), 0.8, 20)
        c, dc = random_sparse((3, 2), 0.8, 21)
        b, db = random_sparse((2, 2), 0.8, 22)
        d, dd = random_sparse((2, 3), 0.8, 23)
        left = spgemm(kron(a, b), kron(c, d)).to_dense()
        right = np.kron(da @ dc, db @ dd)
        np.testing.assert_allclose(left, right, atol=1e-12)

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_kron_property(self, m, n, p, q, seed):
        a, da = random_sparse((m, n), 0.6, seed)
        b, db = random_sparse((p, q), 0.6, seed + 7)
        np.testing.assert_allclose(kron(a, b).to_dense(), np.kron(da, db), atol=1e-12)


class TestPowersAndChains:
    def test_matrix_power_zero_is_identity(self):
        a, _ = random_sparse((4, 4), 0.5, 24)
        np.testing.assert_allclose(matrix_power(a, 0).to_dense(), np.eye(4))

    def test_matrix_power_matches_dense(self):
        a, da = random_sparse((4, 4), 0.5, 25)
        np.testing.assert_allclose(matrix_power(a, 3).to_dense(), np.linalg.matrix_power(da, 3), atol=1e-10)

    def test_matrix_power_requires_square(self):
        with pytest.raises(ShapeError):
            matrix_power(CSRMatrix.ones((2, 3)), 2)

    def test_matrix_power_rejects_negative(self):
        with pytest.raises(ShapeError):
            matrix_power(CSRMatrix.eye(2), -1)

    def test_chain_product_matches_dense(self):
        mats = []
        denses = []
        for i, shape in enumerate([(2, 3), (3, 4), (4, 2)]):
            m, d = random_sparse(shape, 0.7, 30 + i)
            mats.append(m)
            denses.append(d)
        expected = denses[0] @ denses[1] @ denses[2]
        np.testing.assert_allclose(chain_product(mats).to_dense(), expected, atol=1e-12)

    def test_chain_product_single(self):
        a, da = random_sparse((3, 3), 0.5, 40)
        np.testing.assert_allclose(chain_product([a]).to_dense(), da)

    def test_chain_product_empty_raises(self):
        with pytest.raises(ShapeError):
            chain_product([])
