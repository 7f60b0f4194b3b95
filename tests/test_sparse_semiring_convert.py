"""Tests for repro.sparse.convert."""

import numpy as np
import pytest

from repro.errors import ShapeError, ValidationError
from repro.sparse.convert import (
    from_dense,
    from_scipy,
    to_dense,
    to_networkx_bipartite,
    to_scipy_csr,
)
from repro.sparse.csr import CSRMatrix


def _random_binary(shape, density, seed):
    rng = np.random.default_rng(seed)
    dense = (rng.random(shape) < density).astype(np.float64)
    return CSRMatrix.from_dense(dense), dense


class TestConvert:
    def test_to_dense_accepts_both_types(self):
        csr = CSRMatrix.eye(3)
        np.testing.assert_array_equal(to_dense(csr), np.eye(3))
        np.testing.assert_array_equal(to_dense(np.eye(3)), np.eye(3))

    def test_to_dense_rejects_1d(self):
        with pytest.raises(ShapeError):
            to_dense(np.zeros(3))

    def test_from_dense(self):
        dense = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert from_dense(dense).nnz == 1

    def test_scipy_round_trip(self):
        csr, dense = _random_binary((5, 4), 0.4, 7)
        scipy_matrix = to_scipy_csr(csr)
        back = from_scipy(scipy_matrix)
        np.testing.assert_allclose(back.to_dense(), dense)

    def test_from_scipy_rejects_dense(self):
        with pytest.raises(ValidationError):
            from_scipy(np.eye(3))

    def test_from_scipy_accepts_coo(self):
        import scipy.sparse as sp

        matrix = sp.coo_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        np.testing.assert_allclose(from_scipy(matrix).to_dense(), matrix.toarray())

    def test_to_networkx_bipartite(self):
        csr = CSRMatrix.from_dense(np.array([[1.0, 0.0], [1.0, 1.0]]))
        graph = to_networkx_bipartite(csr)
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 3
        assert graph.has_edge(("in", 0), ("out", 0))
        assert not graph.has_edge(("in", 0), ("out", 1))

    def test_to_networkx_edge_weights(self):
        csr = CSRMatrix.from_dense(np.array([[2.5]]))
        graph = to_networkx_bipartite(csr)
        assert graph[("in", 0)][("out", 0)]["weight"] == 2.5
