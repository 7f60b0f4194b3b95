"""The scipy.sparse backend: compiled kernels behind the package's CSR type.

The kernels round-trip through ``scipy.sparse.csr_matrix`` views of
the package's :class:`~repro.sparse.csr.CSRMatrix` buffers (no data
copy on the way in), run the compiled scipy kernel, and re-canonicalize
the result.

The module imports lazily: constructing the backend does not require
scipy, only calling a kernel does, and registration is skipped entirely
when scipy is missing so ``available_backends()`` stays truthful.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.backends.base import register, register_unavailable
from repro.backends.fused import clamp_bias_filter, sdmm_gather
from repro.sparse.csr import CSRMatrix


#: Attribute under which :meth:`ScipyBackend.prepare` attaches the handle.
_HANDLE = "_scipy_csr"


def _to_scipy(a: CSRMatrix):
    handle = getattr(a, _HANDLE, None)
    if handle is not None:
        return handle
    import scipy.sparse as sp

    return sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def _from_scipy(matrix) -> CSRMatrix:
    csr = matrix.tocsr()
    csr.sort_indices()
    csr.sum_duplicates()
    return CSRMatrix(
        csr.shape,
        csr.indptr.astype(np.int64),
        csr.indices.astype(np.int64),
        csr.data.astype(np.float64),
    )


class ScipyBackend:
    """Kernels delegated to scipy.sparse (the default backend)."""

    name = "scipy"

    def prepare(self, a: CSRMatrix) -> CSRMatrix:
        """``a`` with its ``csr_matrix`` handle built once and attached.

        Every kernel otherwise re-wraps its CSR operands per call, which
        copies the int64 index arrays down to scipy's int32 and checks
        the format.  The returned matrix shares ``a``'s buffers (the
        handle shares ``data`` too) and costs the int32 index copy: 4
        bytes per stored entry plus 4 per row.  ``a`` itself is left
        untouched.
        """
        prepared = copy.copy(a)
        object.__setattr__(prepared, _HANDLE, _to_scipy(a))
        return prepared

    def spgemm(self, a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
        return _from_scipy(_to_scipy(a) @ _to_scipy(b))

    def spmm(self, a: CSRMatrix, dense: np.ndarray) -> np.ndarray:
        return np.asarray(_to_scipy(a) @ dense, dtype=np.float64)

    def spmv(self, a: CSRMatrix, vector: np.ndarray) -> np.ndarray:
        return np.asarray(_to_scipy(a) @ vector, dtype=np.float64).ravel()

    def kron(self, a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
        import scipy.sparse as sp

        out_shape = (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
        if a.nnz == 0 or b.nnz == 0:
            return CSRMatrix.zeros(out_shape)
        return _from_scipy(sp.kron(_to_scipy(a), _to_scipy(b), format="csr"))

    def transpose(self, a: CSRMatrix) -> CSRMatrix:
        return _from_scipy(_to_scipy(a).transpose())

    def add(self, a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
        return _from_scipy(_to_scipy(a) + _to_scipy(b))

    def permute_columns(self, a: CSRMatrix, permutation: np.ndarray) -> CSRMatrix:
        # scipy's fancy column indexing on CSR is a compiled column remap
        permutation = np.asarray(permutation, dtype=np.int64)
        return _from_scipy(_to_scipy(a)[:, permutation])

    def sdmm(self, x: np.ndarray, dy: np.ndarray, pattern: CSRMatrix) -> CSRMatrix:
        # scipy.sparse has no sampled-dense-dense primitive; the shared
        # kernel walks the pattern in cache-sized blocks of compiled einsum
        return sdmm_gather(x, dy, pattern)

    def sparse_layer_step(
        self, y: CSRMatrix, weight: CSRMatrix, bias: np.ndarray, threshold: float
    ) -> CSRMatrix:
        sp_y = _to_scipy(y)
        z = sp_y @ _to_scipy(weight)
        # sort only (scipy's product has no duplicates to sum); the shared
        # clamp/filter pass then rebuilds the CSR once, skipping the
        # canonicalizing _from_scipy round-trip
        z.sort_indices()
        active_rows = np.asarray(sp_y.sum(axis=1)).ravel() > 0.0
        z_csr = CSRMatrix(z.shape, z.indptr, z.indices, z.data)
        return clamp_bias_filter(z_csr, active_rows, bias, threshold)


def scipy_available() -> bool:
    """True when scipy.sparse can be imported in this environment."""
    try:
        import scipy.sparse  # noqa: F401
    except ImportError:  # pragma: no cover - scipy ships in the toolchain
        return False
    return True


BACKEND = ScipyBackend()
if scipy_available():
    register(BACKEND)
else:  # pragma: no cover - scipy ships in the toolchain
    register_unavailable(
        "scipy", "scipy is not installed (pip install 'radixnet-repro[scipy]')"
    )
