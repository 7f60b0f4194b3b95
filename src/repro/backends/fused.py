"""Shared building blocks for the fused sparse kernels.

The bias/ReLU/clamp postprocessing of ``sparse_layer_step`` is identical
index bookkeeping whichever SpGEMM produced the product, and the
gather-based sampled dense-dense multiply (``sdmm``) is the same
cache-blocked einsum walk for every pure-NumPy tier; they live here --
neutral ground between the backends and the dispatch layer -- so the
vectorized backend, the scipy backend, and the generic fallbacks in
:mod:`repro.sparse.ops` all run the same code.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix

# Elements (stored entries x batch) of each gathered sdmm operand block:
# 2**16 float64s is 512 KiB, so both blocks stay cache-resident while
# their einsum reads them.
_SDMM_BLOCK_ELEMENTS = 1 << 16


def row_ids(matrix: CSRMatrix) -> np.ndarray:
    """The COO row index of every stored entry of a CSR matrix."""
    return np.repeat(
        np.arange(matrix.shape[0], dtype=np.int64), np.diff(matrix.indptr)
    )


def row_sums(matrix: CSRMatrix) -> np.ndarray:
    """Per-row sum of stored values (a dense length-``rows`` vector)."""
    return np.bincount(
        row_ids(matrix), weights=matrix.data, minlength=matrix.shape[0]
    )


def sdmm_gather(
    x: np.ndarray, dy: np.ndarray, pattern: CSRMatrix, *, row_index: np.ndarray | None = None
) -> CSRMatrix:
    """Sampled dense-dense multiply ``x.T @ dy`` on ``pattern``, scatter-free.

    Transposes ``x`` and ``dy`` once into C-contiguous ``(features,
    batch)`` layout, then walks the stored entries in fixed blocks of
    ``_SDMM_BLOCK_ELEMENTS // batch`` entries: each block gathers the
    operand rows of its ``(i, j)`` pairs and contracts them over the batch
    axis with one einsum straight into the preallocated output.  Work is
    O(batch * nnz); the peak working set is O(nnz + batch * (rows + cols))
    plus two fixed-size blocks, so neither the dense ``rows x cols``
    product nor a ``(batch, nnz)`` gather ever exists.  Every entry is
    summed over the batch in the same order as an unblocked gather, so
    the result does not depend on the block size.  ``row_index`` lets
    callers supply a memoized row-id expansion.
    """
    if pattern.nnz == 0:
        return pattern
    rows = row_ids(pattern) if row_index is None else row_index
    x_t = np.ascontiguousarray(x.T)
    dy_t = np.ascontiguousarray(dy.T)
    data = np.empty(pattern.nnz, dtype=np.result_type(x_t, dy_t))
    step = max(1, _SDMM_BLOCK_ELEMENTS // max(1, x.shape[0]))
    for start in range(0, pattern.nnz, step):
        stop = start + step
        np.einsum(
            "pb,pb->p",
            x_t[rows[start:stop]],
            dy_t[pattern.indices[start:stop]],
            out=data[start:stop],
        )
    return pattern.with_data(data)


def clamp_bias_filter(
    z: CSRMatrix,
    active_rows: np.ndarray,
    bias: np.ndarray,
    threshold: float,
) -> CSRMatrix:
    """Fused ``min(max(Z + b, 0), threshold)`` on stored entries, scatter-free.

    ``active_rows`` is a boolean mask over rows of ``z``; the bias is added
    (per column) to stored entries of active rows only.  Entries that end
    up non-positive are dropped, so the result stays sparse.
    """
    if z.nnz == 0:
        return z
    ids = row_ids(z)
    data = z.data + np.where(active_rows[ids], bias[z.indices], 0.0)
    np.minimum(data, threshold, out=data)
    keep = data > 0.0
    indptr = np.zeros(z.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids[keep], minlength=z.shape[0]), out=indptr[1:])
    return CSRMatrix(z.shape, indptr, z.indices[keep], data[keep])
