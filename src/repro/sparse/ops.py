"""Sparse matrix kernels: SpGEMM, SpMM, SpMV, Kronecker products, powers.

These are the operations the RadiX-Net construction (Kronecker products
of adjacency submatrices), its verification (chain products of
submatrices for Theorem 1), the Graph Challenge recurrence (the fused
:func:`sparse_layer_step` on sparse activation batches), the
challenge generator's per-layer neuron shuffling
(:func:`permute_columns`), and the sparse training backward pass (the
sampled dense-dense :func:`sdmm` weight-gradient kernel) require.

This module is a thin *dispatch layer*: it validates operand shapes and
forwards to the active :mod:`repro.backends` implementation (``scipy``
by default, ``reference`` and ``vectorized`` as pure-NumPy
alternatives, ``numba`` as the JIT-compiled ``prange``-parallel tier
when numba is installed).  Switch implementations globally or per-scope
with ``repro.backends.use(...)``, or per-call via the ``backend=``
keyword accepted by every kernel here -- a name, an instance, or
``"auto"`` (pick the fastest tier via a one-shot micro-probe; see
:mod:`repro.backends.selection`).  The public API of this module is
stable across backends.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.backends import resolve_backend as _resolve
from repro.backends.base import SparseBackend
from repro.backends.fused import (
    clamp_bias_filter as _clamp_bias_filter,
    row_sums as _row_sums,
)
from repro.backends.reference import spgemm_rowmerge as _spgemm_rowmerge  # noqa: F401 - re-export
from repro.errors import ShapeError, ValidationError
from repro.sparse.csr import CSRMatrix


def _check_matmul_shapes(a: CSRMatrix, b: CSRMatrix) -> None:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"cannot multiply shapes {a.shape} and {b.shape}: inner dimensions differ"
        )


def spgemm(
    a: CSRMatrix, b: CSRMatrix, *, backend: str | SparseBackend | None = None
) -> CSRMatrix:
    """Sparse-sparse matrix multiply ``a @ b`` over the (+, *) semiring."""
    _check_matmul_shapes(a, b)
    return _resolve(backend).spgemm(a, b)


def spmm(
    a: CSRMatrix, dense: np.ndarray, *, backend: str | SparseBackend | None = None
) -> np.ndarray:
    """Sparse @ dense: multiply a CSR matrix by a dense matrix or batch."""
    arr = np.asarray(dense, dtype=np.float64)
    if arr.ndim == 1:
        return spmv(a, arr, backend=backend)
    if arr.ndim != 2 or arr.shape[0] != a.shape[1]:
        raise ShapeError(
            f"dense operand must have shape ({a.shape[1]}, k), got {arr.shape}"
        )
    return _resolve(backend).spmm(a, arr)


def spmv(
    a: CSRMatrix, vector: np.ndarray, *, backend: str | SparseBackend | None = None
) -> np.ndarray:
    """Sparse matrix times dense vector."""
    vec = np.asarray(vector, dtype=np.float64).ravel()
    if vec.size != a.shape[1]:
        raise ShapeError(f"vector must have length {a.shape[1]}, got {vec.size}")
    return _resolve(backend).spmv(a, vec)


def sparse_transpose(
    a: CSRMatrix, *, backend: str | SparseBackend | None = None
) -> CSRMatrix:
    """Transpose a CSR matrix (returns canonical CSR of the transpose)."""
    return _resolve(backend).transpose(a)


def sparse_add(
    a: CSRMatrix, b: CSRMatrix, *, backend: str | SparseBackend | None = None
) -> CSRMatrix:
    """Entry-wise sum of two CSR matrices of identical shape."""
    if a.shape != b.shape:
        raise ShapeError(f"cannot add shapes {a.shape} and {b.shape}")
    return _resolve(backend).add(a, b)


def permute_columns(
    a: CSRMatrix,
    permutation: np.ndarray,
    *,
    backend: str | SparseBackend | None = None,
) -> CSRMatrix:
    """Sparse column selection ``a[:, permutation]`` (O(nnz), never dense).

    The result's column ``j`` is ``a``'s column ``permutation[j]`` --
    exactly ``CSRMatrix.from_dense(a.to_dense()[:, permutation])`` but
    without the ``rows x cols`` dense buffer (explicitly stored zeros
    are retained, as in ``transpose``).  This is the kernel that unlocks
    challenge-network generation at official Graph Challenge sizes
    (16384/65536 neurons), where the dense round-trip would allocate an
    N^2 buffer per layer.

    ``permutation`` must be a permutation of ``0..cols-1``; it is
    validated here once so backends can assume it.  Backends without a
    ``permute_columns`` kernel (e.g. custom registrations predating it)
    fall back to the shared pure-NumPy primitive
    :func:`repro.core.permutation.permute_csr_columns`.
    """
    perm = np.asarray(permutation, dtype=np.int64).ravel()
    if perm.size != a.shape[1]:
        raise ShapeError(
            f"permutation must have length {a.shape[1]} (one entry per column), "
            f"got {perm.size}"
        )
    if perm.size and (perm.min() < 0 or perm.max() >= perm.size):
        raise ValidationError("permutation entries must be in [0, cols)")
    if np.bincount(perm, minlength=perm.size).max(initial=1) > 1:
        raise ValidationError("permutation must not contain duplicate entries")
    impl = _resolve(backend)
    kernel = getattr(impl, "permute_columns", None)
    if kernel is not None:
        return kernel(a, perm)
    from repro.core.permutation import permute_csr_columns

    return permute_csr_columns(a, perm)


def kron(
    a: CSRMatrix, b: CSRMatrix, *, backend: str | SparseBackend | None = None
) -> CSRMatrix:
    """Kronecker product ``a (x) b`` of two sparse matrices.

    This is the operation of the paper's equation (3): every RadiX-Net
    adjacency submatrix is ``W*_i (x) W_i`` where ``W*_i`` is the all-ones
    ``D_{i-1} x D_i`` matrix and ``W_i`` the mixed-radix submatrix.

    The result row ``i_a * rows(b) + i_b`` holds, for every stored pair,
    value ``a[i_a, j_a] * b[i_b, j_b]`` at column ``j_a * cols(b) + j_b``.
    """
    return _resolve(backend).kron(a, b)


def sparse_layer_step(
    y: CSRMatrix,
    weight: CSRMatrix,
    bias: np.ndarray,
    threshold: float,
    *,
    backend: str | SparseBackend | None = None,
) -> CSRMatrix:
    """One Graph Challenge layer ``min(max(Y W + b, 0), threshold)`` on CSR ``Y``.

    The sparse-activation counterpart of the engine's dense SpMM step:
    ``Y`` is a CSR ``(batch, neurons)`` activation matrix and the result is
    again CSR with non-positive entries dropped.  The bias is added to
    stored entries of rows whose input row-sum is positive, which matches
    the dense recurrence exactly **when the bias is non-positive** (a
    positive bias would also lift entries the sparse product never
    stores); that precondition is validated here so backends can assume
    it.

    Backends without a fused ``sparse_layer_step`` kernel (e.g. custom
    registrations predating it) fall back to their ``spgemm`` followed by
    a shared vectorized bias/ReLU/clamp pass.
    """
    _check_matmul_shapes(y, weight)
    bias_arr = np.asarray(bias, dtype=np.float64).ravel()
    if bias_arr.size != weight.shape[1]:
        raise ShapeError(
            f"bias must have length {weight.shape[1]}, got {bias_arr.size}"
        )
    if np.any(bias_arr > 0.0):
        raise ValidationError(
            "sparse_layer_step requires a non-positive bias; positive biases "
            "activate entries outside the sparse product's pattern -- use the "
            "dense activation path instead"
        )
    impl = _resolve(backend)
    step = getattr(impl, "sparse_layer_step", None)
    if step is not None:
        return step(y, weight, bias_arr, float(threshold))
    active_rows = _row_sums(y) > 0.0
    z = impl.spgemm(y, weight)
    return _clamp_bias_filter(z, active_rows, bias_arr, float(threshold))


def sdmm(
    x: np.ndarray,
    dy: np.ndarray,
    pattern: CSRMatrix,
    *,
    backend: str | SparseBackend | None = None,
) -> CSRMatrix:
    """Sampled dense-dense multiply: ``x.T @ dy`` restricted to ``pattern``.

    The backward primitive of sparse training.  For a CSR-weighted affine
    layer ``Y = X W + b`` with fixed connectivity ``pattern``, the weight
    gradient ``X^T @ dY`` is only ever *applied* on the pattern's stored
    entries -- connections outside the topology stay exactly zero -- so
    this kernel computes just those entries: the result shares
    ``pattern``'s structure and has stored entry ``(i, j)`` equal to
    ``sum_b x[b, i] * dy[b, j]``.  Work and output are O(batch * nnz) and
    O(nnz); the peak working set of the NumPy kernels is
    O(nnz + batch * (rows + cols)) plus two fixed 512 KiB blocks, so
    neither the dense ``rows x cols`` outer product nor a
    ``(batch, nnz)`` gather is ever formed.  Stored values of
    ``pattern`` are ignored.

    Backends without an ``sdmm`` kernel (e.g. custom registrations
    predating it) fall back to the shared blocked gather/einsum
    implementation :func:`repro.backends.fused.sdmm_gather`.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    dy_arr = np.asarray(dy, dtype=np.float64)
    if x_arr.ndim != 2 or dy_arr.ndim != 2:
        raise ShapeError(
            f"sdmm operands must be 2-D (batch, features) arrays, got "
            f"ndim {x_arr.ndim} and {dy_arr.ndim}"
        )
    if x_arr.shape[0] != dy_arr.shape[0]:
        raise ShapeError(
            f"sdmm operands must share the batch dimension, got "
            f"{x_arr.shape} and {dy_arr.shape}"
        )
    if pattern.shape != (x_arr.shape[1], dy_arr.shape[1]):
        raise ShapeError(
            f"pattern shape {pattern.shape} does not match sampled product "
            f"shape ({x_arr.shape[1]}, {dy_arr.shape[1]})"
        )
    impl = _resolve(backend)
    kernel = getattr(impl, "sdmm", None)
    if kernel is not None:
        return kernel(x_arr, dy_arr, pattern)
    from repro.backends.fused import sdmm_gather

    return sdmm_gather(x_arr, dy_arr, pattern)


def prepare(
    matrix: CSRMatrix, *, backend: str | SparseBackend | None = None
) -> CSRMatrix:
    """``matrix`` in the backend's kernel-ready form, for repeated reads.

    For a matrix that many kernel calls read unchanged -- a served
    network's resident weights -- a backend may build its native handle
    once instead of per call (scipy attaches its ``csr_matrix``).  The
    result is a :class:`CSRMatrix` equal to ``matrix`` and valid on
    every backend; backends without a ``prepare`` hook return
    ``matrix`` itself.  Only prepare matrices whose index arrays never
    change afterwards.
    """
    hook = getattr(_resolve(backend), "prepare", None)
    return matrix if hook is None else hook(matrix)


def matrix_power(
    a: CSRMatrix, exponent: int, *, backend: str | SparseBackend | None = None
) -> CSRMatrix:
    """Raise a square CSR matrix to a non-negative integer power."""
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"matrix_power requires a square matrix, got {a.shape}")
    if exponent < 0:
        raise ShapeError(f"exponent must be >= 0, got {exponent}")
    impl = _resolve(backend)
    result = CSRMatrix.eye(a.shape[0])
    base = a
    e = exponent
    while e > 0:
        if e & 1:
            result = impl.spgemm(result, base)
        e >>= 1
        if e:
            base = impl.spgemm(base, base)
    return result


def chain_product(
    matrices: Sequence[CSRMatrix], *, backend: str | SparseBackend | None = None
) -> CSRMatrix:
    """Product ``W_1 @ W_2 @ ... @ W_n`` of a chain of conformable matrices.

    Used to compute the input-to-output path-count matrix of an FNNT (the
    entry ``[u, v]`` of the chain product counts directed paths from input
    node ``u`` to output node ``v``), which is how Theorem 1 is verified.
    """
    if not matrices:
        raise ShapeError("chain_product requires at least one matrix")
    impl = _resolve(backend)
    result = matrices[0]
    for m in matrices[1:]:
        _check_matmul_shapes(result, m)
        result = impl.spgemm(result, m)
    return result
