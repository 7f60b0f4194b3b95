"""The sparse-kernel backend protocol and registry.

A *backend* is a bundle of the sparse kernels everything else in the
package bottoms out in: SpGEMM (sparse @ sparse), SpMM (sparse @ dense
batch), SpMV (sparse @ vector), Kronecker product, transpose, entry-wise
add, column permutation, the fused Graph Challenge layer step on
sparse activations, and SDMM (sampled dense-dense multiply, the sparse
training backward primitive).
The RadiX-Net construction (Kronecker expansion, eq. (3)), its
verification (Theorem 1 chain products), and the Graph Challenge
inference recurrence all dispatch through the active backend, so an
implementation can be swapped wholesale -- for cross-checking, for
benchmarking, or to target different hardware.

A backend may also offer an optional ``prepare(matrix)`` hook that
returns a kernel-ready form of a matrix many calls will read unchanged
(dispatched by :func:`repro.sparse.ops.prepare`, identity when absent).

Backends are *unchecked* kernels: operand shapes are validated once at
the dispatch layer (:mod:`repro.sparse.ops`) or at engine construction
(:class:`repro.challenge.inference.InferenceEngine`), and the backend may
assume conformable inputs.  This keeps hot loops free of repeated
validation.

Three implementations ship with the package:

``reference``
    Pure NumPy/Python (Gustavson row-merge SpGEMM, ``np.add.at``
    scatter).  Slow but dependency-free and easy to audit; the oracle the
    others are cross-checked against.
``scipy``
    Delegates to ``scipy.sparse`` compiled kernels.  The default when
    scipy is importable.
``vectorized``
    Pure NumPy but fully vectorized: segment sums via
    ``np.add.reduceat``/``np.bincount`` instead of ``np.add.at``, and a
    COO-expansion SpGEMM with no per-row Python loop.  The fallback
    default where scipy is unavailable, and a useful middle point when
    benchmarking kernel strategies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.errors import UnknownBackendError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sparse.csr import CSRMatrix


@runtime_checkable
class SparseBackend(Protocol):
    """The kernel bundle every backend implements.

    All matrix arguments and results are :class:`repro.sparse.csr.CSRMatrix`
    in canonical form (sorted column indices, duplicates summed); dense
    operands are float64 ``ndarray``.

    The cross-backend contract is *numerical* equality (identical
    ``to_dense()``).  Retention of explicitly stored zeros -- e.g. a 0.0
    produced by cancellation in ``add`` -- may differ between backends
    (scipy prunes some that the pure-NumPy backends keep), so code must
    not rely on ``nnz`` of a kernel *result* being backend-independent.
    RadiX-Net topology matrices are strictly nonzero-valued, so this
    never affects edge accounting in practice.
    """

    name: str

    def spgemm(self, a: "CSRMatrix", b: "CSRMatrix") -> "CSRMatrix":
        """Sparse-sparse product ``a @ b`` over the (+, *) semiring."""
        ...

    def spmm(self, a: "CSRMatrix", dense: np.ndarray) -> np.ndarray:
        """Sparse-dense product ``a @ dense`` for a 2-D dense operand."""
        ...

    def spmv(self, a: "CSRMatrix", vector: np.ndarray) -> np.ndarray:
        """Sparse matrix times dense vector."""
        ...

    def kron(self, a: "CSRMatrix", b: "CSRMatrix") -> "CSRMatrix":
        """Kronecker product ``a (x) b`` (paper equation (3))."""
        ...

    def transpose(self, a: "CSRMatrix") -> "CSRMatrix":
        """Canonical CSR of the transpose of ``a``."""
        ...

    def add(self, a: "CSRMatrix", b: "CSRMatrix") -> "CSRMatrix":
        """Entry-wise sum of two same-shape matrices."""
        ...

    def permute_columns(self, a: "CSRMatrix", permutation: np.ndarray) -> "CSRMatrix":
        """Sparse column selection ``a[:, permutation]`` (canonical CSR).

        The result's column ``j`` is the operand's column
        ``permutation[j]``; per-row degrees (and therefore the row
        pointer) are invariant, so this is a pure O(nnz) reordering of
        stored entries -- the primitive the Graph Challenge generator
        uses to decorrelate consecutive layers without ever building an
        ``N x N`` dense buffer.  Like ``transpose``, explicitly stored
        zeros are retained.  ``permutation`` is validated once at the
        dispatch layer (:func:`repro.sparse.ops.permute_columns`);
        backends may assume a valid permutation of ``0..cols-1``.
        """
        ...

    def sparse_layer_step(
        self,
        y: "CSRMatrix",
        weight: "CSRMatrix",
        bias: np.ndarray,
        threshold: float,
    ) -> "CSRMatrix":
        """One inference layer on a *sparse* activation batch, fused.

        Computes ``min(max(Y W + b, 0), threshold)`` where ``Y`` is a CSR
        ``(batch, neurons)`` activation matrix, adding the bias only to
        stored entries of rows whose input row-sum is positive (the
        GraphBLAS stored-entry convention).  The result is again
        canonical CSR with all non-positive entries dropped, so the
        activation matrix stays sparse end-to-end.

        Correctness relative to the dense recurrence requires
        ``bias <= 0`` element-wise: a positive bias would resurrect
        entries the sparse result never stores.  The dispatch layer
        (:func:`repro.sparse.ops.sparse_layer_step`) enforces this;
        backends may assume it.
        """
        ...

    def sdmm(
        self, x: np.ndarray, dy: np.ndarray, pattern: "CSRMatrix"
    ) -> "CSRMatrix":
        """Sampled dense-dense multiply: ``x.T @ dy`` restricted to ``pattern``.

        ``x`` is a dense ``(batch, rows)`` operand and ``dy`` a dense
        ``(batch, cols)`` operand; the result has exactly ``pattern``'s
        sparsity structure (same ``indptr``/``indices``, new data), with
        stored entry ``(i, j)`` equal to ``sum_b x[b, i] * dy[b, j]``.
        This is the backward primitive of sparse training: the weight
        gradient ``X^T @ dY`` of a CSR-weighted affine layer only ever
        needs the entries on the layer's fixed connectivity pattern, so
        the gradient stays O(nnz) and the dense ``rows x cols`` product
        is never formed.  Implementations should keep the peak working
        set at O(nnz + batch * (rows + cols)) plus a constant -- the
        shared NumPy kernel (:func:`repro.backends.fused.sdmm_gather`)
        adds two fixed-size blocks -- and never a ``(batch, nnz)``
        temporary.  Stored values of ``pattern`` are ignored (only its
        structure matters).  Shapes are validated once at the dispatch
        layer (:func:`repro.sparse.ops.sdmm`).
        """
        ...


_REGISTRY: dict[str, SparseBackend] = {}
# name -> human-readable reason a *known* optional tier is not registered
# in this environment (scipy/numba not installed, ...).  Keeps error
# messages and the capability report truthful without registering
# non-functional backends.
_UNAVAILABLE: dict[str, str] = {}


def register(backend: SparseBackend) -> SparseBackend:
    """Register a backend under its ``name`` (later registrations replace earlier).

    Returns the backend so it can be used as a decorator on instances or
    called inline at module import time.
    """
    name = getattr(backend, "name", None)
    if not name or not isinstance(name, str):
        raise ValidationError("backend must expose a non-empty string `name`")
    _REGISTRY[name] = backend
    _UNAVAILABLE.pop(name, None)
    return backend


def register_unavailable(name: str, reason: str) -> None:
    """Record why a known optional backend tier is absent from the registry.

    Import-gated backend modules (scipy, numba) call this when their
    dependency is missing, so ``get_backend`` can explain the absence
    instead of reporting the name as simply unknown, and
    :func:`repro.backends.selection.capabilities` can report the tier.
    """
    if name not in _REGISTRY:
        _UNAVAILABLE[name] = reason


def unavailable_backends() -> dict[str, str]:
    """Known-but-unavailable backend tiers and why (name -> reason)."""
    return dict(_UNAVAILABLE)


def get_backend(name: str) -> SparseBackend:
    """Look up a registered backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        if name in _UNAVAILABLE:
            raise UnknownBackendError(
                f"sparse backend {name!r} is not available: {_UNAVAILABLE[name]}; "
                f"available backends: {known}"
            ) from None
        raise UnknownBackendError(
            f"unknown sparse backend {name!r}; available backends: {known}"
        ) from None


def available_backends() -> tuple[str, ...]:
    """Names of all registered backends, sorted."""
    return tuple(sorted(_REGISTRY))
