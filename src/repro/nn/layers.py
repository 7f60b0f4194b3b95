"""Network layers.

Five affine layer types share one interface (``forward``, ``backward``,
``parameters``, ``gradients``; :class:`CSRSparseLayer` is forward-only):

* :class:`DenseLayer` -- ordinary fully-connected affine layer;
* :class:`MaskedSparseLayer` -- a dense weight array multiplied elementwise
  by a fixed binary mask derived from an FNNT adjacency submatrix.  The
  mask is applied in both the forward and the gradient path, so pruned
  connections stay exactly zero throughout training.  This is the standard
  way to train a fixed sparse topology on dense hardware and is how the
  sparse-training companion experiments were run.
* :class:`CSRTrainableLayer` -- weights stored in a CSR matrix whose
  ``data`` array *is* the trainable parameter vector: O(nnz) parameter,
  gradient, and optimizer-state storage.  Forward runs through the
  backend ``spmm`` kernel and backward through the backend ``sdmm``
  (sampled dense-dense multiply) kernel, so training dispatches through
  the same kernel plane as inference.  Numerically equivalent to
  :class:`MaskedSparseLayer` for the same topology and seed.
* :class:`KroneckerBlockLayer` -- a RadiX-Net layer ``1_{D_in x D_out} (x) W``
  (paper equation (3)) whose O(nnz) weights are stored as dense blocks, one
  group per output column class of ``W``; forward, weight gradient and input
  gradient are each one batched ``np.matmul``.  Agrees with
  :class:`MaskedSparseLayer` within 1e-12 relative and starts from bitwise
  equal weights.
* :class:`CSRSparseLayer` -- weights stored in a CSR matrix; forward-only
  (inference), used by the Graph Challenge engine and for deploying
  trained masked layers in a genuinely sparse representation.  Its sparse
  kernels dispatch through :mod:`repro.backends` (the backend is bound at
  construction, when the transposed weights are precomputed once).

All layers operate on batches shaped ``(batch, features)``.  ``backward``
takes ``input_gradient=False`` to skip the gradient with respect to the
inputs, which the first layer of a network never needs.
"""

from __future__ import annotations

import numpy as np

from repro.backends import resolve_backend
from repro.backends.base import SparseBackend
from repro.errors import ShapeError, ValidationError
from repro.nn.activations import Activation, get_activation
from repro.nn.initializers import (
    glorot_uniform,
    he_normal,
    iter_weight_rows,
    sparse_corrected_scale,
    zeros_bias,
)
from repro.sparse.csr import CSRMatrix
from repro.utils.rng import RngLike


class DenseLayer:
    """A fully-connected affine layer followed by an elementwise activation."""

    def __init__(
        self,
        fan_in: int,
        fan_out: int,
        *,
        activation: str | Activation = "relu",
        seed: RngLike = None,
        init: str = "he",
    ) -> None:
        if fan_in <= 0 or fan_out <= 0:
            raise ValidationError("fan_in and fan_out must be positive")
        self.fan_in = int(fan_in)
        self.fan_out = int(fan_out)
        self.activation = get_activation(activation)
        if init == "he":
            self.weights = he_normal(fan_in, fan_out, seed=seed)
        elif init == "glorot":
            self.weights = glorot_uniform(fan_in, fan_out, seed=seed)
        else:
            raise ValidationError(f"unknown init {init!r}; use 'he' or 'glorot'")
        self.biases = zeros_bias(fan_out)
        self.weight_gradient = np.zeros_like(self.weights)
        self.bias_gradient = np.zeros_like(self.biases)
        self._last_input: np.ndarray | None = None
        self._last_output: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    def forward(self, inputs: np.ndarray, *, training: bool = True) -> np.ndarray:
        """Compute ``activation(inputs @ W + b)``."""
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.fan_in:
            raise ShapeError(
                f"inputs must have shape (batch, {self.fan_in}), got {x.shape}"
            )
        pre_activation = x @ self.effective_weights() + self.biases
        output = self.activation(pre_activation)
        if training:
            self._last_input = x
            self._last_output = output
        return output

    def backward(
        self, upstream_gradient: np.ndarray, *, input_gradient: bool = True
    ) -> np.ndarray | None:
        """Compute parameter gradients and return the gradient w.r.t. the inputs.

        Gradients are *set*, not accumulated: each backward pass overwrites
        ``weight_gradient``/``bias_gradient`` with this batch's gradients.
        The forward caches are consumed by the call, so a second backward
        without an intervening training-mode forward raises
        :class:`~repro.errors.ValidationError` instead of silently reusing
        stale activations.  With ``input_gradient=False`` the input
        gradient is not computed and ``None`` is returned (the network's
        first layer has no one to pass it to).
        """
        if self._last_input is None or self._last_output is None:
            raise ValidationError("backward called before a training-mode forward pass")
        grad = np.asarray(upstream_gradient, dtype=np.float64)
        if grad.shape != self._last_output.shape:
            raise ShapeError(
                f"upstream gradient shape {grad.shape} does not match output "
                f"shape {self._last_output.shape}"
            )
        local = grad * self.activation.derivative_from_output(self._last_output)
        self.weight_gradient = self._last_input.T @ local
        self.bias_gradient = local.sum(axis=0)
        self._mask_gradient()
        self._last_input = None
        self._last_output = None
        return local @ self.effective_weights().T if input_gradient else None

    def _mask_gradient(self) -> None:
        """Hook for sparse subclasses: restrict the weight gradient to the mask."""

    def effective_weights(self) -> np.ndarray:
        """The weight matrix actually applied in the forward pass."""
        return self.weights

    # ------------------------------------------------------------------ #
    def parameters(self) -> list[np.ndarray]:
        """The trainable parameter arrays (weights, biases) -- mutated in place by optimizers."""
        return [self.weights, self.biases]

    def gradients(self) -> list[np.ndarray]:
        """Gradients corresponding to :meth:`parameters`."""
        return [self.weight_gradient, self.bias_gradient]

    @property
    def parameter_count(self) -> int:
        """Number of trainable scalars in the layer."""
        return self.weights.size + self.biases.size

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"{type(self).__name__}(fan_in={self.fan_in}, fan_out={self.fan_out}, "
            f"activation={self.activation.name!r})"
        )


class MaskedSparseLayer(DenseLayer):
    """A sparse affine layer: dense storage, binary connectivity mask.

    The mask never changes; weights outside the mask are zero at
    initialization and their gradients are zeroed every backward pass, so
    the realized connectivity is exactly the supplied FNNT submatrix.
    Initialization applies the sparse fan-in correction of
    :func:`repro.nn.initializers.sparse_corrected_scale`.
    """

    def __init__(
        self,
        mask: np.ndarray | CSRMatrix,
        *,
        activation: str | Activation = "relu",
        seed: RngLike = None,
        init: str = "he",
        fan_in_correction: bool = True,
    ) -> None:
        mask_dense = mask.to_dense() if isinstance(mask, CSRMatrix) else np.asarray(mask, dtype=np.float64)
        if mask_dense.ndim != 2:
            raise ShapeError("mask must be a 2-D adjacency submatrix")
        binary = (mask_dense != 0.0).astype(np.float64)
        super().__init__(binary.shape[0], binary.shape[1], activation=activation, seed=seed, init=init)
        self.mask = binary
        if fan_in_correction:
            self.weights *= sparse_corrected_scale(binary)[None, :]
        self.weights *= self.mask
        self.weight_gradient = np.zeros_like(self.weights)

    def _mask_gradient(self) -> None:
        self.weight_gradient *= self.mask

    def effective_weights(self) -> np.ndarray:
        """Weights with the connectivity mask applied (defensive re-masking)."""
        return self.weights * self.mask

    @property
    def connection_count(self) -> int:
        """Number of actual (unmasked) connections."""
        return int(self.mask.sum())

    @property
    def density(self) -> float:
        """Fraction of possible connections that exist."""
        return self.connection_count / self.mask.size

    @property
    def parameter_count(self) -> int:
        """Trainable scalars: one weight per connection plus the biases."""
        return self.connection_count + self.biases.size

    def to_csr_layer(
        self, *, backend: str | SparseBackend | None = None
    ) -> "CSRSparseLayer":
        """Deploy the trained masked layer as a genuinely sparse inference layer.

        The effective (masked) weights are compressed to CSR and wrapped in
        a :class:`CSRSparseLayer` bound to ``backend`` (default: the active
        sparse backend), so a trained topology can be served through the
        same kernel layer as the Graph Challenge engine.
        """
        return CSRSparseLayer(
            CSRMatrix.from_dense(self.effective_weights()),
            self.biases.copy(),
            activation=self.activation,
            backend=backend,
        )


class CSRSparseLayer:
    """Inference-only sparse affine layer with CSR-stored weights.

    Computes ``activation(x @ W + b)`` where ``W`` is a
    :class:`repro.sparse.csr.CSRMatrix` of shape ``(fan_in, fan_out)``.
    Used by the Graph Challenge inference engine and by
    :meth:`repro.nn.model.FeedforwardNetwork.to_sparse_inference`.
    """

    def __init__(
        self,
        weights: CSRMatrix,
        biases: np.ndarray | None = None,
        *,
        activation: str | Activation = "relu",
        backend: str | SparseBackend | None = None,
    ) -> None:
        if not isinstance(weights, CSRMatrix):
            raise ValidationError("weights must be a CSRMatrix")
        self.weights = weights
        self.fan_in, self.fan_out = weights.shape
        self.biases = (
            np.zeros(self.fan_out) if biases is None else np.asarray(biases, dtype=np.float64).ravel()
        )
        if self.biases.size != self.fan_out:
            raise ShapeError(
                f"biases must have length {self.fan_out}, got {self.biases.size}"
            )
        self.activation = get_activation(activation)
        self.backend = resolve_backend(backend)
        # x @ W computed as (W^T @ x^T)^T; cache the transpose once.
        self._weights_t = self.backend.transpose(weights)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Compute ``activation(inputs @ W + b)`` for a batch of inputs."""
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.fan_in:
            raise ShapeError(
                f"inputs must have shape (batch, {self.fan_in}), got {x.shape}"
            )
        pre_activation = self.backend.spmm(self._weights_t, x.T).T + self.biases
        return self.activation(pre_activation)

    @property
    def parameter_count(self) -> int:
        """Stored weights plus biases."""
        return self.weights.nnz + self.biases.size

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"CSRSparseLayer(fan_in={self.fan_in}, fan_out={self.fan_out}, "
            f"nnz={self.weights.nnz}, activation={self.activation.name!r}, "
            f"backend={self.backend.name!r})"
        )


class CSRTrainableLayer:
    """A trainable sparse affine layer with genuinely sparse O(nnz) storage.

    Weights live in a :class:`~repro.sparse.csr.CSRMatrix` of shape
    ``(fan_in, fan_out)`` whose ``data`` array is handed directly to the
    optimizer: parameters, gradients, and any optimizer state (momentum,
    Adam moments, ...) are all vectors of length ``nnz``, never dense
    ``fan_in x fan_out`` arrays.  The connectivity pattern is fixed at
    construction, so weights outside the topology do not exist at all --
    mask invariance is structural rather than enforced by re-masking.

    The forward pass is the backend ``spmm`` kernel (as in
    :class:`CSRSparseLayer`); the backward pass computes the weight
    gradient with the backend ``sdmm`` kernel (``x.T @ dy`` sampled on the
    pattern) and the input gradient with ``spmm`` against the stored
    weights.  Initialization replays :class:`MaskedSparseLayer`'s exact
    draw sequence (full dense draw, sparse fan-in correction, gather at
    the mask's nonzeros), so the two layer types are numerically
    equivalent for the same mask, seed, and options.
    """

    def __init__(
        self,
        mask: np.ndarray | CSRMatrix,
        *,
        activation: str | Activation = "relu",
        seed: RngLike = None,
        init: str = "he",
        fan_in_correction: bool = True,
        backend: str | SparseBackend | None = None,
    ) -> None:
        mask_dense = mask.to_dense() if isinstance(mask, CSRMatrix) else np.asarray(mask, dtype=np.float64)
        if mask_dense.ndim != 2:
            raise ShapeError("mask must be a 2-D adjacency submatrix")
        binary = (mask_dense != 0.0).astype(np.float64)
        self.fan_in = int(binary.shape[0])
        self.fan_out = int(binary.shape[1])
        if self.fan_in == 0 or self.fan_out == 0:
            raise ValidationError("mask must have positive dimensions")
        self.activation = get_activation(activation)
        if init == "he":
            dense = he_normal(self.fan_in, self.fan_out, seed=seed)
        elif init == "glorot":
            dense = glorot_uniform(self.fan_in, self.fan_out, seed=seed)
        else:
            raise ValidationError(f"unknown init {init!r}; use 'he' or 'glorot'")
        if fan_in_correction:
            dense *= sparse_corrected_scale(binary)[None, :]
        pattern = CSRMatrix.from_dense(binary)
        # np.nonzero is row-major, matching CSR storage order exactly.
        rows, cols = np.nonzero(binary)
        self.weights = pattern.with_data(dense[rows, cols])
        self.biases = zeros_bias(self.fan_out)
        self.backend = resolve_backend(backend)
        # x @ W is computed as (W^T @ x^T)^T, but the optimizer mutates
        # weights.data in place, so the transpose cannot be cached whole.
        # Tag every stored entry with its 1-based position (1-based so an
        # explicitly stored zero weight cannot zero out a tag), transpose
        # once, and recover the CSR->CSC data permutation; each forward
        # then re-syncs the transposed values with one O(nnz) gather.
        tag = self.weights.with_data(
            np.arange(1, self.weights.nnz + 1, dtype=np.float64)
        )
        tag_t = self.backend.transpose(tag)
        self._pattern_t = tag_t.astype_binary()
        self._t_perm = tag_t.data.astype(np.int64) - 1
        self.weight_gradient = np.zeros(self.weights.nnz, dtype=np.float64)
        self.bias_gradient = np.zeros_like(self.biases)
        self._last_input: np.ndarray | None = None
        self._last_output: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    def forward(self, inputs: np.ndarray, *, training: bool = True) -> np.ndarray:
        """Compute ``activation(inputs @ W + b)`` through the backend spmm kernel."""
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.fan_in:
            raise ShapeError(
                f"inputs must have shape (batch, {self.fan_in}), got {x.shape}"
            )
        weights_t = self._pattern_t.with_data(self.weights.data[self._t_perm])
        pre_activation = self.backend.spmm(weights_t, x.T).T + self.biases
        output = self.activation(pre_activation)
        if training:
            self._last_input = x
            self._last_output = output
        return output

    def backward(
        self, upstream_gradient: np.ndarray, *, input_gradient: bool = True
    ) -> np.ndarray | None:
        """Compute O(nnz) parameter gradients and return the input gradient.

        The weight gradient is the backend's sampled dense-dense multiply
        (:meth:`~repro.backends.base.SparseBackend.sdmm`) of the cached
        input against the local gradient, restricted to the fixed pattern.
        As in :class:`DenseLayer`, the forward caches are consumed: a
        second backward without a new training-mode forward raises
        :class:`~repro.errors.ValidationError`, and
        ``input_gradient=False`` skips the input-gradient ``spmm`` and
        returns ``None``.
        """
        if self._last_input is None or self._last_output is None:
            raise ValidationError("backward called before a training-mode forward pass")
        grad = np.asarray(upstream_gradient, dtype=np.float64)
        if grad.shape != self._last_output.shape:
            raise ShapeError(
                f"upstream gradient shape {grad.shape} does not match output "
                f"shape {self._last_output.shape}"
            )
        local = grad * self.activation.derivative_from_output(self._last_output)
        self.weight_gradient = self.backend.sdmm(
            self._last_input, local, self.weights
        ).data
        self.bias_gradient = local.sum(axis=0)
        self._last_input = None
        self._last_output = None
        if not input_gradient:
            return None
        # grad_x = local @ W^T, computed sparse-side as (W @ local^T)^T.
        return self.backend.spmm(self.weights, local.T).T

    # ------------------------------------------------------------------ #
    def parameters(self) -> list[np.ndarray]:
        """The trainable arrays: the CSR data vector (length nnz) and the biases."""
        return [self.weights.data, self.biases]

    def gradients(self) -> list[np.ndarray]:
        """Gradients corresponding to :meth:`parameters` (both O(nnz))."""
        return [self.weight_gradient, self.bias_gradient]

    def effective_weights(self) -> np.ndarray:
        """The dense equivalent of the CSR weights (diagnostics only)."""
        return self.weights.to_dense()

    @property
    def connection_count(self) -> int:
        """Number of actual connections (stored CSR entries)."""
        return self.weights.nnz

    @property
    def density(self) -> float:
        """Fraction of possible connections that exist."""
        return self.weights.nnz / (self.fan_in * self.fan_out)

    @property
    def parameter_count(self) -> int:
        """Trainable scalars: one weight per stored entry plus the biases."""
        return self.weights.nnz + self.biases.size

    def to_csr_layer(
        self, *, backend: str | SparseBackend | None = None
    ) -> CSRSparseLayer:
        """Deploy as a forward-only :class:`CSRSparseLayer` (weights copied)."""
        return CSRSparseLayer(
            self.weights.with_data(self.weights.data.copy()),
            self.biases.copy(),
            activation=self.activation,
            backend=self.backend if backend is None else backend,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"CSRTrainableLayer(fan_in={self.fan_in}, fan_out={self.fan_out}, "
            f"nnz={self.weights.nnz}, activation={self.activation.name!r}, "
            f"backend={self.backend.name!r})"
        )


#: Gathered input elements per row block of an inference-mode
#: :meth:`KroneckerBlockLayer.forward` (2 MiB of float64).
_BLOCK_FORWARD_ELEMENTS = 1 << 18
#: Row blocks are whole multiples of this many rows, so every block starts
#: at the same position within a BLAS row tile as in one unblocked product.
_BLOCK_ROW_ALIGN = 16
#: Elements of one row chunk of the initial weight draw (512 KiB of float64).
_INIT_CHUNK_ELEMENTS = 1 << 16


def is_block_regular(base: CSRMatrix) -> bool:
    """True if ``base`` can back a :class:`KroneckerBlockLayer`.

    That is a binary pattern without repeated entries in which every row
    stores the same number ``>= 1`` of entries and so does every column.
    Every mixed-radix submatrix is one: a sum of distinct powers of the
    cyclic permutation matrix.
    """
    n_in, n_out = base.shape
    nnz = base.nnz
    if nnz == 0 or nnz % n_in or nnz % n_out or not base.is_binary():
        return False
    if np.any(np.diff(base.indptr) != nnz // n_in):
        return False
    keys = np.repeat(np.arange(n_in, dtype=np.int64), nnz // n_in) * n_out + base.indices
    if np.unique(keys).size != nnz:
        return False
    return bool(np.all(np.bincount(base.indices, minlength=n_out) == nnz // n_out))


class KroneckerBlockLayer:
    """A trainable RadiX-Net layer ``1_{D_in x D_out} (x) W`` stored as dense blocks.

    By paper equation (3) the layer's weight pattern is a
    ``D_in x D_out`` grid of copies of the small ``n_in x n_out`` pattern
    ``W`` (``base``): input ``a * n_in + i`` feeds output ``b * n_out + j``
    exactly when ``W[i, j] = 1``.  ``W`` must be regular (see
    :func:`is_block_regular`), with ``r_col`` entries per column and
    ``r_row`` per row.

    Outputs are grouped by their column class ``j < n_out``.  Output group
    ``j`` reads the ``K = D_in * r_col`` inputs ``{a * n_in + i : W[i, j] = 1}``
    in ascending order and writes the ``D_out`` outputs ``{b * n_out + j}``,
    so the weights are one ``(n_out, K, D_out)`` tensor: exactly ``nnz``
    parameters, gradients and optimizer-state entries, as in
    :class:`CSRTrainableLayer`.  Forward, weight gradient and input
    gradient are each one batched ``np.matmul`` over the groups.  The
    input gradient multiplies by the weights regrouped by input class
    (one O(nnz) gather per step, the counterpart of
    :class:`CSRTrainableLayer`'s transposed re-sync).

    The contract: forward and gradients agree with
    :class:`MaskedSparseLayer` and :class:`CSRTrainableLayer` on the
    expanded pattern within 1e-12 relative (BLAS sums in its own order, so
    not bitwise), and the initial weights are bitwise equal to theirs for
    the same seed and options.  Construction is O(nnz): the row-chunked
    initial draw is gathered chunk by chunk and no dense mask exists.
    Inference-mode forward walks the batch in row blocks of at most
    ``_BLOCK_FORWARD_ELEMENTS`` gathered inputs.  The blocks are aligned
    to ``_BLOCK_ROW_ALIGN`` rows and never end in a lone row, which on
    BLAS libraries that compute each output row the same way whatever
    the row count (OpenBLAS, numpy's default) makes the result bitwise
    equal to a single-block forward.
    """

    def __init__(
        self,
        base: CSRMatrix,
        d_in: int,
        d_out: int,
        *,
        activation: str | Activation = "relu",
        seed: RngLike = None,
        init: str = "he",
        fan_in_correction: bool = True,
    ) -> None:
        if not isinstance(base, CSRMatrix):
            raise ValidationError("base must be a CSRMatrix")
        if int(d_in) <= 0 or int(d_out) <= 0:
            raise ValidationError("d_in and d_out must be positive")
        if not is_block_regular(base):
            raise ValidationError(
                "base must be a binary pattern with equal row counts and equal "
                "column counts (a regular mixed-radix submatrix)"
            )
        self.d_in, self.d_out = int(d_in), int(d_out)
        n_in, n_out = base.shape
        self.fan_in, self.fan_out = self.d_in * n_in, self.d_out * n_out
        self.activation = get_activation(activation)
        r_row, r_col = base.nnz // n_in, base.nnz // n_out
        # W's entries in row-major order with ascending columns per row.
        cols = np.sort(base.indices.reshape(n_in, r_row), axis=1)
        # For each column j, the rows holding it (ascending), and each
        # entry's rank among its column's entries.
        by_col = np.argsort(cols.ravel(), kind="stable").reshape(n_out, r_col)
        rank = np.empty(base.nnz, dtype=np.int64)
        rank[by_col.ravel()] = np.tile(np.arange(r_col, dtype=np.int64), n_out)
        a = np.arange(self.d_in, dtype=np.int64)
        b = np.arange(self.d_out, dtype=np.int64)
        # Output group j gathers inputs a * n_in + i, (a, rank) ascending.
        self._in_idx = (a[None, :, None] * n_in + (by_col // r_row)[:, None, :]).reshape(
            n_out, -1
        )
        # Input group i scatters to outputs b * n_out + j, (b, q) ascending:
        # the columns of CSR row a * n_in + i of the expanded pattern.
        self._out_idx = (b[None, :, None] * n_out + cols[:, None, :]).reshape(n_in, -1)
        # The weights regrouped by input class, (n_in, D_in, D_out * r_row),
        # are blocks[_t_perm]: entry (i, a, (b, q)) of W's entry e = (i, q)
        # in column j lives at blocks[j, a * r_col + rank[e], b].
        k, r = self.d_in * r_col, self.d_out * r_row
        entry = cols * (k * self.d_out) + rank.reshape(n_in, r_row) * self.d_out
        self._t_perm = (
            entry[:, None, None, :]
            + (a * (r_col * self.d_out))[None, :, None, None]
            + b[None, None, :, None]
        ).reshape(n_in, self.d_in, r)
        self.blocks = self._initial_blocks(init, seed, fan_in_correction)
        self.biases = zeros_bias(self.fan_out)
        self.weight_gradient = np.zeros_like(self.blocks)
        self.bias_gradient = np.zeros_like(self.biases)
        rows = _BLOCK_FORWARD_ELEMENTS // self._in_idx.size
        self._block_rows = max(_BLOCK_ROW_ALIGN, rows - rows % _BLOCK_ROW_ALIGN)
        self._last_gathered: np.ndarray | None = None
        self._last_output: np.ndarray | None = None

    def _initial_blocks(self, init: str, seed: RngLike, fan_in_correction: bool) -> np.ndarray:
        """Replay :class:`MaskedSparseLayer`'s draw, one row chunk at a time.

        The dense draw is scaled by the fan-in correction (every column of
        the expanded pattern has ``K`` inputs) and gathered at the stored
        entries.  Row ``a * n_in + i`` stores the columns ``_out_idx[i]``,
        which land at ``_t_perm[i, a]`` in the block tensor.
        """
        n_in = self._out_idx.shape[0]
        blocks = np.empty(self._t_perm.size, dtype=np.float64)
        scale = np.sqrt(float(self.fan_in) / float(self._in_idx.shape[1]))
        chunk = max(1, _INIT_CHUNK_ELEMENTS // self.fan_out)
        for start, draw in iter_weight_rows(
            self.fan_in, self.fan_out, init=init, seed=seed, chunk_rows=chunk
        ):
            row = np.arange(start, start + draw.shape[0])
            i, a = row % n_in, row // n_in
            values = draw[np.arange(draw.shape[0])[:, None], self._out_idx[i]]
            if fan_in_correction:
                values *= scale
            blocks[self._t_perm[i, a]] = values
        return blocks.reshape(self._in_idx.shape[0], -1, self.d_out)

    # ------------------------------------------------------------------ #
    def _affine(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(x @ W + b, gathered)``; ``gathered[j]`` is output group j's inputs, transposed."""
        gathered = np.ascontiguousarray(x.T)[self._in_idx]  # (n_out, K, batch)
        product = np.matmul(self.blocks.transpose(0, 2, 1), gathered)  # (n_out, D_out, batch)
        pre_activation = (
            product.transpose(1, 0, 2).reshape(self.fan_out, x.shape[0]).T + self.biases
        )
        return pre_activation, gathered

    def forward(self, inputs: np.ndarray, *, training: bool = True) -> np.ndarray:
        """Compute ``activation(inputs @ W + b)`` with one batched matmul over the blocks."""
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.fan_in:
            raise ShapeError(
                f"inputs must have shape (batch, {self.fan_in}), got {x.shape}"
            )
        if training:
            pre_activation, self._last_gathered = self._affine(x)
            output = self.activation(pre_activation)
            self._last_output = output
            return output
        batch, rows = x.shape[0], self._block_rows
        stops = list(range(rows, batch, rows))
        if stops and batch - stops[-1] == 1:
            stops.pop()  # a lone last row would take BLAS's vector path
        pre_activation = np.empty((batch, self.fan_out))
        for start, stop in zip([0, *stops], [*stops, batch]):
            pre_activation[start:stop] = self._affine(x[start:stop])[0]
        return self.activation(pre_activation)

    def backward(
        self, upstream_gradient: np.ndarray, *, input_gradient: bool = True
    ) -> np.ndarray | None:
        """Compute O(nnz) parameter gradients and return the input gradient.

        The weight gradient of group ``j`` is its gathered inputs times its
        outputs' local gradient; the input gradient multiplies each input
        group's outputs' local gradient by the regrouped weights.  Caches
        are consumed and ``input_gradient=False`` returns ``None``, as in
        :class:`DenseLayer`.
        """
        if self._last_gathered is None or self._last_output is None:
            raise ValidationError("backward called before a training-mode forward pass")
        grad = np.asarray(upstream_gradient, dtype=np.float64)
        if grad.shape != self._last_output.shape:
            raise ShapeError(
                f"upstream gradient shape {grad.shape} does not match output "
                f"shape {self._last_output.shape}"
            )
        local = grad * self.activation.derivative_from_output(self._last_output)
        batch, n_out = local.shape[0], self._in_idx.shape[0]
        local_t = np.ascontiguousarray(local.T)  # (fan_out, batch)
        by_output = local_t.reshape(self.d_out, n_out, batch).transpose(1, 2, 0)
        self.weight_gradient = np.matmul(self._last_gathered, by_output)
        self.bias_gradient = local.sum(axis=0)
        self._last_gathered = None
        self._last_output = None
        if not input_gradient:
            return None
        regrouped = self.blocks.reshape(-1)[self._t_perm]  # (n_in, D_in, D_out * r_row)
        product = np.matmul(regrouped, local_t[self._out_idx])  # (n_in, D_in, batch)
        return product.transpose(1, 0, 2).reshape(self.fan_in, batch).T

    # ------------------------------------------------------------------ #
    def parameters(self) -> list[np.ndarray]:
        """The trainable arrays: the ``(n_out, K, D_out)`` blocks and the biases."""
        return [self.blocks, self.biases]

    def gradients(self) -> list[np.ndarray]:
        """Gradients corresponding to :meth:`parameters` (both O(nnz))."""
        return [self.weight_gradient, self.bias_gradient]

    def csr_weights(self) -> CSRMatrix:
        """The weights as a CSR matrix on the expanded pattern, built in O(nnz)."""
        r = self._t_perm.shape[2]
        data = self.blocks.reshape(-1)[self._t_perm.transpose(1, 0, 2)].reshape(-1)
        indptr = np.arange(0, data.size + 1, r, dtype=np.int64)
        indices = np.tile(self._out_idx, (self.d_in, 1)).reshape(-1)
        return CSRMatrix((self.fan_in, self.fan_out), indptr, indices, data)

    def effective_weights(self) -> np.ndarray:
        """The dense equivalent of the block weights (diagnostics only)."""
        return self.csr_weights().to_dense()

    @property
    def connection_count(self) -> int:
        """Number of actual connections (stored block entries)."""
        return self.blocks.size

    @property
    def density(self) -> float:
        """Fraction of possible connections that exist."""
        return self.blocks.size / (self.fan_in * self.fan_out)

    @property
    def parameter_count(self) -> int:
        """Trainable scalars: one weight per connection plus the biases."""
        return self.blocks.size + self.biases.size

    def to_csr_layer(
        self, *, backend: str | SparseBackend | None = None
    ) -> CSRSparseLayer:
        """Deploy as a forward-only :class:`CSRSparseLayer` (weights copied, O(nnz))."""
        return CSRSparseLayer(
            self.csr_weights(),
            self.biases.copy(),
            activation=self.activation,
            backend=backend,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"KroneckerBlockLayer(fan_in={self.fan_in}, fan_out={self.fan_out}, "
            f"blocks={self.blocks.shape}, activation={self.activation.name!r})"
        )
