"""The Graph Challenge sparse DNN inference engine.

The reference recurrence (Kepner et al., "Sparse Deep Neural Network Graph
Challenge") is, for activation matrix ``Y`` with one row per input sample:

    Z = Y W_l + B_l          (bias broadcast to active rows)
    Y = min(max(Z, 0), threshold)

after the last layer, the *categories* are the rows of ``Y`` with any
positive entry.

Activation storage policy
-------------------------

At official challenge scale (1024-65536 neurons, 120+ layers) the
activations themselves go sparse after the first thresholded layers, and
a dense ``(batch, neurons)`` buffer becomes the memory bottleneck.  The
engine therefore threads an :class:`ActivationBatch` -- either
:class:`DenseActivations` (a float64 array, advanced by the backend's
SpMM) or :class:`SparseActivations` (a CSR matrix, advanced by the
backend's fused ``sparse_layer_step`` SpGEMM kernel) -- through the
recurrence, and an :class:`ActivationPolicy` decides the representation
before every layer:

* ``dense``  -- always the dense SpMM path (the pre-policy behaviour);
* ``sparse`` -- always CSR activations end-to-end (requires non-positive
  biases, which the challenge networks satisfy);
* ``auto``   -- per-layer density tracking with a configurable crossover:
  batches smaller than ``min_sparse_elements`` or denser than
  ``crossover_density`` keep the fast dense SpMM, large thresholded
  batches switch to SpGEMM.

Every :class:`InferenceResult` records the per-layer representation,
density, and the peak activation ``nnz`` observed, so the memory win of
the sparse policy is directly reportable (the dense equivalent is always
``batch * neurons`` stored elements).

Live rows
---------

A row that is all zero gets no bias, so it stays exactly zero through
every later layer.  :class:`DenseActivations` therefore carries only the
*live* rows (those with any nonzero entry) plus their batch row ids, and
each dense step first drops the rows that died in the previous layer:
the kernels, bias, clamp and nonzero count then touch only the
survivors, with results bitwise equal to the uncompacted recurrence.
Row counts, densities and ``edges_traversed`` still describe the whole
batch.  :attr:`InferenceResult.activations` scatters the survivors back
into a full ``(batch, neurons)`` array on first read, so a result kept
only for its categories and stats never holds the dead rows.

:class:`InferenceEngine` is the production path: it binds a network to a
sparse-kernel backend (see :mod:`repro.backends`), precomputes every
layer's transposed weight matrix **once** at construction (the dense
recurrence computes ``Y W`` as ``(W^T Y^T)^T``), and runs the recurrence
single-shot, chunked by ``chunk_size`` (bounded memory), or sharded by
output columns (``shards``).
:func:`streaming_inference` runs the same recurrence over a *lazily
produced* sequence of ``(weight, bias)`` layers (see
:func:`repro.challenge.io.iter_challenge_layers`), so a network far
larger than memory never needs all layers resident before the first
chunk runs.

Both are thin drivers over the **staged pipeline**
(:func:`repro.challenge.pipeline.run_pipeline` -- load -> compute ->
checkpoint): there is exactly one recurrence implementation, and the
checkpoint/resume + background-prefetch machinery of ``repro challenge
run`` lives in :mod:`repro.challenge.pipeline`.

:func:`sparse_dnn_inference` keeps the original functional API on top of
the engine; engines are cached per ``(network, backend)`` so repeated
calls (and :func:`layer_activation_profile`) reuse the transposed
weights.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.backends import resolve_backend
from repro.backends.base import SparseBackend
from repro.backends.fused import row_sums
from repro.challenge.generator import ChallengeNetwork
from repro.errors import ShapeError, ValidationError
from repro.sparse.csr import CSRMatrix

DENSE = "dense"
SPARSE = "sparse"
AUTO = "auto"
_MODES = (AUTO, DENSE, SPARSE)


@dataclass(frozen=True)
class ActivationPolicy:
    """When to hold the activation batch dense vs. sparse (CSR).

    Attributes
    ----------
    mode:
        ``"dense"`` / ``"sparse"`` force one representation end-to-end;
        ``"auto"`` decides per layer from the density tracked after the
        previous step.
    crossover_density:
        In ``auto`` mode, switch to CSR activations when the batch
        density drops to this fraction or below.  SpGEMM work scales with
        activation nnz, dense SpMM with ``batch * neurons``; the default
        crossover of 10% is conservative in favour of the dense kernels.
    min_sparse_elements:
        In ``auto`` mode, batches with fewer than this many dense
        elements (``batch * neurons``) never switch: at small sizes the
        dense SpMM path is faster regardless of density.
    """

    mode: str = AUTO
    crossover_density: float = 0.1
    min_sparse_elements: int = 4096

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValidationError(
                f"activation mode must be one of {_MODES}, got {self.mode!r}"
            )
        if not 0.0 < self.crossover_density <= 1.0:
            raise ValidationError(
                f"crossover_density must be in (0, 1], got {self.crossover_density}"
            )
        if self.min_sparse_elements < 0:
            raise ValidationError(
                f"min_sparse_elements must be >= 0, got {self.min_sparse_elements}"
            )

    @classmethod
    def resolve(cls, value: "str | ActivationPolicy | None") -> "ActivationPolicy":
        """Map the ubiquitous ``activations=`` keyword to a policy instance."""
        if value is None:
            return cls()
        if isinstance(value, ActivationPolicy):
            return value
        return cls(mode=str(value))

    def pick(self, *, density: float, elements: int) -> str:
        """The representation for the next layer given the current batch state."""
        if self.mode != AUTO:
            return self.mode
        if elements >= self.min_sparse_elements and density <= self.crossover_density:
            return SPARSE
        return DENSE


# --------------------------------------------------------------------------- #
# activation batch representations
# --------------------------------------------------------------------------- #
class DenseActivations:
    """A dense activation batch (the SpMM path) that holds only its live rows.

    A row is *live* while it has any nonzero entry.  A dead row gets no
    bias (the bias enters only rows whose sum is positive), so it stays
    exactly ``0.0`` through every later layer; :meth:`step` therefore
    drops the rows that died since the last step and runs the kernels
    over the survivors only.  ``array`` holds the carried rows,
    ``row_ids`` their batch row indices (``None`` when no row has been
    dropped), and :attr:`rows` /
    :attr:`elements` / :meth:`density` keep describing the whole batch,
    so policy decisions and recorded stats do not depend on compaction.
    :meth:`to_array` scatters the live rows back into a full batch.
    """

    kind = DENSE
    __slots__ = ("array", "row_ids", "_rows", "_nnz")

    def __init__(
        self,
        array: np.ndarray,
        row_ids: np.ndarray | None = None,
        rows: int | None = None,
    ) -> None:
        self.array = array
        self.row_ids = row_ids
        self._rows = array.shape[0] if row_ids is None else int(rows)
        self._nnz: int | None = None

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def neurons(self) -> int:
        return self.array.shape[1]

    @property
    def elements(self) -> int:
        return self.rows * self.neurons

    def nnz(self) -> int:
        if self._nnz is None:
            self._nnz = int(np.count_nonzero(self.array))
        return self._nnz

    def density(self) -> float:
        return self.nnz() / self.elements if self.elements else 0.0

    def _live(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """``(live rows, their batch row ids, which of them take the bias)``."""
        y = self.array
        active = y.sum(axis=1) > 0
        if active.all():
            return y, self.row_ids, active
        # a row whose sum is not positive may still hold nonzeros (negative
        # inputs, NaN); after compaction only rows that just died get here
        alive = active.copy()
        suspects = np.flatnonzero(~active)
        alive[suspects] = np.any(y[suspects] != 0.0, axis=1)
        if alive.all():
            return y, self.row_ids, active
        # compress along the transposed view keeps the (neurons, rows)
        # C layout that spmm(weight_t, y.T) reads without a copy
        live = np.compress(alive, y.T, axis=1).T
        ids = np.flatnonzero(alive) if self.row_ids is None else self.row_ids[alive]
        return live, ids, active[alive]

    def step(
        self,
        weight: CSRMatrix,
        weight_t: CSRMatrix | None,
        bias: np.ndarray,
        threshold: float,
        backend: SparseBackend,
    ) -> "DenseActivations":
        y, row_ids, active = self._live()
        if y.shape[0] == 0:
            # nothing left alive: every later layer maps zeros to zeros
            return DenseActivations(np.zeros((0, weight.shape[1])), row_ids, self.rows)
        if weight_t is None:
            weight_t = backend.transpose(weight)
        z = _dense_layer_step(y, weight_t, bias, threshold, backend, active)
        return DenseActivations(z, row_ids, self.rows)

    def to_dense(self) -> "DenseActivations":
        return self

    def to_sparse(self) -> "SparseActivations":
        return SparseActivations(CSRMatrix.from_dense(self.to_array()))

    def to_array(self) -> np.ndarray:
        """The full ``(rows, neurons)`` batch, dead rows as zeros.

        The scatter target keeps the live array's memory order, so a
        checkpoint of a compacted batch is byte-identical to one of the
        uncompacted batch.
        """
        if self.row_ids is None:
            return self.array
        order = "F" if self.array.flags.f_contiguous else "C"
        full = np.zeros((self.rows, self.neurons), order=order)
        full[self.row_ids] = self.array
        return full

    def categories(self) -> np.ndarray:
        live = np.flatnonzero(self.array.sum(axis=1) > 0)
        return live if self.row_ids is None else self.row_ids[live]


class SparseActivations:
    """A CSR activation batch (the fused SpGEMM path)."""

    kind = SPARSE
    __slots__ = ("matrix",)

    def __init__(self, matrix: CSRMatrix) -> None:
        self.matrix = matrix

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def neurons(self) -> int:
        return self.matrix.shape[1]

    @property
    def elements(self) -> int:
        return self.matrix.shape[0] * self.matrix.shape[1]

    def nnz(self) -> int:
        return self.matrix.nnz

    def density(self) -> float:
        return self.matrix.density

    def step(
        self,
        weight: CSRMatrix,
        weight_t: CSRMatrix | None,
        bias: np.ndarray,
        threshold: float,
        backend: SparseBackend,
    ) -> "SparseActivations":
        kernel = getattr(backend, "sparse_layer_step", None)
        if kernel is not None:
            return SparseActivations(kernel(self.matrix, weight, bias, threshold))
        from repro.sparse.ops import sparse_layer_step

        return SparseActivations(
            sparse_layer_step(self.matrix, weight, bias, threshold, backend=backend)
        )

    def to_dense(self) -> DenseActivations:
        return DenseActivations(self.matrix.to_dense())

    def to_sparse(self) -> "SparseActivations":
        return self

    def to_array(self) -> np.ndarray:
        return self.matrix.to_dense()

    def categories(self) -> np.ndarray:
        if self.matrix.nnz == 0:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(row_sums(self.matrix) > 0)


ActivationBatch = DenseActivations | SparseActivations


@dataclass
class InferenceResult:
    """Outcome of a sparse DNN inference run.

    ``batch`` is the final activation batch as the recurrence left it --
    for the dense path only its live rows (see :class:`DenseActivations`).
    :attr:`activations` materializes the full ``(rows, neurons)`` array
    on first read and caches it, so a result that is only asked for its
    categories and stats never holds a dense copy of the dead rows.
    """

    batch: ActivationBatch = field(repr=False)
    categories: np.ndarray
    layer_seconds: list[float] = field(default_factory=list)
    edges_traversed: int = 0
    backend: str = ""
    activation_policy: str = ""
    layer_modes: list[str] = field(default_factory=list)
    layer_density: list[float] = field(default_factory=list)
    peak_activation_nnz: int = 0

    @cached_property
    def activations(self) -> np.ndarray:
        """The final activations as a dense ``(rows, neurons)`` array."""
        return self.batch.to_array()

    @property
    def total_seconds(self) -> float:
        """Total inference wall-clock time across layers."""
        return float(sum(self.layer_seconds))

    @property
    def edges_per_second(self) -> float:
        """The Graph Challenge throughput figure of merit (edges / second)."""
        total = self.total_seconds
        return self.edges_traversed / total if total > 0 else float("inf")


def _dense_layer_step(
    y: np.ndarray,
    weight_t,
    bias: np.ndarray,
    threshold: float,
    backend: SparseBackend,
    active_rows: np.ndarray | None = None,
) -> np.ndarray:
    """One dense layer: ``min(max(Y W + b, 0), threshold)`` via SpMM.

    ``weight_t`` is the pre-transposed weight matrix (``Y W`` is computed
    as ``(W^T Y^T)^T``).  The bias is only added to rows that have any
    active input, matching the GraphBLAS reference implementation (bias
    enters through the semiring on existing entries, so fully-inactive
    samples stay inactive).  ``active_rows`` (``Y.sum(axis=1) > 0``) may
    be passed in when the caller already has it.
    """
    z = backend.spmm(weight_t, y.T).T
    if active_rows is None:
        active_rows = y.sum(axis=1) > 0
    np.add(z, bias, out=z, where=active_rows[:, None])
    np.maximum(z, 0.0, out=z)
    np.minimum(z, threshold, out=z)
    return z


class InferenceEngine:
    """A network bound to a backend, ready for repeated batched inference.

    Parameters
    ----------
    network:
        The :class:`~repro.challenge.generator.ChallengeNetwork` to run.
    backend:
        Backend name, instance, or ``None`` for the active backend.  The
        per-layer transposed weights are computed once here, with this
        backend, and reused by every subsequent call -- the hot loop never
        transposes.
    activations:
        Default :class:`ActivationPolicy` (or mode string) for runs that
        do not pass one explicitly.
    """

    def __init__(
        self,
        network: ChallengeNetwork,
        *,
        backend: str | SparseBackend | None = None,
        activations: str | ActivationPolicy = AUTO,
    ) -> None:
        self.network = network
        self.backend = resolve_backend(backend)
        self.policy = ActivationPolicy.resolve(activations)
        # x @ W computed as (W^T @ x^T)^T; pay the transposes once, here.
        self.weights_t = tuple(self.backend.transpose(w) for w in network.weights)
        self.edges_per_sample = int(sum(w.nnz for w in network.weights))
        # The sparse path adds bias only to stored entries; a positive bias
        # would break parity with the dense recurrence, so gate on it once.
        self.sparse_bias_ok = all(
            bool(np.all(b <= 0.0)) for b in network.biases
        )

    # ------------------------------------------------------------------ #
    def run(
        self,
        inputs: np.ndarray,
        *,
        chunk_size: int | None = None,
        record_timing: bool = True,
        activations: str | ActivationPolicy | None = None,
        shards: int | None = None,
    ) -> InferenceResult:
        """Run the full recurrence over ``inputs`` (``(batch, neurons)``).

        ``chunk_size`` splits the batch into mini-batches of at most that
        many rows, bounding the peak size of intermediate activation
        buffers (each chunk's intermediates are released before the next
        chunk starts); the merged result is bit-identical to the
        single-shot path.  ``activations`` overrides the engine's default
        :class:`ActivationPolicy` for this call.  ``shards=K`` runs
        tensor-parallel over output-column ranges instead (see
        :mod:`repro.parallel.sharding`) -- in-process, single-shot, and
        bit-identical to the unsharded run; it does not compose with
        ``chunk_size``.
        """
        y = self._validate_inputs(inputs)
        policy = self._resolve_policy(activations)
        if chunk_size is not None and chunk_size < 1:
            raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
        if shards is not None:
            if chunk_size is not None:
                raise ValidationError(
                    "shards (tensor-parallel) does not compose with "
                    "chunk_size; pick one axis"
                )
            from repro.parallel.sharding import ShardLayout

            layout = ShardLayout.balanced(self.network.neurons, shards)
            return self._run_block(
                y, record_timing=record_timing, policy=policy, layout=layout
            )
        if chunk_size is None or y.shape[0] <= chunk_size:
            return self._run_block(y, record_timing=record_timing, policy=policy)
        layer_seconds = [0.0] * self.network.num_layers
        activations_out: list[np.ndarray] = []
        categories: list[np.ndarray] = []
        peak_nnz = 0
        for offset, chunk_result in self.stream(
            y, chunk_size=chunk_size, record_timing=record_timing, activations=policy
        ):
            activations_out.append(chunk_result.activations)
            categories.append(chunk_result.categories + offset)
            peak_nnz = max(peak_nnz, chunk_result.peak_activation_nnz)
            for i, seconds in enumerate(chunk_result.layer_seconds):
                layer_seconds[i] += seconds
        return self._merged_result(
            activations_out,
            categories,
            layer_seconds if record_timing else [],
            y.shape[0],
            policy,
            peak_nnz,
        )

    def stream(
        self,
        inputs: np.ndarray,
        *,
        chunk_size: int,
        record_timing: bool = False,
        activations: str | ActivationPolicy | None = None,
    ) -> Iterator[tuple[int, InferenceResult]]:
        """Yield ``(row_offset, result)`` per mini-batch of ``chunk_size`` rows.

        The streaming form keeps only one chunk's activations alive at a
        time, so arbitrarily large batches run in bounded memory when the
        caller consumes (or discards) each chunk before requesting the
        next.  Chunk category indices are chunk-local; add ``row_offset``
        to place them in the full batch.
        """
        y = self._validate_inputs(inputs)
        policy = self._resolve_policy(activations)
        if chunk_size < 1:
            raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
        for offset in range(0, y.shape[0], chunk_size):
            chunk = y[offset : offset + chunk_size]
            yield offset, self._run_block(
                chunk, record_timing=record_timing, policy=policy
            )

    def layer_profile(self, inputs: np.ndarray) -> list[float]:
        """Fraction of nonzero activations after every layer (diagnostic curve).

        The challenge instances are tuned so activations neither die out
        nor saturate; this profile is the quickest way to confirm a
        generated instance behaves like the real ones.
        """
        y = self._validate_inputs(inputs)
        return self._run_block(
            y, record_timing=False, policy=ActivationPolicy(mode=DENSE)
        ).layer_density

    # ------------------------------------------------------------------ #
    def _validate_inputs(self, inputs: np.ndarray) -> np.ndarray:
        y = np.asarray(inputs, dtype=np.float64)
        if y.ndim != 2 or y.shape[1] != self.network.neurons:
            raise ShapeError(
                f"inputs must have shape (batch, {self.network.neurons}), got {y.shape}"
            )
        return y

    def _resolve_policy(
        self, activations: str | ActivationPolicy | None
    ) -> ActivationPolicy:
        policy = self.policy if activations is None else ActivationPolicy.resolve(activations)
        if policy.mode == SPARSE and not self.sparse_bias_ok:
            raise ValidationError(
                "sparse activation policy requires non-positive biases; "
                "this network has positive bias entries -- use "
                "activations='dense' or 'auto'"
            )
        return policy

    def _layers(self) -> Iterator[tuple[CSRMatrix, CSRMatrix, np.ndarray]]:
        return zip(self.network.weights, self.weights_t, self.network.biases)

    def _run_block(
        self,
        y: np.ndarray,
        *,
        record_timing: bool,
        policy: ActivationPolicy,
        layout=None,
    ) -> InferenceResult:
        # lazy: repro.challenge.pipeline imports this module at its top level
        from repro.challenge.pipeline import PipelineState, run_pipeline

        state = run_pipeline(
            self._layers(),
            PipelineState.initial(y),
            threshold=self.network.threshold,
            backend=self.backend,
            policy=policy,
            record_timing=record_timing,
            layout=layout,
        )
        return state.result(backend=self.backend.name, policy=policy)

    def _merged_result(
        self,
        activations: list[np.ndarray],
        categories: list[np.ndarray],
        layer_seconds: list[float],
        batch: int,
        policy: ActivationPolicy,
        peak_nnz: int,
    ) -> InferenceResult:
        """Assemble per-chunk outputs (categories already offset) into one result.

        Chunks run one at a time, so the reported
        peak activation nnz is the maximum over chunks, not their sum;
        per-layer modes/densities are chunk-local and therefore omitted.
        """
        return InferenceResult(
            batch=DenseActivations(
                np.concatenate(activations, axis=0)
                if activations
                else np.empty((0, self.network.neurons))
            ),
            categories=np.concatenate(categories)
            if categories
            else np.empty(0, dtype=np.int64),
            layer_seconds=layer_seconds,
            edges_traversed=self.edges_per_sample * batch,
            backend=self.backend.name,
            activation_policy=policy.mode,
            peak_activation_nnz=peak_nnz,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"InferenceEngine(network={self.network!r}, "
            f"backend={self.backend.name!r})"
        )


def streaming_inference(
    layers: Iterable[tuple[CSRMatrix, np.ndarray]],
    inputs: np.ndarray,
    *,
    threshold: float,
    backend: str | SparseBackend | None = None,
    activations: str | ActivationPolicy | None = None,
    record_timing: bool = True,
    prefetch: int = 0,
) -> InferenceResult:
    """Run the recurrence over a lazily produced sequence of layers.

    ``layers`` yields ``(weight, bias)`` pairs and is consumed one layer
    at a time, so pairing this with a generator source -- disk ingestion
    via :func:`repro.challenge.io.iter_challenge_layers`, or direct
    generation via
    :func:`repro.challenge.generator.iter_generate_challenge_layers`
    (generate -> infer with no disk and no resident network at all) --
    runs networks whose
    weights never need to be resident all at once.  On the dense path
    each layer's transpose is computed on the fly (and released with the
    layer); the sparse path needs no transposes at all.

    ``prefetch > 0`` pulls that many layers ahead on a background thread
    (bounded queue), overlapping the source's I/O with the compute
    kernels -- see :class:`repro.challenge.pipeline.LoadStage`.  This is
    a thin driver over :func:`repro.challenge.pipeline.run_pipeline`
    (the single recurrence implementation); for checkpoint/resume over a
    saved network use
    :func:`repro.challenge.pipeline.run_challenge_pipeline`.

    ``edges_traversed`` is accumulated from the weights actually seen, so
    the result is directly comparable with :meth:`InferenceEngine.run`.
    """
    from repro.challenge.pipeline import PipelineState, run_pipeline

    policy = ActivationPolicy.resolve(activations)
    impl = resolve_backend(backend)
    state = run_pipeline(
        layers,
        PipelineState.initial(inputs),
        threshold=float(threshold),
        backend=impl,
        policy=policy,
        record_timing=record_timing,
        prefetch=prefetch,
    )
    return state.result(backend=impl.name, policy=policy)


def engine_for(
    network: ChallengeNetwork, backend: str | SparseBackend | None = None
) -> InferenceEngine:
    """The cached engine of ``network`` for ``backend`` (built on first use).

    Engines are memoized on the network object itself (one per backend
    name), so their lifetime is tied to the network and repeated
    functional-API calls never pay the per-layer transposes again.
    """
    impl = resolve_backend(backend)
    engines: dict[str, InferenceEngine] | None = getattr(network, "_engines", None)
    if engines is None:
        engines = {}
        object.__setattr__(network, "_engines", engines)
    engine = engines.get(impl.name)
    if engine is None:
        engine = InferenceEngine(network, backend=impl)
        engines[impl.name] = engine
    return engine


def sparse_dnn_inference(
    network: ChallengeNetwork,
    inputs: np.ndarray,
    *,
    record_timing: bool = True,
    backend: str | SparseBackend | None = None,
    chunk_size: int | None = None,
    activations: str | ActivationPolicy | None = None,
    shards: int | None = None,
) -> InferenceResult:
    """Run the challenge inference recurrence over all layers of ``network``.

    ``inputs`` is a dense ``(batch, neurons)`` activation matrix; under
    the ``sparse`` (or a triggered ``auto``) activation policy the engine
    converts it to CSR and keeps it sparse through the layers.

    This is the stable functional front end of :class:`InferenceEngine`;
    see :meth:`InferenceEngine.run` for the ``chunk_size`` /
    ``activations`` / ``shards`` semantics.  ``edges_traversed`` is the
    Graph Challenge convention: total stored weight entries across
    layers, times the batch size.
    """
    return engine_for(network, backend).run(
        inputs,
        chunk_size=chunk_size,
        record_timing=record_timing,
        activations=activations,
        shards=shards,
    )


def infer_categories(network: ChallengeNetwork, inputs: np.ndarray) -> np.ndarray:
    """Convenience wrapper returning only the surviving category indices."""
    return sparse_dnn_inference(network, inputs, record_timing=False).categories


def layer_activation_profile(network: ChallengeNetwork, inputs: np.ndarray) -> list[float]:
    """Fraction of nonzero activations after every layer (diagnostic curve).

    Delegates to the cached :class:`InferenceEngine` of ``network`` so the
    transposed weights are shared with inference calls.  Raises
    :class:`ValidationError` on malformed inputs (the historical contract
    of this wrapper; the engine itself raises :class:`ShapeError`).
    """
    try:
        return engine_for(network).layer_profile(inputs)
    except ShapeError as exc:
        raise ValidationError(str(exc)) from None
