"""Tensor-parallel (model-parallel) sharding of the challenge recurrence.

The Graph Challenge recurrence ``Y <- min(max(Y W + b, 0), threshold)``
is column-separable: output neuron ``j`` depends on the *full* activation
frontier ``Y`` but only on column ``j`` of ``W`` (and entry ``j`` of
``b``).  Partitioning each layer by contiguous neuron (column) ranges
therefore yields K independent shard computations per layer whose
horizontally concatenated outputs equal the unsharded result **bit for
bit** -- every output entry is the same floating-point summation over the
same stored entries in the same order, only grouped differently.

This module provides the pieces of that execution mode:

* :class:`ShardLayout` -- the contiguous column ranges (built on
  :func:`repro.parallel.partition.partition_ranges`, so uneven neuron
  counts spread the remainder over the leading shards);
* :func:`slice_csr_columns` / :func:`slice_csr_rows` /
  :func:`hstack_csr` -- canonical CSR slicing and the all-gather
  concatenation (ascending contiguous column blocks keep CSR canonical);
* :func:`shard_layer` / :class:`ShardedLayer` -- one layer's
  ``(weight, weight_t, bias)`` cut into per-shard slices;
* :class:`ShardedComputeStage` -- a drop-in
  :class:`repro.challenge.pipeline.ComputeStage` that advances the batch
  shard by shard (serial transport) or via a worker pool;
* :class:`ShardWorkerPool` + :func:`run_sharded_challenge_pipeline` --
  the process transport: K workers each stream the network from disk
  and keep only their column slice of every layer resident (~1/K of the
  model per process), the parent broadcasts the activation frontier per
  layer and gathers the output blocks.  This generalizes the single
  sidecar of ``repro.challenge.pipeline._iter_process_prefetched`` to a
  pool, reusing its bounded-queue / liveness-check / error-relay idiom.

Sharding changes *where* each column block is computed, never *what* is
computed: policy decisions (dense SpMM vs fused sparse SpGEMM), stats,
and checkpoints are identical to the unsharded pipeline, which is what
makes cross-shard-count resume (K -> 1) safe -- the checkpointed
activation batch is layout-independent.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
from dataclasses import dataclass

import numpy as np

from repro.backends import resolve_backend
from repro.backends.base import SparseBackend
from repro.challenge.inference import (
    DENSE,
    SPARSE,
    ActivationBatch,
    ActivationPolicy,
    DenseActivations,
    SparseActivations,
    _dense_layer_step,
)
from repro.challenge.pipeline import CheckpointStage, ComputeStage, PipelineState
from repro.errors import SerializationError, ShapeError, ValidationError
from repro.parallel.partition import partition_ranges
from repro.sparse.csr import CSRMatrix


# --------------------------------------------------------------------------- #
# shard layout
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardLayout:
    """Contiguous ``[start, stop)`` output-column ranges covering ``neurons``."""

    neurons: int
    ranges: tuple[tuple[int, int], ...]

    @classmethod
    def balanced(cls, neurons: int, shards: int) -> "ShardLayout":
        """Balanced layout: ranges differ in width by at most one column.

        ``shards`` must be in ``1..neurons`` -- a shard with zero columns
        would contribute nothing and break the all-gather bookkeeping.
        """
        if neurons < 1:
            raise ValidationError(f"neurons must be >= 1, got {neurons}")
        if not 1 <= shards <= neurons:
            raise ValidationError(
                f"shards must be in 1..{neurons} (the neuron count), got {shards}"
            )
        return cls(
            neurons=int(neurons),
            ranges=tuple(partition_ranges(int(neurons), int(shards))),
        )

    @property
    def shards(self) -> int:
        return len(self.ranges)

    @property
    def widths(self) -> list[int]:
        return [stop - start for start, stop in self.ranges]


# --------------------------------------------------------------------------- #
# CSR slicing / all-gather primitives
# --------------------------------------------------------------------------- #
def _check_range(start: int, stop: int, extent: int, axis: str) -> None:
    if not 0 <= start < stop <= extent:
        raise ValidationError(
            f"{axis} range [{start}, {stop}) out of bounds for extent {extent}"
        )


def slice_csr_columns(matrix: CSRMatrix, start: int, stop: int) -> CSRMatrix:
    """The ``[start, stop)`` column block of ``matrix`` as a new CSR matrix.

    Keeps the within-row entry order of the source, so the slice is
    canonical whenever the source is.
    """
    rows, cols = matrix.shape
    _check_range(start, stop, cols, "column")
    mask = (matrix.indices >= start) & (matrix.indices < stop)
    row_ids = np.repeat(np.arange(rows, dtype=np.int64), np.diff(matrix.indptr))
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_ids[mask], minlength=rows), out=indptr[1:])
    return CSRMatrix(
        (rows, stop - start), indptr, matrix.indices[mask] - start, matrix.data[mask]
    )


def slice_csr_rows(matrix: CSRMatrix, start: int, stop: int) -> CSRMatrix:
    """The ``[start, stop)`` row block of ``matrix`` (a cheap indptr shift)."""
    rows, cols = matrix.shape
    _check_range(start, stop, rows, "row")
    lo, hi = int(matrix.indptr[start]), int(matrix.indptr[stop])
    return CSRMatrix(
        (stop - start, cols),
        matrix.indptr[start : stop + 1] - lo,
        matrix.indices[lo:hi],
        matrix.data[lo:hi],
    )


def hstack_csr(blocks: list[CSRMatrix]) -> CSRMatrix:
    """Horizontally concatenate CSR blocks (the frontier all-gather).

    All blocks must have the same row count.  Within each output row the
    blocks' entries are laid out left to right with ascending column
    offsets, so concatenating canonical blocks yields a canonical matrix
    -- and concatenating the shard outputs of a layer reproduces the
    unsharded output array-for-array.
    """
    if not blocks:
        raise ValidationError("hstack_csr needs at least one block")
    rows = blocks[0].shape[0]
    for block in blocks:
        if block.shape[0] != rows:
            raise ShapeError(
                f"all blocks must share the row count {rows}, got {block.shape[0]}"
            )
    if len(blocks) == 1:
        return blocks[0]
    widths = [block.shape[1] for block in blocks]
    offsets = np.concatenate(([0], np.cumsum(widths)))
    indptr = np.sum([block.indptr for block in blocks], axis=0, dtype=np.int64)
    total = int(indptr[-1])
    indices = np.empty(total, dtype=np.int64)
    data = np.empty(total, dtype=np.float64)
    placed = np.zeros(rows, dtype=np.int64)
    for offset, block in zip(offsets, blocks):
        counts = np.diff(block.indptr)
        row_ids = np.repeat(np.arange(rows, dtype=np.int64), counts)
        within = np.arange(block.nnz, dtype=np.int64) - np.repeat(
            block.indptr[:-1], counts
        )
        dest = indptr[:-1][row_ids] + placed[row_ids] + within
        indices[dest] = block.indices + offset
        data[dest] = block.data
        placed += counts
    return CSRMatrix((rows, int(offsets[-1])), indptr, indices, data)


# --------------------------------------------------------------------------- #
# a sharded layer
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardedLayer:
    """One layer's ``(weight, weight_t, bias)`` cut into column-range slices.

    ``shards[k]`` holds shard ``k``'s ``(weight_slice, weight_t_slice,
    bias_slice)``; the transposed slice is ``None`` when the source layer
    had no transpose (mirroring
    :meth:`repro.challenge.pipeline.ComputeStage.advance`).  The summary
    fields carry what the policy/stats bookkeeping needs about the *full*
    layer.
    """

    shards: tuple[tuple[CSRMatrix, CSRMatrix | None, np.ndarray], ...]
    in_size: int
    nnz: int
    any_positive_bias: bool


def shard_layer(
    weight: CSRMatrix,
    weight_t: CSRMatrix | None,
    bias: np.ndarray,
    layout: ShardLayout,
) -> ShardedLayer:
    """Slice one layer by the layout's column ranges.

    The weight is sliced by output columns, the transposed weight by rows
    (``transpose(slice_cols(W)) == slice_rows(W^T)`` -- canonical CSR is
    unique, so the two routes produce identical arrays), and the bias by
    entries.  Column slicing partitions the stored entries, so the shard
    ``nnz`` values sum to the full layer's.
    """
    in_size, out_size = weight.shape
    if out_size != layout.neurons:
        raise ShapeError(
            f"shard layout covers {layout.neurons} output neurons, "
            f"layer produces {out_size}"
        )
    bias = np.asarray(bias, dtype=np.float64)
    if bias.shape != (out_size,):
        raise ShapeError(
            f"bias must have shape ({out_size},), got {bias.shape}"
        )
    shards = tuple(
        (
            slice_csr_columns(weight, start, stop),
            slice_csr_rows(weight_t, start, stop) if weight_t is not None else None,
            bias[start:stop],
        )
        for start, stop in layout.ranges
    )
    return ShardedLayer(
        shards=shards,
        in_size=in_size,
        nnz=weight.nnz,
        any_positive_bias=bool(np.any(bias > 0.0)),
    )


# --------------------------------------------------------------------------- #
# per-shard kernels (the unsharded steps, run on one column block)
# --------------------------------------------------------------------------- #
def _sparse_block(
    backend: SparseBackend,
    y: CSRMatrix,
    weight: CSRMatrix,
    bias: np.ndarray,
    threshold: float,
) -> CSRMatrix:
    """One shard's column block of the fused sparse step.

    Uses the same kernel selection as
    :meth:`repro.challenge.inference.SparseActivations.step` so sharded
    and unsharded runs hit identical code paths per backend.
    """
    kernel = getattr(backend, "sparse_layer_step", None)
    if kernel is not None:
        return kernel(y, weight, bias, threshold)
    from repro.sparse.ops import sparse_layer_step

    return sparse_layer_step(y, weight, bias, threshold, backend=backend)


def _sharded_batch_step(
    batch: ActivationBatch,
    sharded: ShardedLayer,
    target: str,
    threshold: float,
    backend: SparseBackend,
) -> ActivationBatch:
    """Advance ``batch`` one layer via per-shard blocks + all-gather."""
    if target == SPARSE:
        matrix = batch.matrix
        blocks = [
            _sparse_block(backend, matrix, weight, bias, threshold)
            for weight, _, bias in sharded.shards
        ]
        return SparseActivations(hstack_csr(blocks))
    y = batch.array
    active_rows = y.sum(axis=1) > 0
    columns = []
    for weight, weight_t, bias in sharded.shards:
        if weight_t is None:
            weight_t = backend.transpose(weight)
        columns.append(
            _dense_layer_step(y, weight_t, bias, threshold, backend, active_rows)
        )
    return DenseActivations(
        columns[0] if len(columns) == 1 else np.concatenate(columns, axis=1),
        batch.row_ids,
        batch.rows,
    )


# --------------------------------------------------------------------------- #
# the sharded compute stage
# --------------------------------------------------------------------------- #
class ShardedComputeStage(ComputeStage):
    """A :class:`~repro.challenge.pipeline.ComputeStage` that computes each
    layer as K column-range shards and all-gathers the blocks.

    Policy decisions, the sparse-path gate, timing, and stats bookkeeping
    are inherited unchanged from the base stage (``_advance``), so a
    sharded run records exactly the stats an unsharded run would --
    sharding only swaps the batch-stepping kernel.
    """

    def __init__(
        self,
        *,
        threshold: float,
        backend: SparseBackend,
        policy: ActivationPolicy,
        record_timing: bool = True,
        layout: ShardLayout,
    ) -> None:
        super().__init__(
            threshold=threshold,
            backend=backend,
            policy=policy,
            record_timing=record_timing,
        )
        self.layout = layout

    def advance(
        self,
        state: PipelineState,
        weight: CSRMatrix,
        weight_t: CSRMatrix | None,
        bias: np.ndarray,
    ) -> None:
        """Serial transport: slice the full layer in-process, then step."""
        self.advance_layer(state, shard_layer(weight, weight_t, bias, self.layout))

    def advance_layer(self, state: PipelineState, sharded: ShardedLayer) -> None:
        """Step through one pre-sliced layer (resident-shard callers)."""
        self._advance(
            state,
            in_size=sharded.in_size,
            nnz=sharded.nnz,
            any_positive_bias=sharded.any_positive_bias,
            step=lambda batch, target: _sharded_batch_step(
                batch, sharded, target, self.threshold, self.backend
            ),
        )

    def advance_with_pool(
        self,
        state: PipelineState,
        pool: "ShardWorkerPool",
        layer_index: int,
        meta: tuple[int, int, bool],
    ) -> None:
        """Process transport: broadcast the frontier, gather shard blocks."""
        in_size, nnz, any_positive_bias = meta

        def step(batch: ActivationBatch, target: str) -> ActivationBatch:
            if target == SPARSE:
                matrix = batch.matrix
                payload = (matrix.shape, matrix.indptr, matrix.indices, matrix.data)
            else:
                payload = batch.array
            blocks = pool.step(layer_index, payload, target)
            if target == SPARSE:
                return SparseActivations(
                    hstack_csr(
                        [
                            CSRMatrix(shape, indptr, indices, data)
                            for shape, indptr, indices, data in blocks
                        ]
                    )
                )
            return DenseActivations(
                blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1),
                batch.row_ids,
                batch.rows,
            )

        self._advance(
            state,
            in_size=in_size,
            nnz=nnz,
            any_positive_bias=any_positive_bias,
            step=step,
        )


# --------------------------------------------------------------------------- #
# the process transport: a pool of resident-shard workers
# --------------------------------------------------------------------------- #
def _shard_worker(
    in_queue,
    out_queue,
    directory: str,
    neurons: int,
    start: int,
    stop: int | None,
    use_cache: bool,
    mmap: bool,
    shard_range: tuple[int, int],
    backend: SparseBackend,
    threshold: float,
) -> None:
    """Worker body: load one column slice of every layer, then serve steps.

    The worker streams the full layers (one resident at a time) and keeps
    only its ``(weight_slice, weight_t_slice, bias_slice)`` triples, so
    its steady-state weight memory is ~1/K of the network.  Per layer it
    reports ``(in_size, slice_nnz, any_positive_bias)`` -- the parent
    sums slice nnz across workers to recover the full layer's edge count.
    Protocol mirrors ``_process_layer_producer``: tagged tuples over
    bounded queues, errors relayed (repr fallback when unpicklable), and
    a final ``("done", peak_rss_mb)`` so the parent can report the 1/K
    memory claim from measurements, not arithmetic.
    """
    from repro.challenge.io import iter_challenge_layers
    from repro.utils.timing import peak_rss_mb

    try:
        lo, hi = shard_range
        triples: list[tuple[CSRMatrix, CSRMatrix, np.ndarray]] = []
        metas: list[tuple[int, int, bool]] = []
        for weight, bias in iter_challenge_layers(
            directory, neurons, start=start, use_cache=use_cache, mmap=mmap
        ):
            bias = np.asarray(bias, dtype=np.float64)
            weight_slice = slice_csr_columns(weight, lo, hi)
            triples.append(
                (weight_slice, backend.transpose(weight_slice), bias[lo:hi])
            )
            metas.append(
                (int(weight.shape[0]), weight_slice.nnz, bool(np.any(bias > 0.0)))
            )
            if stop is not None and start + len(triples) >= stop:
                break
        out_queue.put(("loaded", metas))
        while True:
            try:
                message = in_queue.get(timeout=1.0)
            except queue.Empty:
                # a SIGKILLed parent can never send "stop"; don't linger
                # as an orphan holding a model slice
                parent = multiprocessing.parent_process()
                if parent is not None and not parent.is_alive():
                    return
                continue
            if message[0] == "stop":
                break
            _, layer_index, payload, target = message
            weight, weight_t, bias = triples[layer_index - start]
            if target == SPARSE:
                shape, indptr, indices, data = payload
                block = _sparse_block(
                    backend, CSRMatrix(shape, indptr, indices, data),
                    weight, bias, threshold,
                )
                reply = (block.shape, block.indptr, block.indices, block.data)
            else:
                reply = _dense_layer_step(payload, weight_t, bias, threshold, backend)
            out_queue.put(("block", reply))
        out_queue.put(("done", peak_rss_mb()))
    except BaseException as exc:  # noqa: BLE001 - relayed to the parent
        try:
            out_queue.put(("error", exc))
        except Exception:  # exception not picklable: relay its repr
            out_queue.put(("error", RuntimeError(repr(exc))))


class ShardWorkerPool:
    """K resident-shard worker processes + the parent-side orchestration.

    ``Process.start()`` runs eagerly for every worker, so the ``OSError``
    / ``PermissionError`` / ``RuntimeError`` of a restricted environment
    surfaces at construction (callers fall back to the serial transport),
    not mid-run.  Use as a context manager; :meth:`shutdown` performs the
    clean handshake that collects each worker's peak RSS.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        neurons: int,
        layout: ShardLayout,
        *,
        backend: SparseBackend,
        threshold: float,
        start: int = 0,
        stop: int | None = None,
        use_cache: bool = True,
        mmap: bool = True,
    ) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context()
        self.layout = layout
        self.start = int(start)
        self.worker_rss_mb: list[float | None] = []
        self._in_queues = []
        self._out_queues = []
        self._procs = []
        try:
            for shard_range in layout.ranges:
                in_queue = ctx.Queue()
                out_queue = ctx.Queue()
                proc = ctx.Process(
                    target=_shard_worker,
                    args=(
                        in_queue,
                        out_queue,
                        str(directory),
                        int(neurons),
                        int(start),
                        stop,
                        use_cache,
                        mmap,
                        shard_range,
                        backend,
                        float(threshold),
                    ),
                    daemon=True,
                )
                proc.start()
                self._in_queues.append(in_queue)
                self._out_queues.append(out_queue)
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _recv(self, index: int) -> tuple[str, object]:
        import queue as queue_mod

        while True:
            try:
                kind, payload = self._out_queues[index].get(timeout=0.1)
            except queue_mod.Empty:
                if not self._procs[index].is_alive():
                    raise SerializationError(
                        f"shard worker {index} died without a result"
                    ) from None
                continue
            if kind == "error":
                raise payload
            return kind, payload

    def layer_metas(self) -> list[tuple[int, int, bool]]:
        """Gather the per-layer metadata lists and merge them.

        Returns one ``(in_size, full_nnz, any_positive_bias)`` per loaded
        layer; raises if the workers disagree on what they loaded (a
        corrupted source or a worker seeing a different directory state).
        """
        per_worker = []
        for index in range(len(self._procs)):
            kind, payload = self._recv(index)
            if kind != "loaded":
                raise SerializationError(
                    f"shard worker {index}: expected layer metadata, got {kind!r}"
                )
            per_worker.append(payload)
        lengths = {len(metas) for metas in per_worker}
        if len(lengths) != 1:
            raise SerializationError(
                f"shard workers loaded differing layer counts: {sorted(lengths)}"
            )
        merged = []
        for layer_metas in zip(*per_worker):
            in_sizes = {meta[0] for meta in layer_metas}
            flags = {meta[2] for meta in layer_metas}
            if len(in_sizes) != 1 or len(flags) != 1:
                raise SerializationError(
                    "shard workers disagree on layer shape or bias sign"
                )
            merged.append(
                (
                    layer_metas[0][0],
                    int(sum(meta[1] for meta in layer_metas)),
                    layer_metas[0][2],
                )
            )
        return merged

    def step(self, layer_index: int, payload, target: str) -> list:
        """All-gather: broadcast the frontier, collect blocks in shard order."""
        for in_queue in self._in_queues:
            in_queue.put(("step", int(layer_index), payload, target))
        blocks = []
        for index in range(len(self._procs)):
            kind, block = self._recv(index)
            if kind != "block":
                raise SerializationError(
                    f"shard worker {index}: expected a block, got {kind!r}"
                )
            blocks.append(block)
        return blocks

    def shutdown(self) -> None:
        """Clean handshake: stop the workers and collect their peak RSS."""
        for in_queue in self._in_queues:
            in_queue.put(("stop",))
        rss: list[float | None] = []
        for index in range(len(self._procs)):
            try:
                kind, payload = self._recv(index)
            except SerializationError:
                continue
            if kind == "done":
                rss.append(payload)
        self.worker_rss_mb = rss

    def close(self) -> None:
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)


def run_sharded_challenge_pipeline(
    directory: str | os.PathLike,
    neurons: int,
    state: PipelineState,
    *,
    layout: ShardLayout,
    threshold: float,
    backend: str | SparseBackend | None = None,
    policy: str | ActivationPolicy | None = None,
    record_timing: bool = True,
    checkpoint: CheckpointStage | None = None,
    max_layers: int | None = None,
    use_cache: bool = True,
    mmap: bool = True,
) -> tuple[PipelineState, list[float | None]]:
    """Drive ``state`` over the network at ``directory`` via a worker pool.

    The process-transport counterpart of
    :func:`repro.challenge.pipeline.run_pipeline`: same checkpoint cadence
    (periodic, best-effort on error, finalize at the end), same staged
    ``max_layers`` stop semantics, but the layer weights live sliced
    across K worker processes and the parent only ever holds the
    activation frontier.  Returns the advanced state plus each worker's
    peak RSS (``None`` entries where unavailable).

    Raises ``OSError`` / ``PermissionError`` / ``RuntimeError`` eagerly
    when worker processes cannot be spawned -- callers fall back to the
    serial transport, mirroring ``LoadStage.from_directory``.
    """
    impl = resolve_backend(backend)
    resolved = ActivationPolicy.resolve(policy)
    if max_layers is not None and max_layers <= state.layers_done:
        raise ValidationError(
            f"max_layers ({max_layers}) must exceed the {state.layers_done} "
            "layers already applied"
        )
    stage = ShardedComputeStage(
        threshold=threshold,
        backend=impl,
        policy=resolved,
        record_timing=record_timing,
        layout=layout,
    )
    pool = ShardWorkerPool(
        directory,
        neurons,
        layout,
        backend=impl,
        threshold=threshold,
        start=state.layers_done,
        stop=max_layers,
        use_cache=use_cache,
        mmap=mmap,
    )
    with pool:
        try:
            for meta in pool.layer_metas():
                stage.advance_with_pool(state, pool, state.layers_done, meta)
                if checkpoint is not None:
                    checkpoint.after_layer(state)
                if max_layers is not None and state.layers_done >= max_layers:
                    break
            pool.shutdown()
        except BaseException:
            if checkpoint is not None:
                try:
                    checkpoint.finalize(state)
                except Exception:  # noqa: BLE001 - never mask the original error
                    pass
            raise
        if checkpoint is not None:
            checkpoint.finalize(state)
    return state, pool.worker_rss_mb
