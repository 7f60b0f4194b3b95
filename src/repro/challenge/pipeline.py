"""Staged streaming-inference pipeline: load -> compute -> checkpoint.

The Graph Challenge recurrence at official scale (16384/65536 neurons,
120-1920 layers) is a long-running, I/O-bound job: every layer must be
read (or generated) before it can multiply, and a single in-process loop
that dies at layer 1700 of 1920 restarts from zero.  This module
decomposes one run into three explicit stages:

* :class:`LoadStage` -- produces ``(weight, weight_t, bias)`` triples
  from any layer source (an in-memory network, the ``.npz`` sidecar /
  TSV files of a saved network, a generator), optionally on a background
  prefetch thread with a bounded queue so layer ``l+1`` is being parsed
  from disk while layer ``l`` computes (see
  :class:`repro.parallel.pipeline.Prefetcher`);
* :class:`ComputeStage` -- advances the
  :class:`~repro.challenge.inference.ActivationBatch` through one layer
  under the :class:`~repro.challenge.inference.ActivationPolicy` (the
  existing dense-SpMM / fused-SpGEMM kernels), accumulating the per-layer
  stats every :class:`~repro.challenge.inference.InferenceResult`
  reports;
* :class:`CheckpointStage` -- atomically serializes the full pipeline
  state (activation batch, layer cursor, policy, accumulated stats) to
  disk every ``K`` layers, so an interrupted run resumes from its last
  checkpoint (``repro challenge run --resume DIR``) instead of
  restarting.

:func:`run_pipeline` is the **single** recurrence implementation:
:meth:`repro.challenge.inference.InferenceEngine.run`/``stream`` and
:func:`repro.challenge.inference.streaming_inference` are thin drivers
over it.  :func:`run_challenge_pipeline` /
:func:`resume_challenge_pipeline` are the disk-backed drivers used by
``repro challenge run``: they stream a saved network directory through
the stages, seek back to the checkpointed layer via
:func:`repro.challenge.io.read_layer`-style random access
(:func:`repro.challenge.io.iter_challenge_layers` with ``start=``), and
produce bit-identical results whether or not the run was interrupted.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.backends import resolve_backend
from repro.backends.base import SparseBackend
from repro.challenge.inference import (
    DENSE,
    SPARSE,
    ActivationBatch,
    ActivationPolicy,
    DenseActivations,
    InferenceResult,
    SparseActivations,
)
from repro.errors import SerializationError, ShapeError, ValidationError
from repro.sparse.csr import CSRMatrix

CHECKPOINT_VERSION = 1
CHECKPOINT_NAME = "pipeline-checkpoint.npz"

# a layer as the compute stage consumes it; either of weight / weight_t
# may be None (see ComputeStage.advance)
LayerTriple = tuple[CSRMatrix, CSRMatrix | None, np.ndarray]


# --------------------------------------------------------------------------- #
# pipeline state
# --------------------------------------------------------------------------- #
@dataclass
class PipelineState:
    """Everything the recurrence has accumulated after ``layers_done`` layers.

    This is the unit of checkpointing: the activation batch *is* the
    recurrence's entire carried state (layers already applied never
    matter again), so persisting ``(batch, layers_done, stats)`` and
    replaying layers ``layers_done+1..`` reproduces an uninterrupted run
    bit for bit.
    """

    batch: ActivationBatch
    rows: int
    layers_done: int = 0
    layer_seconds: list[float] = field(default_factory=list)
    layer_modes: list[str] = field(default_factory=list)
    layer_density: list[float] = field(default_factory=list)
    peak_nnz: int = 0
    edges_per_sample: int = 0

    @classmethod
    def initial(cls, inputs: np.ndarray, *, neurons: int | None = None) -> "PipelineState":
        """Fresh state from a dense ``(batch, neurons)`` input matrix."""
        y = np.asarray(inputs, dtype=np.float64)
        if y.ndim != 2:
            raise ShapeError(f"inputs must be 2-D (batch, neurons), got shape {y.shape}")
        if neurons is not None and y.shape[1] != neurons:
            raise ShapeError(
                f"inputs must have shape (batch, {neurons}), got {y.shape}"
            )
        batch = DenseActivations(y)
        return cls(batch=batch, rows=y.shape[0], peak_nnz=batch.nnz())

    def result(self, *, backend: str, policy: ActivationPolicy) -> InferenceResult:
        """Materialize the state into an :class:`InferenceResult`."""
        return InferenceResult(
            batch=self.batch,
            categories=self.batch.categories(),
            layer_seconds=list(self.layer_seconds),
            edges_traversed=self.edges_per_sample * self.rows,
            backend=backend,
            activation_policy=policy.mode,
            layer_modes=list(self.layer_modes),
            layer_density=list(self.layer_density),
            peak_activation_nnz=self.peak_nnz,
        )


# --------------------------------------------------------------------------- #
# load stage
# --------------------------------------------------------------------------- #
def _normalize_layer(layer: tuple) -> LayerTriple:
    """Accept ``(weight, bias)`` or ``(weight, weight_t, bias)``."""
    if len(layer) == 2:
        weight, bias = layer
        weight_t = None
    elif len(layer) == 3:
        weight, weight_t, bias = layer
    else:
        raise ValidationError(
            f"layer items must be (weight, bias) or (weight, weight_t, bias) "
            f"tuples, got length {len(layer)}"
        )
    return weight, weight_t, np.asarray(bias, dtype=np.float64)


THREAD = "thread"
PROCESS = "process"
_TRANSPORTS = (THREAD, PROCESS)

# sharded execution exchanges the activation frontier either inside the
# driving process ("serial") or with a pool of resident-shard worker
# processes ("process") -- see repro.parallel.sharding
SERIAL = "serial"
_SHARD_TRANSPORTS = (PROCESS, SERIAL)


def _process_layer_producer(
    out_queue, directory: str, neurons: int, start: int, use_cache: bool, mmap: bool
) -> None:
    """Sidecar-process body: parse layers, ship their CSR arrays back.

    Runs in a child process so TSV parsing (which holds the GIL) truly
    overlaps the parent's compute kernels on multi-core machines.  Ships
    raw ``(shape, indptr, indices, data, bias)`` tuples -- cheap to
    pickle -- and relays any failure as an ``("error", exc)`` message.
    """
    from repro.challenge.io import iter_challenge_layers

    try:
        for weight, bias in iter_challenge_layers(
            directory, neurons, start=start, use_cache=use_cache, mmap=mmap
        ):
            out_queue.put(
                ("item", (weight.shape, weight.indptr, weight.indices, weight.data, bias))
            )
        out_queue.put(("done", None))
    except BaseException as exc:  # noqa: BLE001 - relayed to the consumer
        try:
            out_queue.put(("error", exc))
        except Exception:  # exception not picklable: relay its repr
            out_queue.put(("error", RuntimeError(repr(exc))))


def _iter_process_prefetched(
    directory: str,
    neurons: int,
    *,
    start: int,
    use_cache: bool,
    mmap: bool,
    depth: int,
) -> Iterator[tuple[CSRMatrix, np.ndarray]]:
    """Yield ``(weight, bias)`` produced by a bounded sidecar process.

    ``Process.start()`` runs eagerly, so the ``OSError`` /
    ``PermissionError`` / ``RuntimeError`` of a restricted environment
    surfaces at the call (callers fall back to the in-process thread
    transport), not on first iteration.
    """
    import multiprocessing
    import queue as queue_mod

    ctx = multiprocessing.get_context()
    out_queue = ctx.Queue(maxsize=depth)
    producer = ctx.Process(
        target=_process_layer_producer,
        args=(out_queue, str(directory), int(neurons), int(start), use_cache, mmap),
        daemon=True,
    )
    producer.start()

    def _consume() -> Iterator[tuple[CSRMatrix, np.ndarray]]:
        try:
            while True:
                try:
                    kind, payload = out_queue.get(timeout=0.1)
                except queue_mod.Empty:
                    if not producer.is_alive():
                        raise SerializationError(
                            "layer prefetch process died without a result"
                        ) from None
                    continue
                if kind == "done":
                    return
                if kind == "error":
                    raise payload
                shape, indptr, indices, data, bias = payload
                yield CSRMatrix(shape, indptr, indices, data), bias
        finally:
            if producer.is_alive():
                producer.terminate()
            producer.join(timeout=5.0)

    return _consume()


class LoadStage:
    """Produce layer triples for the compute stage, optionally prefetched.

    ``layers`` is any iterable of ``(weight, bias)`` or
    ``(weight, weight_t, bias)`` tuples.  With ``prefetch > 0`` the
    source is consumed on a background thread through a bounded queue of
    that depth -- at most ``prefetch`` layers (plus the one computing)
    are ever resident, and the producer's I/O overlaps the consumer's
    kernels.  ``prefetch=0`` is plain serial iteration.  Use as a
    context manager so an early exit (error, ``stop_after``) shuts the
    producer down promptly.

    For disk-backed sources, :meth:`from_directory` additionally offers
    ``transport="process"``: the layers are parsed in a sidecar
    *process* and their CSR arrays shipped through a bounded queue,
    which overlaps even the GIL-holding TSV parse with the compute
    kernels (the thread transport can only overlap the I/O and
    GIL-releasing sections).  It degrades to the thread transport
    automatically where processes cannot be spawned.
    """

    def __init__(self, layers: Iterable[tuple], *, prefetch: int = 0) -> None:
        if prefetch < 0:
            raise ValidationError(f"prefetch must be >= 0, got {prefetch}")
        self.prefetch = int(prefetch)
        self._source = (_normalize_layer(layer) for layer in layers)
        self._iter: Iterator[LayerTriple] | None = None
        # extra teardown hooks (e.g. the process-transport consumer, whose
        # close() terminates the sidecar process deterministically)
        self._closers: list = []

    @classmethod
    def from_directory(
        cls,
        directory: str | os.PathLike,
        neurons: int,
        *,
        start: int = 0,
        prefetch: int = 2,
        use_cache: bool = True,
        mmap: bool = True,
        transport: str = THREAD,
    ) -> "LoadStage":
        """Stream a saved network directory, skipping ``start`` layers.

        Layers come from the fresh ``.npz`` sidecar (memory-mapped) or
        the per-layer TSVs; the skip is a free seek, not a parse (layer
        files are independent), which is what makes resuming from a
        checkpoint at layer ``k`` O(remaining layers).  ``transport``
        selects how ``prefetch > 0`` overlaps: a background thread
        (default) or a sidecar process (see the class docstring).
        """
        from repro.challenge.io import iter_challenge_layers

        if transport not in _TRANSPORTS:
            raise ValidationError(
                f"transport must be one of {_TRANSPORTS}, got {transport!r}"
            )
        if transport == PROCESS and prefetch > 0:
            try:
                source = _iter_process_prefetched(
                    str(directory),
                    neurons,
                    start=start,
                    use_cache=use_cache,
                    mmap=mmap,
                    depth=prefetch,
                )
                # the sidecar process already bounds the read-ahead; the
                # consuming generator runs in-line (prefetch=0 here)
                stage = cls(source, prefetch=0)
                stage._closers.append(source.close)
                return stage
            except (OSError, PermissionError, RuntimeError):
                pass  # restricted environment: fall back to the thread
        return cls(
            iter_challenge_layers(
                directory, neurons, start=start, use_cache=use_cache, mmap=mmap
            ),
            prefetch=prefetch,
        )

    def __enter__(self) -> "LoadStage":
        # lazy: repro.parallel.pipeline imports repro.challenge.inference at
        # module level, so a top-level import here would be circular
        from repro.parallel.pipeline import prefetched

        self._iter = prefetched(self._source, self.prefetch)
        return self

    def __exit__(self, *exc_info: object) -> None:
        close = getattr(self._iter, "close", None)
        if close is not None:
            close()
        self._iter = None
        for close in self._closers:
            close()

    def __iter__(self) -> Iterator[LayerTriple]:
        if self._iter is None:
            # not in a `with` block: serial iteration straight off the source
            return iter(self._source)
        return self._iter


# --------------------------------------------------------------------------- #
# compute stage
# --------------------------------------------------------------------------- #
class ComputeStage:
    """Advance the activation batch through one layer at a time.

    Owns the policy decision (dense SpMM vs fused sparse SpGEMM), the
    per-layer timing, and the stats accumulation; mutates the
    :class:`PipelineState` in place so the checkpoint stage always sees
    the complete post-layer state.
    """

    def __init__(
        self,
        *,
        threshold: float,
        backend: SparseBackend,
        policy: ActivationPolicy,
        record_timing: bool = True,
    ) -> None:
        self.threshold = float(threshold)
        self.backend = backend
        self.policy = policy
        self.record_timing = record_timing

    def advance(
        self,
        state: PipelineState,
        weight: CSRMatrix,
        weight_t: CSRMatrix | None,
        bias: np.ndarray,
    ) -> None:
        """Apply one layer.  ``weight_t`` may be ``None``: the dense path
        then transposes on demand."""
        self._advance(
            state,
            in_size=weight.shape[0],
            nnz=weight.nnz,
            any_positive_bias=bool(np.any(bias > 0.0)),
            step=lambda batch, target: batch.step(
                weight, weight_t, bias, self.threshold, self.backend
            ),
        )

    def _advance(
        self,
        state: PipelineState,
        *,
        in_size: int,
        nnz: int,
        any_positive_bias: bool,
        step,
    ) -> None:
        """The policy/timing/stats frame around one layer step.

        ``step(batch, target)`` performs the actual kernel work on the
        already-converted batch.  Subclasses (the sharded compute stage)
        swap the step while inheriting the policy decision, the sparse
        gate, and the bookkeeping unchanged -- which is what keeps their
        recorded stats identical to an unsharded run.
        """
        batch = state.batch
        if in_size != batch.neurons:
            raise ShapeError(
                f"layer expects {in_size} input neurons, activations have {batch.neurons}"
            )
        state.edges_per_sample += nnz
        target = self.policy.pick(density=batch.density(), elements=batch.elements)
        if target == SPARSE and (state.rows == 0 or any_positive_bias):
            if self.policy.mode == SPARSE and state.rows > 0:
                raise ValidationError(
                    "sparse activation policy requires non-positive biases "
                    "(a positive bias activates entries outside the sparse "
                    "product's pattern); use activations='dense' or 'auto'"
                )
            target = DENSE
        start = time.perf_counter() if self.record_timing else 0.0
        batch = batch.to_sparse() if target == SPARSE else batch.to_dense()
        batch = step(batch, target)
        if self.record_timing:
            state.layer_seconds.append(time.perf_counter() - start)
        nnz_out = batch.nnz()
        state.batch = batch
        state.layers_done += 1
        state.peak_nnz = max(state.peak_nnz, nnz_out)
        state.layer_modes.append(target)
        state.layer_density.append(nnz_out / batch.elements if batch.elements else 0.0)


# --------------------------------------------------------------------------- #
# checkpoint stage
# --------------------------------------------------------------------------- #
@dataclass
class PipelineCheckpoint:
    """A loaded on-disk checkpoint: resumable state plus run description."""

    state: PipelineState
    policy: ActivationPolicy
    threshold: float
    backend: str
    num_layers: int
    every: int
    completed: bool
    context: dict
    path: Path


def checkpoint_path(directory: str | os.PathLike) -> Path:
    """Location of the checkpoint file inside a checkpoint directory."""
    return Path(directory) / CHECKPOINT_NAME


def save_checkpoint(
    directory: str | os.PathLike,
    state: PipelineState,
    *,
    policy: ActivationPolicy,
    threshold: float,
    backend: str,
    num_layers: int,
    every: int = 0,
    context: dict | None = None,
) -> Path:
    """Atomically persist ``state`` (and the run description) to ``directory``.

    Write-then-rename: the new checkpoint replaces the old one only once
    it is fully on disk, so a crash *during* checkpointing leaves the
    previous checkpoint intact -- there is never a moment without a
    valid resume point.  ``context`` is a JSON-serializable dict the
    driver uses to make resume self-contained (network directory,
    neurons, input-batch seed, ...).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    batch = state.batch
    arrays: dict[str, np.ndarray] = {
        "layer_seconds": np.asarray(state.layer_seconds, dtype=np.float64),
        "layer_density": np.asarray(state.layer_density, dtype=np.float64),
        "layer_modes": np.asarray(state.layer_modes, dtype=np.str_),
    }
    if isinstance(batch, SparseActivations):
        arrays["batch_indptr"] = batch.matrix.indptr
        arrays["batch_indices"] = batch.matrix.indices
        arrays["batch_data"] = batch.matrix.data
    else:
        arrays["batch_array"] = batch.to_array()
    meta = {
        "version": CHECKPOINT_VERSION,
        "kind": batch.kind,
        "shape": [int(batch.rows), int(batch.neurons)],
        "rows": int(state.rows),
        "layers_done": int(state.layers_done),
        "peak_nnz": int(state.peak_nnz),
        "edges_per_sample": int(state.edges_per_sample),
        "threshold": float(threshold),
        "backend": str(backend),
        "num_layers": int(num_layers),
        "every": int(every),
        "completed": bool(state.layers_done >= num_layers),
        "policy": {
            "mode": policy.mode,
            "crossover_density": policy.crossover_density,
            "min_sparse_elements": policy.min_sparse_elements,
        },
        "context": dict(context or {}),
    }
    final = checkpoint_path(directory)
    temp = final.with_name(final.name + ".tmp.npz")
    try:
        with temp.open("wb") as handle:
            np.savez(handle, meta_json=np.asarray(json.dumps(meta)), **arrays)
        os.replace(temp, final)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return final


def load_checkpoint(directory: str | os.PathLike) -> PipelineCheckpoint:
    """Load a checkpoint written by :func:`save_checkpoint`."""
    path = checkpoint_path(directory)
    if not path.exists():
        raise SerializationError(f"no pipeline checkpoint found at {path}")
    try:
        with np.load(path, allow_pickle=False) as npz:
            meta = json.loads(str(npz["meta_json"][()]))
            if int(meta.get("version", -1)) != CHECKPOINT_VERSION:
                raise SerializationError(
                    f"{path}: unsupported checkpoint version {meta.get('version')!r}"
                )
            shape = tuple(int(v) for v in meta["shape"])
            if meta["kind"] == SPARSE:
                batch: ActivationBatch = SparseActivations(
                    CSRMatrix(
                        shape,
                        np.array(npz["batch_indptr"]),
                        np.array(npz["batch_indices"]),
                        np.array(npz["batch_data"]),
                    )
                )
            else:
                array = np.array(npz["batch_array"], dtype=np.float64)
                if array.shape != shape:
                    raise SerializationError(
                        f"{path}: activation array shape {array.shape} does not "
                        f"match recorded shape {shape}"
                    )
                batch = DenseActivations(array)
            state = PipelineState(
                batch=batch,
                rows=int(meta["rows"]),
                layers_done=int(meta["layers_done"]),
                layer_seconds=[float(v) for v in npz["layer_seconds"]],
                layer_modes=[str(v) for v in npz["layer_modes"]],
                layer_density=[float(v) for v in npz["layer_density"]],
                peak_nnz=int(meta["peak_nnz"]),
                edges_per_sample=int(meta["edges_per_sample"]),
            )
            policy_meta = meta["policy"]
            policy = ActivationPolicy(
                mode=str(policy_meta["mode"]),
                crossover_density=float(policy_meta["crossover_density"]),
                min_sparse_elements=int(policy_meta["min_sparse_elements"]),
            )
    except (KeyError, ValueError, OSError) as exc:
        raise SerializationError(f"{path}: malformed checkpoint: {exc}") from None
    return PipelineCheckpoint(
        state=state,
        policy=policy,
        threshold=float(meta["threshold"]),
        backend=str(meta["backend"]),
        num_layers=int(meta["num_layers"]),
        every=int(meta["every"]),
        completed=bool(meta["completed"]),
        context=dict(meta["context"]),
        path=path,
    )


class CheckpointStage:
    """Persist pipeline state every ``every`` layers (and on demand).

    ``every=0`` disables the periodic saves; :meth:`save` still works
    for final/stop-point checkpoints.  Saves are atomic (see
    :func:`save_checkpoint`) and idempotent per cursor -- the stage
    remembers the last cursor written so the final save after a loop
    that just checkpointed does not rewrite the same state.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        every: int = 0,
        policy: ActivationPolicy,
        threshold: float,
        backend: str,
        num_layers: int,
        context: dict | None = None,
    ) -> None:
        if every < 0:
            raise ValidationError(f"checkpoint_every must be >= 0, got {every}")
        self.directory = Path(directory)
        self.every = int(every)
        self.policy = policy
        self.threshold = float(threshold)
        self.backend = str(backend)
        self.num_layers = int(num_layers)
        self.context = dict(context or {})
        self._last_saved: int | None = None

    @property
    def path(self) -> Path:
        return checkpoint_path(self.directory)

    def save(self, state: PipelineState) -> Path:
        path = save_checkpoint(
            self.directory,
            state,
            policy=self.policy,
            threshold=self.threshold,
            backend=self.backend,
            num_layers=self.num_layers,
            every=self.every,
            context=self.context,
        )
        self._last_saved = state.layers_done
        return path

    def after_layer(self, state: PipelineState) -> Path | None:
        """Periodic hook: checkpoint when the cursor hits a multiple of ``every``."""
        if self.every and state.layers_done % self.every == 0:
            return self.save(state)
        return None

    def finalize(self, state: PipelineState) -> Path | None:
        """Persist the end-of-run (or stop-point) state unless already on disk."""
        if self._last_saved == state.layers_done:
            return None
        return self.save(state)


# --------------------------------------------------------------------------- #
# the pipeline runner -- the single recurrence implementation
# --------------------------------------------------------------------------- #
def run_pipeline(
    layers: Iterable[tuple] | LoadStage,
    state: PipelineState,
    *,
    threshold: float,
    backend: str | SparseBackend | None = None,
    policy: str | ActivationPolicy | None = None,
    record_timing: bool = True,
    prefetch: int = 0,
    checkpoint: CheckpointStage | None = None,
    max_layers: int | None = None,
    layout: "object | None" = None,
) -> PipelineState:
    """Drive ``state`` through ``layers``: load -> compute -> checkpoint.

    ``layers`` is a :class:`LoadStage` or any iterable it accepts
    (``prefetch`` applies only when a raw iterable is wrapped here).
    ``max_layers`` stops the run -- checkpointing the stop point -- once
    ``state.layers_done`` reaches it (a *staged* run: apply layers k..m,
    exit, resume later).  ``layout`` (a
    :class:`repro.parallel.sharding.ShardLayout`) computes each layer as
    column-range shards via the serial sharded stage -- bit-identical to
    the unsharded path; the process-transport pool lives in
    :func:`repro.parallel.sharding.run_sharded_challenge_pipeline`.  On
    any error or interrupt the state reached after the last completed
    layer is checkpointed best-effort, so a killed run resumes from where
    it actually stopped rather than the last periodic save.  Returns the
    advanced ``state`` (the same object, mutated).
    """
    load = layers if isinstance(layers, LoadStage) else LoadStage(layers, prefetch=prefetch)
    if layout is not None:
        # lazy: repro.parallel.sharding imports this module at its top level
        from repro.parallel.sharding import ShardedComputeStage

        compute: ComputeStage = ShardedComputeStage(
            threshold=threshold,
            backend=resolve_backend(backend),
            policy=ActivationPolicy.resolve(policy),
            record_timing=record_timing,
            layout=layout,
        )
    else:
        compute = ComputeStage(
            threshold=threshold,
            backend=resolve_backend(backend),
            policy=ActivationPolicy.resolve(policy),
            record_timing=record_timing,
        )
    if max_layers is not None and max_layers <= state.layers_done:
        raise ValidationError(
            f"max_layers ({max_layers}) must exceed the {state.layers_done} "
            "layers already applied"
        )
    try:
        with load:
            for weight, weight_t, bias in load:
                compute.advance(state, weight, weight_t, bias)
                if checkpoint is not None:
                    checkpoint.after_layer(state)
                if max_layers is not None and state.layers_done >= max_layers:
                    break
    except BaseException:
        if checkpoint is not None:
            try:
                checkpoint.finalize(state)
            except Exception:  # noqa: BLE001 - never mask the original error
                pass
        raise
    if checkpoint is not None:
        checkpoint.finalize(state)
    return state


# --------------------------------------------------------------------------- #
# disk-backed drivers (the `repro challenge run` path)
# --------------------------------------------------------------------------- #
@dataclass
class PipelineOutcome:
    """What a (possibly staged) disk-backed pipeline run produced.

    ``result`` reflects the state *reached*: for a completed run it is
    the final :class:`InferenceResult`; for a staged run stopped at
    ``--stop-after`` it is the partial state (categories are not final
    until ``completed`` is true).  ``shards`` is the tensor-parallel
    shard count the run executed with (``None`` for the unsharded path);
    ``shard_worker_rss_mb`` carries the per-worker peak RSS readings of a
    process-transport sharded run (``None`` elsewhere).
    """

    result: InferenceResult
    completed: bool
    layers_done: int
    num_layers: int
    resumed_from: int = 0
    checkpoint: Path | None = None
    shards: int | None = None
    shard_worker_rss_mb: list | None = None


def _outcome(
    state: PipelineState,
    *,
    backend: SparseBackend,
    policy: ActivationPolicy,
    num_layers: int,
    resumed_from: int,
    stage: CheckpointStage | None,
    shards: int | None = None,
    shard_worker_rss_mb: list | None = None,
) -> PipelineOutcome:
    return PipelineOutcome(
        result=state.result(backend=backend.name, policy=policy),
        completed=state.layers_done >= num_layers,
        layers_done=state.layers_done,
        num_layers=num_layers,
        resumed_from=resumed_from,
        checkpoint=stage.path if stage is not None else None,
        shards=shards,
        shard_worker_rss_mb=shard_worker_rss_mb,
    )


def run_challenge_pipeline(
    directory: str | os.PathLike,
    neurons: int,
    inputs: np.ndarray,
    *,
    backend: str | SparseBackend | None = None,
    activations: str | ActivationPolicy | None = None,
    prefetch: int = 2,
    transport: str = THREAD,
    checkpoint_dir: str | os.PathLike | None = None,
    checkpoint_every: int = 0,
    stop_after: int | None = None,
    use_cache: bool = True,
    record_timing: bool = True,
    context: dict | None = None,
    shards: int | None = None,
    shard_transport: str = PROCESS,
) -> PipelineOutcome:
    """Checkpointed, prefetch-overlapped inference over a saved network.

    Streams the network at ``directory`` through the staged pipeline:
    layers are read from the sidecar/TSVs on a background thread
    (``prefetch`` deep; 0 disables overlap), the activation batch is
    advanced by the active backend's kernels, and -- when
    ``checkpoint_dir`` is given -- the full state is atomically persisted
    every ``checkpoint_every`` layers plus at the end (or at
    ``stop_after``, for deliberately staged runs).  ``context`` entries
    (JSON-serializable) are stored in the checkpoint so
    :func:`resume_challenge_pipeline` is self-contained; the network
    directory, neurons, and streaming options are always recorded.

    ``shards=K`` runs tensor-parallel: every layer is partitioned into K
    contiguous output-column ranges, computed independently, and
    all-gathered -- bit-identical to the unsharded run (see
    :mod:`repro.parallel.sharding`).  With the default
    ``shard_transport="process"`` a pool of K worker processes each holds
    only its slice of every layer (~1/K of the model per process); where
    processes cannot be spawned it degrades to the in-process ``"serial"``
    transport automatically.  The shard count is recorded in the
    checkpoint so resume reconstructs (and guards) the layout.
    """
    from repro.challenge.io import read_challenge_meta

    directory = Path(directory)
    meta = read_challenge_meta(directory, neurons)
    impl = resolve_backend(backend)
    policy = ActivationPolicy.resolve(activations)
    if stop_after is not None and not 1 <= stop_after <= meta.num_layers:
        raise ValidationError(
            f"stop_after must be in 1..{meta.num_layers}, got {stop_after}"
        )
    if shard_transport not in _SHARD_TRANSPORTS:
        raise ValidationError(
            f"shard_transport must be one of {_SHARD_TRANSPORTS}, got {shard_transport!r}"
        )
    layout = None
    if shards is not None:
        from repro.parallel.sharding import ShardLayout

        layout = ShardLayout.balanced(meta.neurons, shards)
    state = PipelineState.initial(inputs, neurons=meta.neurons)
    stage = None
    if checkpoint_dir is not None:
        run_context = {
            "directory": str(directory.resolve()),
            "neurons": int(meta.neurons),
            "use_cache": bool(use_cache),
            "prefetch": int(prefetch),
            "transport": str(transport),
            **(context or {}),
        }
        if layout is not None:
            run_context["shards"] = layout.shards
            run_context["shard_transport"] = str(shard_transport)
        stage = CheckpointStage(
            checkpoint_dir,
            every=checkpoint_every,
            policy=policy,
            threshold=meta.threshold,
            backend=impl.name,
            num_layers=meta.num_layers,
            context=run_context,
        )
    elif checkpoint_every:
        raise ValidationError("checkpoint_every requires a checkpoint_dir")
    elif stop_after is not None:
        raise ValidationError(
            "stop_after without a checkpoint_dir would discard the partial run"
        )
    if layout is not None and shard_transport == PROCESS:
        from repro.parallel.sharding import run_sharded_challenge_pipeline

        try:
            state, worker_rss = run_sharded_challenge_pipeline(
                directory,
                meta.neurons,
                state,
                layout=layout,
                threshold=meta.threshold,
                backend=impl,
                policy=policy,
                record_timing=record_timing,
                checkpoint=stage,
                max_layers=stop_after,
                use_cache=use_cache,
            )
            return _outcome(
                state,
                backend=impl,
                policy=policy,
                num_layers=meta.num_layers,
                resumed_from=0,
                stage=stage,
                shards=layout.shards,
                shard_worker_rss_mb=worker_rss,
            )
        except (OSError, PermissionError, RuntimeError):
            if state.layers_done:
                raise  # partially advanced: a serial redo would double-apply
            # restricted environment: fall back to the serial transport
    load = LoadStage.from_directory(
        directory,
        meta.neurons,
        start=0,
        prefetch=prefetch,
        use_cache=use_cache,
        transport=transport,
    )
    state = run_pipeline(
        load,
        state,
        threshold=meta.threshold,
        backend=impl,
        policy=policy,
        record_timing=record_timing,
        checkpoint=stage,
        max_layers=stop_after,
        layout=layout,
    )
    return _outcome(
        state,
        backend=impl,
        policy=policy,
        num_layers=meta.num_layers,
        resumed_from=0,
        stage=stage,
        shards=None if layout is None else layout.shards,
    )


def resume_challenge_pipeline(
    checkpoint_dir: str | os.PathLike,
    *,
    backend: str | SparseBackend | None = None,
    prefetch: int | None = None,
    transport: str | None = None,
    stop_after: int | None = None,
    use_cache: bool | None = None,
    record_timing: bool = True,
    shards: int | None = None,
    shard_transport: str | None = None,
) -> PipelineOutcome:
    """Continue an interrupted run from its on-disk checkpoint.

    Everything needed -- network directory, neurons, threshold, policy,
    backend, streaming options -- comes from the checkpoint itself;
    keyword overrides apply only where given (the backend may differ:
    the recurrence is backend-agnostic, so resuming under another kernel
    set still yields bit-identical categories).  Layers already applied
    are *seeked past*, never re-read.  Resuming a completed checkpoint
    is a no-op returning the stored final state.

    A sharded checkpoint records its ``--shards`` count.  By default the
    resume reuses it; an explicit ``shards`` must either match or be
    ``1`` -- dropping to unsharded is always safe because the
    checkpointed activation batch is layout-independent, while resuming
    under any *other* layout is refused loudly rather than silently
    producing a layout chimera.
    """
    ckpt = load_checkpoint(checkpoint_dir)
    impl = resolve_backend(backend if backend is not None else ckpt.backend)
    directory = ckpt.context.get("directory")
    neurons = ckpt.context.get("neurons")
    if directory is None or neurons is None:
        raise SerializationError(
            f"{ckpt.path}: checkpoint context lacks the network directory/neurons "
            "needed to resume"
        )
    recorded = ckpt.context.get("shards")
    recorded_k = int(recorded) if recorded is not None else 1
    if shards is None:
        effective_shards = int(recorded) if recorded is not None else None
    elif shards in (recorded_k, 1):
        effective_shards = int(shards)
    else:
        raise ValidationError(
            f"checkpoint at {ckpt.path} was written with --shards {recorded_k}; "
            f"resume with --shards {recorded_k} (the recorded layout) or "
            f"--shards 1 (unsharded -- always safe), not --shards {shards}"
        )
    layout = None
    if effective_shards is not None:
        from repro.parallel.sharding import ShardLayout

        layout = ShardLayout.balanced(int(neurons), effective_shards)
    effective_transport = str(
        shard_transport
        if shard_transport is not None
        else ckpt.context.get("shard_transport", PROCESS)
    )
    if effective_transport not in _SHARD_TRANSPORTS:
        raise ValidationError(
            f"shard_transport must be one of {_SHARD_TRANSPORTS}, "
            f"got {effective_transport!r}"
        )
    context = dict(ckpt.context)
    if layout is not None:
        context["shards"] = layout.shards
        context["shard_transport"] = effective_transport
    else:
        context.pop("shards", None)
        context.pop("shard_transport", None)
    stage = CheckpointStage(
        checkpoint_dir,
        every=ckpt.every,
        policy=ckpt.policy,
        threshold=ckpt.threshold,
        backend=impl.name,
        num_layers=ckpt.num_layers,
        context=context,
    )
    resumed_from = ckpt.state.layers_done
    if ckpt.completed or resumed_from >= ckpt.num_layers:
        return _outcome(
            ckpt.state,
            backend=impl,
            policy=ckpt.policy,
            num_layers=ckpt.num_layers,
            resumed_from=resumed_from,
            stage=stage,
            shards=None if layout is None else layout.shards,
        )
    if stop_after is not None and stop_after <= resumed_from:
        raise ValidationError(
            f"stop_after ({stop_after}) must exceed the {resumed_from} layers "
            "already checkpointed"
        )
    if layout is not None and effective_transport == PROCESS:
        from repro.parallel.sharding import run_sharded_challenge_pipeline

        state = ckpt.state
        try:
            state, worker_rss = run_sharded_challenge_pipeline(
                directory,
                int(neurons),
                state,
                layout=layout,
                threshold=ckpt.threshold,
                backend=impl,
                policy=ckpt.policy,
                record_timing=record_timing,
                checkpoint=stage,
                max_layers=stop_after,
                use_cache=bool(
                    use_cache
                    if use_cache is not None
                    else ckpt.context.get("use_cache", True)
                ),
            )
            return _outcome(
                state,
                backend=impl,
                policy=ckpt.policy,
                num_layers=ckpt.num_layers,
                resumed_from=resumed_from,
                stage=stage,
                shards=layout.shards,
                shard_worker_rss_mb=worker_rss,
            )
        except (OSError, PermissionError, RuntimeError):
            if state.layers_done != resumed_from:
                raise  # partially advanced: a serial redo would double-apply
            # restricted environment: fall back to the serial transport
    load = LoadStage.from_directory(
        directory,
        int(neurons),
        start=resumed_from,
        prefetch=int(
            prefetch if prefetch is not None else ckpt.context.get("prefetch", 2)
        ),
        use_cache=bool(
            use_cache if use_cache is not None else ckpt.context.get("use_cache", True)
        ),
        transport=str(
            transport if transport is not None else ckpt.context.get("transport", THREAD)
        ),
    )
    state = run_pipeline(
        load,
        ckpt.state,
        threshold=ckpt.threshold,
        backend=impl,
        policy=ckpt.policy,
        record_timing=record_timing,
        checkpoint=stage,
        max_layers=stop_after,
        layout=layout,
    )
    return _outcome(
        state,
        backend=impl,
        policy=ckpt.policy,
        num_layers=ckpt.num_layers,
        resumed_from=resumed_from,
        stage=stage,
        shards=None if layout is None else layout.shards,
    )
