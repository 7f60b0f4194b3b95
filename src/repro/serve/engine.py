"""A resident challenge network ready for repeated serve-side batch steps.

The streaming pipeline (:mod:`repro.challenge.pipeline`) re-reads layers
per run because one official-scale pass dwarfs the load cost.  A server
inverts that trade-off: it answers thousands of small requests against
one network, so :class:`ServingEngine` pays the load exactly once --
weights streamed in via :class:`repro.challenge.pipeline.LoadStage` /
:func:`repro.challenge.io.iter_challenge_layers`, per-layer transposes
precomputed with the bound backend, and every matrix a step reads put in
the backend's kernel-ready form (:func:`repro.sparse.ops.prepare`) --
and every request batch then runs
:func:`repro.challenge.pipeline.run_pipeline` over the resident triples
with zero I/O.

Construction paths:

* :meth:`ServingEngine.from_directory` -- a saved network directory (the
  ``repro challenge serve --dir`` path; prefetch overlaps the one-time
  load);
* :meth:`ServingEngine.from_network` -- an in-memory
  :class:`~repro.challenge.generator.ChallengeNetwork` (tests, examples,
  benchmarks);
* :meth:`ServingEngine.from_checkpoint` -- a *warm restart*: a
  :class:`repro.challenge.pipeline.CheckpointStage` checkpoint records
  the network directory, neurons, threshold, backend, and activation
  policy in its context, so a restarted server process recovers its full
  configuration from the checkpoint directory alone
  (``repro challenge serve --warm-start CKPT_DIR``).
"""

from __future__ import annotations

import os

import numpy as np

from repro.backends import resolve_backend
from repro.backends.base import SparseBackend
from repro.challenge.generator import ChallengeNetwork
from repro.challenge.inference import ActivationPolicy
from repro.errors import ShapeError
from repro.serve.batcher import EngineStep
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import prepare


class ServingEngine:
    """Resident ``(weight, weight_t, bias)`` triples + one-step recurrence.

    ``step`` is the :class:`repro.serve.batcher.MicroBatcher` hook: one
    full-recurrence pass over a stacked ``(rows, neurons)`` batch.  The
    recurrence is row-independent, so results scatter back per request
    bit-identically to single-shot runs (the serve test layer's core
    invariant).
    """

    def __init__(
        self,
        layers: list[tuple[CSRMatrix, np.ndarray]],
        *,
        neurons: int,
        threshold: float,
        backend: str | SparseBackend | None = None,
        activations: str | ActivationPolicy | None = None,
        source: str = "in-memory",
        shards: int | None = None,
    ) -> None:
        self.backend = resolve_backend(backend)
        self.policy = ActivationPolicy.resolve(activations)
        self.neurons = int(neurons)
        self.threshold = float(threshold)
        self.source = source
        self.layout = None
        if shards is not None:
            from repro.parallel.sharding import ShardLayout

            self.layout = ShardLayout.balanced(self.neurons, shards)

        def resident(weight: CSRMatrix) -> tuple[CSRMatrix, CSRMatrix]:
            # pay the transposes and the backend handles once; the request
            # hot loop never transposes or re-wraps a weight
            return (
                prepare(weight, backend=self.backend),
                prepare(self.backend.transpose(weight), backend=self.backend),
            )

        if self.layout is None:
            self.layers = tuple(
                (*resident(weight), np.asarray(bias, dtype=np.float64))
                for weight, bias in layers
            )
            self.shard_layers = ()
            self.edges_per_sample = int(sum(w.nnz for w, _, _ in self.layers))
        else:
            # resident column slices only -- the full weights (and a full
            # transpose) are never kept, so K sharded replicas split the
            # model footprint instead of multiplying it.  Per-shard
            # transposes equal row slices of the full transpose (canonical
            # CSR is unique), so steps stay bit-identical to unsharded.
            import dataclasses

            from repro.parallel.sharding import shard_layer

            self.layers = ()
            sharded = []
            for weight, bias in layers:
                sliced = shard_layer(
                    weight, None, np.asarray(bias, dtype=np.float64), self.layout
                )
                sharded.append(
                    dataclasses.replace(
                        sliced,
                        shards=tuple(
                            (*resident(w), b) for w, _, b in sliced.shards
                        ),
                    )
                )
            self.shard_layers = tuple(sharded)
            self.edges_per_sample = int(sum(s.nnz for s in self.shard_layers))

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_directory(
        cls,
        directory: str | os.PathLike,
        neurons: int,
        *,
        backend: str | SparseBackend | None = None,
        activations: str | ActivationPolicy | None = None,
        use_cache: bool = True,
        prefetch: int = 2,
        shards: int | None = None,
    ) -> "ServingEngine":
        """Load a saved network directory resident, once, with prefetch overlap."""
        from repro.challenge.io import read_challenge_meta
        from repro.challenge.pipeline import LoadStage

        meta = read_challenge_meta(directory, neurons)
        with LoadStage.from_directory(
            directory, meta.neurons, prefetch=prefetch, use_cache=use_cache
        ) as load:
            layers = [(weight, bias) for weight, _, bias in load]
        return cls(
            layers,
            neurons=meta.neurons,
            threshold=meta.threshold,
            backend=backend,
            activations=activations,
            source=str(directory),
            shards=shards,
        )

    @classmethod
    def from_network(
        cls,
        network: ChallengeNetwork,
        *,
        backend: str | SparseBackend | None = None,
        activations: str | ActivationPolicy | None = None,
        shards: int | None = None,
    ) -> "ServingEngine":
        return cls(
            list(zip(network.weights, network.biases)),
            neurons=network.neurons,
            threshold=network.threshold,
            backend=backend,
            activations=activations,
            shards=shards,
        )

    @classmethod
    def from_checkpoint(
        cls,
        checkpoint_dir: str | os.PathLike,
        *,
        backend: str | SparseBackend | None = None,
        activations: str | ActivationPolicy | None = None,
        use_cache: bool = True,
        prefetch: int = 2,
        shards: int | None = None,
    ) -> "ServingEngine":
        """Warm restart: recover the full serve configuration from a checkpoint.

        The checkpoint's context names the network directory and neurons;
        its recorded backend, activation policy, and shard count become
        the engine's defaults unless explicitly overridden.
        """
        from repro.challenge.pipeline import load_checkpoint
        from repro.errors import SerializationError

        ckpt = load_checkpoint(checkpoint_dir)
        directory = ckpt.context.get("directory")
        neurons = ckpt.context.get("neurons")
        if directory is None or neurons is None:
            raise SerializationError(
                f"{ckpt.path}: checkpoint context lacks the network "
                "directory/neurons needed for a warm restart"
            )
        if shards is None:
            recorded = ckpt.context.get("shards")
            shards = int(recorded) if recorded is not None else None
        return cls.from_directory(
            directory,
            int(neurons),
            backend=backend if backend is not None else ckpt.backend,
            activations=activations if activations is not None else ckpt.policy,
            use_cache=use_cache,
            prefetch=prefetch,
            shards=shards,
        )

    # ------------------------------------------------------------------ #
    # the batch step
    # ------------------------------------------------------------------ #
    @property
    def num_layers(self) -> int:
        return len(self.layers) if self.layout is None else len(self.shard_layers)

    @property
    def shards(self) -> int:
        return 1 if self.layout is None else self.layout.shards

    def step(self, rows: np.ndarray) -> EngineStep:
        """Run the full recurrence over one stacked ``(rows, neurons)`` batch."""
        from repro.challenge.pipeline import PipelineState, run_pipeline

        y = np.asarray(rows, dtype=np.float64)
        if y.ndim != 2 or y.shape[1] != self.neurons:
            raise ShapeError(
                f"request rows must have shape (k, {self.neurons}), got {y.shape}"
            )
        if self.layout is not None:
            from repro.parallel.sharding import ShardedComputeStage

            state = PipelineState.initial(y)
            stage = ShardedComputeStage(
                threshold=self.threshold,
                backend=self.backend,
                policy=self.policy,
                record_timing=False,
                layout=self.layout,
            )
            for sharded in self.shard_layers:
                stage.advance_layer(state, sharded)
        else:
            state = run_pipeline(
                self.layers,
                PipelineState.initial(y),
                threshold=self.threshold,
                backend=self.backend,
                policy=self.policy,
                record_timing=False,
            )
        return EngineStep(
            activations=state.batch.to_array(),
            layer_modes=list(state.layer_modes),
        )

    def describe(self) -> dict:
        """The server-side metadata handed to clients by the ``meta`` op."""
        return {
            "neurons": self.neurons,
            "layers": self.num_layers,
            "threshold": self.threshold,
            "backend": self.backend.name,
            "activations": self.policy.mode,
            "edges_per_sample": self.edges_per_sample,
            "source": self.source,
            "shards": self.shards,
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ServingEngine({self.neurons} neurons x {self.num_layers} layers, "
            f"backend={self.backend.name!r}, activations={self.policy.mode!r})"
        )
