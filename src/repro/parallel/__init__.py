"""Parallel execution helpers.

Batch rows already parallelize in the serving stack (batcher worker
threads and process replicas, :mod:`repro.serve`); this subpackage
holds the other two pieces:

* :class:`Prefetcher` / :func:`prefetched` -- bounded background-thread
  producer/consumer, the overlap primitive of the staged streaming
  pipelines (:mod:`repro.challenge.pipeline`);
* :mod:`repro.parallel.sharding` -- tensor-parallel column sharding of
  the challenge recurrence (``repro challenge run --shards K``): shard
  layouts, CSR slice/all-gather primitives, the sharded compute stage,
  and the resident-shard worker pool, partitioned by
  :func:`balanced_chunk_sizes` / :func:`partition_ranges`.
"""

from repro.parallel.partition import balanced_chunk_sizes, partition_ranges
from repro.parallel.pipeline import Prefetcher, prefetched
from repro.parallel.sharding import (
    ShardedComputeStage,
    ShardedLayer,
    ShardLayout,
    ShardWorkerPool,
    hstack_csr,
    run_sharded_challenge_pipeline,
    shard_layer,
    slice_csr_columns,
    slice_csr_rows,
)

__all__ = [
    "partition_ranges",
    "balanced_chunk_sizes",
    "Prefetcher",
    "prefetched",
    "ShardLayout",
    "ShardedLayer",
    "ShardedComputeStage",
    "ShardWorkerPool",
    "shard_layer",
    "slice_csr_columns",
    "slice_csr_rows",
    "hstack_csr",
    "run_sharded_challenge_pipeline",
]
