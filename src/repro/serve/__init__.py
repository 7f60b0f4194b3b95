"""Serve-style inference: a long-lived engine behind request batching.

The serving subsystem keeps one challenge network resident
(:class:`~repro.serve.engine.ServingEngine`: weights + precomputed
transposes loaded and prepared for the backend once) and answers many
concurrent clients by coalescing their requests into micro-batches
(:class:`~repro.serve.batcher.MicroBatcher`: a free worker takes
whatever is queued at once; requests that arrive while every worker is
busy ride the next batch) -- one
:func:`repro.challenge.pipeline.run_pipeline` step per batch, rows
scattered back per request bit-identically to single-shot runs.  The
asyncio front end (:class:`~repro.serve.app.ServeApp`) speaks a
newline-delimited JSON protocol (:mod:`repro.serve.protocol`);
:class:`~repro.serve.client.ServeClient` /
:func:`~repro.serve.client.bench_serve` are the bundled client and load
generator.  CLI: ``repro challenge serve`` / ``repro challenge
bench-serve``.

Scale-out (PR 7): the batcher runs ``workers`` threads against the one
queue (engine steps in parallel, results still bit-identical);
:mod:`repro.serve.balancer` forks shared-nothing process replicas behind
an asyncio load balancer speaking the same protocol (``--replicas K``);
:class:`~repro.serve.controller.AdaptiveBatchController` retunes
``max_batch`` from the live batch sizes and queue backlog
(``--adaptive-batch``); and :func:`~repro.serve.client.saturation_sweep`
locates the knee of the throughput/latency curve
(``bench-serve --sweep``).

Resilience (PR 8): the fleet is self-healing.  The balancer actively
health-checks replicas (:mod:`repro.serve.health` holds the
FakeClock-testable decision logic), ejects one after consecutive
failures, retries in-flight requests lost to a dead connection on
another replica with capped exponential backoff (exactly-once,
bit-identical -- the recurrence is stateless per request), and the
:class:`~repro.serve.balancer.FleetSupervisor` restarts crashed replica
processes (``--max-restarts``) and drives zero-drop rolling restarts
via ``drain``.
"""

from repro.serve.app import (
    ServeApp,
    ServerHandle,
    serve_in_background,
    serve_worker_count,
)
from repro.serve.balancer import (
    BalancerHandle,
    FleetHandle,
    FleetSupervisor,
    LoadBalancer,
    ReplicaFleet,
    ReplicaProcess,
    aggregate_stats,
    serve_balancer_in_background,
    serve_fleet_in_background,
)
from repro.serve.batcher import (
    BatcherStats,
    EngineStep,
    MicroBatcher,
    PendingRequest,
    RequestQueue,
    RequestStats,
    ServeResult,
)
from repro.serve.client import ServeClient, bench_serve, saturation_sweep
from repro.serve.controller import AdaptiveBatchController
from repro.serve.engine import ServingEngine
from repro.serve.health import (
    HealthMonitor,
    HealthPolicy,
    ReplicaHealth,
    backoff_delays,
)

__all__ = [
    "AdaptiveBatchController",
    "BalancerHandle",
    "BatcherStats",
    "EngineStep",
    "FleetHandle",
    "FleetSupervisor",
    "HealthMonitor",
    "HealthPolicy",
    "LoadBalancer",
    "ReplicaHealth",
    "MicroBatcher",
    "PendingRequest",
    "ReplicaFleet",
    "ReplicaProcess",
    "RequestQueue",
    "RequestStats",
    "ServeApp",
    "ServeClient",
    "ServeResult",
    "ServerHandle",
    "ServingEngine",
    "aggregate_stats",
    "backoff_delays",
    "bench_serve",
    "saturation_sweep",
    "serve_balancer_in_background",
    "serve_fleet_in_background",
    "serve_in_background",
    "serve_worker_count",
]
