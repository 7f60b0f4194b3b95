"""Request coalescing: a bounded queue and a micro-batching worker.

The serving hot loop is one engine step per *micro-batch*: requests that
arrive while the previous batch computes are coalesced -- their row
blocks stacked into a single ``(rows, neurons)`` activation matrix --
and one :func:`repro.challenge.pipeline.run_pipeline` pass amortizes the
per-step overhead (policy decisions, kernel dispatch, Python layer loop)
over every waiting client.  Because the challenge recurrence is
row-independent (both the dense SpMM and the fused SpGEMM path compute
each activation row from that row alone), scattering the batch result
back into per-request slices is *bit-identical* to running each request
single-shot -- the property the serve test layer pins on every backend.

Pieces:

* :class:`PendingRequest` -- a submitted request: its rows, its identity,
  and a one-shot completion event carrying the :class:`ServeResult` (or
  the error) back to the submitting thread;
* :class:`RequestQueue` -- the thread-safe FIFO between front ends and
  the worker, with an eventful "something is waiting" signal and
  front-of-queue push-back (a request that would overflow the batch
  budget goes back unharmed, preserving arrival order);
* :class:`MicroBatcher` -- the worker pool: a worker takes the first
  queued request at once plus whatever else is already queued, up to
  ``max_batch`` rows, runs one engine step, and scatters the rows back.
  No timer holds a batch open: requests that arrive while every worker
  is busy are what forms the next batch.  With ``workers > 1`` several
  engine steps run concurrently against the *same* queue -- the
  recurrence is row-independent and the kernels release the GIL, so
  requests/second scales with cores while every per-request result
  stays bit-identical to a single-shot run (each batch is a disjoint
  slice of the queue; the stats counters are lock-protected against
  concurrent consumers).  All waiting goes through an injectable
  :class:`repro.utils.clock.Clock`, so tests drive the batching logic
  deterministically with a :class:`repro.utils.clock.FakeClock` and
  zero real sleeps (:meth:`MicroBatcher.run_once` with ``wait=False``).
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.errors import ServeError, ValidationError
from repro.utils.clock import Clock, SystemClock


class BatchController(Protocol):
    """What the batcher needs from a feedback controller.

    :class:`repro.serve.controller.AdaptiveBatchController` is the
    shipped implementation; the batcher only relies on this shape, so
    tests can plug in recording doubles.
    """

    def bind(self, batcher: "MicroBatcher") -> None:
        """Called once from ``MicroBatcher.__init__`` with its batcher."""
        ...  # pragma: no cover - protocol

    def observe(
        self,
        *,
        batch_rows: int,
        batch_requests: int,
        queue_wait_s: float,
        service_s: float,
        queue_depth: int,
    ) -> None:
        """One completed batch: shape + latency breakdown + backlog."""
        ...  # pragma: no cover - protocol

    def idle(self, *, queue_depth: int) -> None:
        """A worker found the queue empty and is about to park."""
        ...  # pragma: no cover - protocol


@dataclass
class RequestStats:
    """Per-request serving telemetry, returned alongside every result."""

    queue_wait_s: float = 0.0
    service_s: float = 0.0
    batch_rows: int = 0
    batch_requests: int = 0
    layer_modes: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "queue_wait_s": self.queue_wait_s,
            "service_s": self.service_s,
            "batch_rows": self.batch_rows,
            "batch_requests": self.batch_requests,
            "layer_modes": list(self.layer_modes),
        }


@dataclass
class ServeResult:
    """What one request gets back: its activation rows, its categories
    (request-local row indices with any positive output, the Graph
    Challenge convention), and the stats of the batch it rode in."""

    activations: np.ndarray
    categories: np.ndarray
    stats: RequestStats


class PendingRequest:
    """A submitted request waiting for (or holding) its result.

    The submitting thread blocks in :meth:`result`; the batcher worker
    completes the request exactly once via :meth:`_complete` /
    :meth:`_fail`.  ``request_id`` is caller-chosen (the wire protocol
    echoes it) with a process-unique fallback.
    """

    _ids = itertools.count(1)

    def __init__(self, rows: np.ndarray, request_id: str | None, enqueued_at: float) -> None:
        self.rows = rows
        self.request_id = request_id if request_id is not None else f"req-{next(self._ids)}"
        self.enqueued_at = enqueued_at
        self._event = threading.Event()
        self._result: ServeResult | None = None
        self._error: BaseException | None = None
        self._lock = threading.Lock()
        self._callbacks: list = []

    @property
    def num_rows(self) -> int:
        return int(self.rows.shape[0])

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> ServeResult:
        """Block until the batcher completes this request; re-raise its error."""
        if not self._event.wait(timeout):
            raise ServeError(
                f"request {self.request_id} not completed within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def add_done_callback(self, callback) -> None:
        """Run ``callback(self)`` once completed (immediately if already done).

        Callbacks fire on the *completing* thread (the batcher worker);
        async front ends use this to bridge completion into an event loop
        (``loop.call_soon_threadsafe``) instead of parking a blocking
        wait per request.
        """
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    # worker side ------------------------------------------------------- #
    def _finish(self) -> None:
        with self._lock:
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            try:
                callback(self)
            except Exception:  # noqa: BLE001 - callbacks must not kill the worker
                pass

    def _complete(self, result: ServeResult) -> None:
        self._result = result
        self._finish()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._finish()


class RequestQueue:
    """Thread-safe FIFO of :class:`PendingRequest` with an arrival event.

    ``available`` is set whenever the queue is non-empty, so the worker
    can park in ``clock.wait(queue.available, timeout)`` instead of
    polling.  :meth:`push_back` returns an item to the *front* (used when
    the next request does not fit the remaining batch budget), keeping
    arrival order intact.  Closing the queue refuses new work but leaves
    queued requests for the worker to drain.
    """

    def __init__(self) -> None:
        self._items: deque[PendingRequest] = deque()
        self._lock = threading.Lock()
        self._closed = False
        self.available = threading.Event()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, item: PendingRequest) -> None:
        with self._lock:
            if self._closed:
                raise ServeError("request queue is closed")
            self._items.append(item)
            self.available.set()

    def push_back(self, item: PendingRequest) -> None:
        """Return ``item`` to the front of the queue (batch-budget overflow)."""
        with self._lock:
            self._items.appendleft(item)
            self.available.set()

    def pop(self) -> PendingRequest | None:
        """Non-blocking pop; ``None`` when empty."""
        with self._lock:
            if not self._items:
                return None
            item = self._items.popleft()
            if not self._items:
                self.available.clear()
            return item

    def close(self) -> None:
        """Refuse new requests; wake any parked worker so it can drain."""
        with self._lock:
            self._closed = True
            # wake waiters even when empty: the worker must observe the
            # close rather than sleep out its full idle timeout
            self.available.set()


def _recent_summary(samples: list[tuple[int, int, float, float]]) -> dict:
    """Percentile summary of recent ``(rows, requests, queue_wait, service)``."""
    if not samples:
        return {"batches": 0}
    rows = np.asarray([s[0] for s in samples], dtype=np.float64)
    waits = np.asarray([s[2] for s in samples], dtype=np.float64)
    services = np.asarray([s[3] for s in samples], dtype=np.float64)
    return {
        "batches": len(samples),
        "mean_batch_rows": float(rows.mean()),
        "queue_wait_p50_ms": float(np.percentile(waits, 50)) * 1000.0,
        "queue_wait_p99_ms": float(np.percentile(waits, 99)) * 1000.0,
        "service_p50_ms": float(np.percentile(services, 50)) * 1000.0,
        "service_p99_ms": float(np.percentile(services, 99)) * 1000.0,
    }


@dataclass
class EngineStep:
    """What the batcher needs back from one engine step over a stacked batch."""

    activations: np.ndarray
    layer_modes: list[str] = field(default_factory=list)


@dataclass
class BatcherStats:
    """Aggregate batcher counters (served totals and batch-shape telemetry)."""

    requests: int = 0
    rows: int = 0
    batches: int = 0
    failures: int = 0
    max_batch_rows: int = 0
    total_queue_wait_s: float = 0.0
    total_service_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "rows": self.rows,
            "batches": self.batches,
            "failures": self.failures,
            "max_batch_rows": self.max_batch_rows,
            "mean_batch_rows": self.rows / self.batches if self.batches else 0.0,
            # queue-wait vs compute breakdown: totals *and* means, so a
            # stats reader (the adaptive controller, the saturation sweep)
            # can attribute end-to-end latency to queueing or the kernels
            "total_queue_wait_s": self.total_queue_wait_s,
            "total_service_s": self.total_service_s,
            "mean_queue_wait_s": (
                self.total_queue_wait_s / self.requests if self.requests else 0.0
            ),
            "mean_service_s": (
                self.total_service_s / self.requests if self.requests else 0.0
            ),
        }


class MicroBatcher:
    """Coalesce pending requests into one engine step per micro-batch.

    Parameters
    ----------
    step:
        The engine hook: ``step(stacked_rows) -> EngineStep`` runs the
        full layer recurrence over a ``(rows, neurons)`` float64 matrix
        (see :meth:`repro.serve.engine.ServingEngine.step`).
    max_batch:
        Row budget per engine step.  A batch closes as soon as adding the
        next queued request would exceed it (that request waits,
        unharmed, at the front of the queue); a single request larger
        than the budget runs alone -- requests are never split.
    clock:
        Time source for all waits (default :class:`SystemClock`); tests
        pass a :class:`repro.utils.clock.FakeClock` and drive
        :meth:`run_once` directly for fully deterministic batching.
    workers:
        How many worker threads :meth:`start` launches.  Each loops
        :meth:`run_once` against the shared queue, so up to ``workers``
        engine steps run concurrently (the kernels release the GIL).
        Per-request results are unaffected: every batch is a disjoint
        slice of the queue and the recurrence is row-independent.
    controller:
        Optional feedback controller (duck-typed like
        :class:`repro.serve.controller.AdaptiveBatchController`): after
        every batch the executing worker calls
        ``controller.observe(...)`` with the batch shape and latency
        breakdown, and idle workers call ``controller.idle(...)``; the
        controller may retune :attr:`max_batch` in response.

    The worker threads (:meth:`start`) loop :meth:`run_once`; embedders
    that want the batching semantics without a thread (property tests,
    benchmarks) call :meth:`run_once` themselves.
    """

    #: Batches whose shape/latency samples feed the live distributions
    #: (adaptive controller input, ``stats`` percentiles).
    RECENT_WINDOW = 256

    def __init__(
        self,
        step: Callable[[np.ndarray], EngineStep],
        *,
        max_batch: int = 64,
        clock: Clock | None = None,
        idle_wait_s: float = 0.05,
        workers: int = 1,
        controller: "BatchController | None" = None,
    ) -> None:
        if max_batch < 1:
            raise ValidationError(f"max_batch must be >= 1, got {max_batch}")
        if idle_wait_s <= 0:
            raise ValidationError(f"idle_wait_s must be > 0, got {idle_wait_s}")
        if workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        self._step = step
        self.max_batch = int(max_batch)
        self.idle_wait_s = float(idle_wait_s)
        self.workers = int(workers)
        self.clock: Clock = clock if clock is not None else SystemClock()
        self.queue = RequestQueue()
        self.stats = BatcherStats()
        self._stats_lock = threading.Lock()
        self._recent: deque[tuple[int, int, float, float]] = deque(
            maxlen=self.RECENT_WINDOW
        )
        self._threads: list[threading.Thread] = []
        self._live_workers = 0
        self._stopped = threading.Event()
        self._controller = controller
        if controller is not None:
            controller.bind(self)

    # ------------------------------------------------------------------ #
    # submission (front-end side)
    # ------------------------------------------------------------------ #
    def submit(self, rows: np.ndarray, *, request_id: str | None = None) -> PendingRequest:
        """Enqueue one request of ``(k, neurons)`` rows; returns its handle."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ValidationError(
                f"a request needs a 2-D (rows >= 1, neurons) matrix, got shape {rows.shape}"
            )
        pending = PendingRequest(rows, request_id, self.clock.monotonic())
        self.queue.put(pending)
        return pending

    # ------------------------------------------------------------------ #
    # the batching loop (worker side)
    # ------------------------------------------------------------------ #
    def _collect(self, *, wait: bool) -> list[PendingRequest] | None:
        """Gather the next micro-batch: the first queued request plus
        whatever is queued behind it, up to :attr:`max_batch` rows.

        Nothing waits for more work once a request is in hand, so a lone
        request on an idle batcher runs at once.  Returns ``None`` when
        there is nothing to do: immediately with ``wait=False``, or --
        for the worker loop -- once the queue is closed and drained.
        With ``wait=True`` an empty open queue parks on the arrival event
        in ``idle_wait_s`` slices.
        """
        while True:
            first = self.queue.pop()
            if first is not None:
                break
            if self.queue.closed or not wait:
                return None
            if self._controller is not None:
                self._controller.idle(queue_depth=0)
            self.clock.wait(self.queue.available, self.idle_wait_s)
        batch = [first]
        rows = first.num_rows
        while rows < self.max_batch:
            item = self.queue.pop()
            if item is None:
                break
            if rows + item.num_rows > self.max_batch:
                self.queue.push_back(item)
                break
            batch.append(item)
            rows += item.num_rows
        return batch

    def _execute(self, batch: list[PendingRequest]) -> None:
        """One engine step over the stacked batch, scattered back per request."""
        started = self.clock.monotonic()
        total_rows = sum(item.num_rows for item in batch)
        try:
            # stacking happens inside the failure guard: requests with
            # mismatched widths make np.concatenate itself raise, and that
            # must fail the batch, not kill the worker thread
            stacked = (
                batch[0].rows
                if len(batch) == 1
                else np.concatenate([item.rows for item in batch], axis=0)
            )
            outcome = self._step(stacked)
        except BaseException as exc:  # noqa: BLE001 - relayed per request
            with self._stats_lock:
                self.stats.failures += len(batch)
            for item in batch:
                item._fail(exc)
            return
        service_s = self.clock.monotonic() - started
        batch_queue_wait_s = sum(
            max(0.0, started - item.enqueued_at) for item in batch
        )
        # aggregate counters update BEFORE any request completes: a client
        # that just received its response must never read a stats snapshot
        # that does not count it yet.  With multiple workers this lock is
        # also what keeps the counters exact under concurrent batches.
        with self._stats_lock:
            self.stats.requests += len(batch)
            self.stats.rows += total_rows
            self.stats.batches += 1
            self.stats.max_batch_rows = max(self.stats.max_batch_rows, total_rows)
            self.stats.total_service_s += service_s * len(batch)
            self.stats.total_queue_wait_s += batch_queue_wait_s
            self._recent.append(
                (total_rows, len(batch), batch_queue_wait_s / len(batch), service_s)
            )
        if self._controller is not None:
            self._controller.observe(
                batch_rows=total_rows,
                batch_requests=len(batch),
                queue_wait_s=batch_queue_wait_s / len(batch),
                service_s=service_s,
                queue_depth=len(self.queue),
            )
        offset = 0
        for item in batch:
            rows = outcome.activations[offset : offset + item.num_rows]
            offset += item.num_rows
            stats = RequestStats(
                queue_wait_s=max(0.0, started - item.enqueued_at),
                service_s=service_s,
                batch_rows=total_rows,
                batch_requests=len(batch),
                layer_modes=list(outcome.layer_modes),
            )
            item._complete(
                ServeResult(
                    activations=rows,
                    # non-negative activations: a row categorizes iff any
                    # entry is positive, same as ActivationBatch.categories
                    categories=np.flatnonzero(rows.sum(axis=1) > 0),
                    stats=stats,
                )
            )

    def stats_dict(self) -> dict:
        """A consistent snapshot of the aggregate counters.

        Readers on other threads (the ``stats`` op) must come through
        here: workers update several counters per batch under
        ``_stats_lock``, and an unlocked ``stats.as_dict()`` could see a
        torn in-between state (rows counted, batches not yet).  Besides
        the lifetime totals the snapshot carries the *recent-window*
        latency distribution (per-batch queue-wait and service-time
        percentiles over the last :attr:`RECENT_WINDOW` batches) -- the
        signal the adaptive controller and the saturation sweep read to
        attribute latency to queueing vs compute."""
        with self._stats_lock:
            snapshot = self.stats.as_dict()
            recent = list(self._recent)
        snapshot["workers"] = self.workers
        snapshot["max_batch"] = self.max_batch
        snapshot["recent"] = _recent_summary(recent)
        return snapshot

    def run_once(self, *, wait: bool = True) -> bool:
        """Collect and execute one micro-batch.

        Returns ``False`` when nothing was processed: the queue was empty
        (``wait=False``) or closed and fully drained (the worker's exit
        condition).  This is the whole batching loop body -- the worker
        thread is just ``while run_once(): pass`` -- so deterministic
        tests can drive it directly.
        """
        batch = self._collect(wait=wait)
        if batch is None:
            return False
        self._execute(batch)
        return True

    def _worker(self) -> None:
        try:
            while self.run_once(wait=True):
                pass
        finally:
            # the LAST worker out flips the stopped event
            with self._stats_lock:
                self._live_workers -= 1
                if self._live_workers == 0:
                    self._stopped.set()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "MicroBatcher":
        """Launch the :attr:`workers` worker threads."""
        if self._threads:
            raise ServeError("batcher already started")
        self._live_workers = self.workers
        self._threads = [
            threading.Thread(
                target=self._worker, daemon=True, name=f"micro-batcher-{i}"
            )
            for i in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()
        return self

    def close(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting requests; drain (default) or fail what is queued.

        With ``drain=True`` every already-queued request is still served
        before the workers exit -- the clean-shutdown guarantee the
        stress tests pin.  With ``drain=False`` queued requests fail
        promptly with :class:`ServeError`.
        """
        self.queue.close()
        if not drain:
            while True:
                item = self.queue.pop()
                if item is None:
                    break
                item._fail(ServeError("batcher shut down before the request ran"))
        if self._threads:
            for thread in self._threads:
                thread.join(timeout=timeout)
                if thread.is_alive():  # pragma: no cover - defensive
                    raise ServeError(
                        f"batcher worker did not stop within {timeout}s"
                    )
            self._threads = []
        else:
            # no worker threads: drain in-line so embedded users get the
            # same "close completes the queue" semantics
            while self.run_once(wait=False):
                pass

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
