"""Bounded producer/consumer prefetch for the staged streaming pipelines.

:class:`Prefetcher` / :func:`prefetched` iterate any source on a
background thread through a bounded queue, so a consumer's compute
overlaps the producer's I/O (layer ``l+1`` is parsed from disk while
layer ``l`` multiplies).  This is what
:class:`repro.challenge.pipeline.LoadStage` builds on.
"""

from __future__ import annotations

import queue
import threading
from collections.abc import Iterable, Iterator
from typing import Any, TypeVar

from repro.errors import ValidationError

T = TypeVar("T")

_ITEM = "item"
_DONE = "done"
_ERROR = "error"


class Prefetcher(Iterator[T]):
    """Bounded background-thread producer over any iterable.

    A daemon thread pulls items from ``source`` into a queue holding at
    most ``depth`` items, so the consumer's compute overlaps the
    producer's work (disk reads, TSV parsing, layer generation) without
    ever buffering more than ``depth`` items ahead.  Exceptions raised
    by the source are re-raised in the consumer at the point of
    iteration, preserving the serial path's error behaviour.

    Use as a context manager (or call :meth:`close`) so an early-exiting
    consumer stops the producer promptly -- even when the queue is full,
    the producer checks for shutdown between bounded-timeout puts.
    Items already buffered when the source fails are still delivered
    before the error surfaces, exactly as serial iteration would.

    ``poll_interval`` is how often the blocked side re-checks for
    shutdown (producer) or a dead producer (consumer).  It exists for
    tests: timing-sensitive suites inject a small interval so shutdown
    paths resolve in milliseconds instead of racing the default, and
    event-driven tests never need ``time.sleep`` calibration.
    """

    def __init__(
        self, source: Iterable[T], *, depth: int = 2, poll_interval: float = 0.05
    ) -> None:
        if depth < 1:
            raise ValidationError(f"prefetch depth must be >= 1, got {depth}")
        if poll_interval <= 0:
            raise ValidationError(f"poll_interval must be > 0, got {poll_interval}")
        self._poll_interval = float(poll_interval)
        self._queue: queue.Queue = queue.Queue(maxsize=depth)
        self._stop = threading.Event()
        self._finished = False
        self._thread = threading.Thread(
            target=self._produce, args=(iter(source),), daemon=True, name="prefetcher"
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    def _put(self, message: tuple) -> None:
        # bounded-timeout put: a closed consumer never drains the queue,
        # so an unconditional put() could block the producer forever
        while not self._stop.is_set():
            try:
                self._queue.put(message, timeout=self._poll_interval)
                return
            except queue.Full:
                continue

    def _produce(self, source: Iterator[T]) -> None:
        try:
            for item in source:
                if self._stop.is_set():
                    return
                self._put((_ITEM, item))
            self._put((_DONE, None))
        except BaseException as exc:  # noqa: BLE001 - relayed to the consumer
            self._put((_ERROR, exc))

    # ------------------------------------------------------------------ #
    def __iter__(self) -> "Prefetcher[T]":
        return self

    def __next__(self) -> T:
        if self._finished:
            raise StopIteration
        while True:
            try:
                kind, payload = self._queue.get(timeout=self._poll_interval)
            except queue.Empty:
                if not self._thread.is_alive() and self._queue.empty():
                    # producer died without posting (should not happen;
                    # defensive against a killed thread)
                    self._finished = True
                    raise StopIteration from None
                continue
            if kind == _ITEM:
                return payload
            self._finished = True
            if kind == _ERROR:
                raise payload
            raise StopIteration

    def close(self) -> None:
        """Stop the producer thread and discard any buffered items."""
        self._finished = True
        self._stop.set()
        # drain so a producer blocked on a full queue can observe the stop
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                break
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "Prefetcher[T]":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def prefetched(source: Iterable[T], depth: int) -> Iterator[T]:
    """``Prefetcher(source, depth)`` when ``depth > 0``, else plain iteration.

    The uniform entry point for optional overlap: ``depth=0`` keeps the
    caller single-threaded (bit-identical scheduling, no queue), any
    positive depth bounds the read-ahead.
    """
    if depth < 0:
        raise ValidationError(f"prefetch depth must be >= 0, got {depth}")
    if depth == 0:
        return iter(source)
    return Prefetcher(source, depth=depth)
