"""Injectable time sources for timing-sensitive components.

Threaded pipeline pieces -- the bounded :class:`repro.parallel.pipeline.Prefetcher`,
the :class:`repro.serve.batcher.MicroBatcher` -- need to *wait*: for a
queue slot, for the next request, for a micro-batch window to close.
Hard-coding ``time.monotonic()`` / ``Event.wait(timeout)`` into those
waits makes their tests timing-sensitive (every assertion races a real
clock), so the components take a :class:`Clock` instead:

* :class:`SystemClock` -- the production implementation, a thin veneer
  over :func:`time.monotonic` and :meth:`threading.Event.wait`;
* :class:`FakeClock` -- a deterministic test double whose ``wait`` never
  blocks: it observes an already-set event immediately, otherwise
  advances *virtual* time by the full timeout and reports the timeout.
  Tests drive components single-threaded (no worker thread, no sleeps)
  and assert on the exact sequence of waits the component performed.

``FakeClock`` is for single-threaded deterministic tests only: its
``wait`` cannot park a thread, so a component that spins "wait until the
event is set" would busy-loop under it.  Components therefore expose
non-blocking entry points (e.g. ``MicroBatcher.run_once(wait=False)``)
for fake-clock drivers.
"""

from __future__ import annotations

import threading
import time
from typing import Protocol


class Clock(Protocol):
    """What a timing-sensitive component needs from a time source."""

    def monotonic(self) -> float:
        """Current time in seconds; only differences are meaningful."""
        ...  # pragma: no cover - protocol

    def wait(self, event: threading.Event, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for ``event``; True if it is set."""
        ...  # pragma: no cover - protocol


class SystemClock:
    """The real wall clock: ``time.monotonic`` + blocking ``Event.wait``."""

    def monotonic(self) -> float:
        return time.monotonic()

    def wait(self, event: threading.Event, timeout: float) -> bool:
        return event.wait(timeout)


class FakeClock:
    """Deterministic virtual clock for single-threaded tests.

    ``wait`` never parks the calling thread: an already-set event is
    observed at once (virtual time does not move), otherwise virtual
    time jumps forward by the full ``timeout`` and the wait reports a
    timeout -- exactly the two outcomes a real timed wait can have,
    minus the nondeterministic in-between.  Every wait's timeout is
    recorded in :attr:`waits` so tests can assert on the component's
    waiting behaviour (e.g. "a lone request on an idle batcher ran
    without any wait").
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self.waits: list[float] = []

    def monotonic(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        """Move virtual time forward (a test standing in for elapsed work)."""
        if seconds < 0:
            raise ValueError(f"cannot advance a clock backwards ({seconds})")
        self._now += float(seconds)

    def wait(self, event: threading.Event, timeout: float) -> bool:
        self.waits.append(float(timeout))
        if event.is_set():
            return True
        self._now += max(0.0, float(timeout))
        return False
