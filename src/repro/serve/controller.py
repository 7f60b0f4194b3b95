"""Adaptive batching: a feedback loop over the live serve telemetry.

``max_batch`` is a latency/throughput dial that the operator of the
server had to set blind, once, for a traffic mix they could not know in
advance.  :class:`AdaptiveBatchController` closes the loop instead:
every completed batch reports its shape and backlog (:meth:`observe`),
idle workers report quiet periods (:meth:`idle`), and the controller
retunes the live batcher's row budget --

* **under load** (requests backed up behind the batch, or the row
  budget filled) it *grows* ``max_batch`` toward its cap so each engine
  step amortizes more of the queued requests;
* **when idle** it relaxes ``max_batch`` back toward its configured
  baseline.

The batcher holds no coalescing window: queued work is what forms a
batch, the adaptive batching Clipper (Crankshaw et al., NSDI 2017)
describes.  Growth is multiplicative and relaxation geometric, so the
reaction is fast on bursts and smooth on decay.  All timing goes through
the injectable :class:`repro.utils.clock.Clock`, so the convergence
behaviour is pinned by a deterministic :class:`FakeClock` test with zero
sleeps: a synthetic burst drives ``max_batch`` to its cap, a quiet spell
restores the baseline.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.errors import ValidationError
from repro.utils.clock import Clock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (batcher binds us)
    from repro.serve.batcher import MicroBatcher


class AdaptiveBatchController:
    """Tune a :class:`MicroBatcher`'s ``max_batch`` live.

    Parameters
    ----------
    max_batch_cap:
        Ceiling for the grown row budget (default ``4x`` the batcher's
        configured ``max_batch`` at :meth:`bind` time).
    grow:
        The multiplicative factor (> 1): under load the budget
        multiplies by ``grow``; relaxation divides it back down.
    interval_s:
        Minimum (clock) time between adjustments, so one burst's worth
        of batches counts as one load signal instead of slamming the
        budget to its cap in a single micro-batch flight.  ``0``
        adjusts on every signal (deterministic tests).
    clock:
        Time source for the adjustment interval; defaults to the bound
        batcher's clock, so a ``FakeClock`` batcher gets a fake-clocked
        controller for free.
    """

    def __init__(
        self,
        *,
        max_batch_cap: int | None = None,
        grow: float = 1.5,
        interval_s: float = 0.05,
        clock: Clock | None = None,
    ) -> None:
        if grow <= 1:
            raise ValidationError(f"grow must be > 1, got {grow}")
        if interval_s < 0:
            raise ValidationError(f"interval_s must be >= 0, got {interval_s}")
        if max_batch_cap is not None and max_batch_cap < 1:
            raise ValidationError(f"max_batch_cap must be >= 1, got {max_batch_cap}")
        self.grow = float(grow)
        self.interval_s = float(interval_s)
        self._cap_arg = max_batch_cap
        self._clock = clock
        self._lock = threading.Lock()
        self._batcher: "MicroBatcher | None" = None
        self._last_adjust = -float("inf")
        self.grown = 0
        self.relaxed = 0

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def bind(self, batcher: "MicroBatcher") -> None:
        """Adopt ``batcher``: its configured limits become the baselines."""
        with self._lock:
            if self._batcher is not None:
                raise ValidationError("controller is already bound to a batcher")
            self._batcher = batcher
            self.base_max_batch = batcher.max_batch
            self.max_batch_cap = (
                self._cap_arg if self._cap_arg is not None else 4 * batcher.max_batch
            )
            if self._clock is None:
                self._clock = batcher.clock

    # ------------------------------------------------------------------ #
    # the feedback signals (called from batcher worker threads)
    # ------------------------------------------------------------------ #
    def observe(
        self,
        *,
        batch_rows: int,
        batch_requests: int,
        queue_wait_s: float,
        service_s: float,
        queue_depth: int,
    ) -> None:
        """One completed batch: decide loaded vs idle and adjust."""
        with self._lock:
            batcher = self._batcher
            if batcher is None:  # pragma: no cover - defensive
                return
            # the next batch is already waiting, or the budget filled
            if queue_depth > 0 or batch_rows >= batcher.max_batch:
                self._grow(batcher)
            elif batch_rows <= max(1, batcher.max_batch // 2):
                self._relax(batcher)

    def idle(self, *, queue_depth: int) -> None:
        """A worker found nothing to do: walk the budget back to baseline."""
        with self._lock:
            if self._batcher is not None:
                self._relax(self._batcher)

    # ------------------------------------------------------------------ #
    # adjustment (lock held)
    # ------------------------------------------------------------------ #
    def _due(self) -> bool:
        now = self._clock.monotonic()
        if now - self._last_adjust < self.interval_s:
            return False
        self._last_adjust = now
        return True

    def _grow(self, batcher: "MicroBatcher") -> None:
        if batcher.max_batch >= self.max_batch_cap or not self._due():
            return
        batcher.max_batch = min(
            self.max_batch_cap,
            max(batcher.max_batch + 1, int(batcher.max_batch * self.grow)),
        )
        self.grown += 1

    def _relax(self, batcher: "MicroBatcher") -> None:
        if batcher.max_batch == self.base_max_batch or not self._due():
            return
        batcher.max_batch = max(
            self.base_max_batch, int(batcher.max_batch / self.grow)
        )
        self.relaxed += 1

    # ------------------------------------------------------------------ #
    # introspection (the stats/meta planes)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Live controller state for the ``stats`` response."""
        with self._lock:
            batcher = self._batcher
            return {
                "max_batch": batcher.max_batch if batcher else None,
                "base_max_batch": getattr(self, "base_max_batch", None),
                "max_batch_cap": getattr(self, "max_batch_cap", None),
                "grown": self.grown,
                "relaxed": self.relaxed,
            }
