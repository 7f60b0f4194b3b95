"""Property-based tests for the serve layer's coalescing and health invariants.

The headline serve guarantee, pinned here with hypothesis over arbitrary
request interleavings: however arrivals coalesce into micro-batches,

* every request completes exactly once (no drops, no duplicates),
* its rows come back in order (row identity survives the scatter), and
* the per-request results are **bit-identical** to running that request
  single-shot through :meth:`InferenceEngine.run` -- on every registered
  backend, under both forced activation policies.

The single-consumer tests run deterministically: a :class:`FakeClock`
replaces timed waits and the tests drive :meth:`MicroBatcher.run_once`
directly, so an "interleaving" is an explicit schedule of submit/step
actions, not a thread race.  The worker-pool suite then re-checks the
same exactly-once + bit-identity guarantees with 1-4 *real* worker
threads racing on the queue -- the interleaving there is whatever the
scheduler produces, which is the point.

PR 8 adds the resilience decision layer: :class:`HealthMonitor` and the
backoff schedule are driven here entirely by :class:`FakeClock` -- zero
sleeps -- including a hypothesis sweep of random fault schedules checked
against an independent model of the ejection state machine, plus
balancer unit tests (scripted pings, scripted forward failures) that pin
the eject/re-admit and retry/backoff behavior without any sockets.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import available_backends
from repro.challenge.generator import (
    challenge_input_batch,
    generate_challenge_network,
)
from repro.challenge.inference import InferenceEngine
from repro.errors import ServeError, ValidationError
from repro.serve import (
    AdaptiveBatchController,
    EngineStep,
    HealthMonitor,
    HealthPolicy,
    LoadBalancer,
    MicroBatcher,
    ServingEngine,
    backoff_delays,
)
from repro.serve.health import STATE_DRAINING, STATE_EJECTED, STATE_HEALTHY
from repro.utils.clock import FakeClock

NEURONS = 32
LAYERS = 4


@pytest.fixture(scope="module")
def network():
    return generate_challenge_network(NEURONS, LAYERS, connections=8, seed=11)


@pytest.fixture(scope="module")
def engines(network):
    """Per-(backend, policy) serving engines + single-shot reference engines."""
    pairs = {}
    for backend in available_backends():
        for policy in ("dense", "sparse"):
            pairs[(backend, policy)] = (
                ServingEngine.from_network(network, backend=backend, activations=policy),
                InferenceEngine(network, backend=backend, activations=policy),
            )
    return pairs


def _request_rows(sizes: list[int]) -> list[np.ndarray]:
    """Deterministic challenge-style row blocks, one per requested size."""
    return [
        challenge_input_batch(NEURONS, size, seed=100 + i)
        for i, size in enumerate(sizes)
    ]


# schedule: per request, how many batcher steps to run *before* submitting
# it (0 = arrives while the previous requests still queue) -- this is the
# arrival interleaving, made explicit and deterministic
schedules = st.lists(
    st.tuples(st.integers(min_value=1, max_value=5),   # rows in this request
              st.integers(min_value=0, max_value=2)),  # run_once calls first
    min_size=1,
    max_size=12,
)


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("policy", ["dense", "sparse"])
class TestBatcherCoalescingProperties:
    @given(schedule=schedules, max_batch=st.integers(min_value=1, max_value=10))
    @settings(max_examples=15, deadline=None)
    def test_any_interleaving_is_bit_identical_to_single_shot(
        self, engines, backend, policy, schedule, max_batch
    ):
        serving, reference = engines[(backend, policy)]
        batcher = MicroBatcher(
            serving.step, max_batch=max_batch, clock=FakeClock()
        )
        requests = _request_rows([rows for rows, _ in schedule])
        pendings = []
        for rows, steps_first in zip(requests, (s for _, s in schedule)):
            for _ in range(steps_first):
                batcher.run_once(wait=False)
            pendings.append(batcher.submit(rows))
        while batcher.run_once(wait=False):
            pass

        # exactly-once completion: every request done, none duplicated
        assert all(pending.done() for pending in pendings)
        assert batcher.stats.requests == len(requests)
        assert batcher.stats.rows == sum(r.shape[0] for r in requests)

        for rows, pending in zip(requests, pendings):
            result = pending.result(timeout=0)
            single = reference.run(rows, record_timing=False)
            # row identity + bit-identity with the single-shot engine
            assert result.activations.shape == (rows.shape[0], NEURONS)
            assert (result.activations == single.activations).all()
            assert list(result.categories) == list(single.categories)
            # the batch either respected the row budget or was a lone
            # oversized request
            assert (
                result.stats.batch_rows <= max_batch
                or result.stats.batch_requests == 1
            )

    @given(sizes=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=8))
    @settings(max_examples=10, deadline=None)
    def test_burst_then_drain_conserves_rows(
        self, engines, backend, policy, sizes
    ):
        """All-at-once arrival: coalesced batches partition the request
        sequence in order, and close() drains everything."""
        serving, reference = engines[(backend, policy)]
        observed_batches: list[int] = []

        def counting_step(rows: np.ndarray) -> EngineStep:
            observed_batches.append(rows.shape[0])
            return serving.step(rows)

        batcher = MicroBatcher(
            counting_step, max_batch=6, clock=FakeClock()
        )
        requests = _request_rows(sizes)
        pendings = [batcher.submit(rows) for rows in requests]
        batcher.close()  # no worker: drains inline

        assert sum(observed_batches) == sum(sizes)
        assert batcher.stats.batches == len(observed_batches)
        for rows, pending in zip(requests, pendings):
            single = reference.run(rows, record_timing=False)
            assert (pending.result(timeout=0).activations == single.activations).all()


# --------------------------------------------------------------------------- #
# the worker pool: real threads racing on the one queue
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("policy", ["dense", "sparse"])
class TestWorkerPoolProperties:
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=10),
        workers=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=8, deadline=None)
    def test_any_worker_count_is_bit_identical_and_exactly_once(
        self, engines, backend, policy, sizes, workers
    ):
        """N workers draining one queue: exactly-once, bit-identical results."""
        serving, reference = engines[(backend, policy)]
        batcher = MicroBatcher(
            serving.step, max_batch=4, workers=workers
        ).start()
        try:
            requests = _request_rows(sizes)
            pendings = [batcher.submit(rows) for rows in requests]
            for pending in pendings:
                pending.result(timeout=30)
        finally:
            batcher.close(drain=True)

        # exactly-once: the counters account for every request and row
        assert all(pending.done() for pending in pendings)
        assert batcher.stats.requests == len(requests)
        assert batcher.stats.rows == sum(r.shape[0] for r in requests)
        assert batcher.stats.failures == 0
        assert len(batcher.queue) == 0
        for rows, pending in zip(requests, pendings):
            result = pending.result(timeout=0)
            single = reference.run(rows, record_timing=False)
            assert result.activations.shape == (rows.shape[0], NEURONS)
            assert (result.activations == single.activations).all()
            assert list(result.categories) == list(single.categories)


# --------------------------------------------------------------------------- #
# adaptive batch controller: deterministic convergence under FakeClock
# --------------------------------------------------------------------------- #
class TestAdaptiveControllerConvergence:
    """Zero-sleep convergence checks: every signal is an explicit call."""

    def _bound(self, *, max_batch=8, **controller_kwargs):
        clock = FakeClock()
        controller_kwargs.setdefault("interval_s", 0.0)
        controller = AdaptiveBatchController(clock=clock, **controller_kwargs)
        batcher = MicroBatcher(
            _echo_identity,
            max_batch=max_batch,
            clock=clock,
            controller=controller,
        )
        return batcher, controller, clock

    def test_sustained_load_grows_batch_to_cap(self):
        batcher, controller, clock = self._bound()
        for _ in range(32):  # a burst: every batch leaves a queue behind
            controller.observe(
                batch_rows=8, batch_requests=8,
                queue_wait_s=0.01, service_s=0.001, queue_depth=5,
            )
        assert batcher.max_batch == controller.max_batch_cap == 32
        assert controller.grown > 0
        assert not hasattr(batcher, "max_wait_s")  # the budget is the only dial
        assert set(controller.snapshot()) == {
            "max_batch", "base_max_batch", "max_batch_cap", "grown", "relaxed"
        }

    def test_idle_relaxes_back_to_baseline(self):
        batcher, controller, clock = self._bound()
        for _ in range(16):
            controller.observe(
                batch_rows=8, batch_requests=8,
                queue_wait_s=0.01, service_s=0.001, queue_depth=5,
            )
        assert batcher.max_batch > 8
        for _ in range(32):  # quiet spell: empty queue, tiny batches
            controller.idle(queue_depth=0)
        assert batcher.max_batch == 8
        assert controller.relaxed > 0

    def test_small_batches_with_empty_queue_count_as_idle(self):
        batcher, controller, clock = self._bound()
        for _ in range(8):
            controller.observe(
                batch_rows=8, batch_requests=8,
                queue_wait_s=0.01, service_s=0.001, queue_depth=3,
            )
        grown = controller.grown
        for _ in range(32):  # lone single-row batches, nothing queued
            controller.observe(
                batch_rows=1, batch_requests=1,
                queue_wait_s=0.0001, service_s=0.001, queue_depth=0,
            )
        assert controller.grown == grown  # no further growth
        assert batcher.max_batch == 8

    def test_adjustment_interval_rate_limits_reaction(self):
        batcher, controller, clock = self._bound(interval_s=1.0)
        for _ in range(10):  # same fake instant: only the first one counts
            controller.observe(
                batch_rows=8, batch_requests=8,
                queue_wait_s=0.01, service_s=0.001, queue_depth=5,
            )
        assert controller.grown == 1
        clock.advance(2.0)
        controller.observe(
            batch_rows=8, batch_requests=8,
            queue_wait_s=0.01, service_s=0.001, queue_depth=5,
        )
        assert controller.grown == 2

    def test_driven_through_the_batcher_loop(self):
        """End to end under FakeClock: run_once feeds the controller."""
        batcher, controller, clock = self._bound(max_batch=2)
        for i in range(12):  # keep the queue deeper than the row budget
            batcher.submit(np.full((1, 2), float(i)))
        while batcher.run_once(wait=False):
            pass
        assert controller.grown > 0
        assert batcher.max_batch > 2
        assert clock.waits == []  # the backlog formed every batch, no timer
        # drained queue: idle ticks walk the budget back down (what the
        # worker's empty-queue branch reports each time it parks)
        for _ in range(64):
            controller.idle(queue_depth=0)
        assert batcher.max_batch == 2

    def test_parked_worker_reports_idle_to_the_controller(self):
        """The empty-queue wait branch fires the idle hook.

        FakeClock waits never park a thread, so the controller stub
        closes the queue from inside ``idle`` -- the collect loop then
        observes the close and returns instead of spinning.
        """
        calls: list[int] = []

        class ClosingController:
            def bind(self, batcher):
                self.batcher = batcher

            def observe(self, **kwargs):  # pragma: no cover - not reached
                pass

            def idle(self, *, queue_depth):
                calls.append(queue_depth)
                self.batcher.queue.close()

        batcher = MicroBatcher(
            _echo_identity, clock=FakeClock(),
            controller=ClosingController(),
        )
        assert batcher.run_once(wait=True) is False
        assert calls == [0]


def _echo_identity(rows: np.ndarray) -> EngineStep:
    return EngineStep(
        activations=np.asarray(rows, dtype=np.float64), layer_modes=["dense"]
    )


# --------------------------------------------------------------------------- #
# PR 8: health-check / backoff decisions, entirely FakeClock-driven
# --------------------------------------------------------------------------- #
class TestBackoffSchedule:
    def test_capped_exponential_shape(self):
        assert backoff_delays(5, 0.05, 1.0) == [0.05, 0.1, 0.2, 0.4, 0.8]

    def test_cap_clamps_the_tail(self):
        assert backoff_delays(6, 0.05, 0.3) == [0.05, 0.1, 0.2, 0.3, 0.3, 0.3]

    def test_zero_attempts_is_empty(self):
        assert backoff_delays(0, 0.05, 1.0) == []

    def test_policy_exposes_its_schedule(self):
        policy = HealthPolicy(retry_limit=4, retry_base_s=0.01, retry_cap_s=0.05)
        assert policy.retry_delays() == [0.01, 0.02, 0.04, 0.05]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValidationError):
            backoff_delays(-1, 0.05, 1.0)
        with pytest.raises(ValidationError):
            backoff_delays(3, -0.05, 1.0)
        with pytest.raises(ValidationError):
            HealthPolicy(interval_s=0.0)
        with pytest.raises(ValidationError):
            HealthPolicy(fail_threshold=0)


class TestHealthMonitorClockDriven:
    """Every transition an explicit call; time only moves when advanced."""

    def _monitor(self, count=2, **policy_kwargs):
        clock = FakeClock()
        policy_kwargs.setdefault("interval_s", 1.0)
        policy_kwargs.setdefault("fail_threshold", 3)
        monitor = HealthMonitor(
            count, policy=HealthPolicy(**policy_kwargs), clock=clock
        )
        return monitor, clock

    def test_consecutive_failures_cross_the_threshold(self):
        monitor, _ = self._monitor(fail_threshold=3)
        assert monitor.record_failure(0) is False
        assert monitor.record_failure(0) is False
        assert monitor.record_failure(0) is True  # third strike ejects
        assert monitor.state(0) == STATE_EJECTED
        assert monitor.in_rotation() == [1]

    def test_success_resets_the_streak(self):
        monitor, _ = self._monitor(fail_threshold=2)
        monitor.record_failure(0)
        monitor.record_success(0)  # evidence of life: streak resets
        assert monitor.record_failure(0) is False
        assert monitor.state(0) == STATE_HEALTHY

    def test_ping_schedule_follows_the_interval(self):
        monitor, clock = self._monitor(interval_s=1.0)
        assert monitor.due_for_ping() == [0, 1]  # never pinged: both due
        monitor.record_success(0, ping=True)
        monitor.record_success(1, ping=True)
        assert monitor.due_for_ping() == []  # just pinged, clock unmoved
        clock.advance(0.5)
        assert monitor.due_for_ping() == []
        clock.advance(0.5)
        assert monitor.due_for_ping() == [0, 1]

    def test_ejected_replica_stays_on_the_probe_schedule(self):
        monitor, clock = self._monitor(fail_threshold=1, interval_s=1.0)
        monitor.record_failure(0, ping=True)
        assert monitor.state(0) == STATE_EJECTED
        clock.advance(1.0)
        assert 0 in monitor.due_for_ping()  # keeps being probed
        # the readiness ping re-admits it with a clean slate
        assert monitor.record_success(0, ping=True) is True
        assert monitor.state(0) == STATE_HEALTHY
        assert monitor.in_rotation() == [0, 1]
        assert monitor.snapshot()["admissions"] == 1

    def test_draining_is_out_of_rotation_and_unpinged(self):
        monitor, clock = self._monitor()
        monitor.drain(0)
        assert monitor.state(0) == STATE_DRAINING
        assert monitor.in_rotation() == [1]
        clock.advance(10.0)
        assert 0 not in monitor.due_for_ping()
        # failures do not accumulate against a draining replica
        assert monitor.record_failure(0) is False
        assert monitor.state(0) == STATE_DRAINING

    def test_admit_gives_a_clean_slate(self):
        monitor, clock = self._monitor(fail_threshold=1)
        monitor.record_failure(0, error="boom")
        assert monitor.state(0) == STATE_EJECTED
        monitor.admit(0)
        assert monitor.state(0) == STATE_HEALTHY
        snapshot = monitor.snapshot()["replicas"][0]
        assert snapshot["consecutive_failures"] == 0
        assert snapshot["last_error"] is None
        assert monitor.due_for_ping() == [1]  # admission stamps the ping clock

    @given(
        schedule=st.lists(
            st.tuples(st.integers(min_value=0, max_value=2), st.booleans()),
            max_size=60,
        ),
        threshold=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_fault_schedule_matches_the_model(self, schedule, threshold):
        """Hypothesis sweep: the monitor against an independent model of
        the ejection state machine, transition by transition."""
        monitor = HealthMonitor(
            3,
            policy=HealthPolicy(fail_threshold=threshold),
            clock=FakeClock(),
        )
        state = [STATE_HEALTHY] * 3
        streak = [0] * 3
        for index, ok in schedule:
            if ok:
                readmitted = monitor.record_success(index, ping=True)
                assert readmitted == (state[index] == STATE_EJECTED)
                state[index] = STATE_HEALTHY
                streak[index] = 0
            else:
                ejected = monitor.record_failure(index, ping=True)
                if state[index] == STATE_HEALTHY:
                    streak[index] += 1
                    if streak[index] >= threshold:
                        state[index] = STATE_EJECTED
                        streak[index] = 0
                        assert ejected
                    else:
                        assert not ejected
                else:
                    assert not ejected
            assert monitor.states() == state
            assert monitor.in_rotation() == [
                i for i, s in enumerate(state) if s == STATE_HEALTHY
            ]


class TestBalancerHealthUnit:
    """The balancer's health/retry plumbing with scripted I/O -- no sockets."""

    def _balancer(self, clock=None, **policy_kwargs):
        policy_kwargs.setdefault("interval_s", 1.0)
        policy_kwargs.setdefault("fail_threshold", 2)
        return LoadBalancer(
            [("127.0.0.1", 1), ("127.0.0.1", 2)],
            health=HealthPolicy(**policy_kwargs),
            health_checks=False,
            clock=clock or FakeClock(),
        )

    def test_scripted_pings_eject_then_readmit(self):
        clock = FakeClock()
        balancer = self._balancer(clock=clock, fail_threshold=2)
        alive = {1}

        async def scripted_ping(index):
            return index in alive

        balancer._ping_replica = scripted_ping
        asyncio.run(balancer._health_check_once())  # failure 1 for replica 0
        assert balancer.monitor.states() == [STATE_HEALTHY, STATE_HEALTHY]
        clock.advance(1.0)
        asyncio.run(balancer._health_check_once())  # failure 2: ejected
        assert balancer.monitor.states() == [STATE_EJECTED, STATE_HEALTHY]
        clock.advance(1.0)
        alive.add(0)  # the replica comes back
        asyncio.run(balancer._health_check_once())  # readiness ping re-admits
        assert balancer.monitor.states() == [STATE_HEALTHY, STATE_HEALTHY]
        stats = balancer.balancer_stats()
        assert stats["health"]["ejections"] == 1
        assert stats["health"]["admissions"] == 1
        assert stats["health"]["pings_failed"] == 2

    def test_pings_respect_the_fake_clock_interval(self):
        clock = FakeClock()
        balancer = self._balancer(clock=clock)
        pinged: list[int] = []

        async def scripted_ping(index):
            pinged.append(index)
            return True

        balancer._ping_replica = scripted_ping
        asyncio.run(balancer._health_check_once())
        assert pinged == [0, 1]
        asyncio.run(balancer._health_check_once())  # clock unmoved: none due
        assert pinged == [0, 1]
        clock.advance(1.0)
        asyncio.run(balancer._health_check_once())
        assert pinged == [0, 1, 0, 1]

    def test_retry_follows_the_backoff_schedule_then_fails_over(self, monkeypatch):
        balancer = self._balancer(
            retry_limit=3, retry_base_s=0.05, retry_cap_s=0.08, fail_threshold=99
        )
        sleeps: list[float] = []

        async def fake_sleep(delay):
            sleeps.append(delay)

        monkeypatch.setattr("asyncio.sleep", fake_sleep)
        picked: list[int] = []

        async def failing_forward(index, line):
            picked.append(index)
            raise ServeError("scripted connection loss")

        balancer._forward = failing_forward
        with pytest.raises(ServeError, match="infer failed after 4 attempts"):
            asyncio.run(balancer._forward_with_retry(b'{"op":"infer"}\n', "infer"))
        assert sleeps == [0.05, 0.08, 0.08]  # capped exponential backoff
        assert balancer.retries == 3
        assert len(picked) == 4
        assert picked[1] != picked[0]  # the first retry failed over

    def test_retry_returns_the_first_successful_forward(self, monkeypatch):
        balancer = self._balancer(retry_limit=2, retry_base_s=0.01, retry_cap_s=0.01)

        async def fake_sleep(delay):
            pass

        monkeypatch.setattr("asyncio.sleep", fake_sleep)
        attempts: list[int] = []

        async def flaky_forward(index, line):
            attempts.append(index)
            if len(attempts) == 1:
                raise ServeError("first connection dies")
            return {"ok": True, "echo": index}

        balancer._forward = flaky_forward
        response = asyncio.run(balancer._forward_with_retry(b'{"op":"infer"}\n', "infer"))
        assert response["ok"] is True
        assert len(attempts) == 2
        assert attempts[1] != attempts[0]  # retried on the *other* replica
        assert balancer.retries == 1

    def test_no_rotation_raises_a_clean_error(self):
        balancer = self._balancer(fail_threshold=1)
        balancer.monitor.eject(0)
        balancer.monitor.eject(1)
        with pytest.raises(ServeError, match="no healthy replicas"):
            balancer._pick_replica()

    def test_stats_snapshot_carries_states_mid_ejection(self):
        """Regression: ejecting a replica between the rotation snapshot
        and the per-replica report must not tear the stats payload."""
        balancer = self._balancer(fail_threshold=1)
        balancer.monitor.eject(1, error="killed for the test")
        stats = balancer.balancer_stats()
        assert stats["states"] == [STATE_HEALTHY, STATE_EJECTED]
        assert stats["replicas"] == 2
        assert len(stats["routed"]) == 2
        assert stats["health"]["ejections"] == 1
