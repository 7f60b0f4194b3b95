"""Process replicas behind a self-healing asyncio load balancer.

Worker threads (:class:`repro.serve.batcher.MicroBatcher` with
``workers > 1``) scale one engine across cores until the engine
process itself saturates -- the Python layer loop, protocol parsing,
and the event loop all share one interpreter.  The next rung is
*shared-nothing process replicas*: K independent server processes, each
loading its own copy of the network via the existing
:class:`repro.challenge.pipeline.LoadStage` path (warm starts
included), behind a front-end balancer that speaks the exact same
newline-JSON protocol, so clients (and ``bench_serve``) cannot tell a
fleet from a single engine.

Pieces:

* :class:`ReplicaProcess` -- one ``repro challenge serve`` subprocess:
  spawned with ``--port 0 --port-file``, readiness = the atomically
  written port file appearing;
* :class:`ReplicaFleet` -- K replicas as a unit: start, wait-ready,
  graceful stop, and :meth:`ReplicaFleet.restart` -- replace one
  replica's process with a fresh one (new port file generation) for
  crash recovery and rolling warm restarts;
* :class:`LoadBalancer` -- the asyncio front end: routes each ``infer``
  to the healthy replica with the fewest outstanding requests (over a
  per-replica connection pool; one pooled connection per in-flight
  request, because a replica serializes requests per connection),
  answers ``ping`` locally, forwards ``meta`` to replica 0 (plus fleet
  fields), *aggregates* ``stats`` across replicas (fleet totals at the
  top level -- same shape as a single server's -- with per-replica
  snapshots under ``"replicas"``, each carrying its rotation
  ``"state"``), and broadcasts ``shutdown`` so every replica drains
  before the balancer answers and exits;
* :class:`FleetSupervisor` -- the watcher thread that makes the fleet
  self-healing: restarts crashed replicas (bounded by ``max_restarts``,
  back into rotation only after a readiness ping) and drives
  :meth:`FleetSupervisor.drain` / rolling restarts;
* :func:`serve_fleet_in_background` / :func:`serve_balancer_in_background`
  -- fleet + balancer (or a bare balancer over externally managed
  backends) on a background thread, the embeddings used by tests and
  benchmarks.

Resilience (see :mod:`repro.serve.health` for the decision logic): the
balancer actively pings every replica on the health interval and ejects
one from rotation after ``fail_threshold`` consecutive failures -- an
ejected replica keeps being probed and one successful ping re-admits it.
An ``infer`` lost to a dead connection is retried on another healthy
replica with capped exponential backoff (safe because the recurrence is
stateless per request), so clients see exactly-once results instead of
connection resets.

Request lines are forwarded *verbatim* (bytes in, bytes out), so the
fleet inherits the single-server bit-identity guarantee: whatever
replica a request lands on runs the same row-independent recurrence.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.errors import ServeError, ValidationError
from repro.serve import protocol
from repro.serve.health import (
    STATE_EJECTED,
    HealthMonitor,
    HealthPolicy,
)
from repro.utils.clock import Clock, SystemClock

# connection-level failures that justify retrying an infer on another
# replica: the request never produced a client-visible response, and the
# recurrence is stateless per request, so a re-run is bit-identical
_RETRYABLE = (ServeError, OSError, asyncio.TimeoutError)


def _python_env() -> dict:
    """Subprocess env whose ``PYTHONPATH`` can import :mod:`repro`.

    Replicas must import the same source tree as the parent even when
    the package is not installed (tests run with pytest's
    ``pythonpath = ["src"]``, which subprocesses do not inherit).
    """
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


class ReplicaProcess:
    """One shared-nothing ``repro challenge serve`` subprocess."""

    def __init__(self, argv: list[str], port_file: Path) -> None:
        self.argv = argv
        self.port_file = port_file
        self.process: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None

    def start(self) -> "ReplicaProcess":
        self.process = subprocess.Popen(
            self.argv,
            env=_python_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        return self

    def wait_ready(self, timeout_s: float = 60.0) -> tuple[str, int]:
        """Block until the replica wrote its port file; returns its address."""
        assert self.process is not None, "start() the replica first"
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.port_file.exists():
                text = self.port_file.read_text().strip()
                if text:  # written atomically (write-then-rename), so complete
                    host, port = text.split()
                    self.address = (host, int(port))
                    return self.address
            if self.process.poll() is not None:
                stderr = (self.process.stderr.read() or b"").decode(errors="replace")
                raise ServeError(
                    f"replica exited with code {self.process.returncode} before "
                    f"binding its port: {stderr.strip()[-500:]}"
                )
            time.sleep(0.02)
        raise ServeError(f"replica did not become ready within {timeout_s}s")

    @property
    def pid(self) -> int | None:
        return None if self.process is None else self.process.pid

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def stop(self, timeout_s: float = 30.0) -> None:
        """Reap the subprocess, escalating politely (wait, terminate, kill)."""
        if self.process is None:
            return
        try:
            self.process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.process.terminate()
            try:
                self.process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                self.process.kill()
                self.process.wait(timeout=5.0)
        finally:
            if self.process.stderr is not None:
                self.process.stderr.close()


class ReplicaFleet:
    """K replica processes of one saved network, managed as a unit.

    Each replica slot can be *restarted*: the old process is reaped and
    a fresh one spawned with the same configuration and a new
    generation-suffixed port file (so a stale port file can never be
    mistaken for the new replica's readiness signal).
    """

    def __init__(
        self,
        replicas: int,
        *,
        directory: str | os.PathLike | None = None,
        neurons: int | None = None,
        warm_start: str | os.PathLike | None = None,
        workdir: str | os.PathLike,
        host: str = "127.0.0.1",
        max_batch: int = 64,
        workers: int | None = None,
        adaptive_batch: bool = False,
        backend: str | None = None,
        activations: str | None = None,
        shards: int | None = None,
    ) -> None:
        if replicas < 1:
            raise ValidationError(f"replicas must be >= 1, got {replicas}")
        if warm_start is None and (directory is None or neurons is None):
            raise ValidationError(
                "a replica fleet needs --dir + --neurons (or --warm-start)"
            )
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.host = host
        self._argv_tail: list[str] = ["--max-batch", str(max_batch)]
        if warm_start is not None:
            self._argv_tail += ["--warm-start", str(warm_start)]
        else:
            self._argv_tail += ["--dir", str(directory), "--neurons", str(neurons)]
        if workers is not None:
            self._argv_tail += ["--workers", str(workers)]
        if adaptive_batch:
            self._argv_tail += ["--adaptive-batch"]
        if backend is not None:
            self._argv_tail += ["--backend", backend]
        if activations is not None:
            self._argv_tail += ["--activations", activations]
        if shards is not None:
            self._argv_tail += ["--shards", str(shards)]
        self.generations = [0] * replicas
        self.restarted = 0
        self.replicas: list[ReplicaProcess] = [
            self._make_replica(index) for index in range(replicas)
        ]

    def _make_replica(self, index: int) -> ReplicaProcess:
        port_file = self.workdir / (
            f"replica-{index}-g{self.generations[index]}.port"
        )
        argv = [sys.executable, "-m", "repro.cli", "challenge", "serve",
                "--host", self.host, "--port", "0",
                "--port-file", str(port_file), *self._argv_tail]
        return ReplicaProcess(argv, port_file)

    def start(self, timeout_s: float = 120.0) -> list[tuple[str, int]]:
        """Launch every replica (concurrently) and wait for all addresses."""
        for replica in self.replicas:
            replica.start()
        try:
            return [replica.wait_ready(timeout_s) for replica in self.replicas]
        except ServeError:
            self.terminate()
            raise

    def restart(self, index: int, timeout_s: float = 120.0) -> tuple[str, int]:
        """Replace replica ``index`` with a fresh process; returns its address.

        The old process (crashed, or deliberately shut down for a warm
        restart) is reaped first -- terminated if still running -- so a
        restart never leaks a subprocess.
        """
        if not 0 <= index < len(self.replicas):
            raise ValidationError(
                f"replica index {index} out of range 0..{len(self.replicas) - 1}"
            )
        old = self.replicas[index]
        if old.process is not None:
            if old.alive():
                old.process.terminate()
            old.stop(timeout_s=10.0)
        self.generations[index] += 1
        replica = self._make_replica(index)
        self.replicas[index] = replica
        replica.start()
        address = replica.wait_ready(timeout_s)
        self.restarted += 1
        return address

    @property
    def addresses(self) -> list[tuple[str, int]]:
        return [r.address for r in self.replicas if r.address is not None]

    @property
    def pids(self) -> list[int | None]:
        return [r.pid for r in self.replicas]

    def alive_count(self) -> int:
        return sum(1 for r in self.replicas if r.alive())

    def stop(self, timeout_s: float = 30.0) -> None:
        """Reap replicas (they exit on their own after a shutdown broadcast)."""
        for replica in self.replicas:
            replica.stop(timeout_s)

    def terminate(self) -> None:
        """Hard stop: terminate whatever is still running (error paths)."""
        for replica in self.replicas:
            if replica.alive():
                replica.process.terminate()
        self.stop(timeout_s=5.0)

    def __enter__(self) -> "ReplicaFleet":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.terminate()


def aggregate_stats(per_replica: list[dict]) -> dict:
    """Fleet totals in the same shape as one server's ``stats`` payload.

    Counters sum, ``max_batch_rows`` takes the max, and the means are
    re-derived from the summed totals (a mean of means would weight a
    cold replica the same as a saturated one).
    """
    summed = ("requests", "rows", "batches", "failures", "pending",
              "connections_opened", "protocol_errors", "workers",
              "total_queue_wait_s", "total_service_s")
    fleet: dict[str, Any] = {key: 0 for key in summed}
    fleet["max_batch_rows"] = 0
    for stats in per_replica:
        for key in summed:
            fleet[key] += stats.get(key, 0)
        fleet["max_batch_rows"] = max(
            fleet["max_batch_rows"], stats.get("max_batch_rows", 0)
        )
    fleet["mean_batch_rows"] = (
        fleet["rows"] / fleet["batches"] if fleet["batches"] else 0.0
    )
    fleet["mean_queue_wait_s"] = (
        fleet["total_queue_wait_s"] / fleet["requests"] if fleet["requests"] else 0.0
    )
    fleet["mean_service_s"] = (
        fleet["total_service_s"] / fleet["requests"] if fleet["requests"] else 0.0
    )
    return fleet


class LoadBalancer:
    """The fleet front end: one listening socket, K replica backends.

    Speaks the single-server protocol verbatim.  ``infer`` lines are
    routed whole (bytes untouched) to the *healthy* replica with the
    fewest outstanding requests -- the cheapest balancing signal that
    still tracks real backend load, since a slow replica accumulates
    outstanding requests and stops being picked.

    Health checking (on by default): a background task pings every
    replica each ``health.interval_s`` through the injectable clock's
    timestamps; ``health.fail_threshold`` consecutive failures -- ping
    *or* in-flight -- eject a replica from rotation, and one successful
    ping re-admits it.  A lost in-flight ``infer`` is retried on another
    healthy replica under ``health.retry_delays()`` backoff.  The
    :class:`FleetSupervisor` (when attached) additionally restarts
    crashed replica processes and re-points the slot at the new address
    via :meth:`admit_replica`.
    """

    def __init__(
        self,
        addresses: list[tuple[str, int]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout_s: float = 120.0,
        health: HealthPolicy | None = None,
        health_checks: bool = True,
        clock: Clock | None = None,
    ) -> None:
        if not addresses:
            raise ValidationError("a load balancer needs at least one replica")
        self.replica_addresses = [tuple(address) for address in addresses]
        self.host = host
        self.port = int(port)
        self.request_timeout_s = float(request_timeout_s)
        self.clock: Clock = clock if clock is not None else SystemClock()
        self.monitor = HealthMonitor(
            len(addresses), policy=health or HealthPolicy(), clock=self.clock
        )
        self.health_checks = bool(health_checks)
        self.supervisor: "FleetSupervisor | None" = None
        self.address: tuple[str, int] | None = None
        self.connections_opened = 0
        self.protocol_errors = 0
        self.retries = 0
        self.restarts = 0
        self.routed = [0] * len(addresses)
        self._outstanding = [0] * len(addresses)
        # guards cross-thread state: addresses, pool generations, restart
        # counter (the supervisor thread mutates these around the event
        # loop's back; stats snapshots copy under the same lock)
        self._lock = threading.Lock()
        self._generations = [0] * len(addresses)
        self._pools: list[
            list[tuple[int, asyncio.StreamReader, asyncio.StreamWriter]]
        ] = [[] for _ in addresses]
        self._shutdown: asyncio.Event | None = None
        self._handlers: set[asyncio.Task] = set()
        self._health_task: asyncio.Task | None = None
        self._inflight = 0
        self._idle: asyncio.Event | None = None

    # ------------------------------------------------------------------ #
    # replica connections
    # ------------------------------------------------------------------ #
    def outstanding(self, index: int) -> int:
        """In-flight forwards to replica ``index`` (drain watches this)."""
        return self._outstanding[index]

    async def _acquire(
        self, index: int
    ) -> tuple[int, asyncio.StreamReader, asyncio.StreamWriter]:
        with self._lock:
            generation = self._generations[index]
            pool = self._pools[index]
            stale: list[asyncio.StreamWriter] = []
            entry = None
            while pool:
                gen, reader, writer = pool.pop()
                if gen == generation:
                    entry = (gen, reader, writer)
                    break
                stale.append(writer)  # replica was replaced: discard
            address = self.replica_addresses[index]
        for writer in stale:
            writer.close()
        if entry is not None:
            return entry
        reader, writer = await asyncio.open_connection(
            *address, limit=protocol.MAX_LINE_BYTES
        )
        return generation, reader, writer

    def _release(
        self,
        index: int,
        generation: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        with self._lock:
            if generation == self._generations[index]:
                self._pools[index].append((generation, reader, writer))
                return
        writer.close()  # the slot moved on while this request was in flight

    async def _forward(self, index: int, line: bytes) -> dict:
        """One request line to replica ``index``; its decoded response.

        Connection-level failures count as health evidence against the
        replica (consecutive failures eject it); successes reset the
        failure streak.
        """
        self._outstanding[index] += 1
        self.routed[index] += 1
        try:
            try:
                generation, reader, writer = await self._acquire(index)
                try:
                    writer.write(line if line.endswith(b"\n") else line + b"\n")
                    await writer.drain()
                    response = await asyncio.wait_for(
                        reader.readline(), timeout=self.request_timeout_s
                    )
                    if not response:
                        raise ServeError(f"replica {index} closed the connection")
                    decoded = protocol.decode(response)
                except BaseException:
                    writer.close()
                    raise
                self._release(index, generation, reader, writer)
            except _RETRYABLE as exc:
                self.monitor.record_failure(index, error=str(exc))
                raise
            self.monitor.record_success(index)
            return decoded
        finally:
            self._outstanding[index] -= 1

    def _pick_replica(self, exclude: frozenset | set = frozenset()) -> int:
        """Least-outstanding routing over the replicas still in rotation.

        ``exclude`` holds replicas that already failed *this* request;
        they are avoided so a retry actually fails over, unless that
        would leave no candidate at all.
        """
        rotation = self.monitor.in_rotation()
        if not rotation:
            raise ServeError("no healthy replicas in rotation")
        candidates = [i for i in rotation if i not in exclude] or rotation
        return min(candidates, key=self._outstanding.__getitem__)

    async def _forward_with_retry(self, line: bytes, op: str) -> dict:
        """Route a stateless request; recover in-flight losses elsewhere.

        Retrying is safe -- and keeps the client contract exactly-once --
        because a failed forward never produced a response line, and the
        ops routed here (``infer``, ``meta``) are stateless per request:
        the retried run returns bit-identical rows.  Backoff is the
        policy's capped exponential schedule; each failed replica is
        excluded from the next pick so a retry fails over instead of
        re-dialing the dead connection.
        """
        delays = self.monitor.policy.retry_delays()
        exclude: set[int] = set()
        last_error: BaseException | None = None
        for attempt in range(len(delays) + 1):
            if attempt > 0:
                self.retries += 1
                await asyncio.sleep(delays[attempt - 1])
            try:
                index = self._pick_replica(exclude)
            except ServeError as exc:
                # nothing routable right now: back off and re-check --
                # the supervisor may be restarting a crashed replica
                last_error = exc
                exclude.clear()
                continue
            try:
                return await self._forward(index, line)
            except _RETRYABLE as exc:
                last_error = exc
                exclude.add(index)
        raise ServeError(
            f"{op} failed after {len(delays) + 1} attempts across the fleet: "
            f"{last_error}"
        )

    async def _broadcast(
        self, message: dict, indices: list[int] | None = None
    ) -> list[dict]:
        """The same request to the given replicas (default: all), concurrently."""
        if indices is None:
            indices = list(range(len(self.replica_addresses)))
        results = await asyncio.gather(
            *(self._forward(i, protocol.encode(message)) for i in indices),
            return_exceptions=True,
        )
        out: list[dict] = []
        for index, result in zip(indices, results):
            if isinstance(result, BaseException):
                out.append({"ok": False, "error": f"replica {index}: {result}"})
            else:
                out.append(result)
        return out

    # ------------------------------------------------------------------ #
    # health checking
    # ------------------------------------------------------------------ #
    async def _ping_replica(self, index: int) -> bool:
        """One health probe on a dedicated connection; True if it answered."""
        timeout = self.monitor.policy.ping_timeout_s
        with self._lock:
            address = self.replica_addresses[index]
        writer = None
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(*address, limit=protocol.MAX_LINE_BYTES),
                timeout=timeout,
            )
            writer.write(protocol.encode({"op": protocol.OP_PING}))
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=timeout)
            return bool(line) and bool(protocol.decode(line).get("ok"))
        except (ServeError, OSError, asyncio.TimeoutError):
            return False
        finally:
            if writer is not None:
                writer.close()

    async def _health_check_once(self) -> None:
        """Ping every replica due per the policy interval; update rotation.

        Ejected replicas stay on the schedule: their first successful
        ping is the readiness signal that re-admits them (the heal path
        for a replica that was unreachable but never actually died).
        """
        due = self.monitor.due_for_ping()
        if not due:
            return
        results = await asyncio.gather(*(self._ping_replica(i) for i in due))
        for index, ok in zip(due, results):
            if ok:
                self.monitor.record_success(index, ping=True)
            else:
                self.monitor.record_failure(
                    index, ping=True, error="health ping failed"
                )

    async def _health_loop(self) -> None:
        interval = self.monitor.policy.interval_s
        while True:
            await asyncio.sleep(interval)
            await self._health_check_once()

    # ------------------------------------------------------------------ #
    # supervisor hooks (called from the watcher thread)
    # ------------------------------------------------------------------ #
    def eject_replica(self, index: int, *, error: str | None = None) -> None:
        """Force a replica out of rotation (e.g. its process crashed)."""
        self.monitor.eject(index, error=error)

    def admit_replica(
        self, index: int, address: tuple[str, int], *, restarted: bool = False
    ) -> None:
        """(Re-)admit a replica at ``address`` with a clean health slate.

        Bumping the pool generation retires every pooled connection to
        the old process lazily -- the event loop discards them on the
        next acquire/release, so no cross-thread socket teardown.
        """
        with self._lock:
            self.replica_addresses[index] = tuple(address)
            self._generations[index] += 1
            if restarted:
                self.restarts += 1
        self.monitor.admit(index)

    # ------------------------------------------------------------------ #
    # request dispatch
    # ------------------------------------------------------------------ #
    def balancer_stats(self) -> dict:
        with self._lock:
            routed = list(self.routed)
            outstanding = list(self._outstanding)
            retries = self.retries
            restarts = self.restarts
        health = self.monitor.snapshot()
        return {
            "replicas": len(routed),
            "routed": routed,
            "outstanding": outstanding,
            "connections_opened": self.connections_opened,
            "protocol_errors": self.protocol_errors,
            "retries": retries,
            "restarts": restarts,
            "states": self.monitor.states(),
            "health": {
                key: health[key]
                for key in ("pings_ok", "pings_failed", "ejections", "admissions")
            },
        }

    async def _dispatch(self, line: bytes) -> tuple[dict, bool]:
        request_id: Any = None
        try:
            message = protocol.decode(line)
            request_id = message.get("id")
            op = message.get("op")
            if op == protocol.OP_PING:
                return {"id": request_id, "ok": True, "op": "pong"}, False
            if op == protocol.OP_INFER:
                response = await self._forward_with_retry(line, "infer")
                return response, False
            if op == protocol.OP_META:
                meta = await self._forward_with_retry(
                    protocol.encode({"op": protocol.OP_META}), "meta"
                )
                meta.update(
                    id=request_id,
                    replicas=len(self.replica_addresses),
                    fleet=True,
                )
                return meta, False
            if op == protocol.OP_STATS:
                # snapshot the rotation *before* awaiting anything: an
                # ejection (health task) or restart (supervisor thread)
                # mid-aggregation must not shift which replica a snapshot
                # belongs to, or tear the states list out from under us
                states = self.monitor.states()
                queried = [
                    i for i, state in enumerate(states) if state != STATE_EJECTED
                ]
                snapshots = await self._broadcast(
                    {"op": protocol.OP_STATS}, indices=queried
                )
                by_index = dict(zip(queried, snapshots))
                per_replica: list[dict] = []
                for index, state in enumerate(states):
                    snap = by_index.get(index)
                    if snap is not None and snap.get("ok"):
                        entry = {
                            k: v for k, v in snap.items() if k not in ("id", "ok")
                        }
                    else:
                        entry = {} if snap is None else {"error": snap.get("error")}
                    entry["state"] = state
                    per_replica.append(entry)
                fleet = aggregate_stats(
                    [entry for entry in per_replica if "requests" in entry]
                )
                return {
                    "id": request_id,
                    "ok": True,
                    **fleet,
                    "replicas": per_replica,
                    "balancer": self.balancer_stats(),
                }, False
            if op == protocol.OP_DRAIN:
                return await self._dispatch_drain(message, request_id), False
            if op == protocol.OP_SHUTDOWN:
                # stop the supervisor resurrecting replicas that exit on
                # purpose, then drain: every replica answers its shutdown
                # only once its accepted requests completed, so
                # acknowledging here means the whole fleet is drained
                if self.supervisor is not None:
                    self.supervisor.suspend()
                states = self.monitor.states()
                acks = await self._broadcast({"op": protocol.OP_SHUTDOWN})
                ok = all(
                    ack.get("ok")
                    for state, ack in zip(states, acks)
                    if state != STATE_EJECTED  # a dead replica has nothing to drain
                )
                return {"id": request_id, "ok": ok, "op": "shutdown"}, True
            raise ServeError(
                f"unknown op {op!r} (expected one of {protocol.BALANCER_OPS})"
            )
        except ServeError as exc:
            self.protocol_errors += 1
            return protocol.error_response(request_id, str(exc)), False
        except Exception as exc:  # noqa: BLE001 - a bad request/replica must
            # never take the balancer down
            self.protocol_errors += 1
            return (
                protocol.error_response(request_id, f"balancer error: {exc!r}"),
                False,
            )

    async def _dispatch_drain(self, message: dict, request_id: Any) -> dict:
        """``{"op": "drain", "replica": i}``: warm-restart one replica.

        Runs the supervisor's blocking drain on an executor thread so
        the event loop keeps serving traffic to the rest of the fleet
        while the drained replica finishes its outstanding work and
        restarts.  Answers once the replacement is back in rotation.
        """
        if self.supervisor is None:
            raise ServeError(
                "drain requires a supervised fleet (challenge serve --replicas)"
            )
        index = message.get("replica")
        if not isinstance(index, int) or isinstance(index, bool):
            raise ServeError("drain needs an integer 'replica' index")
        if not 0 <= index < len(self.replica_addresses):
            raise ServeError(
                f"replica index {index} out of range "
                f"0..{len(self.replica_addresses) - 1}"
            )
        loop = asyncio.get_running_loop()
        address = await loop.run_in_executor(None, self.supervisor.drain, index)
        return {
            "id": request_id,
            "ok": True,
            "op": "drain",
            "replica": index,
            "address": list(address),
        }

    # ------------------------------------------------------------------ #
    # connection handling (mirrors ServeApp: one line in, one line out)
    # ------------------------------------------------------------------ #
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.connections_opened += 1
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    self.protocol_errors += 1
                    writer.write(protocol.encode(
                        protocol.error_response(None, "protocol line too long")
                    ))
                    break
                if not line:
                    break
                if line.strip() == b"":
                    continue
                # count the dispatch-to-response window so shutdown can
                # wait for in-flight forwards before reaping connections
                assert self._idle is not None
                self._inflight += 1
                self._idle.clear()
                try:
                    response, shutdown = await self._dispatch(line)
                    writer.write(protocol.encode(response))
                    await writer.drain()
                finally:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._idle.set()
                if shutdown:
                    assert self._shutdown is not None
                    self._shutdown.set()
                    break
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        except asyncio.CancelledError:
            pass
        finally:
            if task is not None:
                self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _close_pools(self) -> None:
        with self._lock:
            parked = [entry for pool in self._pools for entry in pool]
            for pool in self._pools:
                pool.clear()
        for _, _, writer in parked:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _main(
        self, on_ready: Callable[[tuple[str, int]], None] | None = None
    ) -> None:
        self._shutdown = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=protocol.MAX_LINE_BYTES
        )
        sockname = server.sockets[0].getsockname()
        self.address = (str(sockname[0]), int(sockname[1]))
        if self.health_checks:
            self._health_task = asyncio.ensure_future(self._health_loop())
        if on_ready is not None:
            on_ready(self.address)
        try:
            async with server:
                await self._shutdown.wait()
        finally:
            if self._health_task is not None:
                self._health_task.cancel()
                try:
                    await self._health_task
                except asyncio.CancelledError:
                    pass
                self._health_task = None
            # let every in-flight forward write its response before the
            # connections still parked on readline are reaped
            try:
                await asyncio.wait_for(
                    self._idle.wait(), timeout=self.request_timeout_s
                )
            except asyncio.TimeoutError:  # pragma: no cover - defensive
                pass
            for handler in list(self._handlers):
                if handler is not asyncio.current_task():
                    handler.cancel()
            if self._handlers:
                await asyncio.gather(*self._handlers, return_exceptions=True)
            await self._close_pools()

    def run(self, on_ready: Callable[[tuple[str, int]], None] | None = None) -> None:
        """Blocking entry point (``repro challenge serve --replicas K``)."""
        try:
            asyncio.run(self._main(on_ready))
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass


class FleetSupervisor:
    """The self-healing half of the fleet: watch, restart, drain.

    A daemon thread polls replica subprocess liveness.  A crashed
    replica is ejected from the balancer's rotation immediately and --
    while its crash-restart budget (``max_restarts`` per replica) lasts
    -- replaced with a fresh process, which re-enters rotation only
    after answering a readiness ping.  :meth:`drain` is the deliberate
    counterpart: stop routing to a replica, let its outstanding work
    finish, shut it down gracefully, and warm-restart it --
    :meth:`rolling_restart` walks the whole fleet that way with zero
    dropped requests.
    """

    def __init__(
        self,
        fleet: ReplicaFleet,
        balancer: LoadBalancer,
        *,
        max_restarts: int = 2,
        poll_interval_s: float = 0.2,
        restart_timeout_s: float = 120.0,
    ) -> None:
        if max_restarts < 0:
            raise ValidationError(f"max_restarts must be >= 0, got {max_restarts}")
        if poll_interval_s <= 0:
            raise ValidationError(
                f"poll_interval_s must be > 0, got {poll_interval_s}"
            )
        self.fleet = fleet
        self.balancer = balancer
        self.max_restarts = int(max_restarts)
        self.poll_interval_s = float(poll_interval_s)
        self.restart_timeout_s = float(restart_timeout_s)
        count = len(fleet.replicas)
        self.crash_restarts = [0] * count
        self.gave_up = [False] * count
        self._busy = [False] * count
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._suspended = threading.Event()
        self._thread: threading.Thread | None = None
        balancer.supervisor = self

    # ------------------------------------------------------------------ #
    def start(self) -> "FleetSupervisor":
        self._thread = threading.Thread(
            target=self._watch, daemon=True, name="fleet-supervisor"
        )
        self._thread.start()
        return self

    def suspend(self) -> None:
        """Stop reacting to crashes (the fleet is shutting down on purpose)."""
        self._suspended.set()

    def stop(self, timeout_s: float = 30.0) -> None:
        self.suspend()
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
            if self._thread.is_alive():  # pragma: no cover - defensive
                raise ServeError(f"fleet supervisor did not stop within {timeout_s}s")

    # ------------------------------------------------------------------ #
    def _watch(self) -> None:
        while not self._stop.wait(self.poll_interval_s):
            if self._suspended.is_set():
                continue
            for index in range(len(self.fleet.replicas)):
                with self._lock:
                    if self._busy[index] or self.gave_up[index]:
                        continue
                    replica = self.fleet.replicas[index]
                    if replica.process is None or replica.alive():
                        continue
                    self._busy[index] = True
                try:
                    self._handle_crash(index)
                finally:
                    with self._lock:
                        self._busy[index] = False

    def _handle_crash(self, index: int) -> None:
        self.balancer.eject_replica(
            index, error="replica process exited unexpectedly"
        )
        if self.crash_restarts[index] >= self.max_restarts:
            self.gave_up[index] = True
            return
        self.crash_restarts[index] += 1
        try:
            address = self.fleet.restart(index, timeout_s=self.restart_timeout_s)
            self._readiness_ping(address)
        except (ServeError, OSError) as exc:
            # stays ejected; the next watch pass sees the dead process
            # and spends another restart from the budget
            self.balancer.eject_replica(index, error=f"restart failed: {exc}")
            return
        self.balancer.admit_replica(index, address, restarted=True)

    def _readiness_ping(self, address: tuple[str, int]) -> None:
        """A restarted replica joins rotation only after it answers."""
        from repro.serve.client import ServeClient

        with ServeClient(
            *address, timeout_s=self.restart_timeout_s
        ) as client:
            client.ping()

    # ------------------------------------------------------------------ #
    def drain(self, index: int, *, timeout_s: float | None = None) -> tuple[str, int]:
        """Warm-restart replica ``index`` with zero dropped requests.

        Stops routing (state ``draining``), waits for the replica's
        outstanding forwards to finish, asks the old process to shut
        down gracefully, starts a replacement, and re-admits it after a
        readiness ping.  Returns the new address.
        """
        if not 0 <= index < len(self.fleet.replicas):
            raise ValidationError(
                f"replica index {index} out of range 0..{len(self.fleet.replicas) - 1}"
            )
        if self._suspended.is_set():
            raise ServeError("cannot drain: the fleet is shutting down")
        timeout = self.restart_timeout_s if timeout_s is None else float(timeout_s)
        with self._lock:
            if self._busy[index]:
                raise ServeError(f"replica {index} is already being restarted")
            self._busy[index] = True
        try:
            self.balancer.monitor.drain(index)
            deadline = time.monotonic() + timeout
            while self.balancer.outstanding(index) > 0:
                if time.monotonic() > deadline:
                    raise ServeError(
                        f"replica {index} did not drain within {timeout}s "
                        f"({self.balancer.outstanding(index)} outstanding)"
                    )
                time.sleep(0.01)
            with self.balancer._lock:
                old_address = self.balancer.replica_addresses[index]
            try:
                from repro.serve.client import ServeClient

                with ServeClient(*old_address, timeout_s=30.0) as client:
                    client.shutdown()
            except ServeError:
                pass  # wedged or already dead: restart() terminates it
            address = self.fleet.restart(index, timeout_s=timeout)
            self._readiness_ping(address)
            self.balancer.admit_replica(index, address, restarted=True)
            # a drain is deliberate: clear any crash budget bookkeeping
            self.gave_up[index] = False
            return address
        except BaseException:
            self.balancer.eject_replica(index, error="drain failed")
            raise
        finally:
            with self._lock:
                self._busy[index] = False

    def rolling_restart(self, *, timeout_s: float | None = None) -> list[tuple[str, int]]:
        """Drain + warm-restart every replica, one at a time.

        Sequential on purpose: the rest of the fleet keeps serving while
        each replica cycles, so a client never sees an empty rotation
        and no accepted request is dropped.
        """
        return [
            self.drain(index, timeout_s=timeout_s)
            for index in range(len(self.fleet.replicas))
        ]


# --------------------------------------------------------------------------- #
# background embeddings
# --------------------------------------------------------------------------- #
def _start_balancer_thread(
    balancer: LoadBalancer, startup_timeout_s: float
) -> tuple[threading.Thread, asyncio.AbstractEventLoop]:
    """Run ``balancer._main`` on a daemon thread; return once listening."""
    ready = threading.Event()
    holder: dict[str, Any] = {}

    def _runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)

        def _on_ready(address: tuple[str, int]) -> None:
            holder["loop"] = loop
            ready.set()

        try:
            loop.run_until_complete(balancer._main(_on_ready))
        except BaseException as exc:  # noqa: BLE001 - relayed to the starter
            holder["error"] = exc
        finally:
            ready.set()
            asyncio.set_event_loop(None)
            loop.close()

    thread = threading.Thread(target=_runner, daemon=True, name="serve-balancer")
    thread.start()
    if not ready.wait(startup_timeout_s):  # pragma: no cover - defensive
        raise ServeError(f"balancer did not start within {startup_timeout_s}s")
    if "error" in holder:
        thread.join(timeout=5.0)
        raise ServeError(
            f"balancer failed to start: {holder['error']}"
        ) from holder["error"]
    if "loop" not in holder:  # pragma: no cover - defensive
        raise ServeError("balancer exited before binding its socket")
    return thread, holder["loop"]


class BalancerHandle:
    """A background balancer over externally managed backends.

    ``stop`` signals the balancer's own shutdown (drains in-flight
    forwards, closes pools) *without* broadcasting ``shutdown`` to the
    backends -- they belong to someone else (the chaos suite fronts one
    live server with fault proxies, for example).
    """

    def __init__(
        self,
        balancer: LoadBalancer,
        thread: threading.Thread,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        self.balancer = balancer
        self._thread = thread
        self._loop = loop

    @property
    def address(self) -> tuple[str, int]:
        assert self.balancer.address is not None
        return self.balancer.address

    def _signal_shutdown(self) -> None:
        def _signal() -> None:
            if self.balancer._shutdown is not None:
                self.balancer._shutdown.set()

        try:
            self._loop.call_soon_threadsafe(_signal)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    def stop(self, timeout: float = 60.0) -> None:
        if self._thread.is_alive():
            self._signal_shutdown()
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise ServeError(f"balancer thread did not stop within {timeout}s")

    def __enter__(self) -> "BalancerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve_balancer_in_background(
    addresses: list[tuple[str, int]],
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    startup_timeout_s: float = 30.0,
    **balancer_kwargs: Any,
) -> BalancerHandle:
    """A bare :class:`LoadBalancer` on a background thread.

    For embedding a balancer over backends the caller manages (live
    servers, fault proxies).  Keyword arguments pass through to
    :class:`LoadBalancer` (``health=``, ``health_checks=``, ...).
    """
    balancer = LoadBalancer(addresses, host=host, port=port, **balancer_kwargs)
    thread, loop = _start_balancer_thread(balancer, startup_timeout_s)
    return BalancerHandle(balancer, thread, loop)


class FleetHandle(BalancerHandle):
    """A background fleet: balancer address, live pieces, blocking stop."""

    def __init__(
        self,
        fleet: ReplicaFleet,
        balancer: LoadBalancer,
        thread: threading.Thread,
        loop: asyncio.AbstractEventLoop,
        supervisor: FleetSupervisor | None = None,
    ) -> None:
        super().__init__(balancer, thread, loop)
        self.fleet = fleet
        self.supervisor = supervisor

    def drain(self, index: int) -> tuple[str, int]:
        """Warm-restart one replica with zero dropped requests."""
        if self.supervisor is None:
            raise ServeError("drain requires a supervised fleet")
        return self.supervisor.drain(index)

    def rolling_restart(self) -> list[tuple[str, int]]:
        """Drain + warm-restart every replica, one at a time."""
        if self.supervisor is None:
            raise ServeError("rolling restart requires a supervised fleet")
        return self.supervisor.rolling_restart()

    def stop(self, timeout: float = 60.0) -> None:
        """Graceful fleet stop: broadcast shutdown, join everything.

        Stops the supervisor first (so deliberately exiting replicas are
        not resurrected), then uses the wire protocol (a ``shutdown`` op
        through the balancer) so every replica drains; falls back to
        signalling the balancer if the wire path is already gone.
        """
        from repro.serve.client import ServeClient

        if self.supervisor is not None:
            self.supervisor.stop(timeout_s=timeout)
        if self._thread.is_alive():
            try:
                with ServeClient(*self.address, timeout_s=timeout) as client:
                    client.shutdown()
            except ServeError:
                self._signal_shutdown()
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise ServeError(f"balancer thread did not stop within {timeout}s")
        self.fleet.stop(timeout_s=timeout)


def serve_fleet_in_background(
    *,
    replicas: int,
    workdir: str | os.PathLike,
    directory: str | os.PathLike | None = None,
    neurons: int | None = None,
    warm_start: str | os.PathLike | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    max_batch: int = 64,
    workers: int | None = None,
    adaptive_batch: bool = False,
    backend: str | None = None,
    activations: str | None = None,
    startup_timeout_s: float = 120.0,
    health: HealthPolicy | None = None,
    health_checks: bool = True,
    supervise: bool = True,
    max_restarts: int = 2,
    supervisor_poll_s: float = 0.2,
) -> FleetHandle:
    """K replica processes + balancer (+ supervisor) on a background thread.

    The replica analogue of :func:`repro.serve.app.serve_in_background`:
    returns once the balancer is listening (every replica already bound
    and ready), and the handle's context-manager exit drains the whole
    fleet.  ``workdir`` holds the replica port files.  With
    ``supervise=True`` (the default) a :class:`FleetSupervisor` watches
    the subprocesses and restarts crashed replicas up to ``max_restarts``
    times each.
    """
    fleet = ReplicaFleet(
        replicas,
        directory=directory,
        neurons=neurons,
        warm_start=warm_start,
        workdir=workdir,
        host=host,
        max_batch=max_batch,
        workers=workers,
        adaptive_batch=adaptive_batch,
        backend=backend,
        activations=activations,
    )
    addresses = fleet.start(timeout_s=startup_timeout_s)
    balancer = LoadBalancer(
        addresses, host=host, port=port, health=health, health_checks=health_checks
    )
    supervisor: FleetSupervisor | None = None
    if supervise:
        supervisor = FleetSupervisor(
            fleet,
            balancer,
            max_restarts=max_restarts,
            poll_interval_s=supervisor_poll_s,
            restart_timeout_s=startup_timeout_s,
        )
    try:
        thread, loop = _start_balancer_thread(balancer, startup_timeout_s)
    except ServeError:
        fleet.terminate()
        raise
    if supervisor is not None:
        supervisor.start()
    return FleetHandle(fleet, balancer, thread, loop, supervisor=supervisor)
