"""The asyncio front end: many client connections, one batching worker.

Concurrency model -- three layers, each single-purpose:

* the **event loop** (this module) owns the sockets: it parses one JSON
  line per request, validates it in the protocol layer, and parks the
  connection's coroutine while the request is pending (thousands of idle
  connections cost nothing);
* the **micro-batcher worker pool**
  (:class:`repro.serve.batcher.MicroBatcher`) owns the engine: each of
  its ``workers`` threads takes whatever is queued the moment it is
  free -- a lone request on an idle pool runs at once, requests that
  arrive while every worker is busy coalesce -- and drives one
  :meth:`repro.serve.engine.ServingEngine.step` per micro-batch -- the
  NumPy/SciPy kernels release the GIL, so the event loop stays
  responsive while batches compute and requests/second scales with
  cores;
* completion flows back through a done callback bridged onto the loop
  (``call_soon_threadsafe``) -- no thread is parked per pending request
  -- and the handler writes the response line.

:meth:`ServeApp.run` is the blocking entry point behind
``repro challenge serve``; :func:`serve_in_background` runs the same app
on a daemon thread with its own event loop and returns a handle --
the form tests, benchmarks, and the bundled example embed.

Graceful shutdown (the ``shutdown`` op, or :meth:`ServerHandle.stop`)
stops accepting work, *drains* every queued request, then exits: no
request that was accepted is ever dropped.
"""

from __future__ import annotations

import asyncio
import os
import threading
from typing import Any, Callable

from repro.errors import ReproError, ServeError, ValidationError
from repro.serve import protocol
from repro.serve.batcher import MicroBatcher
from repro.serve.controller import AdaptiveBatchController
from repro.serve.engine import ServingEngine
from repro.utils.clock import Clock


def serve_worker_count(requested: int | None = None) -> int:
    """Batcher worker threads for the serve path: requested, else
    ``min(cpu_count, 4)``.

    No core is reserved for the parent: the serve front end is an
    asyncio loop that spends its life parked on sockets, and the batcher
    workers release the GIL inside the kernels.  Capped at 4 -- engine
    steps are memory-bandwidth-bound, so piling every core of a large
    machine onto one queue stops paying for the extra coordination well
    before then.
    """
    if requested is not None:
        if requested < 1:
            raise ValidationError("worker count must be >= 1")
        return int(requested)
    return min(os.cpu_count() or 1, 4)


class ServeApp:
    """A serving instance: one engine, one batcher pool, one socket.

    ``workers`` batcher threads (default ``min(cpu_count, 4)``) drain
    the shared request queue concurrently; ``adaptive_batch=True``
    attaches an :class:`AdaptiveBatchController` that retunes
    ``max_batch`` from the live batch sizes and queue backlog.
    """

    def __init__(
        self,
        engine: ServingEngine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 64,
        request_timeout_s: float = 60.0,
        clock: Clock | None = None,
        workers: int | None = None,
        adaptive_batch: bool = False,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = int(port)
        self.request_timeout_s = float(request_timeout_s)
        self.controller = AdaptiveBatchController(clock=clock) if adaptive_batch else None
        self.batcher = MicroBatcher(
            engine.step,
            max_batch=max_batch,
            clock=clock,
            workers=serve_worker_count(workers),
            controller=self.controller,
        )
        self.address: tuple[str, int] | None = None
        self.connections_opened = 0
        self.protocol_errors = 0
        self._shutdown: asyncio.Event | None = None
        self._handlers: set[asyncio.Task] = set()
        self._inflight = 0
        self._idle: asyncio.Event | None = None

    # ------------------------------------------------------------------ #
    # request dispatch
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Live serving counters (the ``stats`` op's payload)."""
        payload = {
            **self.batcher.stats_dict(),
            "connections_opened": self.connections_opened,
            "protocol_errors": self.protocol_errors,
            "pending": len(self.batcher.queue),
        }
        if self.controller is not None:
            payload["adaptive"] = self.controller.snapshot()
        return payload

    async def _dispatch(self, line: bytes) -> tuple[dict, bool]:
        """One request line -> (response, shutdown_requested)."""
        request_id: Any = None
        try:
            message = protocol.decode(line)
            request_id = message.get("id")
            op = message.get("op")
            if op == protocol.OP_PING:
                return {"id": request_id, "ok": True, "op": "pong"}, False
            if op == protocol.OP_META:
                meta = self.engine.describe()
                meta.update(
                    max_batch=self.batcher.max_batch,
                    workers=self.batcher.workers,
                    adaptive_batch=self.controller is not None,
                )
                return {"id": request_id, "ok": True, **meta}, False
            if op == protocol.OP_STATS:
                return {"id": request_id, "ok": True, **self.stats()}, False
            if op == protocol.OP_SHUTDOWN:
                return {"id": request_id, "ok": True, "op": "shutdown"}, True
            if op == protocol.OP_INFER:
                return await self._dispatch_infer(message, request_id), False
            raise ServeError(f"unknown op {op!r} (expected one of {protocol.OPS})")
        except ReproError as exc:
            self.protocol_errors += 1
            return protocol.error_response(request_id, str(exc)), False
        except Exception as exc:  # noqa: BLE001 - a bad request must never
            # take the connection (or the handler task) down with it
            self.protocol_errors += 1
            return (
                protocol.error_response(request_id, f"internal error: {exc!r}"),
                False,
            )

    async def _dispatch_infer(self, message: dict, request_id: Any) -> dict:
        rows = protocol.rows_from_wire(
            message.get("rows"), neurons=self.engine.neurons
        )
        pending = self.batcher.submit(
            rows, request_id=None if request_id is None else str(request_id)
        )
        loop = asyncio.get_running_loop()
        # bridge the worker-thread completion into the loop with a done
        # callback -> call_soon_threadsafe: no thread is parked per
        # pending request, so request concurrency is not capped by the
        # default executor's worker count
        future: asyncio.Future = loop.create_future()

        def _completed(_: object) -> None:
            try:
                loop.call_soon_threadsafe(
                    lambda: future.done() or future.set_result(None)
                )
            except RuntimeError:  # pragma: no cover - loop already closed
                pass

        pending.add_done_callback(_completed)
        try:
            await asyncio.wait_for(future, timeout=self.request_timeout_s)
        except asyncio.TimeoutError:
            raise ServeError(
                f"request {pending.request_id} not completed within "
                f"{self.request_timeout_s}s"
            ) from None
        result = pending.result(timeout=0)
        response = {
            "id": request_id,
            "ok": True,
            "categories": result.categories.tolist(),
            "stats": result.stats.as_dict(),
        }
        if message.get("want") == "activations":
            response["activations"] = result.activations.tolist()
        return response

    # ------------------------------------------------------------------ #
    # connection handling
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
                    # line overran the stream limit: unframeable, close
                    self.protocol_errors += 1
                    writer.write(
                        protocol.encode(
                            protocol.error_response(None, "protocol line too long")
                        )
                    )
                    break
                if not line:
                    break  # client closed
                if line.strip() == b"":
                    continue
                # count the dispatch-to-response window so shutdown can
                # wait for in-flight requests before reaping connections
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
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover - client died
            pass
        except asyncio.CancelledError:
            # only our own shutdown path cancels handlers; ending the
            # coroutine normally keeps the stream protocol's done-callback
            # (which re-raises a cancelled task's "exception") quiet
            pass
        finally:
            if task is not None:
                self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _main(
        self, on_ready: Callable[[tuple[str, int]], None] | None = None
    ) -> None:
        """Serve until a ``shutdown`` op (or cancellation), then drain."""
        self._shutdown = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self.batcher.start()
        try:
            server = await asyncio.start_server(
                self._handle, self.host, self.port, limit=protocol.MAX_LINE_BYTES
            )
        except OSError:
            self.batcher.close(drain=False)
            raise
        sockname = server.sockets[0].getsockname()
        self.address = (str(sockname[0]), int(sockname[1]))
        if on_ready is not None:
            on_ready(self.address)
        try:
            async with server:
                await self._shutdown.wait()
        finally:
            # accepted requests are never dropped: drain the batcher, let
            # every in-flight dispatch write its response, and only then
            # reap connections still parked on readline (they would be
            # destroyed mid-coroutine when the loop closes otherwise)
            self.batcher.close(drain=True)
            try:
                await asyncio.wait_for(
                    self._idle.wait(), timeout=self.request_timeout_s
                )
            except asyncio.TimeoutError:  # pragma: no cover - defensive
                pass
            for handler in list(self._handlers):
                handler.cancel()
            if self._handlers:
                await asyncio.gather(*self._handlers, return_exceptions=True)

    def run(self, on_ready: Callable[[tuple[str, int]], None] | None = None) -> None:
        """Blocking entry point (the ``repro challenge serve`` body)."""
        try:
            asyncio.run(self._main(on_ready))
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass


class ServerHandle:
    """A background server: address, live app, and a blocking ``stop``."""

    def __init__(self, app: ServeApp, thread: threading.Thread, loop: asyncio.AbstractEventLoop) -> None:
        self.app = app
        self._thread = thread
        self._loop = loop

    @property
    def address(self) -> tuple[str, int]:
        assert self.app.address is not None
        return self.app.address

    def stop(self, timeout: float = 30.0) -> None:
        """Request graceful shutdown (drains the queue) and join the thread."""
        def _signal() -> None:
            if self.app._shutdown is not None:
                self.app._shutdown.set()

        try:
            self._loop.call_soon_threadsafe(_signal)
        except RuntimeError:
            pass  # loop already closed: the server stopped on its own
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise ServeError(f"server thread did not stop within {timeout}s")

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve_in_background(
    engine: ServingEngine,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    max_batch: int = 64,
    request_timeout_s: float = 60.0,
    startup_timeout_s: float = 30.0,
    workers: int | None = None,
    adaptive_batch: bool = False,
) -> ServerHandle:
    """Run a :class:`ServeApp` on a daemon thread; return once it is listening.

    The returned :class:`ServerHandle` exposes the bound ``address``
    (``port=0`` picks an ephemeral port) and a graceful ``stop``; use it
    as a context manager so tests and benchmarks always drain and join.
    Startup failures (port in use, engine errors) re-raise here, in the
    caller's thread.
    """
    app = ServeApp(
        engine,
        host=host,
        port=port,
        max_batch=max_batch,
        request_timeout_s=request_timeout_s,
        workers=workers,
        adaptive_batch=adaptive_batch,
    )
    ready = threading.Event()
    holder: dict[str, Any] = {}

    def _runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)

        def _on_ready(address: tuple[str, int]) -> None:
            holder["loop"] = loop
            ready.set()

        try:
            loop.run_until_complete(app._main(_on_ready))
        except BaseException as exc:  # noqa: BLE001 - relayed to the starter
            holder["error"] = exc
        finally:
            ready.set()
            asyncio.set_event_loop(None)
            loop.close()

    thread = threading.Thread(target=_runner, daemon=True, name="serve-app")
    thread.start()
    if not ready.wait(startup_timeout_s):  # pragma: no cover - defensive
        raise ServeError(f"server did not start within {startup_timeout_s}s")
    if "error" in holder:
        thread.join(timeout=5.0)
        raise ServeError(f"server failed to start: {holder['error']}") from holder["error"]
    if "loop" not in holder:  # pragma: no cover - defensive
        raise ServeError("server exited before binding its socket")
    return ServerHandle(app, thread, holder["loop"])
