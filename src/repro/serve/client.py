"""Client side: a blocking protocol client and the bundled load generator.

:class:`ServeClient` is a deliberately boring synchronous socket client
-- one JSON line out, one JSON line back -- so stress tests can run one
per thread and the CLI can script it.  :func:`bench_serve` is the load
generator behind ``repro challenge bench-serve``: ``clients`` threads
fire ``requests`` total inference requests (challenge-style input rows)
at a live server and the aggregate reports the serving figures of merit
-- requests/second, rows/second, and latency percentiles (p50/p95/p99)
-- plus the server's own batching counters.  :func:`saturation_sweep`
(``bench-serve --sweep``) runs a clients x rows grid of those
measurements and locates the *knee* of the throughput/latency curve --
the offered concurrency beyond which added clients stop buying
throughput and only buy latency -- the serve-path regression signal the
perf ledger records PR-to-PR.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import ServeError, ValidationError
from repro.serve import protocol


class ServeClient:
    """A blocking newline-JSON client for one server connection."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout_s: float = 60.0,
        connect_timeout_s: float = 10.0,
    ) -> None:
        self.host = host
        self.port = int(port)
        try:
            self._sock = socket.create_connection(
                (host, self.port), timeout=connect_timeout_s
            )
        except OSError as exc:
            raise ServeError(
                f"cannot connect to serve instance at {host}:{port}: {exc}"
            ) from None
        self.timeout_s = float(timeout_s)
        self._sock.settimeout(timeout_s)
        self._file = self._sock.makefile("rwb")
        self._lock = threading.Lock()
        self._broken = False

    # ------------------------------------------------------------------ #
    def request(self, message: dict) -> dict:
        """Send one request line; block for (and return) its response.

        A request that times out (``timeout_s``) or hits a connection
        error raises a clean :class:`ServeError` *and* poisons this
        client: the protocol pairs responses to requests by stream
        order, so after a timeout a late response could be mistaken for
        the answer to the *next* request.  Open a fresh client instead.
        """
        payload = protocol.encode(message)
        with self._lock:
            if self._broken:
                raise ServeError(
                    "serve connection is broken (a previous request timed out "
                    "or failed); open a new client"
                )
            try:
                self._file.write(payload)
                self._file.flush()
                line = self._file.readline(protocol.MAX_LINE_BYTES + 2)
            except socket.timeout:
                self._broken = True
                raise ServeError(
                    f"request {message.get('op')!r} timed out after "
                    f"{self.timeout_s}s waiting for {self.host}:{self.port}"
                ) from None
            except OSError as exc:
                self._broken = True
                raise ServeError(f"serve connection failed: {exc}") from None
            if not line:
                self._broken = True
                raise ServeError("server closed the connection")
        return protocol.decode(line)

    def checked(self, message: dict) -> dict:
        """Like :meth:`request`, raising :class:`ServeError` on ``ok: false``."""
        response = self.request(message)
        if not response.get("ok"):
            raise ServeError(
                f"server rejected {message.get('op')!r}: {response.get('error')}"
            )
        return response

    def infer(
        self,
        rows: np.ndarray,
        *,
        request_id: str | None = None,
        want_activations: bool = False,
        encoding: str = "dense",
    ) -> dict:
        """Run the recurrence over ``(k, neurons)`` rows; checked response."""
        rows = np.asarray(rows, dtype=np.float64)
        message: dict[str, Any] = {
            "op": protocol.OP_INFER,
            "rows": protocol.rows_to_wire(rows, encoding=encoding),
        }
        if request_id is not None:
            message["id"] = request_id
        if want_activations:
            message["want"] = "activations"
        return self.checked(message)

    def ping(self) -> dict:
        return self.checked({"op": protocol.OP_PING})

    def meta(self) -> dict:
        return self.checked({"op": protocol.OP_META})

    def stats(self) -> dict:
        return self.checked({"op": protocol.OP_STATS})

    def shutdown(self) -> dict:
        return self.checked({"op": protocol.OP_SHUTDOWN})

    def drain(self, replica: int) -> dict:
        """Balancer-only: warm-restart one replica (zero dropped requests)."""
        return self.checked({"op": protocol.OP_DRAIN, "replica": int(replica)})

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# the load generator (`repro challenge bench-serve`)
# --------------------------------------------------------------------------- #
@dataclass
class _ClientOutcome:
    latencies: list[float]
    errors: list[str]


def _percentile(latencies: np.ndarray, q: float) -> float:
    return float(np.percentile(latencies, q)) if latencies.size else 0.0


def bench_serve(
    host: str,
    port: int,
    *,
    requests: int = 100,
    clients: int = 4,
    rows_per_request: int = 1,
    seed: int = 0,
    encoding: str = "dense",
    shutdown: bool = False,
    timeout_s: float = 120.0,
) -> dict:
    """Fire ``requests`` inference requests from ``clients`` threads.

    Input rows are challenge-style batches
    (:func:`repro.challenge.generator.challenge_input_batch`, one
    distinct seed per request) against whatever network the server
    reports in its ``meta``.  Returns a JSON-serializable report:
    request/row throughput, latency percentiles, error count, and the
    server-side ``stats`` snapshot (batch shapes, queue waits) taken
    after the run.  ``shutdown=True`` sends a graceful ``shutdown`` op
    once the load completes -- the CI smoke uses that to tear the
    background server down deterministically.
    """
    from repro.challenge.generator import challenge_input_batch

    if requests < 1:
        raise ValidationError(f"requests must be >= 1, got {requests}")
    if clients < 1:
        raise ValidationError(f"clients must be >= 1, got {clients}")
    if rows_per_request < 1:
        raise ValidationError(f"rows_per_request must be >= 1, got {rows_per_request}")
    clients = min(clients, requests)

    with ServeClient(host, port, timeout_s=timeout_s) as probe:
        meta = probe.meta()
    neurons = int(meta["neurons"])

    # pre-generate every request's rows so the measured window is pure
    # serve traffic, not client-side RNG work
    batches = [
        challenge_input_batch(neurons, rows_per_request, seed=seed + i)
        for i in range(requests)
    ]
    shares = [batches[i::clients] for i in range(clients)]
    outcomes = [_ClientOutcome([], []) for _ in range(clients)]
    start_barrier = threading.Barrier(clients + 1)

    def _client(index: int) -> None:
        outcome = outcomes[index]
        try:
            with ServeClient(host, port, timeout_s=timeout_s) as client:
                start_barrier.wait()
                for i, rows in enumerate(shares[index]):
                    begin = time.perf_counter()
                    client.infer(
                        rows,
                        request_id=f"bench-{index}-{i}",
                        encoding=encoding,
                    )
                    outcome.latencies.append(time.perf_counter() - begin)
        except Exception as exc:  # noqa: BLE001 - reported in the aggregate
            outcome.errors.append(str(exc))
            try:
                start_barrier.abort()
            except threading.BrokenBarrierError:  # pragma: no cover
                pass

    threads = [
        threading.Thread(target=_client, args=(i,), daemon=True, name=f"bench-client-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    try:
        start_barrier.wait(timeout=timeout_s)
    except threading.BrokenBarrierError:
        pass  # a client failed to connect; its error is in the aggregate
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=timeout_s)
    wall_seconds = time.perf_counter() - wall_start

    latencies = np.asarray(
        [value for outcome in outcomes for value in outcome.latencies], dtype=np.float64
    )
    errors = [message for outcome in outcomes for message in outcome.errors]
    completed = int(latencies.size)

    server_stats: dict = {}
    shutdown_ok = None
    try:
        with ServeClient(host, port, timeout_s=timeout_s) as tail:
            server_stats = {
                k: v for k, v in tail.stats().items() if k not in ("id", "ok")
            }
            if shutdown:
                shutdown_ok = bool(tail.shutdown().get("ok"))
    except ServeError as exc:
        errors.append(f"post-run stats/shutdown failed: {exc}")

    return {
        "requests": requests,
        "completed": completed,
        "errors": len(errors),
        "error_messages": errors[:10],
        "clients": clients,
        "rows_per_request": rows_per_request,
        "encoding": encoding,
        "wall_seconds": wall_seconds,
        "requests_per_second": completed / wall_seconds if wall_seconds > 0 else 0.0,
        "rows_per_second": (
            completed * rows_per_request / wall_seconds if wall_seconds > 0 else 0.0
        ),
        "latency_p50_ms": _percentile(latencies, 50) * 1000.0,
        "latency_p95_ms": _percentile(latencies, 95) * 1000.0,
        "latency_p99_ms": _percentile(latencies, 99) * 1000.0,
        "latency_max_ms": float(latencies.max() * 1000.0) if completed else 0.0,
        "server": {"neurons": neurons, "layers": meta.get("layers"),
                   "backend": meta.get("backend"), "activations": meta.get("activations"),
                   "max_batch": meta.get("max_batch")},
        "server_stats": server_stats,
        "shutdown_sent": bool(shutdown),
        "shutdown_ok": shutdown_ok,
    }


# --------------------------------------------------------------------------- #
# saturation sweep (`repro challenge bench-serve --sweep`)
# --------------------------------------------------------------------------- #
def _locate_knee(points: list[dict], *, min_gain: float = 0.10) -> dict | None:
    """The knee of one rows-slice of the sweep grid.

    ``points`` must share ``rows_per_request`` and be sorted by
    ``clients``.  Walking up the concurrency ladder, the knee is the
    last point whose throughput improved by at least ``min_gain`` over
    its predecessor -- beyond it, added clients only buy latency.  A
    curve that never gains (single useful client) knees at its first
    point; a curve still gaining at the end knees at its last point
    (``saturated: False`` -- the sweep did not reach the plateau).
    """
    if not points:
        return None
    knee_index = 0
    for i in range(1, len(points)):
        prev = points[i - 1]["requests_per_second"]
        curr = points[i]["requests_per_second"]
        if prev <= 0 or curr >= prev * (1.0 + min_gain):
            knee_index = i
        else:
            break
    knee = dict(points[knee_index])
    knee["saturated"] = knee_index < len(points) - 1
    return knee


def saturation_sweep(
    host: str,
    port: int,
    *,
    clients_grid: tuple[int, ...] = (1, 2, 4, 8),
    rows_grid: tuple[int, ...] = (1,),
    requests_per_point: int = 60,
    seed: int = 0,
    encoding: str = "dense",
    timeout_s: float = 240.0,
    min_gain: float = 0.10,
) -> dict:
    """Map the throughput/latency curve of a live server and find its knee.

    For every ``rows x clients`` grid point this runs one
    :func:`bench_serve` measurement (``requests_per_point`` requests,
    distinct seeds per point so no two points replay the same rows) and
    records throughput, latency percentiles, and the *per-point*
    server-side queue-wait vs compute split (differenced from the
    cumulative ``stats`` totals between points).  The knee -- per rows
    value and overall (highest-throughput knee across rows values) -- is
    located by :func:`_locate_knee`.  The returned report is
    JSON-serializable; ``bench-serve --sweep`` writes it for the CI
    saturation artifact and :mod:`benchmarks.ledger` records the knee.
    """
    clients_grid = tuple(sorted({int(c) for c in clients_grid}))
    rows_grid = tuple(sorted({int(r) for r in rows_grid}))
    if not clients_grid or clients_grid[0] < 1:
        raise ValidationError(f"clients_grid must be >= 1, got {clients_grid}")
    if not rows_grid or rows_grid[0] < 1:
        raise ValidationError(f"rows_grid must be >= 1, got {rows_grid}")
    if requests_per_point < 1:
        raise ValidationError(
            f"requests_per_point must be >= 1, got {requests_per_point}"
        )

    grid: list[dict] = []
    knees: list[dict] = []
    # baseline the cumulative server counters so the first point's
    # queue-wait/compute attribution excludes any pre-sweep traffic
    try:
        with ServeClient(host, port, timeout_s=timeout_s) as probe:
            baseline = probe.stats()
        prev_wait = baseline.get("total_queue_wait_s")
        prev_service = baseline.get("total_service_s")
        prev_batches = baseline.get("batches")
    except ServeError:
        prev_wait = prev_service = prev_batches = None
    point_seed = seed
    for rows in rows_grid:
        slice_points: list[dict] = []
        for clients in clients_grid:
            report = bench_serve(
                host,
                port,
                requests=requests_per_point,
                clients=clients,
                rows_per_request=rows,
                seed=point_seed,
                encoding=encoding,
                timeout_s=timeout_s,
            )
            point_seed += requests_per_point
            point = {
                "clients": clients,
                "rows_per_request": rows,
                "requests": requests_per_point,
                "completed": report["completed"],
                "errors": report["errors"],
                "wall_seconds": report["wall_seconds"],
                "requests_per_second": report["requests_per_second"],
                "rows_per_second": report["rows_per_second"],
                "latency_p50_ms": report["latency_p50_ms"],
                "latency_p99_ms": report["latency_p99_ms"],
            }
            stats = report.get("server_stats") or {}
            wait = stats.get("total_queue_wait_s")
            service = stats.get("total_service_s")
            batches = stats.get("batches")
            if None not in (wait, service, batches, prev_wait):
                d_batches = batches - prev_batches
                if d_batches > 0:
                    point["queue_wait_mean_ms"] = (
                        (wait - prev_wait) / d_batches * 1000.0
                    )
                    point["service_mean_ms"] = (
                        (service - prev_service) / d_batches * 1000.0
                    )
            prev_wait, prev_service, prev_batches = wait, service, batches
            slice_points.append(point)
            grid.append(point)
        knee = _locate_knee(slice_points, min_gain=min_gain)
        if knee is not None:
            knees.append(knee)

    overall = max(knees, key=lambda k: k["requests_per_second"]) if knees else None
    return {
        "clients_grid": list(clients_grid),
        "rows_grid": list(rows_grid),
        "requests_per_point": requests_per_point,
        "encoding": encoding,
        "min_gain": min_gain,
        "grid": grid,
        "knees": knees,
        "knee": overall,
        "errors": int(sum(p["errors"] for p in grid)),
    }
