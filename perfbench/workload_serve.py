"""The ``serve`` workload: ``repro challenge serve`` under load.

The server runs as its own subprocess on a shallow network, so it shares
no interpreter lock with the load generator.  The benchmark process
drives it over at most ``clients`` connections, in two phases:

* **open loop** -- requests, encoded in advance, are due on a fixed
  schedule (``rate`` per second) whatever the server does; latency is timed from each
  request's due time, so a stall also delays the requests behind it.
  How late the generator itself ran is recorded and bounded.
* **closed loop** -- each client sends its next request as soon as the
  previous answer arrives, in bursts of a fixed size; the burst rate is
  the capacity.

Every answer is compared with an offline ``sparse_dnn_inference`` of the
same rows computed during set-up.  The server is stopped with the
``shutdown`` op and must exit.
"""

from __future__ import annotations

import math
import os
import select
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import ROOT, Outcome, median, peak_rss_mb, percentile, repeated_setup, until_elapsed
from spans import span_cost_seconds

from repro.challenge import (
    challenge_input_batch,
    generate_challenge_network,
    save_challenge_network,
    sparse_dnn_inference,
)
from repro.serve import ServeClient, protocol

SIZES = {
    # open-loop rate: about half of the closed-loop capacity of the mix.
    # One request in `block` carries `big_rows` rows: at one in ten the
    # open-loop p95 falls near the median latency of those heavy requests,
    # which measures their protocol cost instead of the machine's rarest
    # stalls.
    "full": dict(neurons=1024, layers=6, connections=8, pool=512, rate=200.0,
                 block=10, big_rows=16, clients=2, burst=100),
    "tiny": dict(neurons=64, layers=3, connections=8, pool=64, rate=100.0,
                 block=10, big_rows=4, clients=2, burst=20),
}
#: Share of ``--seconds`` spent in the open-loop phase; the rest measures capacity.
OPEN_SHARE = 0.65
#: How long answers may trail the last due time before they count as missing.
DRAIN_S = 5.0
#: The open-loop result is void if the generator sent later than this (p99).
SEND_LAG_BOUND_MS = 50.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


@dataclass
class Request:
    rows: int
    line: bytes
    expected: list[int]


def _plan(tracer, rng, cfg: dict, pool: np.ndarray, alive: np.ndarray,
          count: int) -> list[Request]:
    """``count`` encoded requests; every ``block``-th one has ``big_rows`` rows.

    Which requests are big is fixed, so every seed offers the same load
    pattern; the rows are drawn from the seeded pool.  Requests are
    encoded here, before the clock starts, so the load generator's own
    JSON work neither delays sending nor competes with reading answers.
    """
    plan = []
    for i in range(count):
        k = cfg["big_rows"] if i % cfg["block"] == cfg["block"] - 1 else 1
        idx = rng.choice(len(pool), k, replace=False)
        with tracer.span("serve.protocol.encode"):
            line = protocol.encode({"op": protocol.OP_INFER, "id": i,
                                    "rows": protocol.rows_to_wire(pool[idx])})
        plan.append(Request(k, line, np.flatnonzero(alive[idx]).tolist()))
    return plan


class _Lines:
    """Newline framing over a blocking socket, with a deadline per line."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = b""

    def readline(self, deadline: float) -> bytes | None:
        while True:
            cut = self.buffer.find(b"\n")
            if cut >= 0:
                line, self.buffer = self.buffer[: cut + 1], self.buffer[cut + 1:]
                return line
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return None
            ready, _, _ = select.select([self.sock], [], [], remaining)
            if ready:
                chunk = self.sock.recv(1 << 16)
                if not chunk:
                    return None
                self.buffer += chunk


class _Server:
    """One ``repro challenge serve`` subprocess and its control connection."""

    def __init__(self, directory: Path, neurons: int, scratch: Path) -> None:
        port_file = directory / "port"
        self.log = (scratch / "server.log").open("ab")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "challenge", "serve", "--dir", str(directory),
             "--neurons", str(neurons), "--port", "0", "--port-file", str(port_file)],
            cwd=ROOT, env=env, stdout=self.log, stderr=subprocess.STDOUT)
        deadline = time.perf_counter() + START_TIMEOUT_S
        while not port_file.exists():
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.kill()
                tail = Path(self.log.name).read_text(errors="replace")[-2000:]
                raise RuntimeError(f"serve subprocess did not start:\n{tail}")
            time.sleep(0.005)
        host, port = port_file.read_text().split()
        self.address = (host, int(port))
        self.control = ServeClient(host, int(port))
        self.control.ping()

    def connect(self) -> socket.socket:
        sock = socket.create_connection(self.address)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def stop(self) -> bool:
        """Stop via the ``shutdown`` op; True if the process exited cleanly."""
        try:
            self.control.shutdown()
            self.control.close()
            return self.proc.wait(timeout=STOP_TIMEOUT_S) == 0
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
            return False
        finally:
            self.log.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()


def _answer_ok(tracer, line: bytes, index: int, request: Request) -> bool:
    with tracer.span("serve.protocol.decode"):
        response = protocol.decode(line)
    return (response.get("ok") is True and response.get("id") == index
            and response.get("categories") == request.expected)


def _run_threads(targets, timeout: float, socks) -> None:
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
    for sock in socks:  # unblocks a sender stuck on a dead server
        sock.close()
    for thread in threads:
        thread.join(1.0)


def _open_loop(tracer, server: _Server, plan: list[Request], cfg: dict) -> dict:
    n, clients = len(plan), cfg["clients"]
    socks = [server.connect() for _ in range(clients)]
    start = time.perf_counter() + 0.05
    due = [start + i / cfg["rate"] for i in range(n)]
    deadline = due[-1] + DRAIN_S
    sent = [math.nan] * n
    answered = [math.nan] * n
    ok = [False] * n

    def sender(c: int) -> None:
        try:
            for i in range(c, n, clients):
                pause = due[i] - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent[i] = time.perf_counter()
                socks[c].sendall(plan[i].line)
        except OSError:
            pass

    def receiver(c: int) -> None:
        lines = _Lines(socks[c])
        try:
            for i in range(c, n, clients):
                line = lines.readline(deadline)
                if line is None:
                    return
                answered[i] = time.perf_counter()
                ok[i] = _answer_ok(tracer, line, i, plan[i])
        except OSError:
            pass

    _run_threads([lambda c=c: sender(c) for c in range(clients)]
                 + [lambda c=c: receiver(c) for c in range(clients)],
                 deadline - time.perf_counter() + 1.0, socks)
    latency = [(answered[i] - due[i]) * 1e3 if ok[i] else math.inf for i in range(n)]
    lag = [(sent[i] - due[i]) * 1e3 for i in range(n) if not math.isnan(sent[i])]
    round_trip = [answered[i] - sent[i] for i in range(n) if ok[i]]
    return dict(latency=latency, lag=lag, round_trip=round_trip, ok=sum(ok),
                unanswered=sum(math.isnan(a) for a in answered))


def _burst(tracer, server: _Server, plan: list[Request], cfg: dict) -> dict:
    clients = cfg["clients"]
    socks = [server.connect() for _ in range(clients)]
    ok = [False] * len(plan)
    start = time.perf_counter()
    deadline = start + 30.0

    def client(c: int) -> None:
        lines = _Lines(socks[c])
        try:
            for i in range(c, len(plan), clients):
                socks[c].sendall(plan[i].line)
                line = lines.readline(deadline)
                if line is None:
                    return
                ok[i] = _answer_ok(tracer, line, i, plan[i])
        except OSError:
            pass

    threads_done = []
    _run_threads([lambda c=c: (client(c), threads_done.append(time.perf_counter()))
                  for c in range(clients)], deadline - start, socks)
    wall = (max(threads_done) if threads_done else deadline) - start
    return dict(wall=wall, ok=sum(ok), rows=sum(r.rows for r in plan))


def _batcher_delta(before: dict, after: dict) -> dict:
    requests = after["requests"] - before["requests"]
    batches = after["batches"] - before["batches"]
    return dict(
        requests=requests,
        batches=batches,
        queue_wait_ms=(after["total_queue_wait_s"] - before["total_queue_wait_s"])
        / requests * 1e3 if requests else 0.0,
        service_ms=(after["total_service_s"] - before["total_service_s"])
        / requests * 1e3 if requests else 0.0,
        rows_per_batch=(after["rows"] - before["rows"]) / batches if batches else 0.0,
    )


def run_serve(ctx) -> Outcome:
    cfg = SIZES[ctx.size]
    tracer = ctx.tracer
    net_seed, pool_seed, plan_seed = (
        int(s) for s in np.random.SeedSequence(ctx.seed).generate_state(3))
    servers: list[_Server] = []

    def setup():
        directory = Path(tempfile.mkdtemp(dir=ctx.scratch))
        network = generate_challenge_network(cfg["neurons"], cfg["layers"],
                                             connections=cfg["connections"], seed=net_seed)
        save_challenge_network(network, directory)
        pool = challenge_input_batch(cfg["neurons"], cfg["pool"], seed=pool_seed)
        alive = np.zeros(len(pool), dtype=bool)
        alive[sparse_dnn_inference(network, pool, record_timing=False).categories] = True
        server = _Server(directory, cfg["neurons"], ctx.scratch)
        servers.append(server)
        # the server's first requests pay lazy start-up costs; pay them here
        for rows in (1, cfg["big_rows"]):
            server.control.infer(pool[:rows])
        return pool, alive, server

    try:
        setup_s, (pool, alive, server) = repeated_setup(setup, release=lambda r: r[2].stop())
        rng = np.random.default_rng(plan_seed)
        open_plan = _plan(tracer, rng, cfg, pool, alive,
                          int(cfg["rate"] * OPEN_SHARE * ctx.seconds))
        burst_plan = _plan(tracer, rng, cfg, pool, alive, cfg["burst"] * cfg["clients"])

        before = server.control.stats()
        opened = _open_loop(tracer, server, open_plan, cfg)
        middle = server.control.stats()
        bursts = until_elapsed((1 - OPEN_SHARE) * ctx.seconds,
                               lambda: _burst(tracer, server, burst_plan, cfg), minimum=2)
        after = server.control.stats()
        stopped = server.stop()
    finally:
        for s in servers:
            if s.proc.poll() is None:
                s.kill()

    n_open, n_burst = len(open_plan), len(burst_plan)
    out = Outcome(attempted=n_open + n_burst * len(bursts))
    out.failed = (n_open - opened["ok"]) + sum(n_burst - b["ok"] for b in bursts)
    open_stats = _batcher_delta(before, middle)
    lag_p99 = percentile(opened["lag"], 99)
    out.check("serve.responses", out.failed == 0,
              f"{out.attempted - out.failed}/{out.attempted} answers equal the offline "
              "sparse_dnn_inference of their rows")
    out.check("serve.answered", opened["unanswered"] == 0,
              f"{opened['unanswered']} open-loop requests unanswered {DRAIN_S:.0f} s "
              "after the last was due")
    out.check("serve.send_lag", lag_p99 <= SEND_LAG_BOUND_MS,
              f"generator p99 send lag {lag_p99:.3f} ms (bound {SEND_LAG_BOUND_MS} ms)")
    out.check("serve.stats", open_stats["requests"] == opened["ok"],
              f"server counted {open_stats['requests']} open-loop requests, "
              f"client got {opened['ok']} answers")
    out.check("serve.shutdown", stopped, "server exited 0 after the shutdown op")

    edges_per_row = cfg["layers"] * cfg["neurons"] * cfg["connections"]
    out.end_to_end = {
        "setup_s": setup_s,
        "wall_s": median([b["wall"] for b in bursts]),
        "infer_edges_per_s": median([b["rows"] * edges_per_row / b["wall"] for b in bursts]),
        "throughput_rps": median([n_burst / b["wall"] for b in bursts]),
        "latency_p50_ms": percentile(opened["latency"], 50),
        "latency_p95_ms": percentile(opened["latency"], 95),
        "peak_rss_mb": peak_rss_mb(),
    }
    if ctx.traced:
        capacity = _batcher_delta(middle, after)
        round_trip_ms = float(np.mean(opened["round_trip"])) * 1e3

        def mean_ms(name: str, requests: int) -> float:
            return sum(s.seconds for s in tracer.spans if s.name == name) / requests * 1e3

        out.per_layer = {
            "serve.batcher.queue_wait_ms": open_stats["queue_wait_ms"],
            "serve.batcher.service_ms": open_stats["service_ms"],
            "serve.batcher.rows_per_batch": open_stats["rows_per_batch"],
            "serve.batcher.batches": open_stats["batches"],
            "serve.batcher.capacity_queue_wait_ms": capacity["queue_wait_ms"],
            "serve.batcher.capacity_service_ms": capacity["service_ms"],
            "serve.batcher.capacity_rows_per_batch": capacity["rows_per_batch"],
            "serve.batcher.capacity_batches": capacity["batches"] / len(bursts),
            "serve.protocol.encode_ms": mean_ms("serve.protocol.encode", n_open + n_burst),
            "serve.protocol.decode_ms": mean_ms("serve.protocol.decode",
                                                n_open + n_burst * len(bursts)),
            "serve.app.round_trip_ms": round_trip_ms,
            "serve.app.other_ms": round_trip_ms - open_stats["queue_wait_ms"]
            - open_stats["service_ms"],
            "serve.loadgen.send_lag_p99_ms": lag_p99,
            "trace.wall_s": out.end_to_end["wall_s"],
            "trace.spans": len(tracer.spans),
            "trace.overhead_s": span_cost_seconds() * len(tracer.spans),
        }
    return out
