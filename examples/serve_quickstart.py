#!/usr/bin/env python3
"""Serving quickstart: a resident challenge network behind request batching.

The serving subsystem (:mod:`repro.serve`) turns the one-shot challenge
pipeline into a long-lived service: the network is loaded resident
*once* (weights + precomputed transposes), and many concurrent clients'
requests are coalesced into micro-batches -- one
:func:`repro.challenge.pipeline.run_pipeline` step per batch, rows
scattered back per request bit-identically to single-shot inference.
Equivalent CLI session::

    repro challenge generate --neurons 256 --layers 12 --out DIR
    repro challenge serve --dir DIR --neurons 256 --port 7744 \
        --max-batch 32 &
    repro challenge bench-serve --port 7744 --requests 500 --clients 8 \
        --json report.json --shutdown

This example runs the whole loop in one process:

1. **generate + load** -- stream a network to disk, then bring it up
   resident in a :class:`repro.serve.ServingEngine`;
2. **serve** -- start the asyncio front end on a background thread
   (ephemeral port, newline-delimited JSON protocol over TCP);
3. **talk to it** -- a :class:`repro.serve.ServeClient` pings the
   server, reads its metadata, and runs one inference request whose
   result is verified bit-for-bit against a single-shot
   :meth:`InferenceEngine.run`;
4. **load-generate** -- :func:`repro.serve.bench_serve` fires a few
   hundred concurrent requests and reports requests/second and latency
   percentiles, plus the server's own batching counters (how many rows
   each engine step amortized);
5. **warm restart** -- a pipeline checkpoint records the full serve
   configuration, so a second server comes up from the checkpoint
   directory alone (``--warm-start``).

Run with:  python examples/serve_quickstart.py [--neurons 256] [--layers 12]
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from repro.challenge.generator import (
    challenge_input_batch,
    iter_generate_challenge_layers,
)
from repro.challenge.inference import InferenceEngine
from repro.challenge.io import load_challenge_network, save_challenge_layers
from repro.challenge.pipeline import run_challenge_pipeline
from repro.serve import ServeClient, ServingEngine, bench_serve, serve_in_background


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--neurons", type=int, default=256)
    parser.add_argument("--layers", type=int, default=12)
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--clients", type=int, default=6)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        net_dir = Path(tmp) / "net"
        print(f"== generating {args.neurons} neurons x {args.layers} layers ==")
        save_challenge_layers(
            net_dir,
            iter_generate_challenge_layers(
                args.neurons, args.layers, connections=8, seed=0
            ),
            neurons=args.neurons,
            num_layers=args.layers,
            threshold=32.0,
        )

        print("\n== loading the network resident (weights + transposes, once) ==")
        engine = ServingEngine.from_directory(net_dir, args.neurons, activations="dense")
        print(f"   {engine!r}")

        with serve_in_background(engine, max_batch=32) as handle:
            host, port = handle.address
            print(f"\n== serving on {host}:{port} ==")

            with ServeClient(host, port) as client:
                print(f"   ping -> {client.ping()['op']}")
                meta = client.meta()
                print(f"   meta -> {meta['neurons']} neurons, {meta['layers']} layers, "
                      f"backend {meta['backend']}, max_batch {meta['max_batch']}")

                rows = challenge_input_batch(args.neurons, 4, seed=1)
                response = client.infer(rows, request_id="demo", want_activations=True)
                single = InferenceEngine(
                    load_challenge_network(net_dir, args.neurons),
                    activations="dense",
                ).run(rows, record_timing=False)
                served = np.asarray(response["activations"])
                assert (served == single.activations).all()
                assert response["categories"] == [int(c) for c in single.categories]
                print(f"   infer -> categories {response['categories']} "
                      "(bit-identical to single-shot InferenceEngine.run)")
                print(f"   request stats: rode a {response['stats']['batch_rows']}-row "
                      f"batch, queue wait "
                      f"{response['stats']['queue_wait_s'] * 1000:.2f} ms")

            print(f"\n== load generator: {args.requests} requests x 2 rows "
                  f"from {args.clients} clients ==")
            report = bench_serve(
                host, port,
                requests=args.requests,
                clients=args.clients,
                rows_per_request=2,
                seed=2,
            )
            assert report["errors"] == 0, report["error_messages"]
            print(f"   {report['requests_per_second']:,.0f} requests/s, "
                  f"{report['rows_per_second']:,.0f} rows/s")
            print(f"   latency p50 {report['latency_p50_ms']:.2f} ms, "
                  f"p99 {report['latency_p99_ms']:.2f} ms")
            print(f"   batching: {report['server_stats']['batches']} engine steps, "
                  f"mean {report['server_stats']['mean_batch_rows']:.1f} rows/step "
                  f"(max_batch 32)")

        print("\n== warm restart from a pipeline checkpoint ==")
        batch = challenge_input_batch(args.neurons, 8, seed=3)
        run_challenge_pipeline(
            net_dir, args.neurons, batch, activations="dense",
            checkpoint_dir=Path(tmp) / "checkpoint", checkpoint_every=4,
        )
        warm = ServingEngine.from_checkpoint(Path(tmp) / "checkpoint")
        with serve_in_background(warm) as handle:
            with ServeClient(*handle.address) as client:
                meta = client.meta()
                print(f"   recovered {meta['neurons']} neurons x {meta['layers']} "
                      f"layers, policy {meta['activations']!r} from the checkpoint "
                      "(no --dir/--neurons flags)")
        print("\ndone: every served result matched single-shot inference bit-for-bit")


if __name__ == "__main__":
    main()
