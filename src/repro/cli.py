"""Command-line interface.

A small ``argparse`` front end over the library, so a topology can be
generated, inspected, verified, and exported without writing Python::

    python -m repro.cli generate --systems "2,2;2,2" --widths 1,2,2,2,1 --out net.npz
    python -m repro.cli info net.npz
    python -m repro.cli verify --systems "2,2;2,2" --widths 1,2,2,2,1
    python -m repro.cli density --systems "3,3;9" --widths 1,1,1,1
    python -m repro.cli challenge --neurons 128 --layers 12 --connections 8
    python -m repro.cli challenge --neurons 128 --layers 12 --save-dir nets/
    python -m repro.cli challenge generate --neurons 16384 --layers 120 --connections 32 --out nets/
    python -m repro.cli challenge run --dir nets/ --neurons 16384 --checkpoint-every 10 --prefetch 4
    python -m repro.cli challenge run --resume nets/checkpoint
    python -m repro.cli challenge serve --dir nets/ --neurons 16384 --port 7744
    python -m repro.cli challenge bench-serve --port 7744 --requests 500 --clients 8
    python -m repro.cli challenge verify --dir nets/ --neurons 128
    python -m repro.cli design --layer-widths 32,64,64,16
    python -m repro.cli train-study --datasets gaussian_mixture --arms radix-net,dense --epochs 5 --output study.json
    python -m repro.cli backends

The kernel-heavy subcommands (``challenge``, ``verify``) accept
``--backend {reference,scipy,vectorized,numba,auto}`` to select the
sparse-kernel implementation (see :mod:`repro.backends`; the
``REPRO_BACKEND`` environment variable sets the default, and ``auto``
micro-probes the registered tiers once and picks the fastest).
``backends`` prints the capability report: which tiers are registered,
which optional tiers are missing and why, JIT warm state and thread
count for numba, and -- with ``--probe`` -- the per-tier fused-kernel
timing behind ``auto``.  Naming a backend that is unknown or not
installed exits 2 (argument-error convention) with a one-line message
listing the available backends.  ``challenge`` additionally
accepts ``--chunk-size`` for chunked (bounded-memory) batched
inference, and ``--activations {auto,dense,sparse}`` /
``--sparse-crossover`` to pick the activation storage policy (CSR
activation batches via SpGEMM vs. dense buffers via SpMM; see
:class:`repro.challenge.inference.ActivationPolicy`).  ``challenge
generate`` streams a network straight to disk one layer at a time
(never holding more than a single layer resident), which is how the
*official* Graph Challenge sizes (16384/65536 neurons) are produced;
``challenge run`` drives the staged streaming pipeline over a saved
network -- layers prefetched from disk on a background thread
(``--prefetch``), pipeline state atomically checkpointed every K layers
(``--checkpoint-every``), interrupted or deliberately staged
(``--stop-after``) runs continued bit-identically with ``--resume`` --
the workflow for official-scale, thousands-of-layers-deep runs;
``challenge serve`` starts a long-lived serving instance (the network
resident in memory, concurrent client requests coalesced into
micro-batches -- see :mod:`repro.serve`) speaking a newline-delimited
JSON protocol over TCP, with ``--warm-start CKPT_DIR`` recovering the
full configuration from a pipeline checkpoint; ``challenge bench-serve``
is the bundled load generator (requests/second + latency percentiles,
``--json`` artifact);
``challenge verify`` cross-checks a network saved on disk (``--save-dir``
/ :func:`repro.challenge.io.save_challenge_network`) against the naive
dense reference recurrence.  ``train-study`` runs the accuracy-versus-
density training comparison (RadiX-Net / random X-Net / dense / pruned
arms, selectable with ``--arms``) over the bundled dataset registry with
genuinely sparse CSR training through the backend kernels (or the
dense-masked path with ``--dense-masked``) and emits a JSON report with
``--output``.

Every subcommand prints a plain-text report and exits 0 on success, 2 on
argument errors (argparse convention), 1 on library errors.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.errors import ReproError, UnknownBackendError


def _parse_int_list(text: str, name: str) -> list[int]:
    try:
        return [int(part) for part in text.replace(" ", "").split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{name} must be a comma-separated integer list") from exc


def parse_systems(text: str) -> list[tuple[int, ...]]:
    """Parse ``"2,2;2,2"`` into ``[(2, 2), (2, 2)]``."""
    systems = []
    for chunk in text.split(";"):
        values = _parse_int_list(chunk, "systems")
        if not values:
            raise argparse.ArgumentTypeError("each system needs at least one radix")
        systems.append(tuple(values))
    if not systems:
        raise argparse.ArgumentTypeError("at least one mixed-radix system is required")
    return systems


def parse_widths(text: str) -> list[int]:
    """Parse ``"1,2,2,2,1"`` into ``[1, 2, 2, 2, 1]``."""
    values = _parse_int_list(text, "widths")
    if not values:
        raise argparse.ArgumentTypeError("widths must be non-empty")
    return values


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a RadiX-Net and save it")
    generate.add_argument("--systems", type=parse_systems, required=True, help='mixed-radix systems, e.g. "2,2;2,2"')
    generate.add_argument("--widths", type=parse_widths, required=True, help='dense widths, e.g. "1,2,2,2,1"')
    generate.add_argument("--out", default=None, help="output .npz path (optional)")
    generate.add_argument("--name", default="radix-net")

    info = subparsers.add_parser("info", help="report the properties of a saved topology")
    info.add_argument("path", help="topology .npz file written by `generate`")

    verify = subparsers.add_parser("verify", help="verify Theorem 1 on a specification")
    verify.add_argument("--systems", type=parse_systems, required=True)
    verify.add_argument("--widths", type=parse_widths, required=True)
    verify.add_argument("--backend", default=None, help="sparse backend for the chain products (see `backends`)")

    density = subparsers.add_parser("density", help="report eq. (4)/(5)/(6) densities for a specification")
    density.add_argument("--systems", type=parse_systems, required=True)
    density.add_argument("--widths", type=parse_widths, required=True)

    challenge = subparsers.add_parser("challenge", help="generate a Graph Challenge style network and run inference")
    challenge.add_argument("--neurons", type=int, default=128)
    challenge.add_argument("--layers", type=int, default=12)
    challenge.add_argument("--connections", type=int, default=8)
    challenge.add_argument("--batch", type=int, default=32)
    challenge.add_argument("--seed", type=int, default=0)
    challenge.add_argument("--backend", default=None, help="sparse backend for the inference kernels (see `backends`)")
    challenge.add_argument("--chunk-size", type=int, default=None, help="mini-batch rows per chunk (bounds peak memory)")
    challenge.add_argument("--activations", choices=["auto", "dense", "sparse"], default="auto",
                           help="activation storage policy: dense SpMM buffers, CSR SpGEMM batches, or per-layer auto crossover")
    challenge.add_argument("--sparse-crossover", type=float, default=None, metavar="DENSITY",
                           help="auto-policy density at or below which activations switch to CSR (default 0.1)")
    challenge.add_argument("--save-dir", default=None, metavar="DIR",
                           help="also save the generated network (TSV + binary sidecar cache) to DIR")
    challenge_sub = challenge.add_subparsers(dest="challenge_command")
    challenge_generate = challenge_sub.add_parser(
        "generate",
        help="stream a challenge network to disk, one layer at a time "
        "(official 16384/65536-neuron sizes included)",
    )
    challenge_generate.add_argument("--out", required=True, metavar="DIR",
                                    help="output directory (TSV layers + meta + binary sidecar cache)")
    challenge_generate.add_argument("--threshold", type=float, default=32.0,
                                    help="activation clamp recorded in the metadata (default 32)")
    challenge_generate.add_argument("--no-shuffle", action="store_true",
                                    help="skip the per-layer neuron permutation (deterministic circulant layers)")
    challenge_generate.add_argument("--no-sidecar", action="store_true",
                                    help="write only the TSVs (skip the binary .npz cache)")
    # SUPPRESS defaults: shared with the parent `challenge` parser -- a
    # subparser default would silently clobber a value given before the
    # `generate` token (see the `verify` subparser below)
    challenge_generate.add_argument("--neurons", type=int, default=argparse.SUPPRESS)
    challenge_generate.add_argument("--layers", type=int, default=argparse.SUPPRESS)
    challenge_generate.add_argument("--connections", type=int, default=argparse.SUPPRESS)
    challenge_generate.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    challenge_generate.add_argument("--backend", default=argparse.SUPPRESS,
                                    help="sparse backend for the per-layer column permutation")
    challenge_run = challenge_sub.add_parser(
        "run",
        help="checkpointed streaming inference over a saved network directory "
        "(resumable, with background layer prefetch)",
    )
    challenge_run.add_argument("--dir", default=None, metavar="DIR",
                               help="network directory written by `challenge generate` / `--save-dir`")
    challenge_run.add_argument("--neurons", type=int, default=None,
                               help="neurons per layer of the saved network (required with --dir; "
                               "pass it after the `run` token)")
    challenge_run.add_argument("--resume", default=None, metavar="CKPT_DIR",
                               help="resume an interrupted run from its checkpoint directory "
                               "(all other parameters come from the checkpoint)")
    challenge_run.add_argument("--checkpoint", default=None, metavar="CKPT_DIR",
                               help="checkpoint directory (default: <network dir>/checkpoint "
                               "when checkpointing is on)")
    challenge_run.add_argument("--checkpoint-every", type=int, default=0, metavar="K",
                               help="atomically checkpoint the pipeline state every K layers (0 = off)")
    # SUPPRESS so a resume can tell "not given" (checkpoint's value) from
    # an explicit depth; fresh runs default to 2
    challenge_run.add_argument("--prefetch", type=int, default=argparse.SUPPRESS,
                               metavar="DEPTH",
                               help="layers read ahead on a background thread; 0 disables "
                               "load/compute overlap (default 2)")
    challenge_run.add_argument("--prefetch-transport", choices=["thread", "process"],
                               default=argparse.SUPPRESS,
                               help="how prefetch overlaps: in-process thread (default) or a "
                               "sidecar process (overlaps even GIL-bound TSV parsing; "
                               "falls back to thread where unavailable)")
    challenge_run.add_argument("--stop-after", type=int, default=None, metavar="L",
                               help="checkpoint and exit cleanly after layer L (staged runs; "
                               "continue with --resume)")
    challenge_run.add_argument("--shards", type=_positive_int, default=None, metavar="K",
                               help="tensor-parallel: partition every layer into K "
                               "column-range shards, each held by its own worker "
                               "process (bit-identical to unsharded; on --resume "
                               "defaults to the checkpoint's recorded count)")
    # SUPPRESS so a resume can tell "not given" (checkpoint's value) from
    # an explicit override, like --prefetch / --prefetch-transport
    challenge_run.add_argument("--shard-transport", choices=["process", "serial"],
                               default=argparse.SUPPRESS,
                               help="how shards exchange the activation frontier: a "
                               "worker-process pool (default; ~1/K model memory per "
                               "process) or in-process serial shards (falls back "
                               "automatically where processes cannot be spawned)")
    challenge_run.add_argument("--no-cache", action="store_true",
                               help="force TSV parsing (ignore the binary sidecar cache)")
    # SUPPRESS defaults: shared with the parent `challenge` parser (see
    # the `verify` subparser below)
    challenge_run.add_argument("--batch", type=int, default=argparse.SUPPRESS)
    challenge_run.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    challenge_run.add_argument("--backend", default=argparse.SUPPRESS,
                               help="sparse backend for the inference kernels")
    challenge_run.add_argument("--activations", choices=["auto", "dense", "sparse"],
                               default=argparse.SUPPRESS)
    challenge_run.add_argument("--sparse-crossover", type=float, default=argparse.SUPPRESS,
                               metavar="DENSITY")
    challenge_serve = challenge_sub.add_parser(
        "serve",
        help="long-lived serving instance: network resident, concurrent requests "
        "coalesced into micro-batches (newline-JSON protocol over TCP)",
    )
    challenge_serve.add_argument("--dir", default=None, metavar="DIR",
                                 help="network directory written by `challenge generate` / `--save-dir`")
    challenge_serve.add_argument("--neurons", type=int, default=None,
                                 help="neurons per layer of the saved network (required with --dir)")
    challenge_serve.add_argument("--warm-start", default=None, metavar="CKPT_DIR",
                                 help="warm restart: recover network directory, neurons, backend, "
                                 "and activation policy from a pipeline checkpoint directory")
    challenge_serve.add_argument("--host", default="127.0.0.1")
    challenge_serve.add_argument("--port", type=int, default=0,
                                 help="listening port (0 = pick an ephemeral port and report it)")
    challenge_serve.add_argument("--port-file", default=None, metavar="PATH",
                                 help="write 'host port' to PATH once listening (for scripted clients)")
    challenge_serve.add_argument("--max-batch", type=int, default=64, metavar="B",
                                 help="row budget per coalesced engine step (default 64)")
    challenge_serve.add_argument("--workers", type=int, default=None,
                                 metavar="N",
                                 help="batcher worker threads draining the request queue "
                                 "(default min(cpu_count, 4))")
    challenge_serve.add_argument("--adaptive-batch", action="store_true",
                                 help="retune max-batch live: grow it while requests "
                                 "queue up behind running batches, relax it when idle")
    challenge_serve.add_argument("--replicas", type=int, default=None, metavar="K",
                                 help="fork K shared-nothing engine processes behind a "
                                 "load balancer on --host/--port (same wire protocol)")
    challenge_serve.add_argument("--health-interval-ms", type=_positive_float,
                                 default=500.0, metavar="T",
                                 help="with --replicas: gap between balancer health "
                                 "pings of each replica (default 500ms)")
    challenge_serve.add_argument("--max-restarts", type=_nonnegative_int,
                                 default=2, metavar="N",
                                 help="with --replicas: crash restarts allowed per "
                                 "replica before the fleet gives it up (default 2)")
    challenge_serve.add_argument("--shards", type=_positive_int, default=None, metavar="K",
                                 help="tensor-parallel resident engine: keep each layer "
                                 "as K column-range slices and all-gather per step "
                                 "(bit-identical; a warm start defaults to the "
                                 "checkpoint's recorded count)")
    challenge_serve.add_argument("--prefetch", type=int, default=2, metavar="DEPTH",
                                 help="background read-ahead while loading the network resident")
    challenge_serve.add_argument("--no-cache", action="store_true",
                                 help="force TSV parsing for the one-time load (ignore the sidecar)")
    # SUPPRESS defaults: shared with the parent `challenge` parser (see
    # the `verify` subparser below)
    challenge_serve.add_argument("--backend", default=argparse.SUPPRESS,
                                 help="sparse backend for the serving kernels")
    challenge_serve.add_argument("--activations", choices=["auto", "dense", "sparse"],
                                 default=argparse.SUPPRESS)
    challenge_serve.add_argument("--sparse-crossover", type=float, default=argparse.SUPPRESS,
                                 metavar="DENSITY")
    challenge_bench_serve = challenge_sub.add_parser(
        "bench-serve",
        help="load-generate against a live serve instance and report "
        "requests/second + latency percentiles",
    )
    challenge_bench_serve.add_argument("--host", default="127.0.0.1")
    challenge_bench_serve.add_argument("--port", type=int, required=True)
    challenge_bench_serve.add_argument("--requests", type=int, default=100,
                                       help="total inference requests to fire (default 100)")
    challenge_bench_serve.add_argument("--clients", type=int, default=4,
                                       help="concurrent client connections (default 4)")
    challenge_bench_serve.add_argument("--rows", type=int, default=1, metavar="K",
                                       help="activation rows per request (default 1)")
    challenge_bench_serve.add_argument("--encoding", choices=["dense", "sparse"],
                                       default="dense",
                                       help="wire encoding for request rows")
    challenge_bench_serve.add_argument("--json", default=None, metavar="PATH",
                                       help="also write the full report as JSON to PATH")
    challenge_bench_serve.add_argument("--shutdown", action="store_true",
                                       help="send a graceful shutdown op after the load completes")
    challenge_bench_serve.add_argument("--timeout-s", type=_positive_float,
                                       default=120.0, metavar="T",
                                       help="per-request timeout; a hung server fails "
                                       "the request with a clean error (default 120)")
    challenge_bench_serve.add_argument("--sweep", action="store_true",
                                       help="saturation sweep: a clients x rows grid of "
                                       "measurements locating the knee of the "
                                       "throughput/latency curve")
    challenge_bench_serve.add_argument("--sweep-clients", default="1,2,4,8", metavar="LIST",
                                       help="comma-separated client counts for --sweep "
                                       "(default 1,2,4,8)")
    challenge_bench_serve.add_argument("--sweep-rows", default="1", metavar="LIST",
                                       help="comma-separated rows-per-request values for "
                                       "--sweep (default 1)")
    challenge_bench_serve.add_argument("--sweep-requests", type=int, default=60, metavar="N",
                                       help="requests per sweep grid point (default 60)")
    challenge_bench_serve.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    challenge_verify = challenge_sub.add_parser(
        "verify", help="cross-check a saved network directory against the dense reference"
    )
    challenge_verify.add_argument("--dir", required=True, help="directory written by `challenge --save-dir` (TSV + sidecar)")
    challenge_verify.add_argument("--neurons", type=int, required=True, help="neurons per layer of the saved network")
    # SUPPRESS defaults: these flags are also defined on the parent
    # `challenge` parser, and a subparser default would silently clobber
    # a value given before the `verify` token (argparse parses the
    # parent first, then lets the child's defaults overwrite)
    challenge_verify.add_argument("--batch", type=int, default=argparse.SUPPRESS)
    challenge_verify.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    challenge_verify.add_argument("--backend", default=argparse.SUPPRESS, help="sparse backend for the production path under test")
    challenge_verify.add_argument("--activations", choices=["auto", "dense", "sparse"], default=argparse.SUPPRESS)
    challenge_verify.add_argument("--no-cache", action="store_true", help="force TSV parsing (ignore the binary sidecar cache)")

    design = subparsers.add_parser("design", help="find a specification matching layer widths")
    design.add_argument("--layer-widths", type=parse_widths, required=True)
    design.add_argument("--max-n-prime", type=int, default=None)

    train_study = subparsers.add_parser(
        "train-study",
        help="train the accuracy-vs-density comparison arms and report/emit JSON",
    )
    train_study.add_argument(
        "--datasets", default="gaussian_mixture,two_spirals",
        help="comma-separated registered dataset names (default: gaussian_mixture,two_spirals)",
    )
    train_study.add_argument(
        "--arms", default="radix-net,random-xnet,dense,pruned",
        help="comma-separated arms to run (subset of radix-net,random-xnet,dense,pruned; "
        "random-xnet/pruned need radix-net, pruned also needs dense)",
    )
    train_study.add_argument("--epochs", type=_positive_int, default=10, help="training epochs per arm")
    train_study.add_argument("--samples", type=_positive_int, default=600, help="samples per dataset")
    train_study.add_argument(
        "--widths", type=parse_widths, default=[16, 32, 32, 8],
        help='target layer widths, e.g. "16,32,32,8"',
    )
    train_study.add_argument(
        "--classes", type=_positive_int, default=4,
        help="classes for class-count-configurable datasets (gaussian_mixture)",
    )
    train_study.add_argument("--seed", type=int, default=0)
    train_study.add_argument(
        "--dense-masked", action="store_true",
        help="train sparse arms as dense-masked layers instead of CSR layers "
        "(the pre-sparse-training code path)",
    )
    train_study.add_argument(
        "--backend", default=None,
        help="sparse backend for the CSR training kernels (default: active backend)",
    )
    train_study.add_argument("--output", default=None, help="write the full JSON report to this path")

    backends_parser = subparsers.add_parser(
        "backends", help="report sparse-kernel backend capabilities"
    )
    backends_parser.add_argument(
        "--probe", action="store_true",
        help="also micro-probe the performance tiers (the measurement "
        "behind --backend auto)",
    )

    return parser


# --------------------------------------------------------------------------- #
# subcommand implementations
# --------------------------------------------------------------------------- #
def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.core.radixnet import generate_radixnet
    from repro.topology.io import save_npz

    net = generate_radixnet(args.systems, args.widths, name=args.name)
    print(f"generated {net!r}")
    if args.out:
        path = save_npz(net, args.out)
        print(f"saved to {path}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.analysis.compare import topology_report
    from repro.topology.io import load_npz
    from repro.viz.report import format_report_rows

    net = load_npz(args.path)
    print(format_report_rows([topology_report(net).as_row()]))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.radixnet import RadixNetSpec
    from repro.core.theory import verify_theorem_1

    spec = RadixNetSpec(args.systems, args.widths)
    check = verify_theorem_1(spec, backend=args.backend)
    print(f"specification: {spec}")
    print(f"symmetric: {check.symmetric}")
    print(f"paths per (input, output) pair: measured {check.measured_paths}, predicted {check.predicted_paths}")
    print(f"Theorem 1 verified: {check.matches_prediction}")
    return 0 if check.matches_prediction else 1


def _cmd_density(args: argparse.Namespace) -> int:
    from repro.core.density import approximate_density, asymptotic_density, effective_depth, exact_density
    from repro.core.radixnet import RadixNetSpec

    spec = RadixNetSpec(args.systems, args.widths)
    mu = spec.mean_radix()
    print(f"specification: {spec}")
    print(f"exact density (eq. 4):       {exact_density(spec):.6g}")
    print(f"approximation (eq. 5, mu/N'): {approximate_density(spec):.6g}")
    print(f"asymptotic (eq. 6, 1/mu^(d-1)): {asymptotic_density(mu, effective_depth(spec)):.6g}")
    return 0


def _cmd_challenge(args: argparse.Namespace) -> int:
    if getattr(args, "challenge_command", None) == "verify":
        return _cmd_challenge_verify(args)
    if getattr(args, "challenge_command", None) == "generate":
        return _cmd_challenge_generate(args)
    if getattr(args, "challenge_command", None) == "run":
        return _cmd_challenge_run(args)
    if getattr(args, "challenge_command", None) == "serve":
        return _cmd_challenge_serve(args)
    if getattr(args, "challenge_command", None) == "bench-serve":
        return _cmd_challenge_bench_serve(args)
    from repro.challenge.generator import challenge_input_batch, generate_challenge_network
    from repro.challenge.inference import ActivationPolicy, engine_for
    from repro.challenge.io import save_challenge_network
    from repro.challenge.verify import verify_categories

    if args.sparse_crossover is not None:
        policy = ActivationPolicy(mode=args.activations, crossover_density=args.sparse_crossover)
    else:
        policy = ActivationPolicy(mode=args.activations)
    network = generate_challenge_network(
        args.neurons, args.layers, connections=args.connections, seed=args.seed
    )
    batch = challenge_input_batch(args.neurons, args.batch, seed=args.seed + 1)
    engine = engine_for(network, args.backend)
    result = engine.run(batch, chunk_size=args.chunk_size, activations=policy)
    print(f"network: {network!r}")
    print(f"backend: {result.backend}")
    print(f"inference: {result.total_seconds:.4f}s, {result.edges_per_second:,.0f} edges/s")
    print(f"activations: policy {result.activation_policy}, "
          f"peak nnz {result.peak_activation_nnz:,} "
          f"(dense buffer would hold {args.batch * args.neurons:,})")
    if result.layer_modes:
        sparse_layers = result.layer_modes.count("sparse")
        print(f"layer modes: {sparse_layers} sparse / {len(result.layer_modes) - sparse_layers} dense")
    print(f"categories: {result.categories.size} of {args.batch}")
    if args.save_dir:
        saved = save_challenge_network(network, args.save_dir)
        print(f"saved network (TSV + sidecar cache) to {saved}")
    verified = verify_categories(network, batch, backend=args.backend, activations=policy)
    print(f"verified against dense reference: {verified}")
    return 0 if verified else 1


def _report_pipeline_outcome(outcome, *, resumed: bool) -> None:
    """Shared report body of `challenge run` (fresh and resumed paths)."""
    from repro.challenge.verify import category_checksum
    from repro.utils.timing import format_rss_mb, peak_rss_mb

    result = outcome.result
    print(f"backend: {result.backend}, activations: {result.activation_policy}")
    if resumed:
        print(f"resumed from checkpoint at layer {outcome.resumed_from}")
    print(f"layers: {outcome.layers_done} of {outcome.num_layers} applied")
    if result.layer_seconds:
        print(f"inference: {result.total_seconds:.4f}s, "
              f"{result.edges_per_second:,.0f} edges/s")
    print(f"activations: peak nnz {result.peak_activation_nnz:,}")
    if outcome.completed:
        print(f"categories: {result.categories.size} "
              f"(checksum {category_checksum(result.categories)})")
    else:
        print(f"stopped after layer {outcome.layers_done} (staged run; categories "
              "are not final)")
    if outcome.checkpoint is not None:
        print(f"checkpoint: {outcome.checkpoint}")
        if not outcome.completed:
            print(f"resume with: repro challenge run --resume {outcome.checkpoint.parent}")
    if outcome.shards:
        readings = [v for v in (outcome.shard_worker_rss_mb or []) if v is not None]
        if readings:
            print(f"shards: {outcome.shards} "
                  f"(max worker peak RSS {format_rss_mb(max(readings))})")
        else:
            print(f"shards: {outcome.shards} (serial transport)")
    print(f"peak RSS: {format_rss_mb(peak_rss_mb())}")


def _cmd_challenge_run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.challenge.generator import challenge_input_batch
    from repro.challenge.inference import ActivationPolicy
    from repro.challenge.pipeline import (
        resume_challenge_pipeline,
        run_challenge_pipeline,
    )
    from repro.errors import ValidationError

    prefetch = getattr(args, "prefetch", None)
    transport = getattr(args, "prefetch_transport", None)
    if args.resume is not None:
        if args.dir is not None:
            raise ValidationError("--resume and --dir are mutually exclusive; the "
                                  "checkpoint records its network directory")
        outcome = resume_challenge_pipeline(
            args.resume,
            backend=args.backend,
            prefetch=prefetch,
            transport=transport,
            stop_after=args.stop_after,
            use_cache=False if args.no_cache else None,
            shards=args.shards,
            shard_transport=getattr(args, "shard_transport", None),
        )
        print(f"network: resumed run over {outcome.num_layers} layers")
        _report_pipeline_outcome(outcome, resumed=True)
        return 0
    if args.dir is None:
        raise ValidationError("challenge run needs --dir (fresh run) or --resume")
    if args.neurons is None:
        raise ValidationError("--neurons is required with --dir (pass it after the "
                              "`run` token)")
    if args.shards is not None and args.shards > args.neurons:
        # argument-error convention (exit 2), like the argparse-level
        # validation of non-positive --shards values
        print(f"error: --shards must be in 1..{args.neurons} (the neuron count), "
              f"got {args.shards}", file=sys.stderr)
        return 2
    if args.sparse_crossover is not None:
        policy = ActivationPolicy(mode=args.activations,
                                  crossover_density=args.sparse_crossover)
    else:
        policy = ActivationPolicy(mode=args.activations)
    checkpointing = (
        args.checkpoint is not None or args.checkpoint_every > 0
        or args.stop_after is not None
    )
    checkpoint_dir = None
    if checkpointing:
        checkpoint_dir = args.checkpoint or str(Path(args.dir) / "checkpoint")
    batch = challenge_input_batch(args.neurons, args.batch, seed=args.seed)
    outcome = run_challenge_pipeline(
        args.dir,
        args.neurons,
        batch,
        backend=args.backend,
        activations=policy,
        prefetch=2 if prefetch is None else prefetch,
        transport=transport or "thread",
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        stop_after=args.stop_after,
        use_cache=not args.no_cache,
        context={"batch_size": args.batch, "seed": args.seed},
        shards=args.shards,
        shard_transport=getattr(args, "shard_transport", None) or "process",
    )
    print(f"network: {args.dir} ({args.neurons} neurons x {outcome.num_layers} layers)")
    _report_pipeline_outcome(outcome, resumed=False)
    return 0


def _cmd_challenge_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.challenge.inference import ActivationPolicy
    from repro.errors import ValidationError
    from repro.serve import ServeApp, ServingEngine

    def on_ready(address: tuple[str, int]) -> None:
        import os

        host, port = address
        print(f"serving on {host}:{port} "
              f"(max_batch {args.max_batch})", flush=True)
        if args.port_file:
            # write-then-rename: a polling client never reads a
            # created-but-not-yet-written file
            target = Path(args.port_file)
            temp = target.with_name(target.name + ".tmp")
            temp.write_text(f"{host} {port}\n")
            os.replace(temp, target)

    if args.shards is not None and args.neurons is not None and args.shards > args.neurons:
        # argument-error convention (exit 2), matching `challenge run`
        print(f"error: --shards must be in 1..{args.neurons} (the neuron count), "
              f"got {args.shards}", file=sys.stderr)
        return 2
    if args.replicas is not None:
        return _serve_fleet(args, on_ready)

    # the parent `challenge` parser defaults --activations to "auto"; treat
    # that as "not given" so a warm start keeps the checkpoint's policy
    # unless the user picked an explicit mode or crossover
    if args.sparse_crossover is not None:
        policy = ActivationPolicy(mode=args.activations,
                                  crossover_density=args.sparse_crossover)
    elif args.activations != "auto":
        policy = args.activations
    else:
        policy = None
    if args.warm_start is not None:
        if args.dir is not None:
            raise ValidationError("--warm-start and --dir are mutually exclusive; the "
                                  "checkpoint records its network directory")
        engine = ServingEngine.from_checkpoint(
            args.warm_start,
            backend=args.backend,
            activations=policy,
            use_cache=not args.no_cache,
            prefetch=args.prefetch,
            shards=args.shards,
        )
    else:
        if args.dir is None:
            raise ValidationError("challenge serve needs --dir (a saved network) or "
                                  "--warm-start (a checkpoint directory)")
        if args.neurons is None:
            raise ValidationError("--neurons is required with --dir (pass it after "
                                  "the `serve` token)")
        engine = ServingEngine.from_directory(
            args.dir,
            args.neurons,
            backend=args.backend,
            activations=policy,
            use_cache=not args.no_cache,
            prefetch=args.prefetch,
            shards=args.shards,
        )
    app = ServeApp(
        engine,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        workers=args.workers,
        adaptive_batch=args.adaptive_batch,
    )
    print(f"engine: {engine!r} ({app.batcher.workers} workers"
          f"{', adaptive batching' if args.adaptive_batch else ''})")

    app.run(on_ready)
    stats = app.stats()
    print(f"served {stats['requests']} requests ({stats['rows']} rows) in "
          f"{stats['batches']} batches "
          f"(mean batch {stats['mean_batch_rows']:.1f} rows, "
          f"max {stats['max_batch_rows']})")
    return 0


def _serve_fleet(args: argparse.Namespace, on_ready) -> int:
    """`challenge serve --replicas K`: process fleet + load balancer.

    The fleet runs supervised: the balancer health-pings every replica
    each ``--health-interval-ms`` and a watcher thread restarts crashed
    replicas up to ``--max-restarts`` times each.
    """
    import tempfile

    from repro.serve.balancer import FleetSupervisor, LoadBalancer, ReplicaFleet
    from repro.serve.health import HealthPolicy

    activations = args.activations if args.activations != "auto" else None
    with tempfile.TemporaryDirectory(prefix="repro-fleet-") as workdir:
        with ReplicaFleet(
            args.replicas,
            directory=args.dir,
            neurons=args.neurons,
            warm_start=args.warm_start,
            workdir=workdir,
            host=args.host,
            max_batch=args.max_batch,
            workers=args.workers,
            adaptive_batch=args.adaptive_batch,
            backend=args.backend,
            activations=activations,
            shards=args.shards,
        ) as fleet:
            addresses = fleet.start()
            print(f"fleet: {len(addresses)} replicas at "
                  + ", ".join(f"{h}:{p}" for h, p in addresses), flush=True)
            # pids on their own line so ops tooling (and the CI chaos
            # smoke) can target a replica process directly
            print("fleet pids: " + " ".join(str(p) for p in fleet.pids), flush=True)
            balancer = LoadBalancer(
                addresses,
                host=args.host,
                port=args.port,
                health=HealthPolicy(interval_s=args.health_interval_ms / 1000.0),
            )
            supervisor = FleetSupervisor(
                fleet, balancer, max_restarts=args.max_restarts
            ).start()
            try:
                balancer.run(on_ready)
            finally:
                supervisor.stop()
            routed = balancer.balancer_stats()
            print(f"balanced {sum(routed['routed'])} requests across "
                  f"{routed['replicas']} replicas "
                  f"(per replica: {routed['routed']})")
            print(f"resilience: {routed['retries']} retries, "
                  f"{routed['restarts']} restarts, "
                  f"{routed['health']['ejections']} ejections, "
                  f"{routed['health']['pings_ok']} pings ok")
            fleet.stop()
    return 0


def _cmd_challenge_bench_serve(args: argparse.Namespace) -> int:
    import json as json_mod
    from pathlib import Path

    from repro.serve import bench_serve

    if args.sweep:
        return _bench_serve_sweep(args)

    report = bench_serve(
        args.host,
        args.port,
        requests=args.requests,
        clients=args.clients,
        rows_per_request=args.rows,
        seed=args.seed,
        encoding=args.encoding,
        shutdown=args.shutdown,
        timeout_s=args.timeout_s,
    )
    server = report["server"]
    print(f"server: {server['neurons']} neurons x {server['layers']} layers, "
          f"backend {server['backend']}, activations {server['activations']}")
    print(f"load: {report['requests']} requests x {report['rows_per_request']} rows "
          f"from {report['clients']} clients ({report['encoding']} encoding)")
    print(f"completed: {report['completed']} of {report['requests']} "
          f"({report['errors']} errors) in {report['wall_seconds']:.3f}s")
    print(f"throughput: {report['requests_per_second']:,.1f} requests/s, "
          f"{report['rows_per_second']:,.1f} rows/s")
    print(f"latency: p50 {report['latency_p50_ms']:.2f}ms, "
          f"p95 {report['latency_p95_ms']:.2f}ms, "
          f"p99 {report['latency_p99_ms']:.2f}ms, "
          f"max {report['latency_max_ms']:.2f}ms")
    batches = report["server_stats"].get("batches")
    if batches:
        print(f"server batching: {batches} engine steps, "
              f"mean batch {report['server_stats']['mean_batch_rows']:.1f} rows, "
              f"max {report['server_stats']['max_batch_rows']}")
    if args.shutdown:
        print(f"shutdown: {'acknowledged' if report['shutdown_ok'] else 'FAILED'}")
    if args.json:
        Path(args.json).write_text(json_mod.dumps(report, indent=2) + "\n")
        print(f"report written to {args.json}")
    return 0 if report["errors"] == 0 and report["completed"] == report["requests"] else 1


def _bench_serve_sweep(args: argparse.Namespace) -> int:
    """`challenge bench-serve --sweep`: locate the saturation knee."""
    import json as json_mod
    from pathlib import Path

    from repro.serve import ServeClient, saturation_sweep

    clients_grid = tuple(int(v) for v in args.sweep_clients.split(","))
    rows_grid = tuple(int(v) for v in args.sweep_rows.split(","))
    report = saturation_sweep(
        args.host,
        args.port,
        clients_grid=clients_grid,
        rows_grid=rows_grid,
        requests_per_point=args.sweep_requests,
        seed=args.seed,
        encoding=args.encoding,
    )
    print(f"sweep: clients {list(clients_grid)} x rows {list(rows_grid)}, "
          f"{args.sweep_requests} requests/point ({args.encoding} encoding)")
    for point in report["grid"]:
        extra = ""
        if "queue_wait_mean_ms" in point:
            extra = (f", queue {point['queue_wait_mean_ms']:.2f}ms / "
                     f"compute {point['service_mean_ms']:.2f}ms")
        print(f"  clients {point['clients']:>3} x rows {point['rows_per_request']:>3}: "
              f"{point['requests_per_second']:,.1f} req/s, "
              f"p50 {point['latency_p50_ms']:.2f}ms, "
              f"p99 {point['latency_p99_ms']:.2f}ms"
              f" ({point['errors']} errors){extra}")
    knee = report["knee"]
    if knee is not None:
        print(f"knee: {knee['clients']} clients x {knee['rows_per_request']} rows -> "
              f"{knee['requests_per_second']:,.1f} req/s at "
              f"p99 {knee['latency_p99_ms']:.2f}ms "
              f"({'saturated' if knee['saturated'] else 'still climbing at grid edge'})")
    if args.shutdown:
        with ServeClient(args.host, args.port) as client:
            ok = bool(client.shutdown().get("ok"))
        print(f"shutdown: {'acknowledged' if ok else 'FAILED'}")
    if args.json:
        Path(args.json).write_text(json_mod.dumps(report, indent=2) + "\n")
        print(f"report written to {args.json}")
    return 0 if report["errors"] == 0 else 1


def _cmd_challenge_generate(args: argparse.Namespace) -> int:
    import time

    from repro.challenge.generator import iter_generate_challenge_layers
    from repro.challenge.io import save_challenge_layers
    from repro.utils.timing import format_rss_mb, peak_rss_mb

    neurons, layers = args.neurons, args.layers
    connections = args.connections
    start = time.perf_counter()
    directory = save_challenge_layers(
        args.out,
        iter_generate_challenge_layers(
            neurons,
            layers,
            connections=connections,
            threshold=args.threshold,
            seed=args.seed,
            shuffle_neurons=not args.no_shuffle,
            backend=args.backend,
        ),
        neurons=neurons,
        num_layers=layers,
        threshold=args.threshold,
        write_sidecar=not args.no_sidecar,
    )
    seconds = time.perf_counter() - start
    edges = neurons * connections * layers
    print(f"network: {neurons} neurons x {layers} layers, "
          f"{connections} connections/neuron ({edges:,} edges)")
    print(f"generation+write: {seconds:.4f}s, {edges / seconds:,.0f} edges/s "
          f"(streaming: peak weight memory is one layer's nnz)")
    sidecar_note = "TSV only" if args.no_sidecar else "TSV + sidecar cache"
    print(f"saved to {directory} ({sidecar_note})")
    print(f"peak RSS: {format_rss_mb(peak_rss_mb())} "
          f"(dense per-layer buffer would be {neurons * neurons * 8 / 2**20:,.1f} MB)")
    return 0


def _cmd_challenge_verify(args: argparse.Namespace) -> int:
    from repro.challenge.generator import challenge_input_batch
    from repro.challenge.inference import sparse_dnn_inference
    from repro.challenge.io import load_challenge_network
    from repro.challenge.verify import category_checksum, reference_categories

    import numpy as np

    network = load_challenge_network(args.dir, args.neurons, use_cache=not args.no_cache)
    batch = challenge_input_batch(args.neurons, args.batch, seed=args.seed)
    result = sparse_dnn_inference(
        network, batch, record_timing=False,
        backend=args.backend, activations=args.activations,
    )
    reference = reference_categories(network, batch)
    verified = bool(np.array_equal(result.categories, reference))
    print(f"network: {network!r} (loaded from {args.dir})")
    print(f"backend: {result.backend}, activations: {result.activation_policy}")
    print(f"categories: {result.categories.size} of {args.batch} "
          f"(checksum {category_checksum(result.categories)})")
    print(f"verified against dense reference: {verified}")
    return 0 if verified else 1


def _cmd_design(args: argparse.Namespace) -> int:
    from repro.core.designer import design_for_widths
    from repro.core.density import exact_density

    result = design_for_widths(args.layer_widths, max_n_prime=args.max_n_prime)
    print(f"target widths:   {tuple(args.layer_widths)}")
    print(f"achieved widths: {result.achieved}")
    print(f"specification:   {result.spec}")
    print(f"density:         {exact_density(result.spec):.6g}")
    print(f"width error:     {result.error}")
    return 0


def _cmd_train_study(args: argparse.Namespace) -> int:
    import contextlib
    import json

    import repro.backends as backends
    from repro.experiments.training import train_study

    datasets = tuple(part for part in args.datasets.replace(" ", "").split(",") if part)
    arms = tuple(part for part in args.arms.replace(" ", "").split(",") if part)
    scope = backends.use(args.backend) if args.backend else contextlib.nullcontext()
    with scope:
        report = train_study(
            datasets=datasets,
            num_samples=args.samples,
            num_classes=args.classes,
            layer_widths=tuple(args.widths),
            epochs=args.epochs,
            seed=args.seed,
            arms=arms,
            sparse_training=not args.dense_masked,
        )
    mode = "dense-masked" if args.dense_masked else "sparse (CSR + backend kernels)"
    print(f"train-study: {len(report['datasets'])} dataset(s), "
          f"arms {report['config']['arms']}, {args.epochs} epoch(s), {mode}")
    for dataset, entry in report["datasets"].items():
        print(f"\n{dataset} ({entry['num_classes']} classes):")
        for arm_name, arm in entry["arms"].items():
            print(
                f"  {arm_name:<12} density={arm['density']:.4f}  "
                f"params={arm['parameter_count']:<7d} "
                f"val_acc={arm['val_accuracy']:.4f}  "
                f"loss={arm['train_loss']:.4f}"
            )
        for arm_name, gap in entry.get("accuracy_gap_vs_dense", {}).items():
            print(f"  gap vs dense  {arm_name}: {gap:+.4f}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"\nreport written to {args.output}")
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    import repro.backends as backends

    print(backends.format_capability_report(include_probe=args.probe))
    print(f"(active = current default; override with repro.backends.use(...), "
          f"--backend, or the {backends.DEFAULT_BACKEND_ENV} environment variable; "
          f"'auto' picks the fastest tier)")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "info": _cmd_info,
    "verify": _cmd_verify,
    "density": _cmd_density,
    "challenge": _cmd_challenge,
    "design": _cmd_design,
    "train-study": _cmd_train_study,
    "backends": _cmd_backends,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UnknownBackendError as error:
        # argument-error convention (argparse exits 2): a mistyped or
        # not-installed --backend / REPRO_BACKEND name
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
