"""The ``train`` workload: a RadiX-Net trained with CSR layers.

A RadiX-Net designed for the widths (256, 1024, 1024, 16) is built with
``model_from_topology(..., sparse_training=True)`` and trained with Adam
on ``synthetic_mnist`` (16 x 16 images, so 256 features, labels padded
to the 16 outputs) for a fixed number of epochs by ``Trainer.fit``.  One
operation trains a freshly initialised model, so every operation of a
run does identical work.
"""

from __future__ import annotations

import math
import time

import numpy as np

from common import Outcome, median, peak_rss_mb, percentile, repeated_setup, until_elapsed
from probes import StepTimer, TimedBackend, kernel_metrics
from spans import trace_metrics

import repro.backends as backends
from repro.core.designer import design_for_widths
from repro.core.radixnet import generate_from_spec
from repro.datasets import synthetic_mnist
from repro.nn.builder import model_from_topology
from repro.nn.data import one_hot, train_val_split
from repro.nn.optimizers import Adam
from repro.nn.train import Trainer

CLASSES = 10
#: Rows of the training set the set-up's warm-up steps run on.
WARMUP_ROWS = 128
SIZES = {
    "full": dict(widths=(256, 1024, 1024, 16), image_size=16, samples=1600,
                 epochs=2, batch_size=64, learning_rate=1e-3, accuracy_floor=0.5),
    "tiny": dict(widths=(64, 128, 128, 16), image_size=8, samples=400,
                 epochs=3, batch_size=32, learning_rate=1e-2, accuracy_floor=0.3),
}


def run_train(ctx) -> Outcome:
    cfg = SIZES[ctx.size]
    tracer = ctx.tracer
    data_seed, model_seed = (int(s) for s in np.random.SeedSequence(ctx.seed).generate_state(2))

    def setup():
        features, labels = synthetic_mnist(cfg["samples"], image_size=cfg["image_size"],
                                           seed=data_seed)
        targets = np.pad(one_hot(labels, CLASSES), ((0, 0), (0, cfg["widths"][-1] - CLASSES)))
        split = train_val_split(features, targets, val_fraction=0.2, seed=data_seed)
        topology = generate_from_spec(design_for_widths(list(cfg["widths"])).spec)
        # a few training steps, so first-allocation costs are paid here
        train_x, train_y = split[0][:WARMUP_ROWS], split[1][:WARMUP_ROWS]
        model = model_from_topology(topology, seed=model_seed, sparse_training=True)
        Trainer(model, Adam(cfg["learning_rate"]), batch_size=cfg["batch_size"],
                seed=model_seed).fit(train_x, train_y, epochs=1)
        return split, topology

    setup_s, ((train_x, train_y, val_x, val_y), topology) = repeated_setup(setup)
    backend = backends.active_backend()
    probe = TimedBackend(backend, tracer) if ctx.traced else backend

    def op():
        model = model_from_topology(topology, seed=model_seed, sparse_training=True,
                                    backend=probe)
        timer = StepTimer(tracer)
        timed_model, timed_optimizer = timer.wrap(model, Adam(cfg["learning_rate"]))
        trainer = Trainer(timed_model, timed_optimizer, batch_size=cfg["batch_size"],
                          seed=model_seed)
        with tracer.span("bench.train"):
            start = time.perf_counter()
            history = trainer.fit(train_x, train_y, epochs=cfg["epochs"],
                                  val_x=val_x, val_y=val_y)
            wall = time.perf_counter() - start
        finite = all(math.isfinite(v) for v in history.train_loss + history.val_loss)
        accuracy = history.val_accuracy[-1]
        return dict(wall=wall, steps=timer.steps, finite=finite, accuracy=accuracy,
                    ok=finite and accuracy >= cfg["accuracy_floor"])

    ops = until_elapsed(ctx.seconds, op)
    out = Outcome(attempted=len(ops), failed=sum(not o["ok"] for o in ops))
    out.check("train.loss_finite", all(o["finite"] for o in ops),
              "every epoch's train and validation loss is finite")
    out.check("train.accuracy", all(o["accuracy"] >= cfg["accuracy_floor"] for o in ops),
              f"validation accuracy {min(o['accuracy'] for o in ops):.3f} after "
              f"{cfg['epochs']} epochs (floor {cfg['accuracy_floor']}, chance {1 / CLASSES})")
    samples = len(train_x) * cfg["epochs"]
    edges_per_sample = sum(s.nnz for s in topology.submatrices)
    rates = [samples / o["wall"] for o in ops]
    step_ms = [s * 1e3 for o in ops for s in o["steps"]]
    out.end_to_end = {
        "setup_s": setup_s,
        "wall_s": median([o["wall"] for o in ops]),
        "infer_edges_per_s": median(rates) * edges_per_sample,
        "throughput_rps": median(rates),
        "latency_p50_ms": percentile(step_ms, 50),
        "latency_p95_ms": percentile(step_ms, 95),
    }
    if ctx.traced:
        n = len(ops)
        steps = len(step_ms) / n

        def per_step(name: str) -> float:
            return sum(s.seconds for s in tracer.spans if s.name == name) / n / steps

        out.per_layer = {
            "nn.forward_s": per_step("nn.forward"),
            "nn.backward_s": per_step("nn.backward"),
            "nn.optimizer_s": per_step("nn.optimizer"),
            "nn.predict_s": sum(s.seconds for s in tracer.spans if s.name == "nn.predict") / n,
            **kernel_metrics(tracer.spans, n),
            **trace_metrics(tracer, "bench.train", [o["wall"] for o in ops]),
        }
    out.end_to_end["peak_rss_mb"] = peak_rss_mb()
    return out
