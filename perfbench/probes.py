"""Timing probes that wrap the program's public objects from outside.

Nothing here patches the program: each probe is an object the benchmark
hands to a public entry point in place of the real one (a backend passed
as ``backend=``, an iterator passed to a stage, a model passed to
``Trainer``), which forwards every call and records a span around it.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernels whose calls, time, work and computed bytes the benchmark reports.
REPORTED_KERNELS = ("spmm", "transpose", "sparse_layer_step", "sdmm")


def _csr_bytes(matrix) -> int:
    return int(matrix.indptr.nbytes + matrix.indices.nbytes + matrix.data.nbytes)


def timed_iter(tracer, name: str, iterable):
    """Yield from ``iterable``, recording a span around every pull."""
    iterator = iter(iterable)
    while True:
        with tracer.span(name):
            try:
                item = next(iterator)
            except StopIteration:
                return
        yield item


class TimedBackend:
    """A ``SparseBackend`` that records a span around the reported kernels.

    Work is counted as multiply-adds (``edges``) and bytes are computed
    from the operand and result array sizes, not measured traffic.  The
    other kernels pass through untimed.
    """

    def __init__(self, inner, tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def _call(self, kernel: str, edges, nbytes, fn, *args):
        with self.tracer.span(f"backends.{kernel}") as attrs:
            out = fn(*args)
        attrs["edges"] = int(edges)
        attrs["bytes"] = int(nbytes(out))
        return out

    def spmm(self, a, dense):
        return self._call(
            "spmm", a.nnz * (dense.shape[1] if dense.ndim == 2 else 1),
            lambda out: _csr_bytes(a) + dense.nbytes + out.nbytes,
            self.inner.spmm, a, dense)

    def transpose(self, a):
        return self._call("transpose", a.nnz,
                          lambda out: _csr_bytes(a) + _csr_bytes(out),
                          self.inner.transpose, a)

    def sparse_layer_step(self, y, weight, bias, threshold):
        edges = int(np.diff(weight.indptr)[y.indices].sum())
        return self._call(
            "sparse_layer_step", edges,
            lambda out: _csr_bytes(y) + _csr_bytes(weight) + bias.nbytes + _csr_bytes(out),
            self.inner.sparse_layer_step, y, weight, bias, threshold)

    def sdmm(self, x, dy, pattern):
        return self._call(
            "sdmm", pattern.nnz * x.shape[0],
            lambda out: x.nbytes + dy.nbytes + _csr_bytes(pattern) + out.data.nbytes,
            self.inner.sdmm, x, dy, pattern)


def kernel_metrics(spans, ops: int) -> dict[str, float]:
    """``backends.<kernel>.*`` per operation from the recorded kernel spans."""
    out: dict[str, float] = {}
    for kernel in REPORTED_KERNELS:
        hits = [s for s in spans if s.name == f"backends.{kernel}"]
        seconds = sum(s.seconds for s in hits)
        edges = sum(s.attrs.get("edges", 0) for s in hits)
        out[f"backends.{kernel}.calls"] = len(hits) / ops
        out[f"backends.{kernel}.s"] = seconds / ops
        out[f"backends.{kernel}.edges_per_s"] = edges / seconds if seconds > 0 else 0.0
        out[f"backends.{kernel}.bytes_computed"] = (
            sum(s.attrs.get("bytes", 0) for s in hits) / ops)
    return out


class StepTimer:
    """Times each training step: the forward pass through the optimizer update.

    :meth:`wrap` returns a model and an optimizer to hand to ``Trainer``;
    they forward every call to the real objects, record the step latency
    (traced or not), and open ``nn.*`` spans when the tracer is enabled.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.steps: list[float] = []
        self._started: float | None = None

    def wrap(self, model, optimizer):
        return _TimedModel(model, self), _TimedOptimizer(optimizer, self)


class _TimedModel:
    def __init__(self, model, timer: StepTimer) -> None:
        self._model = model
        self._timer = timer

    def __getattr__(self, attr):
        return getattr(self._model, attr)

    def forward(self, inputs, *, training: bool = True):
        if training:
            self._timer._started = time.perf_counter()
        with self._timer.tracer.span("nn.forward"):
            return self._model.forward(inputs, training=training)

    def backward(self, loss_gradient):
        with self._timer.tracer.span("nn.backward"):
            return self._model.backward(loss_gradient)

    def predict(self, inputs):
        with self._timer.tracer.span("nn.predict"):
            return self._model.predict(inputs)


class _TimedOptimizer:
    def __init__(self, optimizer, timer: StepTimer) -> None:
        self._optimizer = optimizer
        self._timer = timer

    def __getattr__(self, attr):
        return getattr(self._optimizer, attr)

    def step(self, parameters, gradients):
        with self._timer.tracer.span("nn.optimizer"):
            self._optimizer.step(parameters, gradients)
        if self._timer._started is not None:
            self._timer.steps.append(time.perf_counter() - self._timer._started)
            self._timer._started = None
