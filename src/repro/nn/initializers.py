"""Weight initializers, including sparse fan-in correction.

When a layer is sparse, the *effective* fan-in of each output unit is its
in-degree in the topology, not the full input width.  Using the dense
fan-in would under-scale the surviving weights and slow sparse training --
one of the practical observations of the training-sparse-networks
companion work.  :func:`sparse_corrected_scale` computes the per-unit
correction factor used by :class:`repro.nn.layers.MaskedSparseLayer`.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.errors import ValidationError
from repro.utils.rng import RngLike, ensure_rng


def glorot_uniform(fan_in: int, fan_out: int, *, seed: RngLike = None) -> np.ndarray:
    """Glorot/Xavier uniform initialization for a ``(fan_in, fan_out)`` weight matrix."""
    if fan_in <= 0 or fan_out <= 0:
        raise ValidationError("fan_in and fan_out must be positive")
    return _draw_rows(ensure_rng(seed), "glorot", fan_in, fan_out, fan_in)


def he_normal(fan_in: int, fan_out: int, *, seed: RngLike = None) -> np.ndarray:
    """He (Kaiming) normal initialization, appropriate for ReLU networks."""
    if fan_in <= 0 or fan_out <= 0:
        raise ValidationError("fan_in and fan_out must be positive")
    return _draw_rows(ensure_rng(seed), "he", fan_in, fan_out, fan_in)


def _draw_rows(
    rng: np.random.Generator, init: str, fan_in: int, fan_out: int, rows: int
) -> np.ndarray:
    """The next ``rows`` rows of the ``init`` draw for a ``(fan_in, fan_out)`` matrix."""
    if init == "he":
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(rows, fan_out))
    if init == "glorot":
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(rows, fan_out))
    raise ValidationError(f"unknown init {init!r}; use 'he' or 'glorot'")


def iter_weight_rows(
    fan_in: int,
    fan_out: int,
    *,
    init: str = "he",
    seed: RngLike = None,
    chunk_rows: int = 1,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, block)``: the ``init`` draw in row chunks of ``chunk_rows``.

    ``Generator.normal`` and ``Generator.uniform`` fill element by element
    from the bit stream, so the stacked blocks are bitwise equal to one
    :func:`he_normal` / :func:`glorot_uniform` draw from the same seed
    while only one chunk is ever resident.  ``init`` is ``"he"`` or
    ``"glorot"``.
    """
    if fan_in <= 0 or fan_out <= 0:
        raise ValidationError("fan_in and fan_out must be positive")
    if chunk_rows <= 0:
        raise ValidationError("chunk_rows must be positive")
    rng = ensure_rng(seed)
    step = int(chunk_rows)
    for start in range(0, fan_in, step):
        yield start, _draw_rows(rng, init, fan_in, fan_out, min(step, fan_in - start))


def sparse_corrected_scale(mask: np.ndarray) -> np.ndarray:
    """Per-output-unit scale factor ``sqrt(fan_in_dense / fan_in_effective)``.

    Multiplying a dense-initialized weight column by this factor restores
    the output-variance that the missing connections would otherwise
    remove.  Columns with zero in-degree (which a valid FNNT never has)
    get scale 1.0.
    """
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 2:
        raise ValidationError("mask must be 2-D")
    effective_fan_in = m.sum(axis=0).astype(np.float64)
    dense_fan_in = float(m.shape[0])
    scale = np.ones(m.shape[1], dtype=np.float64)
    nonzero = effective_fan_in > 0
    scale[nonzero] = np.sqrt(dense_fan_in / effective_fan_in[nonzero])
    return scale


def zeros_bias(fan_out: int) -> np.ndarray:
    """All-zero bias vector."""
    if fan_out <= 0:
        raise ValidationError("fan_out must be positive")
    return np.zeros(fan_out, dtype=np.float64)
