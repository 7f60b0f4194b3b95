"""Generation of Graph Challenge style sparse DNN instances.

The official challenge networks have ``N`` neurons per layer
(1024/4096/16384/65536), 120-1920 layers, 32 connections per neuron, all
weights equal, and biases chosen so that a neuron with all inputs active
stays near the activation threshold.  They were produced with RadiX-Net;
we regenerate the same structure from this package's own generator:
neurons-per-layer is the RadiX-Net ``N'`` times a dense width, and the
per-layer connectivity is a mixed-radix submatrix repeated/cycled through
the requested depth.

Generation is fully sparse: the per-layer neuron shuffle is a CSR column
permutation (:func:`repro.sparse.ops.permute_columns`, O(nnz)), never a
dense ``N x N`` round-trip, so the *official* sizes are reachable.
:func:`iter_generate_challenge_layers` is the streaming form -- it yields
one ``(weight, bias)`` CSR layer at a time, ready to feed
:func:`repro.challenge.inference.streaming_inference` or
:func:`repro.challenge.io.save_challenge_layers` with only a single
layer's nnz ever resident.  :func:`generate_challenge_network` collects
the same stream into a fully materialized :class:`ChallengeNetwork` for
the laptop-scale workflows.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.backends.base import SparseBackend
from repro.errors import ValidationError
from repro.sparse.csr import CSRMatrix
from repro.topology.fnnt import FNNT
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class ChallengeNetwork:
    """A sparse DNN instance in the Graph Challenge sense.

    Attributes
    ----------
    topology:
        The :class:`FNNT` describing connectivity (all layers the same
        width ``neurons``).
    weights:
        Per-layer CSR weight matrices (same pattern as the topology's
        submatrices, constant value ``weight_value``).
    biases:
        Per-layer bias vectors.
    threshold:
        The ReLU clamp value (the challenge uses 32).
    """

    topology: FNNT
    weights: tuple[CSRMatrix, ...]
    biases: tuple[np.ndarray, ...]
    threshold: float

    @property
    def neurons(self) -> int:
        """Neurons per layer."""
        return self.topology.input_size

    @property
    def num_layers(self) -> int:
        """Number of weight layers."""
        return len(self.weights)

    @property
    def connections_per_neuron(self) -> float:
        """Average out-degree (the challenge fixes this at 32).

        For generated networks this is *exact* (an integer-valued float)
        whether or not the layers were shuffled: the per-layer neuron
        permutation is a column permutation, which preserves every
        layer's nnz, so ``topology.num_edges`` stays
        ``neurons * connections * num_layers`` -- consistent with
        :func:`repro.core.radixnet.radixnet_edge_count` applied to the
        underlying mixed-radix layer (each of the ``N'`` rows of a
        mixed-radix submatrix stores exactly its radix's entries).
        """
        return self.topology.num_edges / (self.neurons * self.num_layers)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ChallengeNetwork(neurons={self.neurons}, layers={self.num_layers}, "
            f"connections/neuron={self.connections_per_neuron:.1f})"
        )


def _challenge_base_layer(neurons: int, connections: int) -> CSRMatrix:
    """The ``neurons x neurons`` mixed-radix layer with degree ``connections``.

    This is the level-0 adjacency submatrix of the mixed-radix system
    ``(connections, neurons / connections)``: a circulant with exactly
    ``connections`` outgoing and incoming edges per neuron -- the structure
    the RadiX-Net generator produced for the official challenge networks.
    """
    from repro.core.mixed_radix_topology import mixed_radix_submatrix
    from repro.numeral.mixed_radix import MixedRadixSystem

    neurons = check_positive_int(neurons, "neurons", minimum=2)
    connections = check_positive_int(connections, "connections", minimum=2)
    if neurons % connections != 0:
        raise ValidationError(
            f"neurons ({neurons}) must be divisible by connections ({connections}) "
            "for an exact RadiX-Net challenge layer"
        )
    if neurons == connections:
        system = MixedRadixSystem((connections,))
    else:
        system = MixedRadixSystem((connections, neurons // connections))
    return mixed_radix_submatrix(system, 0)


def _validate_challenge_params(
    neurons: int, num_layers: int, connections: int, threshold: float
) -> tuple[int, int, int]:
    """Shared argument validation of the streaming and collecting generators."""
    neurons = check_positive_int(neurons, "neurons", minimum=2)
    num_layers = check_positive_int(num_layers, "num_layers")
    connections = check_positive_int(connections, "connections", minimum=2)
    if neurons % connections != 0:
        raise ValidationError(
            f"neurons ({neurons}) must be divisible by connections ({connections})"
        )
    if threshold <= 0:
        raise ValidationError("threshold must be positive")
    return neurons, num_layers, connections


def challenge_bias_value(connections: int, weight: float) -> float:
    """The constant per-neuron bias of a generated challenge layer.

    Keeps a typically-active neuron just above zero, as in the
    challenge's choice of -0.3 at 32 connections and weight 0.0625
    (incoming weight sum 2).
    """
    return -0.3 * connections * weight / 2.0


def iter_generate_challenge_layers(
    neurons: int,
    num_layers: int,
    *,
    connections: int = 8,
    weight_value: float | None = None,
    threshold: float = 32.0,
    seed: RngLike = None,
    shuffle_neurons: bool = True,
    backend: str | SparseBackend | None = None,
) -> Iterator[tuple[CSRMatrix, np.ndarray]]:
    """Lazily yield the ``(weight, bias)`` layers of a challenge network.

    The streaming counterpart of :func:`generate_challenge_network` (same
    parameters, identical layers for identical arguments): one CSR layer
    is built -- and may be consumed, written to disk, or dropped --
    before the next exists, so peak weight memory is a single layer's
    nnz regardless of depth.  That makes the official 16384/65536-neuron
    sizes generable: a 65536-neuron layer holds ``65536 x 32`` entries
    (a few tens of MB) where the old dense per-layer round-trip needed a
    ``65536^2`` float64 buffer (32 GB).

    Feed the iterator directly to
    :func:`repro.challenge.inference.streaming_inference` (generate ->
    infer without the network ever being resident) or to
    :func:`repro.challenge.io.save_challenge_layers` (generate -> TSV +
    sidecar on disk, one layer at a time).

    ``backend`` selects the sparse kernels for the per-layer column
    permutation (``None`` = the active backend).  ``threshold`` is
    accepted (and validated) for signature parity with
    :func:`generate_challenge_network`; it does not affect the layers.

    Every yielded layer shares one read-only ``indptr`` and one
    read-only ``data`` array (a column permutation keeps each row's
    count, and the weight is constant); only ``indices`` is new per
    layer.  Holding many layers therefore costs about half the bytes of
    independent copies, and writing into a layer's ``data`` raises
    ``ValueError`` -- copy it first (``layer.with_data(layer.data.copy())``)
    to get a writable layer.

    Arguments are validated *eagerly* (at the call, not on first
    ``next()``), so callers that set up side effects -- output
    directories, progress reporting -- before consuming the stream see
    bad parameters immediately.
    """
    neurons, num_layers, connections = _validate_challenge_params(
        neurons, num_layers, connections, threshold
    )
    weight = float(weight_value) if weight_value is not None else 2.0 / connections
    rng = ensure_rng(seed)

    def _layers() -> Iterator[tuple[CSRMatrix, np.ndarray]]:
        from repro.sparse.ops import permute_columns

        # Base mixed-radix layer: N' = neurons, first radix = connections,
        # so every neuron has exactly `connections` outgoing and incoming
        # edges.
        base_layer = _challenge_base_layer(neurons, connections)
        # one read-only row pointer and value array for every layer: a
        # column permutation keeps each row's count, and the weight is
        # constant, so only the column indices differ between layers
        indptr = base_layer.indptr
        data = np.full(base_layer.nnz, weight)
        indptr.flags.writeable = data.flags.writeable = False
        base_weight = CSRMatrix(base_layer.shape, indptr, base_layer.indices, data)
        bias_value = challenge_bias_value(connections, weight)
        for _ in range(num_layers):
            layer = base_weight
            if shuffle_neurons:
                # sparse column permutation: O(nnz), preserves per-layer
                # nnz (so connections_per_neuron stays exact) -- never a
                # dense N x N buffer
                permuted = permute_columns(
                    base_weight, rng.permutation(neurons), backend=backend
                )
                layer = CSRMatrix(base_layer.shape, indptr, permuted.indices, data)
            yield layer, np.full(neurons, bias_value)

    return _layers()


def generate_challenge_network(
    neurons: int,
    num_layers: int,
    *,
    connections: int = 8,
    weight_value: float | None = None,
    threshold: float = 32.0,
    seed: RngLike = None,
    shuffle_neurons: bool = True,
    backend: str | SparseBackend | None = None,
) -> ChallengeNetwork:
    """Generate a challenge-style sparse DNN.

    Collects the layer stream of :func:`iter_generate_challenge_layers`
    into a materialized :class:`ChallengeNetwork`; for networks too large
    to hold resident, use the iterator directly.

    Parameters
    ----------
    neurons:
        Neurons per layer.  Must be divisible by ``connections``.
    num_layers:
        Number of weight layers.
    connections:
        Out-degree (and in-degree) of every neuron in every layer.  The
        official challenge uses 32; smaller values keep tests fast.
    weight_value:
        Constant weight value.  Defaults to ``2 / connections`` so the sum
        of incoming weights at every neuron is 2 -- the convention of the
        official challenge networks (weight 0.0625 at 32 connections),
        which keeps activations alive across many layers.
    threshold:
        The activation clamp (32 in the challenge).
    shuffle_neurons:
        Apply a per-layer random permutation of neuron labels, matching how
        the challenge instances decorrelate consecutive layers; the
        underlying structure stays a mixed-radix (RadiX-Net) layer.
    backend:
        Sparse-kernel backend for the per-layer column permutation
        (``None`` = the active backend).
    """
    weights: list[CSRMatrix] = []
    biases: list[np.ndarray] = []
    for weight, bias in iter_generate_challenge_layers(
        neurons,
        num_layers,
        connections=connections,
        weight_value=weight_value,
        threshold=threshold,
        seed=seed,
        shuffle_neurons=shuffle_neurons,
        backend=backend,
    ):
        weights.append(weight)
        biases.append(bias)
    submatrices = [w.astype_binary() for w in weights]
    topology = FNNT(submatrices, validate=False, name=f"graph-challenge-{neurons}x{num_layers}")
    return ChallengeNetwork(
        topology=topology,
        weights=tuple(weights),
        biases=tuple(biases),
        threshold=float(threshold),
    )


def challenge_input_batch(
    neurons: int,
    batch_size: int,
    *,
    active_fraction: float = 0.3,
    seed: RngLike = None,
) -> np.ndarray:
    """A random sparse 0/1 input batch shaped ``(batch_size, neurons)``.

    The official challenge feeds thresholded MNIST images zero-padded to the
    layer width; a Bernoulli 0/1 batch with a comparable active fraction
    exercises the identical compute path.
    """
    neurons = check_positive_int(neurons, "neurons")
    batch_size = check_positive_int(batch_size, "batch_size")
    if not 0.0 < active_fraction <= 1.0:
        raise ValidationError("active_fraction must be in (0, 1]")
    rng = ensure_rng(seed)
    batch = (rng.random((batch_size, neurons)) < active_fraction).astype(np.float64)
    # guarantee at least one active input per row so categories are defined
    empty = np.flatnonzero(batch.sum(axis=1) == 0)
    if empty.size:
        batch[empty, rng.integers(0, neurons, size=empty.size)] = 1.0
    return batch


def scale_series(base_neurons: int = 16, count: int = 3) -> list[int]:
    """The neuron-count series used by the scaling benchmark (powers of 4).

    The official challenge scales 1024 -> 4096 -> 16384 -> 65536; the same
    x4 progression is reproduced from a smaller base so the benchmark runs
    in seconds.
    """
    base_neurons = check_positive_int(base_neurons, "base_neurons", minimum=2)
    count = check_positive_int(count, "count")
    return [base_neurons * (4**i) for i in range(count)]
