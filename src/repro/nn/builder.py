"""Build trainable models from topologies.

:func:`model_from_topology` is the bridge between the combinatorial half of
the package (FNNTs -- RadiX-Nets, X-Nets, random graphs, dense reference
nets) and the training half: every adjacency submatrix becomes the
connectivity mask of a :class:`repro.nn.layers.MaskedSparseLayer` (or a
plain :class:`DenseLayer` when the submatrix is all ones), so any topology
family can be trained, evaluated, and compared through identical code.
With ``sparse_training=True`` the sparse submatrices are trained with
O(nnz) parameter storage instead, by one of two layers:

* :class:`repro.nn.layers.KroneckerBlockLayer` when the topology carries
  the Kronecker factors of paper equation (3) (RadiX-Nets from
  :func:`repro.core.radixnet.generate_from_spec`) and the layer's base
  pattern is regular -- dense block GEMMs, agreeing with the masked layer
  within 1e-12 relative;
* :class:`repro.nn.layers.CSRTrainableLayer` otherwise (random X-Nets,
  random graphs, pruned or hand-built topologies, and any FNNT derived
  from a RadiX-Net, which drops the factors) -- backend ``spmm``/``sdmm``
  kernels, numerically equivalent to the masked layer.

Both start from weights bitwise equal to the masked layer's for the same
seed.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.backends.base import SparseBackend
from repro.errors import ValidationError
from repro.nn.layers import (
    CSRTrainableLayer,
    DenseLayer,
    KroneckerBlockLayer,
    MaskedSparseLayer,
    is_block_regular,
)
from repro.nn.model import FeedforwardNetwork
from repro.topology.fnnt import FNNT
from repro.utils.rng import RngLike, spawn_rngs


def model_from_topology(
    topology: FNNT,
    *,
    hidden_activation: str = "relu",
    output_activation: str = "identity",
    seed: RngLike = None,
    fan_in_correction: bool = True,
    force_masked: bool = False,
    sparse_training: bool = False,
    backend: str | SparseBackend | None = None,
    name: str | None = None,
) -> FeedforwardNetwork:
    """Build a trainable model whose connectivity is exactly ``topology``.

    All layers except the last use ``hidden_activation``; the last layer
    uses ``output_activation`` (identity by default so a cross-entropy loss
    can apply its own softmax).  Fully-dense submatrices become ordinary
    :class:`DenseLayer` objects unless ``force_masked`` is set (useful when
    benchmarking the masked code path itself).

    With ``sparse_training=True``, sparse submatrices (and dense ones when
    ``force_masked`` is also set) get O(nnz) storage from the same seeds:
    a :class:`KroneckerBlockLayer` where ``topology.kron_factors`` holds a
    regular base for the layer, else a :class:`CSRTrainableLayer` bound to
    ``backend`` with forward/backward dispatched through the sparse kernel
    plane.
    """
    layer_count = len(topology.submatrices)
    seeds = spawn_rngs(seed, layer_count)
    factors = topology.kron_factors
    layers = []
    for index, submatrix in enumerate(topology.submatrices):
        activation = output_activation if index == layer_count - 1 else hidden_activation
        is_dense = submatrix.nnz == submatrix.shape[0] * submatrix.shape[1]
        if is_dense and not force_masked:
            layers.append(
                DenseLayer(
                    submatrix.shape[0],
                    submatrix.shape[1],
                    activation=activation,
                    seed=seeds[index],
                )
            )
        elif (
            sparse_training
            and factors is not None
            and is_block_regular(factors.bases[index])
        ):
            layers.append(
                KroneckerBlockLayer(
                    factors.bases[index],
                    factors.widths[index],
                    factors.widths[index + 1],
                    activation=activation,
                    seed=seeds[index],
                    fan_in_correction=fan_in_correction,
                )
            )
        elif sparse_training:
            layers.append(
                CSRTrainableLayer(
                    submatrix,
                    activation=activation,
                    seed=seeds[index],
                    fan_in_correction=fan_in_correction,
                    backend=backend,
                )
            )
        else:
            layers.append(
                MaskedSparseLayer(
                    submatrix,
                    activation=activation,
                    seed=seeds[index],
                    fan_in_correction=fan_in_correction,
                )
            )
    return FeedforwardNetwork(layers, name=name or topology.name)


def dense_model(
    layer_sizes: Sequence[int],
    *,
    hidden_activation: str = "relu",
    output_activation: str = "identity",
    seed: RngLike = None,
    name: str = "dense-model",
) -> FeedforwardNetwork:
    """Build a fully-connected model with the given layer sizes."""
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2 or any(s <= 0 for s in sizes):
        raise ValidationError("layer_sizes must contain at least two positive integers")
    seeds = spawn_rngs(seed, len(sizes) - 1)
    layers = []
    for i in range(len(sizes) - 1):
        activation = output_activation if i == len(sizes) - 2 else hidden_activation
        layers.append(
            DenseLayer(sizes[i], sizes[i + 1], activation=activation, seed=seeds[i])
        )
    return FeedforwardNetwork(layers, name=name)


def input_adapter_matrix(input_dim: int, topology_input: int, *, seed: RngLike = None) -> np.ndarray:
    """A fixed random projection mapping raw features onto a topology's input width.

    RadiX-Net input widths are multiples of ``N'`` and rarely match a
    dataset's raw feature count exactly; the experiment harness uses this
    deterministic projection (not trained) to adapt dimensions, following
    the usual practice of zero-padding/projecting in the sparse-training
    literature.  If the sizes already match, the identity matrix is
    returned.
    """
    if input_dim <= 0 or topology_input <= 0:
        raise ValidationError("dimensions must be positive")
    if input_dim == topology_input:
        return np.eye(input_dim)
    rng = spawn_rngs(seed, 1)[0]
    return rng.normal(0.0, 1.0 / np.sqrt(input_dim), size=(input_dim, topology_input))
