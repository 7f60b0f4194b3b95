"""The :class:`FeedforwardNetwork` model container."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ShapeError, ValidationError
from repro.nn.layers import (
    CSRSparseLayer,
    CSRTrainableLayer,
    DenseLayer,
    KroneckerBlockLayer,
    MaskedSparseLayer,
)
from repro.sparse.csr import CSRMatrix


class FeedforwardNetwork:
    """An ordered stack of affine layers trained by backpropagation.

    The last layer is conventionally linear (identity activation) and the
    loss object owns the output nonlinearity (softmax inside the
    cross-entropy), which keeps gradients numerically stable.
    """

    def __init__(self, layers: Sequence[DenseLayer], *, name: str = "model") -> None:
        if not layers:
            raise ValidationError("a FeedforwardNetwork needs at least one layer")
        for i in range(len(layers) - 1):
            if layers[i].fan_out != layers[i + 1].fan_in:
                raise ShapeError(
                    f"layer {i} fan_out ({layers[i].fan_out}) does not match "
                    f"layer {i + 1} fan_in ({layers[i + 1].fan_in})"
                )
        self.layers = list(layers)
        self.name = str(name)

    # ------------------------------------------------------------------ #
    @property
    def input_size(self) -> int:
        """Width of the input layer."""
        return self.layers[0].fan_in

    @property
    def output_size(self) -> int:
        """Width of the output layer."""
        return self.layers[-1].fan_out

    @property
    def parameter_count(self) -> int:
        """Total trainable scalar count (respecting sparsity masks)."""
        return sum(layer.parameter_count for layer in self.layers)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        """Node counts of every layer, input through output."""
        return (self.layers[0].fan_in, *(layer.fan_out for layer in self.layers))

    def is_sparse(self) -> bool:
        """True if any layer carries a connectivity mask or O(nnz) sparse weights."""
        return any(
            isinstance(layer, (MaskedSparseLayer, CSRTrainableLayer, KroneckerBlockLayer))
            for layer in self.layers
        )

    # ------------------------------------------------------------------ #
    def forward(self, inputs: np.ndarray, *, training: bool = True) -> np.ndarray:
        """Run the full forward pass; returns the output-layer pre-softmax values."""
        x = np.asarray(inputs, dtype=np.float64)
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, loss_gradient: np.ndarray) -> None:
        """Backpropagate the loss gradient through every layer.

        The first layer is told not to compute its input gradient: nothing
        reads the gradient with respect to the network's inputs.
        """
        grad = np.asarray(loss_gradient, dtype=np.float64)
        for index in range(len(self.layers) - 1, -1, -1):
            grad = self.layers[index].backward(grad, input_gradient=index > 0)

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Forward pass without caching activations (inference mode)."""
        return self.forward(inputs, training=False)

    def predict_classes(self, inputs: np.ndarray) -> np.ndarray:
        """Argmax class predictions for classification models."""
        return np.argmax(self.predict(inputs), axis=1)

    # ------------------------------------------------------------------ #
    def parameters(self) -> list[np.ndarray]:
        """All trainable parameter arrays, layer by layer."""
        params: list[np.ndarray] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def gradients(self) -> list[np.ndarray]:
        """All gradient arrays, aligned with :meth:`parameters`."""
        grads: list[np.ndarray] = []
        for layer in self.layers:
            grads.extend(layer.gradients())
        return grads

    def weight_matrices(self) -> list[np.ndarray]:
        """Copies of the effective (masked) weight matrices of every layer."""
        return [layer.effective_weights().copy() for layer in self.layers]

    def bias_vectors(self) -> list[np.ndarray]:
        """Copies of the bias vectors of every layer."""
        return [layer.biases.copy() for layer in self.layers]

    # ------------------------------------------------------------------ #
    def realized_topology_density(self) -> float:
        """Fraction of nonzero weights relative to the dense parameter count."""
        nonzero = sum(int(np.count_nonzero(w)) for w in self.weight_matrices())
        dense = sum(w.size for w in self.weight_matrices())
        return nonzero / dense

    def to_sparse_inference(self) -> list[CSRSparseLayer]:
        """Convert the trained model to CSR inference layers.

        The final layer keeps its (identity/linear) activation; callers
        apply softmax separately if probabilities are needed.
        """
        sparse_layers = []
        for layer in self.layers:
            if isinstance(layer, (CSRTrainableLayer, KroneckerBlockLayer)):
                # O(nnz) layers: keep the trained pattern directly instead of
                # a dense round-trip (which would drop weights trained to
                # exactly 0.0 from the stored pattern).
                sparse_layers.append(layer.to_csr_layer())
                continue
            csr = CSRMatrix.from_dense(layer.effective_weights())
            sparse_layers.append(
                CSRSparseLayer(csr, layer.biases.copy(), activation=layer.activation)
            )
        return sparse_layers

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"FeedforwardNetwork(name={self.name!r}, layer_sizes={self.layer_sizes}, "
            f"parameters={self.parameter_count}, sparse={self.is_sparse()})"
        )
