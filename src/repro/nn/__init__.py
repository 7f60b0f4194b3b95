"""A NumPy feedforward neural-network training substrate.

The paper's downstream claim (via Alford & Kepner and the wider sparse-DNN
literature it cites) is that de-novo sparse topologies such as RadiX-Nets
train to accuracies comparable with dense networks.  Exercising that claim
requires a trainable model whose connectivity is *exactly* a given FNNT.
This subpackage provides:

* layers whose weights live either in a dense array (``DenseLayer``), a
  dense array multiplied by a binary mask (``MaskedSparseLayer`` -- the
  dense-hardware training representation of a sparse topology), or a CSR
  matrix (``CSRTrainableLayer`` -- genuinely sparse O(nnz) training
  through the backend kernel plane; ``CSRSparseLayer`` -- the
  inference-only representation), or dense Kronecker blocks
  (``KroneckerBlockLayer`` -- O(nnz) training of a RadiX-Net layer
  ``1 (x) W`` by batched block GEMMs);
* activations, losses, initializers (with sparse fan-in correction),
  optimizers (SGD / momentum / Nesterov / RMSProp / Adam) and learning-rate
  schedules;
* a :class:`~repro.nn.model.FeedforwardNetwork` container and a
  :class:`~repro.nn.train.Trainer` with metrics, history, and early
  stopping;
* :func:`~repro.nn.builder.model_from_topology` which turns any
  :class:`~repro.topology.fnnt.FNNT` (RadiX-Net, X-Net, dense, random)
  into a trainable model, so every topology family flows through the same
  training and evaluation code.
"""

from repro.nn.activations import Activation, relu, sigmoid, tanh, identity, softmax_stable
from repro.nn.initializers import glorot_uniform, he_normal, sparse_corrected_scale
from repro.nn.losses import CrossEntropyLoss, MeanSquaredErrorLoss
from repro.nn.layers import (
    DenseLayer,
    MaskedSparseLayer,
    CSRSparseLayer,
    CSRTrainableLayer,
    KroneckerBlockLayer,
)
from repro.nn.model import FeedforwardNetwork
from repro.nn.optimizers import SGD, Momentum, RMSProp, Adam
from repro.nn.schedulers import ConstantSchedule, StepDecaySchedule, CosineSchedule
from repro.nn.metrics import accuracy, confusion_matrix, top_k_accuracy
from repro.nn.data import one_hot, train_val_split, minibatches, standardize
from repro.nn.train import Trainer, TrainingHistory
from repro.nn.builder import model_from_topology, dense_model

__all__ = [
    "Activation",
    "relu",
    "sigmoid",
    "tanh",
    "identity",
    "softmax_stable",
    "glorot_uniform",
    "he_normal",
    "sparse_corrected_scale",
    "CrossEntropyLoss",
    "MeanSquaredErrorLoss",
    "DenseLayer",
    "MaskedSparseLayer",
    "CSRSparseLayer",
    "CSRTrainableLayer",
    "KroneckerBlockLayer",
    "FeedforwardNetwork",
    "SGD",
    "Momentum",
    "RMSProp",
    "Adam",
    "ConstantSchedule",
    "StepDecaySchedule",
    "CosineSchedule",
    "accuracy",
    "confusion_matrix",
    "top_k_accuracy",
    "one_hot",
    "train_val_split",
    "minibatches",
    "standardize",
    "Trainer",
    "TrainingHistory",
    "model_from_topology",
    "dense_model",
]
