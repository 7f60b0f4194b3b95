"""RadiX-Net: structured sparse matrices and topologies for deep neural networks.

This package is a from-scratch reproduction of

    Robinett & Kepner, "RadiX-Net: Structured Sparse Matrices for Deep
    Neural Networks", 2019 (arXiv:1905.00416).

It provides:

* :mod:`repro.numeral` -- mixed-radix numeral systems (the combinatorial
  substrate of the construction).
* :mod:`repro.sparse` -- a small sparse-matrix kernel library (COO/CSR,
  SpGEMM, Kronecker products) used by the construction and the
  verification machinery.
* :mod:`repro.backends` -- pluggable sparse-kernel backends behind every
  sparse operation: ``reference`` (pure NumPy/Python oracle), ``scipy``
  (compiled kernels, default), and ``vectorized`` (scatter-free NumPy).
  Select with ``repro.backends.use(...)``, the ``--backend`` CLI flag, or
  the ``REPRO_BACKEND`` environment variable.
* :mod:`repro.topology` -- feedforward neural network topologies (FNNTs),
  their adjacency submatrices, and graph-theoretic properties
  (path-connectedness, symmetry, density).
* :mod:`repro.core` -- the RadiX-Net construction itself: mixed-radix
  topologies, extended mixed-radix concatenation, Kronecker expansion, the
  generator algorithm of the paper's Figure 6, and the density theory of
  equations (4)-(6).
* :mod:`repro.baselines` -- dense topologies, X-Net style random expander
  and explicit Cayley-graph layers, Erdos-Renyi sparse layers, and
  magnitude pruning.
* :mod:`repro.nn` -- a NumPy feedforward neural-network training substrate
  able to train models over arbitrary FNNTs (dense or sparse).
* :mod:`repro.datasets` -- synthetic datasets (procedural MNIST-like
  digits, Gaussian mixtures, spirals, teacher-student).
* :mod:`repro.challenge` -- Graph Challenge style sparse DNN inference.
* :mod:`repro.serve` -- long-lived serving: a resident challenge network
  behind request micro-batching (asyncio TCP front end, JSON-lines
  protocol, bundled load generator).
* :mod:`repro.brain` -- brain-scale sizing of RadiX-Nets.
* :mod:`repro.parallel` -- layer prefetch and tensor-parallel sharding.
* :mod:`repro.analysis` -- topology comparison, diversity and spectra.
* :mod:`repro.viz` -- text-mode rendering of topologies and heatmaps.

Quickstart
----------

>>> from repro import generate_radixnet
>>> net = generate_radixnet([(2, 2), (2, 2)], [1, 2, 2, 2, 1])
>>> net.num_layers
5
>>> net.is_symmetric()
True
"""

from repro._version import __version__
from repro.core.radixnet import (
    RadixNetSpec,
    generate_radixnet,
    generate_extended_mixed_radix,
)
from repro.core.mixed_radix_topology import mixed_radix_topology
from repro.core.density import (
    exact_density,
    approximate_density,
    asymptotic_density,
)
from repro.topology.fnnt import FNNT
from repro.numeral.mixed_radix import MixedRadixSystem

__all__ = [
    "__version__",
    "FNNT",
    "MixedRadixSystem",
    "RadixNetSpec",
    "generate_radixnet",
    "generate_extended_mixed_radix",
    "mixed_radix_topology",
    "exact_density",
    "approximate_density",
    "asymptotic_density",
]
