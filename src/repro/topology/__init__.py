"""Feedforward neural network topologies (FNNTs).

An FNNT (paper Section II) is a layered directed graph: nodes are split
into ordered layers ``U_0, ..., U_n``, edges only run from layer ``i`` to
layer ``i+1``, and every non-output node has at least one outgoing edge.
An FNNT is uniquely determined by the ordered list of its *adjacency
submatrices* ``W = (W_1, ..., W_n)`` where ``W_i`` is the
``|U_{i-1}| x |U_i|`` 0/1 matrix of edges from layer ``i-1`` to layer ``i``.

This subpackage provides the :class:`FNNT` container, property checks
(path-connectedness, symmetry, density, path counts), random sparse
FNNT generators, and topology serialization.
"""

from repro.topology.fnnt import FNNT, KroneckerFactors
from repro.topology.properties import (
    is_path_connected,
    is_symmetric,
    path_count_matrix,
    uniform_path_count,
    density,
    minimum_density,
    degree_statistics,
)
from repro.topology.random_graphs import (
    erdos_renyi_fnnt,
    fixed_out_degree_fnnt,
)
from repro.topology.io import (
    save_npz,
    load_npz,
    save_tsv_layers,
    load_tsv_layers,
)
from repro.topology.transforms import (
    permute_layer,
    shuffle_all_layers,
    slice_layers,
    union,
    intersection,
    edge_overlap,
    from_weight_matrices,
)

__all__ = [
    "FNNT",
    "KroneckerFactors",
    "is_path_connected",
    "is_symmetric",
    "path_count_matrix",
    "uniform_path_count",
    "density",
    "minimum_density",
    "degree_statistics",
    "erdos_renyi_fnnt",
    "fixed_out_degree_fnnt",
    "save_npz",
    "load_npz",
    "save_tsv_layers",
    "load_tsv_layers",
    "permute_layer",
    "shuffle_all_layers",
    "slice_layers",
    "union",
    "intersection",
    "edge_overlap",
    "from_weight_matrices",
]
