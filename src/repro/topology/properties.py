"""Graph-theoretic properties of FNNTs.

These functions implement the definitions of the paper's Mathematical
Preliminaries section:

* **path-connectedness** -- every output node is reachable from every
  input node;
* **symmetry** -- the number of directed paths from input ``u`` to output
  ``v`` is the same positive integer ``m`` for every pair ``(u, v)``
  (symmetry implies path-connectedness);
* **density** -- edges divided by the edges of the fully-connected FNNT on
  the same layer sizes, together with its attainable minimum;
* per-pair **path counts**, computed as the chain product of the adjacency
  submatrices (equivalently a block of ``A^n``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TopologyError
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import chain_product, spgemm
from repro.topology.fnnt import FNNT


def path_count_matrix(topology: FNNT) -> CSRMatrix:
    """The ``|U_0| x |U_n|`` matrix of path counts between inputs and outputs.

    Entry ``[u, v]`` is the number of distinct directed paths from input
    node ``u`` to output node ``v``.  This equals the nonzero block of
    ``A^n`` in the paper's symmetry definition.
    """
    return chain_product(list(topology.submatrices))


def is_path_connected(topology: FNNT, *, use_boolean: bool = False) -> bool:
    """Check path-connectedness.

    With ``use_boolean=True`` the chain product is reset to 0/1 after
    every step, which avoids forming potentially astronomically large
    path counts for very deep topologies.  The submatrices are 0/1, so
    no entry can cancel and the pattern is exactly the reachability
    relation.
    """
    if use_boolean:
        reach, *rest = topology.submatrices
        for m in rest:
            reach = spgemm(reach, m).astype_binary()
        return reach.nnz == reach.shape[0] * reach.shape[1]
    counts = path_count_matrix(topology)
    return counts.nnz == counts.shape[0] * counts.shape[1]


def is_symmetric(topology: FNNT) -> bool:
    """Check the paper's symmetry property.

    True iff there exists a positive integer ``m`` such that every
    (input, output) pair is joined by exactly ``m`` paths.
    """
    counts = path_count_matrix(topology).to_dense()
    first = counts.flat[0]
    return bool(first > 0 and np.all(counts == first))


def uniform_path_count(topology: FNNT) -> int:
    """The common path count ``m`` of a symmetric FNNT.

    Raises :class:`TopologyError` if the topology is not symmetric.
    """
    counts = path_count_matrix(topology).to_dense()
    first = counts.flat[0]
    if not (first > 0 and np.all(counts == first)):
        raise TopologyError(
            "topology is not symmetric: path counts differ across (input, output) pairs"
        )
    return int(round(float(first)))


def density(topology: FNNT) -> float:
    """Density of an FNNT per the paper's definition."""
    return topology.density()


def minimum_density(layer_sizes: tuple[int, ...] | list[int]) -> float:
    """The lowest attainable FNNT density for the given layer sizes.

    The paper gives this as ``sum |U_{i-1}| / sum |U_{i-1}||U_i|`` -- every
    non-output node must keep at least one outgoing edge.
    """
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2 or any(s <= 0 for s in sizes):
        raise TopologyError("layer_sizes must contain at least two positive integers")
    numerator = sum(sizes[:-1])
    denominator = sum(sizes[i] * sizes[i + 1] for i in range(len(sizes) - 1))
    return numerator / denominator


@dataclass(frozen=True)
class DegreeStatistics:
    """Per-layer in/out degree summary of an FNNT."""

    layer: int
    out_degree_min: int
    out_degree_max: int
    out_degree_mean: float
    in_degree_min: int
    in_degree_max: int
    in_degree_mean: float

    @property
    def out_regular(self) -> bool:
        """True if every node in the layer has the same out-degree."""
        return self.out_degree_min == self.out_degree_max

    @property
    def in_regular(self) -> bool:
        """True if every node in the next layer has the same in-degree."""
        return self.in_degree_min == self.in_degree_max


def degree_statistics(topology: FNNT) -> list[DegreeStatistics]:
    """Degree statistics of every adjacency submatrix of the topology.

    Mixed-radix topologies are both in- and out-regular with degree
    ``N_i`` at level ``i`` -- a direct corollary of equation (1) -- so these
    statistics are used in tests to verify the construction.
    """
    stats = []
    for layer, w in enumerate(topology.submatrices):
        out_deg = w.row_degrees()
        in_deg = w.col_degrees()
        stats.append(
            DegreeStatistics(
                layer=layer,
                out_degree_min=int(out_deg.min()),
                out_degree_max=int(out_deg.max()),
                out_degree_mean=float(out_deg.mean()),
                in_degree_min=int(in_deg.min()),
                in_degree_max=int(in_deg.max()),
                in_degree_mean=float(in_deg.mean()),
            )
        )
    return stats
