"""The :class:`FNNT` container.

An FNNT wraps an ordered list of adjacency submatrices
``W = (W_1, ..., W_n)`` (paper Section II, "Adjacency Submatrix of an
FNNT").  The class validates the FNNT axioms:

* consecutive submatrices are conformable
  (``cols(W_i) == rows(W_{i+1})``);
* every submatrix is 0/1-valued;
* no *column* of ``W_i`` is all-zero.  (The paper states the constraint on
  columns; together with the next point it makes every interior node
  reachable and forward-connected.)
* no *row* of ``W_i`` is all-zero -- this is the FNNT axiom that every
  non-output node has non-zero out-degree.

The container also assembles the full block super-diagonal adjacency
matrix ``A`` of the topology (paper Fig. 4 / eq. (11)).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import NamedTuple

import numpy as np

from repro.errors import TopologyError
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import chain_product, kron
from repro.sparse.convert import from_dense


def _as_csr(matrix: CSRMatrix | np.ndarray) -> CSRMatrix:
    if isinstance(matrix, CSRMatrix):
        return matrix
    return from_dense(np.asarray(matrix, dtype=np.float64))


class KroneckerFactors(NamedTuple):
    """The factors of paper equation (3) behind a topology's submatrices.

    Submatrix ``i`` is ``1_{widths[i] x widths[i+1]} (x) bases[i]``: a
    ``widths[i] x widths[i+1]`` grid of copies of the small matrix
    ``bases[i]``.  :func:`repro.core.radixnet.generate_from_spec` records
    them so training can run on the dense blocks instead of entry by
    entry.
    """

    bases: tuple[CSRMatrix, ...]
    widths: tuple[int, ...]


def _check_factor_shapes(
    submatrices: tuple[CSRMatrix, ...], factors: KroneckerFactors
) -> None:
    if len(factors.bases) != len(submatrices) or len(factors.widths) != len(submatrices) + 1:
        raise TopologyError(
            f"kron_factors need {len(submatrices)} bases and {len(submatrices) + 1} "
            f"widths, got {len(factors.bases)} and {len(factors.widths)}"
        )
    for i, (w, base) in enumerate(zip(submatrices, factors.bases)):
        expected = (factors.widths[i] * base.shape[0], factors.widths[i + 1] * base.shape[1])
        if w.shape != expected:
            raise TopologyError(
                f"submatrix {i} has shape {w.shape}, but its Kronecker factors "
                f"expand to {expected}"
            )


class FNNT:
    """A feedforward neural-network topology defined by adjacency submatrices.

    Parameters
    ----------
    submatrices:
        Ordered adjacency submatrices; each may be a :class:`CSRMatrix` or a
        dense 0/1 array.  ``submatrices[i]`` has shape
        ``(|U_i|, |U_{i+1}|)``.
    validate:
        When True (default) the FNNT axioms are checked at construction.
    name:
        Optional human-readable label carried through analysis reports.
    kron_factors:
        Optional :class:`KroneckerFactors` the submatrices were expanded
        from.  Only the RadiX-Net generator sets them; every operation
        that builds a new topology from this one drops them.

    Examples
    --------
    >>> import numpy as np
    >>> net = FNNT([np.ones((2, 3)), np.ones((3, 2))], name="dense-2-3-2")
    >>> net.layer_sizes
    (2, 3, 2)
    >>> net.num_edges
    12
    """

    def __init__(
        self,
        submatrices: Sequence[CSRMatrix | np.ndarray],
        *,
        validate: bool = True,
        name: str = "fnnt",
        kron_factors: KroneckerFactors | None = None,
    ) -> None:
        if not submatrices:
            raise TopologyError("an FNNT requires at least one adjacency submatrix")
        self._submatrices: tuple[CSRMatrix, ...] = tuple(_as_csr(w) for w in submatrices)
        self.name = str(name)
        if kron_factors is not None:
            _check_factor_shapes(self._submatrices, kron_factors)
        self.kron_factors = kron_factors
        if validate:
            self.validate()

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check the FNNT axioms; raise :class:`TopologyError` on violation."""
        for i, w in enumerate(self._submatrices):
            if not w.is_binary():
                raise TopologyError(
                    f"submatrix {i} has non-binary entries; FNNT adjacency "
                    "submatrices must contain only zeros and ones"
                )
            if np.any(w.row_degrees() == 0):
                raise TopologyError(
                    f"submatrix {i} has an all-zero row: a node in layer {i} "
                    "has out-degree 0, violating the FNNT axiom"
                )
            if np.any(w.col_degrees() == 0):
                raise TopologyError(
                    f"submatrix {i} has an all-zero column: a node in layer "
                    f"{i + 1} is unreachable"
                )
        for i in range(len(self._submatrices) - 1):
            left, right = self._submatrices[i], self._submatrices[i + 1]
            if left.shape[1] != right.shape[0]:
                raise TopologyError(
                    f"submatrices {i} and {i + 1} are not conformable: "
                    f"{left.shape} vs {right.shape}"
                )

    # ------------------------------------------------------------------ #
    # basic structure
    # ------------------------------------------------------------------ #
    @property
    def submatrices(self) -> tuple[CSRMatrix, ...]:
        """The ordered adjacency submatrices ``(W_1, ..., W_n)``."""
        return self._submatrices

    def submatrix(self, index: int) -> CSRMatrix:
        """The adjacency submatrix from layer ``index`` to ``index + 1``."""
        return self._submatrices[index]

    def __len__(self) -> int:
        return len(self._submatrices)

    def __iter__(self) -> Iterator[CSRMatrix]:
        return iter(self._submatrices)

    @property
    def num_layers(self) -> int:
        """Number of node layers (``n + 1`` for ``n`` submatrices)."""
        return len(self._submatrices) + 1

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        """Node count of each layer ``(|U_0|, ..., |U_n|)``."""
        sizes = [self._submatrices[0].shape[0]]
        sizes.extend(w.shape[1] for w in self._submatrices)
        return tuple(sizes)

    @property
    def num_nodes(self) -> int:
        """Total node count across all layers."""
        return int(sum(self.layer_sizes))

    @property
    def num_edges(self) -> int:
        """Total edge count (sum of submatrix nnz)."""
        return int(sum(w.nnz for w in self._submatrices))

    @property
    def input_size(self) -> int:
        """Width of the input layer ``|U_0|``."""
        return self.layer_sizes[0]

    @property
    def output_size(self) -> int:
        """Width of the output layer ``|U_n|``."""
        return self.layer_sizes[-1]

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    def density(self) -> float:
        """Density as defined in the paper: edges / edges-of-dense-counterpart."""
        sizes = self.layer_sizes
        dense_edges = sum(sizes[i] * sizes[i + 1] for i in range(len(sizes) - 1))
        return self.num_edges / dense_edges

    def dense_counterpart(self) -> "FNNT":
        """The unique fully-connected FNNT on the same layer sizes."""
        sizes = self.layer_sizes
        return FNNT(
            [CSRMatrix.ones((sizes[i], sizes[i + 1])) for i in range(len(sizes) - 1)],
            validate=False,
            name=f"{self.name}-dense",
        )

    def path_count_matrix(self) -> CSRMatrix:
        """The ``|U_0| x |U_n|`` matrix whose ``[u, v]`` entry counts u->v paths."""
        return chain_product(list(self._submatrices))

    def is_path_connected(self) -> bool:
        """True if every output node is reachable from every input node."""
        from repro.topology.properties import is_path_connected

        return is_path_connected(self)

    def is_symmetric(self) -> bool:
        """True if the same number of paths joins every (input, output) pair."""
        from repro.topology.properties import is_symmetric

        return is_symmetric(self)

    def full_adjacency(self) -> CSRMatrix:
        """Assemble the full ``num_nodes x num_nodes`` block adjacency matrix.

        Nodes are indexed layer by layer (all of ``U_0`` first, then
        ``U_1``, ...), so the matrix is block super-diagonal exactly as in
        the paper's Figure 4 and equation (11).
        """
        offsets = np.concatenate([[0], np.cumsum(self.layer_sizes)])
        total = self.num_nodes
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        for i, w in enumerate(self._submatrices):
            coo = w.to_coo()
            rows.append(coo.rows + offsets[i])
            cols.append(coo.cols + offsets[i + 1])
            vals.append(coo.values)
        from repro.sparse.coo import COOMatrix

        return COOMatrix(
            (total, total),
            np.concatenate(rows),
            np.concatenate(cols),
            np.concatenate(vals),
        ).to_csr()

    def to_networkx(self):
        """Convert the whole topology to a layered NetworkX digraph.

        Node labels are ``(layer_index, node_index)``; every node carries a
        ``layer`` attribute, every edge a ``weight`` of 1.0.
        """
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for layer, size in enumerate(self.layer_sizes):
            graph.add_nodes_from(((layer, i) for i in range(size)), layer=layer)
        for layer, w in enumerate(self._submatrices):
            coo = w.to_coo()
            graph.add_weighted_edges_from(
                ((layer, int(r)), (layer + 1, int(c)), float(v))
                for r, c, v in zip(coo.rows, coo.cols, coo.values)
            )
        return graph

    # ------------------------------------------------------------------ #
    # composition
    # ------------------------------------------------------------------ #
    def concatenate(self, other: "FNNT", *, name: str | None = None) -> "FNNT":
        """Concatenate two FNNTs by identifying this output layer with the other's input.

        This is exactly how the paper builds extended mixed-radix topologies
        from individual mixed-radix topologies (Fig. 2): the output nodes of
        one are identified label-wise with the input nodes of the next, so
        the result's submatrix list is simply the concatenation.
        """
        if self.output_size != other.input_size:
            raise TopologyError(
                f"cannot concatenate: output width {self.output_size} != "
                f"input width {other.input_size}"
            )
        return FNNT(
            self._submatrices + other._submatrices,
            validate=False,
            name=name or f"{self.name}+{other.name}",
        )

    def kron_expand(self, widths: Sequence[int], *, name: str | None = None) -> "FNNT":
        """Kronecker-expand each submatrix with an all-ones block (paper eq. (3)).

        ``widths`` must have ``num_layers`` entries ``(D_0, ..., D_n)``;
        submatrix ``W_i`` becomes ``1_{D_{i-1} x D_i} (x) W_i``.
        """
        if len(widths) != self.num_layers:
            raise TopologyError(
                f"widths must have {self.num_layers} entries, got {len(widths)}"
            )
        expanded = []
        for i, w in enumerate(self._submatrices):
            ones = CSRMatrix.ones((int(widths[i]), int(widths[i + 1])))
            expanded.append(kron(ones, w))
        return FNNT(expanded, validate=False, name=name or f"{self.name}-kron")

    # ------------------------------------------------------------------ #
    # comparisons / repr
    # ------------------------------------------------------------------ #
    def same_topology(self, other: "FNNT") -> bool:
        """True if both FNNTs have identical sparsity patterns layer by layer."""
        if len(self._submatrices) != len(other._submatrices):
            return False
        return all(
            a.same_pattern(b) for a, b in zip(self._submatrices, other._submatrices)
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"FNNT(name={self.name!r}, layers={self.layer_sizes}, "
            f"edges={self.num_edges}, density={self.density():.4g})"
        )
