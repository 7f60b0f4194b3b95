"""A small sparse-matrix kernel library.

The RadiX-Net construction and its verification only need a handful of
sparse operations -- Kronecker products, sparse-sparse matrix multiply
(SpGEMM, whose chain products count paths), sparse-dense multiply
(SpMM), and transposition.  This subpackage
implements them on top of NumPy with explicit CSR/COO containers, plus
adapters to and from ``scipy.sparse`` and dense arrays.

The containers are intentionally immutable-after-construction: topology
matrices are built once and then only read, which keeps the hot inference
and verification paths free of copy-on-write surprises.
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import (
    spgemm,
    spmm,
    spmv,
    kron,
    permute_columns,
    sparse_transpose,
    sparse_add,
    matrix_power,
    chain_product,
)
from repro.sparse.convert import (
    to_scipy_csr,
    from_scipy,
    to_dense,
    from_dense,
    to_networkx_bipartite,
)

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "spgemm",
    "spmm",
    "spmv",
    "kron",
    "permute_columns",
    "sparse_transpose",
    "sparse_add",
    "matrix_power",
    "chain_product",
    "to_scipy_csr",
    "from_scipy",
    "to_dense",
    "from_dense",
    "to_networkx_bipartite",
]
