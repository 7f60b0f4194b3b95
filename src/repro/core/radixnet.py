"""The RadiX-Net generator (paper Section III.A, Figure 6).

A RadiX-Net topology is uniquely defined by

* an ordered list ``N* = (N_1, ..., N_M)`` of mixed-radix numeral systems,
  where all systems except possibly the last share a common product ``N'``
  and the last system's product divides ``N'``; and
* an ordered list ``D = (D_0, ..., D_Mbar)`` of positive dense layer
  widths, with ``Mbar = sum_i L_i`` the total number of radices.

The construction:

1. build, for every radix of every system, the ``N' x N'`` mixed-radix
   adjacency submatrix ``W = sum_j C^(j * pv)`` where ``pv`` is the place
   value *within its own system* (the Figure-6 algorithm resets ``pv`` to 1
   at the start of every system);
2. concatenate the resulting mixed-radix topologies output-to-input into an
   *extended mixed-radix (EMR) topology*;
3. Kronecker-expand every submatrix with the all-ones ``D_{i-1} x D_i``
   block (equation (3)).

The result is returned as an :class:`repro.topology.fnnt.FNNT`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import ConstraintError, ValidationError
from repro.core.kronecker import kron_expand_submatrices
from repro.core.mixed_radix_topology import mixed_radix_submatrices
from repro.numeral.mixed_radix import MixedRadixSystem
from repro.sparse.csr import CSRMatrix
from repro.topology.fnnt import FNNT, KroneckerFactors
from repro.utils.validation import check_positive_int

SystemLike = MixedRadixSystem | Sequence[int]


def _coerce_systems(systems: Sequence[SystemLike]) -> tuple[MixedRadixSystem, ...]:
    if isinstance(systems, (MixedRadixSystem,)) or (
        systems and isinstance(systems[0], (int,))
    ):
        raise ValidationError(
            "radix_systems must be a sequence of mixed-radix systems "
            "(e.g. [(2, 2), (4,)]), not a single system"
        )
    if not systems:
        raise ValidationError("radix_systems must contain at least one system")
    return tuple(
        s if isinstance(s, MixedRadixSystem) else MixedRadixSystem(s) for s in systems
    )


def validate_radixnet_constraints(systems: Sequence[SystemLike]) -> int:
    """Validate the paper's admissibility constraints and return ``N'``.

    Constraint 1: all systems except the last share the same product ``N'``.
    Constraint 2: the last system's product divides ``N'``.

    For a single-system specification ``N'`` is that system's product.
    Raises :class:`ConstraintError` on violation.
    """
    mrs = _coerce_systems(systems)
    if len(mrs) == 1:
        return mrs[0].capacity
    n_prime = mrs[0].capacity
    for index, system in enumerate(mrs[:-1]):
        if system.capacity != n_prime:
            raise ConstraintError(
                f"system {index} has product {system.capacity}, expected the shared "
                f"product N' = {n_prime} (paper constraint 1)"
            )
    last = mrs[-1].capacity
    if n_prime % last != 0:
        raise ConstraintError(
            f"the last system's product {last} must divide N' = {n_prime} "
            "(paper constraint 2)"
        )
    return n_prime


@dataclass(frozen=True)
class RadixNetSpec:
    """A validated RadiX-Net specification ``(N*, D)``.

    Attributes
    ----------
    systems:
        The mixed-radix numeral systems ``N*``.
    widths:
        The dense layer widths ``D`` (length ``total_radices + 1``).
    """

    systems: tuple[MixedRadixSystem, ...]
    widths: tuple[int, ...]
    name: str = field(default="radix-net")

    def __init__(
        self,
        systems: Sequence[SystemLike],
        widths: Sequence[int],
        *,
        name: str = "radix-net",
    ) -> None:
        mrs = _coerce_systems(systems)
        n_prime = validate_radixnet_constraints(mrs)
        total_radices = sum(s.length for s in mrs)
        if len(widths) != total_radices + 1:
            raise ValidationError(
                f"widths must have {total_radices + 1} entries (total radices + 1), "
                f"got {len(widths)}"
            )
        width_tuple = tuple(
            check_positive_int(w, f"widths[{i}]") for i, w in enumerate(widths)
        )
        object.__setattr__(self, "systems", mrs)
        object.__setattr__(self, "widths", width_tuple)
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "_n_prime", n_prime)

    # ------------------------------------------------------------------ #
    @property
    def n_prime(self) -> int:
        """The shared product ``N'`` of all but the last system."""
        return self._n_prime  # type: ignore[attr-defined]

    @property
    def num_systems(self) -> int:
        """``M``: the number of mixed-radix numeral systems."""
        return len(self.systems)

    @property
    def total_radices(self) -> int:
        """``Mbar = sum_i L_i``: the number of edge layers in the topology."""
        return sum(s.length for s in self.systems)

    @property
    def flattened_radices(self) -> tuple[int, ...]:
        """The concatenated radix list ``(N_{1,1}, ..., N_{M,L_M})`` of eq. (4)."""
        return tuple(r for s in self.systems for r in s.radices)

    @property
    def last_product(self) -> int:
        """Product of the last system's radices (divides ``N'``)."""
        return self.systems[-1].capacity

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        """Node counts of the generated topology: ``D_i * N'`` per layer."""
        return tuple(d * self.n_prime for d in self.widths)

    def mean_radix(self) -> float:
        """``mu``: the mean of the flattened radix list (eq. (5))."""
        radices = self.flattened_radices
        return sum(radices) / len(radices)

    def radix_variance(self) -> float:
        """Population variance of the flattened radix list."""
        radices = self.flattened_radices
        mean = self.mean_radix()
        return sum((r - mean) ** 2 for r in radices) / len(radices)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        systems = ", ".join(str(tuple(s.radices)) for s in self.systems)
        return f"RadixNetSpec(systems=[{systems}], widths={self.widths}, N'={self.n_prime})"


def emr_submatrices(spec_or_systems: RadixNetSpec | Sequence[SystemLike]) -> list[CSRMatrix]:
    """Adjacency submatrices of the extended mixed-radix topology (before Kronecker).

    Every submatrix is ``N' x N'`` -- including those of the final system,
    whose own product may be a proper divisor of ``N'`` (the Figure-6
    algorithm builds the permutation matrix once, from the shared ``N'``).
    """
    if isinstance(spec_or_systems, RadixNetSpec):
        systems = spec_or_systems.systems
        n_prime = spec_or_systems.n_prime
    else:
        systems = _coerce_systems(spec_or_systems)
        n_prime = validate_radixnet_constraints(systems)
    submatrices: list[CSRMatrix] = []
    for system in systems:
        submatrices.extend(mixed_radix_submatrices(system, modulus=n_prime))
    return submatrices


def generate_extended_mixed_radix(
    systems: Sequence[SystemLike],
    *,
    name: str | None = None,
) -> FNNT:
    """Generate the extended mixed-radix (EMR) topology of ``N*``.

    This is the RadiX-Net with all dense widths equal to 1 (the object of
    the paper's Lemma 2).
    """
    submatrices = emr_submatrices(systems)
    label = name or "extended-mixed-radix"
    return FNNT(submatrices, validate=False, name=label)


def generate_radixnet(
    radix_systems: Sequence[SystemLike],
    widths: Sequence[int],
    *,
    name: str = "radix-net",
) -> FNNT:
    """Generate the RadiX-Net topology for ``(N*, D)`` (paper Figure 6).

    Parameters
    ----------
    radix_systems:
        The ordered mixed-radix numeral systems ``N*``; e.g.
        ``[(2, 2), (2, 2)]`` or ``[MixedRadixSystem((3, 3, 4)), ...]``.
    widths:
        The dense layer widths ``D = (D_0, ..., D_Mbar)`` with
        ``Mbar = total number of radices``.
    name:
        Label attached to the returned :class:`FNNT`.

    Returns
    -------
    FNNT
        The generated topology, with layer sizes ``D_i * N'``.

    Examples
    --------
    >>> net = generate_radixnet([(2, 2), (2, 2)], [1, 2, 2, 2, 1])
    >>> net.layer_sizes
    (4, 8, 8, 8, 4)
    >>> net.is_symmetric()
    True
    """
    spec = RadixNetSpec(radix_systems, widths, name=name)
    return generate_from_spec(spec)


def generate_from_spec(spec: RadixNetSpec) -> FNNT:
    """Generate the topology described by a validated :class:`RadixNetSpec`.

    The returned FNNT keeps the extended mixed-radix submatrices and the
    widths it was expanded from as its ``kron_factors``.
    """
    base = emr_submatrices(spec)
    expanded = kron_expand_submatrices(base, spec.widths)
    factors = KroneckerFactors(tuple(base), spec.widths)
    return FNNT(expanded, validate=False, name=spec.name, kron_factors=factors)


def radixnet_edge_count(spec: RadixNetSpec) -> int:
    """Exact edge count of the RadiX-Net without constructing it.

    Layer ``i`` contributes ``D_{i-1} * D_i * N' * Nbar_i`` edges where
    ``Nbar_i`` is the ``i``-th flattened radix -- each of the ``N'`` rows of
    the mixed-radix submatrix stores exactly ``Nbar_i`` entries and the
    Kronecker factor replicates them ``D_{i-1} * D_i`` times.
    """
    radices = spec.flattened_radices
    widths = spec.widths
    return int(
        sum(
            widths[i] * widths[i + 1] * spec.n_prime * radices[i]
            for i in range(len(radices))
        )
    )


def radixnet_dense_edge_count(spec: RadixNetSpec) -> int:
    """Edge count of the fully-connected FNNT on the same layer sizes."""
    sizes = spec.layer_sizes
    return int(sum(sizes[i] * sizes[i + 1] for i in range(len(sizes) - 1)))
