"""Deterministic partitioning of work."""

from __future__ import annotations

from repro.errors import ValidationError


def balanced_chunk_sizes(total: int, parts: int) -> list[int]:
    """Split ``total`` items into ``parts`` contiguous chunks differing by at most one.

    >>> balanced_chunk_sizes(10, 3)
    [4, 3, 3]
    """
    if total < 0:
        raise ValidationError("total must be >= 0")
    if parts <= 0:
        raise ValidationError("parts must be >= 1")
    base, remainder = divmod(total, parts)
    return [base + (1 if i < remainder else 0) for i in range(parts)]


def partition_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` ranges covering ``0..total`` in order.

    The remainder of an uneven split is distributed across the *leading*
    parts, so ranges differ in length by at most one and no range is ever
    empty: when ``parts > total`` only ``total`` ranges are produced
    rather than padding with empty trailing shards.

    >>> partition_ranges(10, 3)
    [(0, 4), (4, 7), (7, 10)]
    >>> partition_ranges(2, 4)
    [(0, 1), (1, 2)]
    """
    sizes = balanced_chunk_sizes(total, parts)
    ranges: list[tuple[int, int]] = []
    start = 0
    for size in sizes:
        if size > 0:
            ranges.append((start, start + size))
        start += size
    return ranges
