"""Partition representation and validation.

A *graph partition* (paper Sec. 2) is the set of sub-graphs produced by
assigning every vertex (spectral element) to one of ``nparts``
processors.  We represent it as a dense assignment vector; everything
else (sizes, cuts, volumes) is derived.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Partition"]


@dataclass(frozen=True)
class Partition:
    """An assignment of ``n`` vertices to ``nparts`` parts.

    Attributes:
        assignment: ``(n,)`` int64 array; ``assignment[v]`` is the part
            (processor) owning vertex ``v``.
        nparts: Number of parts.  Parts may be empty in a *candidate*
            partition, but :meth:`validate` flags that because an empty
            processor is always a defect in this application.
        method: Label of the algorithm that produced the partition
            (``"sfc"``, ``"kway"``, ...); carried along for reporting.
    """

    assignment: np.ndarray
    nparts: int
    method: str = "unknown"

    def __post_init__(self) -> None:
        arr = np.asarray(self.assignment, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("assignment must be 1-D")
        if self.nparts < 1:
            raise ValueError("nparts must be >= 1")
        if len(arr) and (arr.min() < 0 or arr.max() >= self.nparts):
            raise ValueError("assignment contains out-of-range part ids")
        object.__setattr__(self, "assignment", arr)
        arr.setflags(write=False)

    @property
    def nvertices(self) -> int:
        return len(self.assignment)

    def part_sizes(self) -> np.ndarray:
        """Vertex count of every part, ``(nparts,)``."""
        return np.bincount(self.assignment, minlength=self.nparts)

    def part_weights(self, vweights: np.ndarray) -> np.ndarray:
        """Total vertex weight of every part."""
        return np.bincount(
            self.assignment, weights=vweights, minlength=self.nparts
        ).astype(np.int64)

    def members(self, part: int) -> np.ndarray:
        """Vertices assigned to ``part`` (sorted)."""
        return np.flatnonzero(self.assignment == part)

    def validate(self, allow_empty: bool = False) -> None:
        """Raise :class:`ValueError` if the partition is malformed.

        Args:
            allow_empty: Permit empty parts (useful mid-algorithm).
        """
        if not allow_empty and (self.part_sizes() == 0).any():
            empty = np.flatnonzero(self.part_sizes() == 0)
            raise ValueError(f"empty parts: {empty.tolist()}")

    def with_method(self, method: str) -> "Partition":
        return Partition(self.assignment, self.nparts, method)
