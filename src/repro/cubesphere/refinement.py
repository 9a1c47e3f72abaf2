"""Adaptive refinement on the cubed-sphere, ordered by the global SFC.

Every SFC-partitioning citation in the paper's introduction (Behrens &
Zimmermann, Griebel & Zumbusch, Parashar, Pilkington & Baden) is an
adaptive-mesh code: when elements refine, their children can be
spliced into the parent's position on the curve, so the 1-D cut-based
partitioning keeps working with no global recomputation.  This module
implements that splice for quad-tree refinement of cubed-sphere
elements:

* each base element carries a refinement level ``l`` and stands for
  ``4**l`` leaf cells;
* the expanded curve visits the leaves of each base element
  contiguously, in the order a Hilbert sub-curve of level ``l`` would
  traverse them (so leaf ordering stays locality-preserving);
* partitioning balances *leaf* counts (or weighted leaf work) by
  cutting the expanded curve, with the base element kept atomic or
  split at leaf granularity as the caller chooses.

The implementation tracks leaf counts and positions exactly; leaf
geometry beyond the parent element (needed only for visualization) is
intentionally out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cubesphere.curve import CubedSphereCurve
from ..partition.base import Partition
from ..partition.sfc import keyed_cut

__all__ = ["RefinedMesh", "refine_uniform", "refine_where"]

MAX_LEVEL = 12


@dataclass(frozen=True)
class RefinedMesh:
    """A quad-tree refinement state over a cubed-sphere curve.

    Attributes:
        curve: The base-element global curve.
        levels: ``(nelem,)`` refinement level of each base element
            (gid-indexed); element ``e`` stands for ``4**levels[e]``
            leaves.
    """

    curve: CubedSphereCurve
    levels: np.ndarray

    def __post_init__(self) -> None:
        levels = np.asarray(self.levels, dtype=np.int64)
        if levels.shape != (self.curve.mesh.nelem,):
            raise ValueError("levels must have one entry per base element")
        if (levels < 0).any() or (levels > MAX_LEVEL).any():
            raise ValueError(f"levels must be in [0, {MAX_LEVEL}]")
        object.__setattr__(self, "levels", levels)
        levels.setflags(write=False)

    # -- leaf bookkeeping ------------------------------------------------
    def leaves_per_element(self) -> np.ndarray:
        """``4**level`` per base element (gid-indexed)."""
        return 4 ** self.levels.astype(np.int64)

    @property
    def nleaves(self) -> int:
        return int(self.leaves_per_element().sum())

    # -- refinement operations -------------------------------------------
    def refined(self, gids: np.ndarray, delta: int = 1) -> "RefinedMesh":
        """New state with ``gids`` refined (or coarsened, delta<0)."""
        levels = self.levels.copy()
        levels[np.asarray(gids, dtype=np.int64)] += delta
        return RefinedMesh(curve=self.curve, levels=levels)

    # -- partitioning ------------------------------------------------------
    def partition(
        self,
        nparts: int,
        leaf_weight: float = 1.0,
        atomic: bool = True,
    ) -> Partition:
        """Cut the expanded curve into ``nparts`` balanced segments.

        Args:
            nparts: Number of processors.
            leaf_weight: Work per leaf (uniform; heterogeneous work is
                supported through :func:`partition_weighted`).
            atomic: If True (the paper's convention — elements are
                indivisible), cuts happen only at base-element
                boundaries, balancing total leaf work per processor.

        Returns:
            Base-element :class:`Partition` (leaf-granular assignment
            is the same partition since leaves follow their parent).
        """
        if not atomic:
            raise NotImplementedError(
                "leaf-granular ownership requires hanging-node exchange "
                "support; the paper treats elements as atomic"
            )
        weights = self.leaves_per_element().astype(np.float64) * leaf_weight
        return self.partition_weighted(nparts, weights)

    def partition_weighted(self, nparts: int, weights: np.ndarray) -> Partition:
        """Cut the curve balancing arbitrary per-element work."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.curve.mesh.nelem,):
            raise ValueError("weights must have one entry per base element")
        position = self.curve.position
        return keyed_cut(
            lambda ids: position[ids],
            len(weights),
            nparts,
            weights=weights,
            method="sfc-amr",
        )

    def imbalance(self, partition: Partition) -> float:
        """Leaf-work load balance (paper Eq. 1) of a partition."""
        from ..partition.metrics import load_balance

        loads = np.bincount(
            partition.assignment,
            weights=self.leaves_per_element().astype(np.float64),
            minlength=partition.nparts,
        )
        return load_balance(loads)


def refine_uniform(curve: CubedSphereCurve, level: int = 0) -> RefinedMesh:
    """Uniform refinement state (level 0 = the base mesh)."""
    return RefinedMesh(
        curve=curve,
        levels=np.full(curve.mesh.nelem, level, dtype=np.int64),
    )


def refine_where(
    curve: CubedSphereCurve,
    predicate: np.ndarray,
    level: int = 1,
) -> RefinedMesh:
    """Refine the elements selected by a boolean mask.

    Args:
        curve: Base-element global curve.
        predicate: ``(nelem,)`` bool mask of elements to refine.
        level: Refinement level of the selected elements.
    """
    predicate = np.asarray(predicate, dtype=bool)
    if predicate.shape != (curve.mesh.nelem,):
        raise ValueError("predicate must have one entry per element")
    levels = np.where(predicate, level, 0).astype(np.int64)
    return RefinedMesh(curve=curve, levels=levels)
