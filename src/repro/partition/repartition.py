"""Dynamic repartitioning: the adaptive-workload case for SFCs.

The paper's introduction points at the AMR literature (Behrens &
Zimmermann; Griebel & Zumbusch; Parashar; Pilkington & Baden), where
SFC partitioning shines because re-balancing a *changed* load is just
re-cutting the same one-dimensional curve: elements only migrate to
*adjacent* curve segments, so migration volume is small and no global
graph computation is needed.  This module implements that story for
the cubed-sphere:

* :func:`migration_cost` — how many elements (and how much weight)
  change owners between two partitions;
* :func:`plan_repartition` — the one re-cut: given an old assignment
  and new weights, produce a :class:`RepartitionPlan` (moved gids per
  destination rank, elements/weight moved, LB before and after)
  without touching elements that stay put;
* :func:`validate_old_assignment` — the one check of an old
  assignment, shared with the service's repartition request;
* :func:`group_moves` — a plan's moved gids grouped by destination
  rank, rebuilt from the old and new assignments alone;
* :class:`LoadTracker` — convenience driver for a time series of
  weights (e.g. a storm moving around the sphere), re-cutting as
  :func:`plan_repartition` does and recording balance and migration
  per rebalancing step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import Partition
from .metrics import load_balance
from .registry import PartitionProblem, get as get_partitioner

__all__ = [
    "LoadTracker",
    "MigrationCost",
    "RepartitionPlan",
    "group_moves",
    "migration_cost",
    "plan_repartition",
    "validate_old_assignment",
]


@dataclass(frozen=True)
class MigrationCost:
    """Cost of moving from one partition to another.

    Attributes:
        elements_moved: Count of vertices whose owner changed.
        weight_moved: Total weight of moved vertices.
        fraction_moved: ``elements_moved / n``.
    """

    elements_moved: int
    weight_moved: float
    fraction_moved: float


def migration_cost(
    old: Partition,
    new: Partition,
    weights: np.ndarray | None = None,
) -> MigrationCost:
    """Measure the element migration between two partitions.

    Args:
        old: Previous assignment.
        new: New assignment (same vertex count; part counts may
            differ).
        weights: Optional per-vertex weights (default 1).
    """
    if old.nvertices != new.nvertices:
        raise ValueError("partitions cover different vertex sets")
    moved = old.assignment != new.assignment
    n = old.nvertices
    if weights is None:
        w_moved = float(moved.sum())
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if len(weights) != n:
            raise ValueError("weights length mismatch")
        w_moved = float(weights[moved].sum())
    return MigrationCost(
        elements_moved=int(moved.sum()),
        weight_moved=w_moved,
        fraction_moved=float(moved.sum()) / n if n else 0.0,
    )


def validate_old_assignment(old_assignment, ne: int) -> np.ndarray:
    """The owners a re-cut at ``ne`` starts from, as an int64 array.

    The one check of an old assignment: one owner per element (1-D,
    ``K = 6 ne^2`` entries), each in ``[0, K)``.  :func:`plan_repartition`
    makes it; the service's repartition request makes it when it is
    built, then plans through ``_plan_repartition``, which does not
    check again.

    Raises:
        ValueError: Not an integer array, the wrong shape, or an owner
            out of range.
    """
    k = 6 * ne * ne
    try:
        old = np.asarray(old_assignment, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("old_assignment must be an integer array") from None
    if old.ndim != 1 or len(old) != k:
        raise ValueError(
            f"old_assignment must have one owner per element: expected "
            f"{k} entries for ne={ne}, got shape {old.shape}"
        )
    if len(old) and (old.min() < 0 or old.max() >= k):
        raise ValueError("old_assignment owners must be in [0, K)")
    return old


@dataclass(frozen=True)
class RepartitionPlan:
    """A migration-minimizing diff plan between two assignments.

    Attributes:
        nparts: Processor count of the new assignment.
        method: Partitioner that produced the new assignment.
        new_assignment: ``(K,)`` int64 owner per element.
        moves: Destination rank -> gids that *arrive* there (elements
            whose owner changed; stationary elements never appear).
        elements_moved: Total count of elements changing owner.
        weight_moved: Total new-weight of the moved elements.
        fraction_moved: ``elements_moved / K``.
        lb_before: Load imbalance of the *new* weights under the old
            assignment (what you'd suffer by not rebalancing).
        lb_after: Load imbalance of the new weights under the new
            assignment.
    """

    nparts: int
    method: str
    new_assignment: np.ndarray = field(repr=False)
    moves: dict[int, np.ndarray] = field(repr=False)
    elements_moved: int = 0
    weight_moved: float = 0.0
    fraction_moved: float = 0.0
    lb_before: float = 0.0
    lb_after: float = 0.0

    def to_dict(self, include_assignment: bool = False) -> dict:
        """JSON-able form (gid lists per destination rank)."""
        return self._fields(
            lambda arr: np.asarray(arr).tolist(), include_assignment
        )

    def scalars(self) -> dict:
        """Every field but the two arrays, as JSON-able plain values.

        With the new assignment and the old one they fix the whole
        plan: :func:`group_moves` rebuilds :attr:`moves`.
        """
        return {
            "nparts": int(self.nparts),
            "method": self.method,
            "elements_moved": int(self.elements_moved),
            "weight_moved": float(self.weight_moved),
            "fraction_moved": float(self.fraction_moved),
            "lb_before": float(self.lb_before),
            "lb_after": float(self.lb_after),
        }

    def _fields(self, array, include_assignment: bool) -> dict:
        """:meth:`to_dict`'s fields, each array passed through ``array``."""
        out = self.scalars()
        out["moves"] = {str(rank): array(gids) for rank, gids in self.moves.items()}
        if include_assignment:
            out["assignment"] = array(self.new_assignment)
        return out


def group_moves(
    old: np.ndarray, new: np.ndarray
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The gids whose owner changes from ``old`` to ``new``, and by rank.

    Returns the moved gids (ascending) and a destination rank -> gids
    dict in ascending rank order, each rank's gids ascending: a stable
    sort groups the gids by destination and the counts give each
    rank's run.  :attr:`RepartitionPlan.moves` is this dict.
    """
    moved = np.flatnonzero(new != old)
    dests = new[moved]
    grouped = moved[np.argsort(dests, kind="stable")]
    counts = np.bincount(dests)
    ranks = np.flatnonzero(counts)
    stops = np.cumsum(counts[ranks])
    moves = {
        rank: grouped[stop - count : stop]
        for rank, count, stop in zip(
            ranks.tolist(), counts[ranks].tolist(), stops.tolist()
        )
    }
    return moved, moves


def plan_repartition(
    old_assignment: np.ndarray,
    weights: np.ndarray,
    *,
    ne: int,
    nparts: int | None = None,
    method: str = "sfc",
    seed: int = 0,
    schedule: str | None = None,
) -> RepartitionPlan:
    """Plan the migration from an old assignment to freshly cut parts.

    Builds the new partition for ``weights`` via the registry (so
    capability contracts — weight support, admissible ``ne`` — are
    enforced exactly as for a fresh partition request), then diffs it
    against ``old_assignment``: only elements whose owner changes
    appear in the plan, grouped by destination rank.

    Args:
        old_assignment: ``(6 ne^2,)`` current owner per element.
        weights: New per-element positive weights.
        ne: Elements per cube-face edge.
        nparts: New processor count (default: inferred from the old
            assignment; may differ to grow/shrink the job).
        method: Registered weighted method cutting the new partition.
        seed: Determinism seed (seeded methods only).
        schedule: Optional refinement schedule.

    Returns:
        The :class:`RepartitionPlan`.

    Raises:
        ValueError: Malformed old assignment or weights.
        CapabilityError: ``method`` cannot honor the problem (e.g. it
            does not support weights).
    """
    return _plan_repartition(
        validate_old_assignment(old_assignment, int(ne)), weights,
        ne=ne, nparts=nparts, method=method, seed=seed, schedule=schedule,
    )


def _recut(weights, *, ne: int, nparts: int, method: str, seed: int, schedule):
    """The re-cut of :func:`plan_repartition` and :class:`LoadTracker`,
    and the weights as the problem checked them."""
    problem = PartitionProblem(
        ne=int(ne), nparts=int(nparts), seed=int(seed),
        schedule=schedule, weights=weights,
    )
    new = get_partitioner(method)(problem)
    if method == "sfc":
        new = new.with_method("sfc-rebal")
    return new, problem.weights


def _plan_repartition(
    old: np.ndarray,
    weights: np.ndarray,
    *,
    ne: int,
    nparts: int | None,
    method: str,
    seed: int,
    schedule: str | None,
) -> RepartitionPlan:
    """:func:`plan_repartition` of an already checked old assignment
    (the int64 array :func:`validate_old_assignment` returns)."""
    k = 6 * int(ne) * int(ne)
    # LB-before bins every *old* owner even when shrinking nparts.
    old_nparts = int(old.max()) + 1 if len(old) else 1
    if nparts is None:
        nparts = old_nparts
    new, weights = _recut(
        weights, ne=ne, nparts=nparts, method=method, seed=seed, schedule=schedule
    )
    moved, moves = group_moves(old, new.assignment)
    before = np.bincount(old, weights=weights, minlength=old_nparts)
    after = np.bincount(new.assignment, weights=weights, minlength=int(nparts))
    return RepartitionPlan(
        nparts=int(nparts),
        method=new.method,
        new_assignment=new.assignment,
        moves=moves,
        elements_moved=int(len(moved)),
        weight_moved=float(weights[moved].sum()),
        fraction_moved=float(len(moved)) / k if k else 0.0,
        lb_before=load_balance(before),
        lb_after=load_balance(after),
    )


@dataclass
class LoadTracker:
    """Drive a sequence of rebalancing steps over changing weights.

    Every step re-cuts the fixed global SFC under its weights (the
    registry's ``sfc`` method, labelled ``"sfc-rebal"``) with the
    re-cut :func:`plan_repartition` makes, and counts the elements
    whose owner changed since the previous step (none at the first).

    Args:
        ne: Elements per cube-face edge.
        nparts: Processor count.
        schedule: Optional refinement schedule of the curve.
    """

    ne: int
    nparts: int
    schedule: str | None = None

    def __post_init__(self) -> None:
        self.current: Partition | None = None
        self.history: list[dict[str, float]] = []

    def update(self, weights: np.ndarray) -> Partition:
        """Rebalance for new weights; record balance and migration.

        Returns:
            The new partition.
        """
        new, weights = _recut(
            weights, ne=self.ne, nparts=self.nparts, method="sfc", seed=0,
            schedule=self.schedule,
        )
        moved = 0 if self.current is None else int(
            np.count_nonzero(new.assignment != self.current.assignment)
        )
        # One bincount gives every step's loads; its LB is the plan's
        # lb_after.
        loads = np.bincount(new.assignment, weights=weights, minlength=self.nparts)
        self.history.append({
            "lb": load_balance(loads),
            "max_load": float(loads.max()),
            "mean_load": float(loads.mean()),
            "elements_moved": float(moved),
            "fraction_moved": moved / len(new.assignment),
        })
        self.current = new
        return new
