"""Dynamic repartitioning: the adaptive-workload case for SFCs.

The paper's introduction points at the AMR literature (Behrens &
Zimmermann; Griebel & Zumbusch; Parashar; Pilkington & Baden), where
SFC partitioning shines because re-balancing a *changed* load is just
re-cutting the same one-dimensional curve: elements only migrate to
*adjacent* curve segments, so migration volume is small and no global
graph computation is needed.  This module implements that story for
the cubed-sphere:

* :func:`repartition_curve` — re-cut the curve under new weights, on
  the streaming key path (given ``ne`` or a prebuilt
  :class:`CubedSphereCurve`, whose ``ne`` and schedule key the same
  way: the curve is never materialized per step);
* :func:`migration_cost` — how many elements (and how much weight)
  change owners between two partitions;
* :func:`plan_repartition` — the service-facing verb: given an old
  assignment and new weights, produce a :class:`RepartitionPlan`
  (moved gids per destination rank, elements/weight moved, LB before
  and after) without touching elements that stay put;
* :func:`group_moves` — a plan's moved gids grouped by destination
  rank, rebuilt from the old and new assignments alone;
* :class:`LoadTracker` — convenience driver for a time series of
  weights (e.g. a storm moving around the sphere), recording balance
  and migration per rebalancing step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cubesphere.curve import CubedSphereCurve
from .base import Partition
from .metrics import load_balance
from .registry import PartitionProblem, get as get_partitioner
from .sfc import curve_key_fn, keyed_cut

__all__ = [
    "LoadTracker",
    "MigrationCost",
    "RepartitionPlan",
    "group_moves",
    "migration_cost",
    "plan_repartition",
    "repartition_curve",
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


def repartition_curve(
    curve: CubedSphereCurve | int,
    weights: np.ndarray,
    nparts: int,
    schedule: str | None = None,
    chunk: int | None = None,
) -> Partition:
    """Re-cut the global curve for new element weights.

    Because the curve ordering is fixed, successive repartitions only
    shift the cut points, so elements migrate between *neighboring*
    ranks — the property that makes SFC rebalancing cheap in adaptive
    codes (tested: migration stays far below a fresh graph partition's).

    Args:
        curve: The global SFC — ``ne``, or a :class:`CubedSphereCurve`,
            which keys as its ``ne`` and schedule.  Either way uint64
            keys stream; nothing is materialized or rebuilt per step.
        weights: Per-element (gid-indexed) positive weights.
        nparts: Number of processors.
        schedule: Refinement schedule (only with ``curve`` given as
            ``ne``; a curve object carries its own).
        chunk: Elements keyed per streaming pass.

    Returns:
        A :class:`Partition` labeled ``"sfc-rebal"``.
    """
    if isinstance(curve, CubedSphereCurve):
        if schedule is not None and schedule != curve.schedule:
            raise ValueError(
                f"schedule {schedule!r} conflicts with the curve's "
                f"({curve.schedule!r}); pass ne instead of a curve to rekey"
            )
        ne, schedule = curve.mesh.ne, curve.schedule
    else:
        ne = int(curve)
    return keyed_cut(
        curve_key_fn(ne, schedule),
        6 * ne * ne,
        nparts,
        weights=weights,
        chunk=chunk,
        method="sfc-rebal",
    )


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
    k = 6 * int(ne) * int(ne)
    old = np.asarray(old_assignment, dtype=np.int64)
    if old.ndim != 1 or len(old) != k:
        raise ValueError(
            f"old_assignment must have one owner per element: expected "
            f"{k} entries for ne={ne}, got shape {old.shape}"
        )
    if len(old) and old.min() < 0:
        raise ValueError("old_assignment owners must be >= 0")
    if nparts is None:
        nparts = int(old.max()) + 1 if len(old) else 1
    problem = PartitionProblem(
        ne=int(ne), nparts=int(nparts), seed=int(seed),
        schedule=schedule, weights=weights,
    )
    weights = problem.weights
    new = get_partitioner(method)(problem)
    if method == "sfc":
        new = new.with_method("sfc-rebal")
    moved, moves = group_moves(old, new.assignment)
    # LB-before bins every *old* owner even when shrinking nparts.
    old_nparts = (int(old.max()) + 1) if len(old) else 1
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

    Args:
        curve: The fixed global SFC — ``ne`` or a
            :class:`CubedSphereCurve` (see :func:`repartition_curve`).
        nparts: Processor count.
        schedule: Refinement schedule (with ``curve`` given as ``ne``).
    """

    curve: CubedSphereCurve | int
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
        new = repartition_curve(
            self.curve, weights, self.nparts, schedule=self.schedule
        )
        loads = np.bincount(
            new.assignment, weights=weights, minlength=self.nparts
        )
        entry = {
            "lb": load_balance(loads),
            "max_load": float(loads.max()),
            "mean_load": float(loads.mean()),
        }
        if self.current is not None:
            cost = migration_cost(self.current, new, weights)
            entry["elements_moved"] = float(cost.elements_moved)
            entry["fraction_moved"] = cost.fraction_moved
        else:
            entry["elements_moved"] = 0.0
            entry["fraction_moved"] = 0.0
        self.history.append(entry)
        self.current = new
        return new
