"""Rank-to-node mapping strategies.

The P690 is a cluster of SMP nodes, so *which ranks share a node*
changes communication cost.  SFC partitions get good mappings for free
(consecutive ranks own adjacent curve segments, and MPI places
consecutive ranks on the same node), while a graph partitioner's part
numbering carries no such guarantee.  This module makes the mapping an
explicit, swappable step so the effect can be measured:

* :func:`identity_mapping` — ranks as numbered (MPI block placement);
* :func:`random_mapping` — adversarial scrambling (lower bound);
* :func:`greedy_comm_mapping` — pack heavily-communicating parts onto
  nodes greedily from the partition's halo exchange, which is what a
  topology-aware scheduler would do for METIS partitions.

A mapping is a permutation ``perm`` with ``perm[part] = rank``; apply
it with :func:`apply_mapping` to get a partition whose part ids *are*
machine ranks.
"""

from __future__ import annotations

import numpy as np

from ..partition.base import Partition
from .perf import PerformanceModel

__all__ = [
    "identity_mapping",
    "random_mapping",
    "greedy_comm_mapping",
    "apply_mapping",
]


def identity_mapping(nparts: int) -> np.ndarray:
    """Part ``p`` runs on rank ``p``."""
    return np.arange(nparts, dtype=np.int64)


def random_mapping(nparts: int, seed: int = 0) -> np.ndarray:
    """Uniformly random placement (for worst-case comparisons)."""
    return np.random.default_rng(seed).permutation(nparts).astype(np.int64)


def greedy_comm_mapping(model: PerformanceModel, partition: Partition) -> np.ndarray:
    """Pack communicating parts onto ``model.machine``'s SMP nodes greedily.

    Reads the part-to-part point counts of the halo exchange the model
    prices (:meth:`PerformanceModel.halo_schedule`), then fills nodes
    one at a time: seed each node with the unplaced part having the
    largest total volume, then repeatedly add the unplaced part with the
    most traffic to the node's current members.

    Returns:
        Permutation ``perm[part] = rank``.
    """
    nparts = partition.nparts
    volume = np.zeros((nparts, nparts), dtype=np.int64)
    for (a, b), pts in model.halo_schedule(partition).items():
        volume[a, b] = pts
    total = volume.sum(axis=1) + volume.sum(axis=0)
    unplaced = set(range(nparts))
    perm = np.empty(nparts, dtype=np.int64)
    rank = 0
    per_node = model.machine.procs_per_node
    while unplaced:
        seed_part = max(unplaced, key=lambda p: (int(total[p]), -p))
        members = [seed_part]
        unplaced.remove(seed_part)
        while len(members) < per_node and unplaced:
            best = max(
                unplaced,
                key=lambda p: (
                    int(volume[p, members].sum() + volume[members, p].sum()),
                    -p,
                ),
            )
            members.append(best)
            unplaced.remove(best)
        for p in members:
            perm[p] = rank
            rank += 1
    return perm


def apply_mapping(partition: Partition, perm: np.ndarray) -> Partition:
    """Renumber a partition's parts by a placement permutation."""
    perm = np.asarray(perm, dtype=np.int64)
    if len(perm) != partition.nparts:
        raise ValueError("permutation size does not match nparts")
    if sorted(perm.tolist()) != list(range(partition.nparts)):
        raise ValueError("perm must be a permutation of part ids")
    return Partition(
        perm[partition.assignment],
        nparts=partition.nparts,
        method=f"{partition.method}+mapped",
    )
