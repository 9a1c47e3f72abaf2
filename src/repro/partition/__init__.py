"""Partitioning algorithms, registry, staged pipeline, and metrics."""

from .analysis import PartitionStructure, PartShape, analyze_structure
from .base import Partition
from .block import block_partition, random_partition, strided_partition
from .geometric import rcb_partition
from .pipeline import (
    STAGE_VERSIONS,
    PipelineResult,
    cache_version,
    evaluate_stage,
    graph_stage,
    mesh_stage,
    partition_stage,
    run_pipeline,
    stage_cache_stats,
)
from .registry import (
    CapabilityError,
    DuplicatePartitionerError,
    PartitionProblem,
    Partitioner,
    UnknownPartitionerError,
)
from . import registry
from .repartition import (
    LoadTracker,
    MigrationCost,
    RepartitionPlan,
    migration_cost,
    plan_repartition,
)
from .metrics import (
    PartitionQuality,
    edgecut,
    evaluate_partition,
    load_balance,
    weighted_edgecut,
)
from .sfc import (
    cut_positions_uniform,
    cut_positions_weighted,
    keyed_cut,
    morton_partition,
    sfc_partition,
)

__all__ = [
    "CapabilityError",
    "DuplicatePartitionerError",
    "PartShape",
    "Partitioner",
    "PartitionProblem",
    "PartitionStructure",
    "PipelineResult",
    "STAGE_VERSIONS",
    "UnknownPartitionerError",
    "analyze_structure",
    "LoadTracker",
    "MigrationCost",
    "Partition",
    "PartitionQuality",
    "block_partition",
    "cache_version",
    "evaluate_stage",
    "graph_stage",
    "mesh_stage",
    "partition_stage",
    "registry",
    "run_pipeline",
    "stage_cache_stats",
    "cut_positions_uniform",
    "cut_positions_weighted",
    "edgecut",
    "evaluate_partition",
    "keyed_cut",
    "load_balance",
    "migration_cost",
    "morton_partition",
    "plan_repartition",
    "RepartitionPlan",
    "random_partition",
    "rcb_partition",
    "sfc_partition",
    "strided_partition",
    "weighted_edgecut",
]
