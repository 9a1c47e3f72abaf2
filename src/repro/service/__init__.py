"""Partition service: cached, batched, parallel partition serving.

The repo's first *serving* subsystem.  Everything below the service
layer computes one partition at a time, in-process, from scratch; this
package turns that into a request/response engine:

* :mod:`~repro.service.requests` — validated, JSON-round-tripping
  request/response schema with a canonical hashed form;
* :mod:`~repro.service.cache` — content-addressed two-tier cache
  (in-memory LRU + on-disk NPZ store) shared by partitions and
  rebalances;
* :mod:`~repro.service.engine` — batch engine: dedupe, cache lookup,
  process-pool fan-out for misses;
* :mod:`~repro.service.stats` — hit/miss counters, timings, worker
  utilization, rendered as the repo's standard text tables.

Quickstart::

    from repro.service import PartitionCache, PartitionEngine, PartitionRequest

    engine = PartitionEngine(PartitionCache(cache_dir=".repro-cache"), jobs=4)
    reqs = [PartitionRequest(ne=8, nparts=n) for n in (24, 48, 96, 192, 384)]
    for resp in engine.run(reqs):
        print(resp.request.nparts, resp.source, resp.metrics["lb_nelemd"])
    print(engine.stats.render())
    engine.close()  # or use the engine as a context manager
"""

from .cache import PartitionCache
from .engine import PartitionEngine, compute_response
from .requests import (
    METRIC_FIELDS,
    PartitionRequest,
    PartitionResponse,
    RepartitionResponse,
    WeightSpec,
    load_request_file,
    quality_metrics,
)
from .stats import ServiceStats

__all__ = [
    "METRIC_FIELDS",
    "PartitionCache",
    "PartitionEngine",
    "PartitionRequest",
    "PartitionResponse",
    "RepartitionResponse",
    "ServiceStats",
    "WeightSpec",
    "compute_response",
    "load_request_file",
    "quality_metrics",
]
