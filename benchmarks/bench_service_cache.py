"""Partition service cache benchmark — cold vs. warm throughput.

Serves the same K=1536 (Ne=16) sweep twice through the engine:

* **cold** — empty cache directory, every request computed (in
  parallel worker processes);
* **warm** — a fresh engine over the now-populated disk store, with an
  empty memory tier, so every request is a disk hit.

The acceptance bar for the serving subsystem: the warm pass answers
>= 95% of requests from cache and is >= 5x faster end-to-end.

A second benchmark measures the staged pipeline's intra-batch reuse:
a cold batch sweeping many methods at one ``ne`` must build the mesh
and the element graph exactly once, with every other METIS request
hitting the per-process graph cache (curve methods build no graph).
"""

from __future__ import annotations

import os
from time import perf_counter

from repro.cubesphere.curve import face_chain
from repro.partition import registry
from repro.partition.pipeline import clear_stage_caches, stage_cache_stats
from repro.report import format_table
from repro.service import PartitionCache, PartitionEngine, PartitionRequest

NE = 16  # K = 1536, the paper's largest Hilbert resolution
METHODS = ("sfc", "rb", "kway", "tv")
NPROCS = (24, 48, 96, 192, 384)


def sweep_requests() -> list[PartitionRequest]:
    return [
        PartitionRequest(ne=NE, nparts=nparts, method=method)
        for method in METHODS
        for nparts in NPROCS
    ]


def serve(cache_dir) -> tuple[PartitionEngine, list, float]:
    engine = PartitionEngine(
        PartitionCache(cache_dir=cache_dir),
        jobs=min(4, os.cpu_count() or 1),
    )
    start = perf_counter()
    responses = engine.run(sweep_requests())
    return engine, responses, perf_counter() - start


def test_service_cache_throughput(tmp_path, save_artifact):
    cache_dir = tmp_path / "cache"
    cold_engine, cold_responses, cold_s = serve(cache_dir)
    warm_engine, warm_responses, warm_s = serve(cache_dir)

    n = len(cold_responses)
    rows = [
        ["cold", n, cold_engine.stats.count("computed"),
         f"{cold_engine.stats.hit_rate:.2f}", f"{cold_s:.3f}", f"{n / cold_s:.1f}"],
        ["warm", n, warm_engine.stats.count("computed"),
         f"{warm_engine.stats.hit_rate:.2f}", f"{warm_s:.3f}", f"{n / warm_s:.1f}"],
        ["speedup", "", "", "", f"{cold_s / warm_s:.1f}x", ""],
    ]
    text = format_table(
        ["pass", "requests", "computed", "hit_rate", "wall_s", "req/s"],
        rows,
        title=f"Partition service cache, K={6 * NE * NE} sweep "
        f"({len(METHODS)} methods x {len(NPROCS)} nprocs)",
    )
    save_artifact("service_cache", text)

    # Identical answers either way.
    for a, b in zip(cold_responses, warm_responses):
        assert (a.assignment == b.assignment).all()
        assert a.metrics == b.metrics
    # Acceptance: warm pass >= 95% hits and >= 5x lower wall time.
    assert warm_engine.stats.hit_rate >= 0.95
    assert cold_s / warm_s >= 5.0
    cold_engine.close()
    warm_engine.close()


def test_stage_cache_reuse_across_methods(save_artifact):
    """One mesh + one graph serve every method of an equal-``ne`` batch.

    Runs in-process (jobs=1) so the per-process stage caches are
    observable; with pool workers each process keeps its own caches.
    """
    clear_stage_caches()
    chains = face_chain.cache_info().misses
    requests = [
        PartitionRequest(ne=NE, nparts=nparts, method=method)
        for method in METHODS
        for nparts in (24, 96)
    ]
    start = perf_counter()
    with PartitionEngine(jobs=1) as engine:
        engine.run(requests)
    wall_s = perf_counter() - start

    stats = stage_cache_stats()
    rows = [
        [stage, s["hits"], s["misses"], s["entries"]]
        for stage, s in stats.items()
    ]
    rows.append(["(batch)", len(requests), "", f"{wall_s:.3f}s"])
    text = format_table(
        ["stage", "hits", "misses", "entries"],
        rows,
        title=f"Stage-cache reuse, {len(requests)} requests at ne={NE}",
    )
    save_artifact("stage_cache_reuse", text)

    # One mesh per distinct ne, plus the ne=2 mesh the SFC face chain
    # is found on the first time the process keys a curve (it is then
    # cached for good, so an earlier test in the same pytest run may have
    # built it).
    chain_meshes = face_chain.cache_info().misses - chains
    assert chain_meshes in (0, 1)
    assert stats["mesh"]["misses"] == len({r.ne for r in requests}) + chain_meshes
    # Only METIS methods read the element graph (curve answers are cut
    # and evaluated from the mesh), so it is built once and every later
    # METIS request hits.
    metis = sum(registry.get(r.method).family == "metis" for r in requests)
    assert stats["graph"]["misses"] == 1
    assert stats["graph"]["hits"] == metis - 1
