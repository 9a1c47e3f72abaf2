"""Content-addressed response cache: in-memory LRU + on-disk store.

Partitions and repartition plans are pure functions of their
:class:`~repro.service.requests.PartitionRequest`'s canonical form, so
the cache is content-addressed: the key is the SHA-256 of the request's
canonical JSON (``cache_key()``).  Per-element weights are part of that
form — inline weights as an O(1) content digest, scenario weights as
their ``(name, step, params)`` spec — and a rebalance's form (a request
with an old assignment) also carries a ``"kind"`` marker and a digest
of its old assignment, so no two distinct requests can collide, with
no cache-layer special-casing.  Partitions and plans share two tiers:

* an in-memory LRU (bounded by ``capacity`` responses of either kind)
  that makes repeated requests inside one process near-free;
* an optional on-disk store (one ``<key>.npz`` per entry holding the
  response's ``stored()`` form: one int64 assignment array — a plan's
  new assignment — plus JSON metadata) so repeated CLI or benchmark
  invocations skip the compute entirely.  A plan's moves are not
  stored: they are regrouped from the request's old assignment.

Disk writes are atomic (temp file + ``os.replace``) so concurrent
engines sharing a cache directory can only ever observe complete
entries.  Disk hits are promoted into the memory tier.

Each memory entry also carries one :class:`EncodedBody` slot, shared by
every copy of its response (``with_source`` keeps it).  The server
fills it with the entry's encoded JSON body the first time the entry is
*reused* and splices per-request ids into it from then on; eviction
drops it, so only entries that are asked for again hold bytes.

Every disk entry is stamped with the partition pipeline's composite
stage-version tag (:func:`repro.partition.pipeline.cache_version`).
An entry whose tag differs from the running code's — including
pre-refactor entries written before the tag existed — is treated as a
miss and recomputed (and overwritten), so a stage-implementation bump
can never silently serve stale assignments.
"""

from __future__ import annotations

import json
import os
import zipfile
from collections import OrderedDict
from pathlib import Path

import numpy as np

from ..partition.pipeline import cache_version
from ..telemetry import inc
from .requests import PartitionRequest, _Response

__all__ = ["PartitionCache", "encoded_body", "scan_cache_dir"]

#: What reading a truncated or foreign ``.npz`` entry can raise: a cut
#: zip directory is ``BadZipFile``, a cut compressed member ``EOFError``.
_UNREADABLE = (
    OSError,
    KeyError,
    ValueError,
    EOFError,
    zipfile.BadZipFile,
    json.JSONDecodeError,
)


def scan_cache_dir(cache_dir: Path | str) -> dict[str, int | str]:
    """Summarize a persistent cache directory (for ``repro cache info``).

    Returns entry counts split by freshness against the running
    composite stage version: ``current`` entries would be served,
    ``stale`` (version mismatch or pre-version entries) and
    ``unreadable`` ones would be recomputed on the next request.
    """
    cache_dir = Path(cache_dir)
    current = stale = unreadable = total_bytes = 0
    version = cache_version()
    for path in sorted(cache_dir.glob("*.npz")) if cache_dir.is_dir() else []:
        total_bytes += path.stat().st_size
        try:
            with np.load(path) as data:
                meta = json.loads(bytes(data["meta"]).decode())
        except _UNREADABLE:
            unreadable += 1
            continue
        if meta.get("cache_version") == version:
            current += 1
        else:
            stale += 1
    return {
        "cache_version": version,
        "entries": current + stale + unreadable,
        "current": current,
        "stale": stale,
        "unreadable": unreadable,
        "bytes": total_bytes,
    }


class EncodedBody:
    """One memory entry's encoded response body, filled on first reuse.

    ``template`` is whatever the encoder keeps there (anything with an
    ``nbytes``), ``None`` until then and again once the entry is evicted.
    """

    __slots__ = ("template",)

    def __init__(self) -> None:
        self.template = None

    @property
    def nbytes(self) -> int:
        return 0 if self.template is None else self.template.nbytes


def encoded_body(response: _Response) -> EncodedBody | None:
    """The body slot ``response`` shares with its memory entry, if any."""
    return response.__dict__.get("_encoded")


class PartitionCache:
    """Two-tier (memory LRU + disk) content-addressed response cache.

    Args:
        capacity: Maximum responses held in memory (LRU eviction).
        cache_dir: Optional directory for the persistent tier; created
            on first use.  ``None`` keeps the cache memory-only.
    """

    def __init__(
        self, capacity: int = 256, cache_dir: Path | str | None = None
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._memory: OrderedDict[str, _Response] = OrderedDict()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self.stale = 0  # disk entries rejected for a cache-version mismatch

    # -- lookup ---------------------------------------------------------

    def get(self, request: PartitionRequest) -> _Response | None:
        """Return the cached response for ``request``, or ``None``.

        The returned response's ``source`` reflects the tier that
        answered (``"memory"`` or ``"disk"``).  Every lookup bumps the
        ``cache_hits`` or ``cache_misses`` counter, whichever serve path
        asked.
        """
        key = request.cache_key()
        hit = self._memory.get(key)
        if hit is not None:
            self._memory.move_to_end(key)
            self.memory_hits += 1
            inc("cache_hits")
            return hit.with_source("memory")
        hit = self._load_disk(key, request)
        if hit is not None:
            self.disk_hits += 1
            inc("cache_hits")
            self._remember(key, hit)
            return hit
        self.misses += 1
        inc("cache_misses")
        return None

    def put(self, request: PartitionRequest, response: _Response) -> None:
        """Insert a computed response into both tiers."""
        key = request.cache_key()
        self._remember(key, response)
        if self.cache_dir is not None:
            self._store_disk(key, response)
        self.stores += 1

    def __contains__(self, request: PartitionRequest) -> bool:
        key = request.cache_key()
        return key in self._memory or (
            self.cache_dir is not None and self._path(key).exists()
        )

    def __len__(self) -> int:
        return len(self._memory)

    def clear_memory(self) -> None:
        """Drop the memory tier (the disk tier survives)."""
        self._memory.clear()

    # -- stats ----------------------------------------------------------

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float | int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stale": self.stale,
            "stores": self.stores,
            "hit_rate": self.hit_rate,
            "memory_entries": len(self._memory),
            "encoded_bytes": sum(
                encoded_body(response).nbytes for response in self._memory.values()
            ),
        }

    # -- internals ------------------------------------------------------

    def _remember(self, key: str, response: _Response) -> None:
        object.__setattr__(response, "_encoded", EncodedBody())
        self._memory[key] = response
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            # A copy still being answered may hold the slot; the bytes go now.
            _, evicted = self._memory.popitem(last=False)
            encoded_body(evicted).template = None

    def _path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key}.npz"

    def _store_disk(self, key: str, response: _Response) -> None:
        assert self.cache_dir is not None
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
        assignment, meta = response.stored()
        meta = {
            "cache_version": cache_version(),
            "request": response.request.canonical(),
            **meta,
        }
        try:
            with open(tmp, "wb") as fh:
                np.savez_compressed(
                    fh,
                    assignment=assignment,
                    meta=np.frombuffer(
                        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
                    ),
                )
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def _load_disk(self, key: str, request: PartitionRequest) -> _Response | None:
        if self.cache_dir is None:
            return None
        path = self._path(key)
        if not path.exists():
            return None
        try:
            with np.load(path) as data:
                assignment = data["assignment"]
                meta = json.loads(bytes(data["meta"]).decode())
        except _UNREADABLE:
            return None  # truncated/foreign file: treat as a miss
        # A pre-refactor entry (no tag) or one written by a different
        # stage-version combination must be recomputed, not served.
        if meta.get("cache_version") != cache_version():
            self.stale += 1
            return None
        # Paranoia against hash collisions and stale schemas: the stored
        # request must match the one asked for.
        if meta.get("request") != request.canonical():
            return None
        try:
            return request.restored(assignment, meta)
        except (KeyError, TypeError, ValueError):
            return None  # metadata of another response form: a miss
