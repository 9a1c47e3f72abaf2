"""Small per-process LRU memoizer shared by the pipeline's cached stages.

The mesh and graph stages (:mod:`repro.partition.pipeline`) and the
curve-position arrays of the SFC cut path (:mod:`repro.partition.sfc`)
all memoize a pure function of a few parameters in one of these, so
every cached stage is bounded, counted (``stage_cache_total``), traced
on a miss (a ``stage:<name>`` span) and dropped by
:func:`repro.partition.pipeline.clear_stage_caches` the same way.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from ..telemetry import inc, span

__all__ = ["StageCache"]


class StageCache:
    """Small LRU memoizer for one stage, with hit/miss stats.

    Args:
        stage: Stage name, used in the ``stage:<name>`` span and the
            ``stage_cache_total`` counter.
        maxsize: Entries kept; the least recently used is evicted.
        version: Returns the stage's current implementation version.
            It prefixes every key, so bumping it turns the entries
            cached before the bump into misses.
    """

    def __init__(
        self, stage: str, maxsize: int, version: Callable[[], int] = lambda: 0
    ) -> None:
        self.stage = stage
        self.maxsize = maxsize
        self.version = version
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get_or_compute(self, key: tuple, compute):
        version = self.version()
        full_key = (version, *key)
        if full_key in self._entries:
            self._entries.move_to_end(full_key)
            self.hits += 1
            inc("stage_cache_total", stage=self.stage, outcome="hit")
            return self._entries[full_key]
        self.misses += 1
        inc("stage_cache_total", stage=self.stage, outcome="miss")
        with span(
            f"stage:{self.stage}", "pipeline", version=version, key=str(key)
        ):
            value = compute()
        self._entries[full_key] = value
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return value

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
        }

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
