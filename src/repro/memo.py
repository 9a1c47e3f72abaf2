"""The per-process memo: one small LRU class, one registry of instances.

The paper's curve is fixed and only the cut points move, so the mesh,
graph, curve, curve positions, face curves, key tables, GLL bases, SE
geometry and DSS operator are pure functions of a few parameters, built
once per process and reused.
Each is memoized in a :class:`StageCache` that registers under its
stage name, so every memo is bounded, counted (``stage_cache_total``),
traced on a miss (a ``stage:<name>`` span), reported by
:func:`stage_cache_stats` and dropped by :func:`clear_stage_caches`
the same way.  This module imports nothing of the package but
:mod:`repro.telemetry`, so a server can report the memos without
importing the layers that fill them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from .telemetry import inc, span

__all__ = ["MEMOS", "StageCache", "clear_stage_caches", "stage_cache_stats"]

#: Every memo of this process, by stage name.
MEMOS: dict[str, StageCache] = {}


class StageCache:
    """Small LRU memoizer for one stage, with hit/miss stats.

    Args:
        stage: Stage name, unique per process; used in the
            ``stage:<name>`` span, the ``stage_cache_total`` counter and
            :data:`MEMOS`.
        maxsize: Entries kept; the least recently used is evicted.
        version: Returns the stage's current implementation version.
            It prefixes every key, so bumping it turns the entries
            cached before the bump into misses.
    """

    def __init__(
        self, stage: str, maxsize: int, version: Callable[[], int] = lambda: 0
    ) -> None:
        if stage in MEMOS:
            raise ValueError(f"a memo named {stage!r} already exists")
        self.stage = stage
        self.maxsize = maxsize
        self.version = version
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        MEMOS[stage] = self

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


def stage_cache_stats() -> dict[str, dict[str, int]]:
    """Hit/miss/entry counts of every memo of this process, by stage."""
    return {stage: memo.stats() for stage, memo in MEMOS.items()}


def clear_stage_caches() -> None:
    """Drop every memo's entries and reset its counters."""
    for memo in MEMOS.values():
        memo.clear()
