"""Stdlib thread-sampling wall-clock profiler (flamegraph-ready).

A background thread wakes every ``interval`` seconds, snapshots every
thread's Python stack with ``sys._current_frames()``, and counts
root-first call paths.  The result renders as *collapsed stacks* — the
``semicolon;separated;frames count`` lines Brendan Gregg's
``flamegraph.pl`` and https://www.speedscope.app consume directly —
so a live server can answer ``GET /debug/profile?seconds=S`` with a
profile of whatever it is doing right now, with zero dependencies and
no interpreter restart.

Sampling is cooperative with the GIL: the sampler sees whichever
threads hold Python frames, which is exactly the event loop + any
executor threads of the serving process (pool *worker* processes have
their own interpreters and are visible through span telemetry
instead).  Overhead is one frame walk per thread per tick and nothing
at all when no sampler is running.
"""

from __future__ import annotations

import gc
import sys
import threading
from collections import Counter
from time import perf_counter, sleep

__all__ = ["StackSampler", "sample_stacks", "collapse_stacks"]

#: Hard ceiling on one sampling run, seconds (``/debug/profile`` guard).
MAX_SECONDS = 60.0
#: Default tick: 5 ms ~ 200 Hz, cheap enough for a live server.
DEFAULT_INTERVAL = 0.005


def _frame_stack(frame, limit: int = 128) -> tuple[str, ...]:
    """Root-first ``module:function`` path of one thread's stack."""
    frames: list[str] = []
    while frame is not None and len(frames) < limit:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "?")
        frames.append(f"{module}:{code.co_name}")
        frame = frame.f_back
    frames.reverse()
    return tuple(frames)


def _current_frames() -> dict:
    """``sys._current_frames()`` with the garbage collector paused.

    CPython 3.11 builds that dict while holding the runtime's thread
    list lock, and a collection set off by one of its allocations runs
    finalizers under that lock.  A finalizer that releases the GIL (a
    collected ``ProcessPoolExecutor``'s weakref callback writes to its
    wake-up pipe) lets a thread that is exiting take the GIL and then
    wait on that lock, while the finalizer waits for the GIL: the whole
    process hangs.  With the collector paused no finalizer runs there;
    the next collection happens outside the lock.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return sys._current_frames()
    finally:
        if enabled:
            gc.enable()


class StackSampler:
    """Samples every thread's Python stack on a fixed tick.

    Usage::

        with StackSampler(interval=0.005) as sampler:
            ...work...
        print(sampler.collapsed())

    Attributes:
        counts: ``Counter`` of root-first stack tuples -> sample count.
        samples: Total sampling ticks taken.
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = float(interval)
        self.counts: Counter[tuple[str, ...]] = Counter()
        self.samples = 0
        self.wall_s = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        own = threading.get_ident()
        t0 = perf_counter()
        while not self._stop.is_set():
            for tid, frame in _current_frames().items():
                if tid == own:
                    continue
                try:
                    stack = _frame_stack(frame)
                except AttributeError:
                    # The walk is Python code, so the other thread can
                    # run mid-walk and pop or suspend the frames being
                    # walked; CPython 3.11 then has been seen to hand
                    # back a non-frame (a ``dict``) from ``f_back``.
                    # Drop that thread's sample for this tick.
                    continue
                self.counts[stack] += 1
            self.samples += 1
            self._stop.wait(self.interval)
        self.wall_s = perf_counter() - t0

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("sampler is already running")
        self._thread = threading.Thread(
            target=self._run, name="repro-stack-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "StackSampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def collapsed(self) -> str:
        """The counts in collapsed-stack format, heaviest path first."""
        return collapse_stacks(self.counts)


def collapse_stacks(counts: Counter | dict) -> str:
    """Render stack-tuple counts as collapsed-stack lines.

    One ``frame;frame;frame count`` line per distinct path, sorted by
    descending count then path (stable across runs for tests).
    """
    items = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return "\n".join(f"{';'.join(path)} {count}" for path, count in items)


def sample_stacks(
    seconds: float, interval: float = DEFAULT_INTERVAL
) -> StackSampler:
    """Block for ``seconds``, sampling all *other* threads' stacks.

    Run it from a helper thread (the server uses
    ``run_in_executor(None, ...)``) so the interesting thread — the
    event loop — keeps doing the work being profiled.

    Raises:
        ValueError: Non-positive or over-limit duration.
    """
    if not 0.0 < seconds <= MAX_SECONDS:
        raise ValueError(
            f"seconds must be in (0, {MAX_SECONDS:g}], got {seconds!r}"
        )
    with StackSampler(interval=interval) as sampler:
        sleep(seconds)
    return sampler
