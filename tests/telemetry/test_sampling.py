"""Thread-sampling wall-clock profiler (collapsed stacks)."""

from __future__ import annotations

import gc
import time

import pytest

from repro.telemetry import StackSampler, collapse_stacks, sample_stacks
from repro.telemetry import sampling
from repro.telemetry.sampling import MAX_SECONDS


def _spin(deadline: float) -> None:
    while time.perf_counter() < deadline:
        sum(range(100))


def _spin_until_sampled(sampler, seconds: float, timeout: float = 10.0) -> None:
    """Spin for ``seconds``, then on until the sampler has seen ``_spin``.

    On a loaded machine the sampler thread can be starved for the whole
    of a short fixed spin; waiting for the first ``_spin`` stack keeps
    the test about what is sampled, not about scheduling.
    """
    _spin(time.perf_counter() + seconds)
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if any(f.endswith(":_spin") for stack in list(sampler.counts) for f in stack):
            return
        _spin(time.perf_counter() + 0.005)


class TestStackSampler:
    def test_collects_samples_of_running_code(self):
        sampler = StackSampler(interval=0.002)
        with sampler:
            _spin_until_sampled(sampler, 0.08)
        assert sampler.samples > 0
        text = sampler.collapsed()
        assert text
        # Collapsed format: "frame;frame;... count" per line.
        for line in text.splitlines():
            path, _, count = line.rpartition(" ")
            assert path
            assert int(count) > 0
        # The busy loop itself must show up in some stack.
        assert "_spin" in text

    def test_survives_a_torn_frame_walk(self, monkeypatch):
        # A frame walk that reads garbage (another thread ran mid-walk)
        # costs that sample, not the sampler thread.
        real = sampling._frame_stack
        calls = []

        def flaky(frame):
            calls.append(1)
            if len(calls) == 1:
                raise AttributeError("'dict' object has no attribute 'f_code'")
            return real(frame)

        monkeypatch.setattr(sampling, "_frame_stack", flaky)
        sampler = StackSampler(interval=0.002)
        with sampler:
            _spin(time.perf_counter() + 0.05)
        assert len(calls) > 1
        assert sampler.samples > 1
        assert sampler.counts

    def test_frames_are_read_with_the_collector_paused(self, monkeypatch):
        # A collection inside sys._current_frames() can deadlock
        # CPython 3.11 (finalizers run under the thread-list lock).
        real = sampling.sys._current_frames
        enabled_during = []

        def spy():
            enabled_during.append(gc.isenabled())
            return real()

        monkeypatch.setattr(sampling.sys, "_current_frames", spy)
        assert gc.isenabled()
        sampler = StackSampler(interval=0.002)
        with sampler:
            _spin_until_sampled(sampler, 0.03)
        assert enabled_during and not any(enabled_during)
        assert gc.isenabled()
        assert "_spin" in sampler.collapsed()

    def test_collector_stays_off_if_it_was_off(self):
        gc.disable()
        try:
            assert sampling._current_frames()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_sample_stacks_blocks_and_returns(self):
        sampler = sample_stacks(0.03, interval=0.002)
        assert sampler.samples >= 1

    def test_sample_stacks_validates_duration(self):
        with pytest.raises(ValueError):
            sample_stacks(0.0)
        with pytest.raises(ValueError):
            sample_stacks(-1.0)
        with pytest.raises(ValueError):
            sample_stacks(MAX_SECONDS + 1)

    def test_stop_is_idempotent(self):
        sampler = StackSampler(interval=0.002)
        sampler.start()
        sampler.stop()
        sampler.stop()


class TestCollapseStacks:
    def test_orders_by_count_then_path(self):
        counts = {
            ("mod:a", "mod:b"): 3,
            ("mod:a",): 5,
            ("mod:z",): 3,
        }
        lines = collapse_stacks(counts).splitlines()
        assert lines[0] == "mod:a 5"
        assert lines[1] == "mod:a;mod:b 3"
        assert lines[2] == "mod:z 3"

    def test_empty(self):
        assert collapse_stacks({}) == ""
