"""Property tests of the one rebalance path.

A :class:`~repro.partition.LoadTracker` step, a direct
:func:`~repro.partition.plan_repartition` call and a served
:class:`~repro.service.PartitionRequest` with an old assignment all
re-cut through the same planner, so for any admissible problem they
must agree exactly, and the request's stored and JSON forms must
rebuild the same plan.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import LoadTracker, plan_repartition
from repro.service import PartitionRequest, RepartitionResponse
from repro.sfc.factorization import admissible_sizes, all_schedules


@st.composite
def rebalance_cases(draw):
    ne = draw(st.sampled_from(admissible_sizes(24)))
    k = 6 * ne * ne
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def positive_weights():
        if draw(st.booleans()):
            return np.full(k, draw(st.floats(0.5, 4.0)))
        return np.exp(rng.normal(0.0, 1.0, size=k)) + 1e-3

    return {
        "ne": ne,
        "nparts": draw(st.integers(1, min(k, 48))),
        "schedule": draw(st.sampled_from([None, *all_schedules(ne)])),
        "before": positive_weights(),
        "after": positive_weights(),
        "random_old": rng.integers(0, draw(st.integers(1, min(k, 48))), size=k),
    }


def assert_same_moves(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    assert all(type(rank) is int for rank in got)
    for rank, gids in want.items():
        assert got[rank].dtype == gids.dtype == np.int64
        np.testing.assert_array_equal(got[rank], gids)


def assert_same_plan(got, want) -> None:
    np.testing.assert_array_equal(got.new_assignment, want.new_assignment)
    assert got.new_assignment.dtype == want.new_assignment.dtype
    assert got.scalars() == want.scalars()
    assert_same_moves(got.moves, want.moves)


@settings(max_examples=40, deadline=None)
@given(rebalance_cases())
def test_tracker_planner_and_request_agree(case):
    ne, nparts, schedule = case["ne"], case["nparts"], case["schedule"]
    tracker = LoadTracker(ne, nparts, schedule=schedule)
    tracker_old = tracker.update(case["before"]).assignment
    tracker.update(case["after"])

    for old in (tracker_old, case["random_old"]):
        plan = plan_repartition(
            old, case["after"], ne=ne, nparts=nparts, schedule=schedule
        )
        request = PartitionRequest(
            ne=ne, old_assignment=old, weights=case["after"],
            nparts=nparts, schedule=schedule,
        )
        response = request.compute()
        assert_same_plan(response.plan, plan)

        restored = request.restored(*response.stored())
        assert_same_plan(restored.plan, plan)

        decoded = RepartitionResponse.from_json(response.to_json())
        assert decoded.request == request
        assert decoded.elapsed_s == response.elapsed_s
        assert_same_plan(decoded.plan, plan)

        if old is tracker_old:
            entry = tracker.history[-1]
            np.testing.assert_array_equal(
                tracker.current.assignment, plan.new_assignment
            )
            assert tracker.current.method == plan.method == "sfc-rebal"
            assert entry["lb"] == plan.lb_after
            assert entry["elements_moved"] == plan.elements_moved
            assert entry["fraction_moved"] == plan.fraction_moved
