"""Property tests of the request and response wire contract.

For any admissible partition request, and for its rebalance twin (the
same parameters plus an old assignment): the wire form parses back to
an equal request with the same key, the two forms never share a key,
and a response's JSON form rebuilds the same assignment, metrics or
plan scalars, and moves.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.partition import registry
from repro.service import PartitionRequest, PartitionResponse, RepartitionResponse
from repro.sfc.factorization import all_schedules

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def partition_wires(draw, weighted: bool = False, max_ne: int = 4):
    """A wire object of an admissible partition request."""
    ne = draw(st.sampled_from([ne for ne in (1, 2, 3, 4) if ne <= max_ne]))
    k = 6 * ne * ne
    scenario = st.builds(
        lambda step, amplitude: {
            "scenario": "storm", "step": step, "params": {"amplitude": amplitude},
        },
        st.integers(0, 20), st.floats(0.5, 8.0),
    )
    inline = st.lists(st.floats(0.25, 4.0), min_size=k, max_size=k)
    weights = draw(st.one_of(scenario, inline) if weighted else st.none())
    spec = draw(st.sampled_from([
        s for s in registry.specs()
        if (s.weighted or not weighted) and (s.check_ne is None or s.check_ne(ne))
    ]))
    wire = {"ne": ne, "nparts": draw(st.integers(1, min(k, 16))), "method": spec.name}
    if spec.uses_seed:
        wire["seed"] = draw(st.integers(0, 2**70))
    if spec.supports_schedule:
        wire["schedule"] = draw(st.sampled_from([None, *all_schedules(ne)]))
    if weights is not None:
        wire["weights"] = weights
    return wire


@st.composite
def twins(draw, max_ne: int = 4):
    """A weighted partition's wire object and its rebalance twin's."""
    wire = draw(partition_wires(weighted=True, max_ne=max_ne))
    k = 6 * wire["ne"] ** 2
    old = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    return wire, {**wire, "old_assignment": old}


def assert_round_trips(request: PartitionRequest) -> None:
    for back in (
        PartitionRequest.from_dict(request.to_wire()),
        PartitionRequest.from_json(request.to_json()),
    ):
        assert back == request and hash(back) == hash(request)
        assert back.cache_key() == request.cache_key()
        assert back.canonical() == request.canonical()
        if request.old_assignment is not None:
            np.testing.assert_array_equal(back.old_assignment, request.old_assignment)


@SETTINGS
@given(wire=partition_wires())
def test_unweighted_request_round_trips(wire):
    assert_round_trips(PartitionRequest.from_dict(wire))


@SETTINGS
@given(pair=twins())
def test_weighted_request_and_its_twin_round_trip(pair):
    wire, twin = pair
    assert_round_trips(PartitionRequest.from_dict(wire))
    assert_round_trips(PartitionRequest.from_dict(twin))


@SETTINGS
@given(pair=twins())
def test_a_partition_and_its_rebalance_twin_never_share_a_key(pair):
    partition, rebalance = (PartitionRequest.from_dict(w) for w in pair)
    assert rebalance.nparts == partition.nparts
    assert rebalance.cache_key() != partition.cache_key()
    assert rebalance != partition
    canonical = rebalance.canonical()
    assert canonical.pop("kind") == "repartition"
    del canonical["old_sha256"]
    assert canonical == partition.canonical()


def assert_same_moves(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for rank, gids in want.items():
        assert got[rank].dtype == np.int64
        np.testing.assert_array_equal(got[rank], gids)


@settings(SETTINGS, max_examples=30)
@given(wire=st.one_of(partition_wires(max_ne=3), twins(max_ne=3).map(lambda p: p[1])))
def test_response_json_round_trips(wire):
    request = PartitionRequest.from_dict(wire)
    response = request.compute().with_source("memory")
    back = type(response).from_json(response.to_json())
    assert type(back) is type(response)
    assert back.request == request
    assert (back.elapsed_s, back.source) == (response.elapsed_s, "memory")
    assert back.to_json() == response.to_json()
    if isinstance(response, PartitionResponse):
        np.testing.assert_array_equal(back.assignment, response.assignment)
        assert back.metrics == response.metrics
    else:
        assert isinstance(response, RepartitionResponse)
        np.testing.assert_array_equal(
            back.plan.new_assignment, response.plan.new_assignment
        )
        assert back.plan.scalars() == response.plan.scalars()
        assert_same_moves(back.plan.moves, response.plan.moves)
