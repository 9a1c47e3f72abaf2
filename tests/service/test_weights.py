"""Weights at the service boundary: schema, cache keys, engine serving."""

from __future__ import annotations

import numpy as np
import pytest

from repro.partition.registry import CapabilityError
from repro.service import (
    PartitionCache,
    PartitionEngine,
    PartitionRequest,
    WeightSpec,
)
from repro.service.engine import compute_response

NE = 2
K = 6 * NE * NE


def inline_request(values, **kw) -> PartitionRequest:
    return PartitionRequest(ne=NE, nparts=4, weights=values, **kw)


class TestWeightSpec:
    def test_exactly_one_form_required(self):
        with pytest.raises(ValueError, match="inline values or a named scenario"):
            WeightSpec()
        with pytest.raises(ValueError, match="inline values or a named scenario"):
            WeightSpec(scenario="storm", values=np.ones(4))

    def test_coerce_list_array_spec_equal(self):
        values = [1.0 + i for i in range(K)]
        a = WeightSpec.coerce(values)
        b = WeightSpec.coerce(np.asarray(values))
        c = WeightSpec.coerce({"inline": values})
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)

    def test_inline_values_frozen(self):
        spec = WeightSpec.coerce(np.ones(K))
        with pytest.raises(ValueError, match="read-only"):
            spec.values[0] = 2.0

    def test_scenario_params_normalized_sorted(self):
        a = WeightSpec.coerce({"scenario": "storm", "params": {"sigma": 1, "amplitude": 2}})
        b = WeightSpec.coerce({"scenario": "storm", "params": {"amplitude": 2.0, "sigma": 1.0}})
        assert a == b and a.canonical() == b.canonical()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            WeightSpec.coerce({"scenario": "blizzard"})

    def test_unknown_scenario_param_rejected(self):
        with pytest.raises(ValueError, match="does not accept parameters"):
            WeightSpec.coerce({"scenario": "storm", "params": {"wind": 3}})

    def test_unknown_wire_field_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario weight fields"):
            WeightSpec.coerce({"scenario": "storm", "steps": 2})

    def test_scenario_resolve_matches_generator(self):
        from repro.scenarios import scenario_weights

        spec = WeightSpec.coerce({"scenario": "daynight", "step": 9})
        np.testing.assert_array_equal(
            spec.resolve(NE), scenario_weights("daynight", NE, 9)
        )

    def test_inline_canonical_is_a_digest(self):
        spec = WeightSpec.coerce(np.ones(K) * 2.0)
        canon = spec.canonical()
        assert set(canon) == {"inline"}
        assert canon["inline"]["n"] == K
        assert len(canon["inline"]["sha256"]) == 64


class TestBoundaryValidation:
    """The 422 surface: every malformed weights payload fails with a
    clear ValueError at request construction, never mid-compute."""

    def test_negative_weight(self):
        bad = np.ones(K)
        bad[5] = -1.0
        with pytest.raises(ValueError, match="must be positive; entry 5"):
            inline_request(bad)

    def test_zero_weight(self):
        bad = np.ones(K)
        bad[0] = 0.0
        with pytest.raises(ValueError, match="must be positive"):
            inline_request(bad)

    def test_nan_weight(self):
        bad = np.ones(K)
        bad[3] = np.nan
        with pytest.raises(ValueError, match="must be finite; entry 3"):
            inline_request(bad)

    def test_inf_weight(self):
        bad = np.ones(K)
        bad[1] = np.inf
        with pytest.raises(ValueError, match="must be finite"):
            inline_request(bad)

    def test_total_overflows(self):
        with pytest.raises(ValueError, match="finite total"):
            inline_request(np.full(K, 1e308))

    def test_wrong_length(self):
        with pytest.raises(ValueError, match=f"expected {K}, got 7"):
            inline_request(np.ones(7))

    def test_wrong_shape(self):
        with pytest.raises(ValueError, match="1-D"):
            inline_request(np.ones((6, 4)))

    def test_non_numeric(self):
        with pytest.raises(ValueError, match="weights must be"):
            inline_request("heavy")

    def test_unweighted_method_rejected_with_hint(self):
        """Methods without weight support fail the capability check and
        the message names the methods that do."""
        from repro.partition.registry import weighted_methods

        with pytest.raises(CapabilityError, match="does not support per-element"):
            PartitionRequest(ne=NE, nparts=4, method="block", weights=np.ones(K))
        with pytest.raises(CapabilityError) as err:
            PartitionRequest(ne=NE, nparts=4, method="block", weights=np.ones(K))
        for name in weighted_methods():
            assert name in str(err.value)


class TestCacheKeys:
    def test_weighted_never_collides_with_unweighted(self):
        """The golden digest test: an unweighted request and its
        weighted twin hash to different cache keys."""
        plain = PartitionRequest(ne=NE, nparts=4)
        weighted = inline_request(np.ones(K) * 2.0)
        assert plain.cache_key() != weighted.cache_key()

    def test_unweighted_canonical_has_no_weights_key(self):
        """Pre-weights cache entries stay addressable: the canonical
        form of an unweighted request is unchanged (no ``weights``)."""
        assert "weights" not in PartitionRequest(ne=NE, nparts=4).canonical()

    def test_different_inline_weights_different_keys(self):
        a = inline_request(np.ones(K))
        w = np.ones(K)
        w[-1] = 1.0000001
        b = inline_request(w)
        assert a.cache_key() != b.cache_key()

    def test_scenario_fields_feed_the_key(self):
        base = {"ne": NE, "nparts": 4}
        k0 = PartitionRequest(**base, weights={"scenario": "storm"}).cache_key()
        k1 = PartitionRequest(
            **base, weights={"scenario": "storm", "step": 1}
        ).cache_key()
        k2 = PartitionRequest(
            **base, weights={"scenario": "storm", "params": {"sigma": 0.3}}
        ).cache_key()
        k3 = PartitionRequest(**base, weights={"scenario": "daynight"}).cache_key()
        assert len({k0, k1, k2, k3}) == 4

    def test_scenario_vs_equivalent_inline_distinct(self):
        """A scenario spec and its materialized values are different
        requests by design (the spec re-resolves at any ne)."""
        from repro.scenarios import scenario_weights

        spec = PartitionRequest(ne=NE, nparts=4, weights={"scenario": "storm"})
        inline = inline_request(scenario_weights("storm", NE))
        assert spec.cache_key() != inline.cache_key()

    def test_repartition_key_disjoint_from_partition(self):
        """The ``kind`` marker keeps the shared in-flight map safe."""
        old = np.zeros(K, dtype=np.int64)
        rreq = PartitionRequest(
            ne=NE, old_assignment=old, weights=np.ones(K) * 3.0, nparts=4
        )
        preq = inline_request(np.ones(K) * 3.0)
        assert rreq.cache_key() != preq.cache_key()
        assert rreq.canonical()["kind"] == "repartition"

    def test_repartition_old_assignment_feeds_the_key(self):
        w = np.ones(K) * 2.0
        a = PartitionRequest(
            ne=NE, old_assignment=np.zeros(K, dtype=int), weights=w, nparts=4
        )
        old2 = np.zeros(K, dtype=int)
        old2[0] = 1
        b = PartitionRequest(ne=NE, old_assignment=old2, weights=w, nparts=4)
        assert a.cache_key() != b.cache_key()


class TestRoundTrips:
    def test_inline_request_json_round_trip(self):
        req = inline_request(np.linspace(1.0, 2.0, K), method="sfc", seed=3)
        back = PartitionRequest.from_json(req.to_json())
        assert back == req
        assert back.cache_key() == req.cache_key()

    def test_scenario_request_json_round_trip(self):
        req = PartitionRequest(
            ne=NE, nparts=4,
            weights={"scenario": "amr", "step": 4, "params": {"radius": 0.5}},
        )
        back = PartitionRequest.from_json(req.to_json())
        assert back == req
        assert back.cache_key() == req.cache_key()

    def test_repartition_request_json_round_trip(self):
        req = PartitionRequest(
            ne=NE,
            old_assignment=np.arange(K) % 4,
            weights={"scenario": "storm", "step": 2},
        )
        back = PartitionRequest.from_json(req.to_json())
        assert back == req
        np.testing.assert_array_equal(back.old_assignment, req.old_assignment)

    def test_repartition_response_json_round_trip(self):
        req = PartitionRequest(
            ne=NE, old_assignment=np.arange(K) % 4, weights=np.ones(K) * 2.0
        )
        resp = compute_response(req)
        back = type(resp).from_json(resp.to_json())
        assert back.request == req
        np.testing.assert_array_equal(
            back.plan.new_assignment, resp.plan.new_assignment
        )
        assert back.plan.lb_after == resp.plan.lb_after
        assert set(back.plan.moves) == set(resp.plan.moves)

    def test_repartition_requires_weights(self):
        with pytest.raises(ValueError, match="requires weights"):
            PartitionRequest(ne=NE, old_assignment=np.zeros(K, dtype=int))


class TestEngineServing:
    def test_weighted_compute_balances_weights(self):
        rng = np.random.default_rng(1)
        w = np.exp(rng.normal(0.0, 1.0, size=K)) + 0.1
        resp = compute_response(inline_request(w))
        loads = np.bincount(resp.assignment, weights=w, minlength=4)
        from repro.partition.metrics import load_balance

        assert resp.metrics["lb_weight"] == pytest.approx(load_balance(loads))

    def test_scenario_weights_resolved_in_engine(self):
        with PartitionEngine() as engine:
            resp = engine.serve(
                PartitionRequest(
                    ne=NE, nparts=4, weights={"scenario": "storm", "step": 5}
                )
            )
        assert resp.source == "computed"
        assert resp.metrics["lb_weight"] < 0.5

    def test_cache_round_trip_weighted(self, tmp_path):
        """A weighted response survives the disk cache and is keyed
        apart from its unweighted twin."""
        cache = PartitionCache(capacity=8, cache_dir=tmp_path)
        weighted = inline_request(np.linspace(1.0, 3.0, K))
        plain = PartitionRequest(ne=NE, nparts=4)
        cache.put(weighted, compute_response(weighted))
        assert cache.get(plain) is None
        # A fresh cache over the same directory must answer from disk.
        rehydrated = PartitionCache(capacity=8, cache_dir=tmp_path)
        hit = rehydrated.get(weighted)
        assert hit is not None
        assert hit.source == "disk"
        assert rehydrated.get(plain) is None

    def test_engine_caches_weighted_and_unweighted_separately(self):
        with PartitionEngine() as engine:
            r1 = engine.serve(PartitionRequest(ne=NE, nparts=4))
            r2 = engine.serve(inline_request(np.full(K, 2.0)))
            r3 = engine.serve(PartitionRequest(ne=NE, nparts=4))
        assert r1.source == "computed"
        assert r2.source == "computed"  # no collision with r1
        assert r3.source == "memory"

    def test_uniform_weighted_assignment_matches_unweighted(self):
        """The exact-reduction property surfaces end-to-end: constant
        inline weights produce the identical sfc assignment."""
        plain = compute_response(PartitionRequest(ne=NE, nparts=4))
        heavy = compute_response(inline_request(np.full(K, 5.0)))
        np.testing.assert_array_equal(plain.assignment, heavy.assignment)


def identity_keys(ids: np.ndarray) -> np.ndarray:
    return ids.astype(np.uint64)


def counted_validate_weights():
    """Patch every binding of ``validate_weights`` with one call counter."""
    from contextlib import ExitStack
    from unittest import mock

    from repro.partition import registry, sfc

    counter = mock.Mock(wraps=registry.validate_weights)
    stack = ExitStack()
    for module in (registry, sfc):
        stack.enter_context(mock.patch.object(module, "validate_weights", counter))
    return stack, counter


class TestOneWeightCheck:
    """Each cut path checks its weights exactly once; outside input is
    still rejected, naming the bad entry, before any cut."""

    STORM = {"scenario": "storm", "step": 3}

    def count(self, fn) -> int:
        stack, counter = counted_validate_weights()
        with stack:
            fn()
        return counter.call_count

    def test_partition_compute_checks_once(self):
        request = PartitionRequest(ne=4, nparts=12, weights=self.STORM)
        assert self.count(lambda: compute_response(request)) == 1

    def test_repartition_compute_checks_once(self):
        from repro.partition import sfc_partition

        request = PartitionRequest(
            ne=4, old_assignment=sfc_partition(4, 12).assignment,
            weights=self.STORM, nparts=12,
        )
        assert self.count(lambda: compute_response(request)) == 1

    def test_inline_parse_adds_one(self):
        from repro.scenarios import scenario_weights

        body = {"ne": 4, "nparts": 12, "weights": scenario_weights("storm", 4, 3)}
        parsed = []
        assert self.count(lambda: parsed.append(PartitionRequest.from_dict(body))) == 1
        assert self.count(lambda: compute_response(parsed[0])) == 1

    def test_tracker_step_checks_once(self):
        from repro.partition import LoadTracker
        from repro.scenarios import scenario_weights

        tracker = LoadTracker(4, nparts=12)
        for step in range(3):
            weights = scenario_weights("storm", 4, step)
            assert self.count(lambda: tracker.update(weights)) == 1

    def test_public_cuts_check_once(self):
        from repro.partition import (
            keyed_cut,
            morton_partition,
            plan_repartition,
            sfc_partition,
        )

        k = 96
        w = np.linspace(1.0, 2.0, k)
        old = sfc_partition(4, 8).assignment
        for call in (
            lambda: sfc_partition(4, 8, weights=w),
            lambda: morton_partition(4, 8, weights=w),
            lambda: keyed_cut(identity_keys, k, 8, weights=w),
            lambda: plan_repartition(old, w, ne=4),
        ):
            assert self.count(call) == 1

    def test_bad_weights_rejected_before_any_cut(self):
        from unittest import mock

        from repro.partition import (
            LoadTracker,
            keyed_cut,
            morton_partition,
            plan_repartition,
            sfc,
            sfc_partition,
        )

        bad = np.ones(96)
        bad[11] = -1.0
        old = np.zeros(96, dtype=np.int64)
        with mock.patch.object(sfc, "_cut_weighted") as cut:
            for call in (
                lambda: sfc_partition(4, 8, weights=bad),
                lambda: morton_partition(4, 8, weights=bad),
                lambda: keyed_cut(identity_keys, 96, 8, weights=bad),
                lambda: plan_repartition(old, bad, ne=4, nparts=8),
                lambda: LoadTracker(4, nparts=8).update(bad),
            ):
                with pytest.raises(ValueError, match="positive; entry 11 is -1.0"):
                    call()
        cut.assert_not_called()

    def test_bad_inline_weight_422_body(self):
        """The whole 422 body of a bad inline weight; ``/repartition``'s
        is checked in ``tests/server/test_repartition_http.py``."""
        import asyncio

        from repro.server import Connection
        from tests.server.serving import serving

        weights = [1.0] * 96
        weights[7] = -2.0
        body = {"ne": 4, "nparts": 12, "weights": weights}

        async def post():
            async with serving() as server:
                host, port = server.address
                async with await Connection.open(host, port) as conn:
                    resp = await conn.post_json("/partition", body)
                    return resp.status, resp.json()

        status, data = asyncio.run(asyncio.wait_for(post(), 60.0))
        assert status == 422
        assert data == {"error": {
            "code": "invalid_request",
            "message": "weights must be positive; entry 7 is -2.0",
            "status": 422,
        }}


class TestOneOldAssignmentCheck:
    """A ``/repartition`` checks its old assignment once, at the request;
    the public planner still checks what it is given."""

    def count(self, fn) -> int:
        from unittest import mock

        from repro.partition import repartition
        from repro.service import requests

        counter = mock.Mock(wraps=repartition.validate_old_assignment)
        with mock.patch.object(repartition, "validate_old_assignment", counter), \
                mock.patch.object(requests, "validate_old_assignment", counter):
            fn()
        return counter.call_count

    def test_request_and_compute_check_once(self):
        from repro.partition import sfc_partition

        old = sfc_partition(4, 12).assignment
        built = []
        assert self.count(lambda: built.append(PartitionRequest(
            ne=4, old_assignment=old, weights={"scenario": "storm"}, nparts=12,
        ))) == 1
        assert self.count(lambda: compute_response(built[0])) == 0

    def test_public_planner_checks_once(self):
        from repro.partition import plan_repartition, sfc_partition

        old = sfc_partition(4, 12).assignment
        assert self.count(lambda: plan_repartition(old, np.ones(96), ne=4)) == 1


class TestCallerArraysStayWriteable:
    """Building a request freezes its own arrays, not the caller's."""

    def test_old_assignment_and_inline_weights(self):
        from repro.partition import sfc_partition

        old = sfc_partition(4, 12).assignment.copy()
        weights = np.linspace(1.0, 2.0, 96)
        repart = PartitionRequest(
            ne=4, old_assignment=old, weights=weights, nparts=12
        )
        part = PartitionRequest(ne=4, nparts=12, weights=weights)
        assert old.flags.writeable and weights.flags.writeable
        assert not repart.old_assignment.flags.writeable
        assert not repart.weights.values.flags.writeable
        assert not part.weights.values.flags.writeable
        # Same keys as requests built from lists (always fresh arrays).
        assert repart.cache_key() == PartitionRequest(
            ne=4, old_assignment=old.tolist(), weights=weights.tolist(), nparts=12
        ).cache_key()
        assert part.cache_key() == PartitionRequest(
            ne=4, nparts=12, weights=weights.tolist()
        ).cache_key()
        # The caller writing to its arrays later changes no request.
        keys = repart.cache_key(), part.cache_key()
        old[:] = 0
        weights[:] = 5.0
        assert PartitionRequest(
            ne=4, old_assignment=repart.old_assignment.tolist(),
            weights=repart.weights.values.tolist(), nparts=12,
        ).cache_key() == keys[0]
        assert PartitionRequest(
            ne=4, nparts=12, weights=part.weights.values.tolist()
        ).cache_key() == keys[1]


class TestSeedContract:
    """A seeded method needs a non-negative seed; seedless ones ignore it."""

    def test_negative_seed_on_seeded_method_is_a_capability_error(self):
        for method in ("rb", "kway", "tv", "random"):
            with pytest.raises(CapabilityError, match="non-negative seed"):
                PartitionRequest(ne=NE, nparts=4, method=method, seed=-5)

    def test_seedless_methods_ignore_a_negative_seed(self):
        from repro.partition import sfc_partition

        PartitionRequest(ne=NE, nparts=4, method="sfc", seed=-5)
        PartitionRequest(ne=NE, nparts=4, method="block", seed=-5)
        PartitionRequest(
            ne=NE, old_assignment=sfc_partition(NE, 4).assignment,
            weights={"scenario": "storm"}, seed=-5,
        )

    def test_repartition_with_a_seeded_method_checks_the_seed(self):
        from repro.partition import registry, sfc_partition

        spec = registry.Partitioner(
            name="seeded_sfc", build=registry.get("sfc").build,
            weighted=True, uses_seed=True,
        )
        registry.register(spec)
        try:
            with pytest.raises(CapabilityError, match="non-negative seed"):
                PartitionRequest(
                    ne=NE, old_assignment=sfc_partition(NE, 4).assignment,
                    weights={"scenario": "storm"}, method="seeded_sfc", seed=-1,
                )
        finally:
            registry.unregister("seeded_sfc")

    def test_seeds_past_64_bits_stay_valid(self):
        request = PartitionRequest(ne=NE, nparts=4, method="kway", seed=2**70)
        assert compute_response(request).assignment.shape == (K,)
