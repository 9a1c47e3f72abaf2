"""Unit tests for the partition service request/response schema."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.service import (
    METRIC_FIELDS,
    PartitionRequest,
    PartitionResponse,
    compute_response,
    load_request_file,
)


class TestPartitionRequest:
    def test_defaults(self):
        req = PartitionRequest(ne=4, nparts=8)
        assert req.method == "sfc"
        assert req.seed == 0
        assert req.schedule is None
        assert req.k == 96

    def test_validation(self):
        with pytest.raises(ValueError, match="ne must be"):
            PartitionRequest(ne=0, nparts=1)
        with pytest.raises(ValueError, match="nparts must be"):
            PartitionRequest(ne=4, nparts=0)
        with pytest.raises(ValueError, match="nparts must be"):
            PartitionRequest(ne=4, nparts=97)  # K = 96
        with pytest.raises(ValueError, match="unknown method"):
            PartitionRequest(ne=4, nparts=8, method="magic")
        with pytest.raises(ValueError, match="must be an integer"):
            PartitionRequest(ne=4.5, nparts=8)

    @pytest.mark.parametrize("field, value", [
        ("ne", 2.9), ("ne", 4.0), ("nparts", 4.7), ("nparts", True),
        ("seed", True), ("seed", False), ("seed", 1.0), ("ne", "2.9"), ("seed", "x"),
    ])
    def test_wire_integers_must_be_integers(self, field, value):
        """A float or boolean is never truncated into another request."""
        data = {"ne": 4, "nparts": 8, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            PartitionRequest.from_dict(data)

    def test_wire_integers_accept_digit_strings(self):
        req = PartitionRequest.from_dict({"ne": "4", "nparts": " 8 ", "seed": "+3"})
        assert req == PartitionRequest(ne=4, nparts=8, seed=3)

    def test_numpy_ints_normalized(self):
        req = PartitionRequest(ne=np.int64(4), nparts=np.int32(8))
        assert isinstance(req.ne, int) and isinstance(req.nparts, int)
        assert req == PartitionRequest(ne=4, nparts=8)

    def test_cache_key_canonical(self):
        a = PartitionRequest(ne=4, nparts=8, method="sfc", seed=0)
        b = PartitionRequest(ne=np.int64(4), nparts=8)
        assert a.cache_key() == b.cache_key()
        assert len(a.cache_key()) == 64  # sha256 hex

    def test_cache_key_distinguishes_fields(self):
        base = PartitionRequest(ne=4, nparts=8)
        variants = [
            PartitionRequest(ne=8, nparts=8),
            PartitionRequest(ne=4, nparts=12),
            PartitionRequest(ne=4, nparts=8, method="rb"),
            PartitionRequest(ne=4, nparts=8, seed=1),
            PartitionRequest(ne=4, nparts=8, schedule="HH"),
        ]
        keys = {base.cache_key()} | {v.cache_key() for v in variants}
        assert len(keys) == 6

    def test_cache_key_memo_is_not_a_field(self, monkeypatch):
        """The key is computed once per object, pickles with it, and
        stays out of equality, hashing, repr and ``replace``."""
        import dataclasses
        import pickle

        import repro.service.requests as requests_mod
        from repro.partition.sfc import sfc_partition

        calls = []
        sha256_json = requests_mod._sha256_json
        monkeypatch.setattr(
            requests_mod, "_sha256_json",
            lambda payload: calls.append(payload) or sha256_json(payload),
        )
        old = sfc_partition(4, 8).assignment
        storm = {"scenario": "storm", "step": 3}
        for req, other in [
            (PartitionRequest(ne=4, nparts=8), PartitionRequest(ne=4, nparts=8)),
            (
                PartitionRequest(ne=4, weights=storm, old_assignment=old),
                PartitionRequest(ne=4, weights=storm, old_assignment=old.tolist()),
            ),
        ]:
            calls.clear()
            key = req.cache_key()
            assert req.cache_key() == key and len(calls) == 1
            assert pickle.loads(pickle.dumps(req)).cache_key() == key
            assert len(calls) == 1
            copy = dataclasses.replace(req, seed=1)
            assert copy.cache_key() != key and len(calls) == 2
            assert dataclasses.replace(copy, seed=0).cache_key() == key
            assert len(calls) == 3
            # Equality and hash come from the key: comparing computes
            # the other request's key, once.
            assert other == req and hash(other) == hash(req)
            assert repr(other) == repr(req) and len(calls) == 4

    def test_json_round_trip(self):
        req = PartitionRequest(ne=4, nparts=8, method="kway", seed=3)
        assert PartitionRequest.from_json(req.to_json()) == req

    def test_empty_schedule_is_the_default(self):
        """The wire reads an empty schedule as the default, so a request
        built with one keys the same before and after a round trip."""
        req = PartitionRequest(ne=1, nparts=2, schedule="")
        assert req.schedule is None
        decoded = PartitionRequest.from_json(req.to_json())
        assert decoded.cache_key() == req.cache_key()
        rreq = PartitionRequest(
            ne=1, old_assignment=np.zeros(6, dtype=np.int64),
            weights=np.ones(6), schedule="",
        )
        assert rreq.schedule is None
        decoded = PartitionRequest.from_json(rreq.to_json())
        assert decoded.cache_key() == rreq.cache_key()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown request fields"):
            PartitionRequest.from_dict({"ne": 4, "nparts": 8, "foo": 1})
        with pytest.raises(ValueError, match="at least"):
            PartitionRequest.from_dict({"ne": 4})


class TestPartitionResponse:
    def test_compute_response_has_full_metrics(self):
        resp = compute_response(PartitionRequest(ne=2, nparts=4))
        assert set(METRIC_FIELDS) <= set(resp.metrics)
        assert resp.source == "computed"
        assert resp.elapsed_s > 0
        assert resp.assignment.shape == (24,)

    def test_matches_direct_evaluation(self):
        from repro.partition.pipeline import partition_stage
        from repro.graphs import mesh_graph
        from repro.cubesphere import cubed_sphere_mesh
        from repro.partition import evaluate_partition
        from repro.seam import DEFAULT_COST_MODEL

        req = PartitionRequest(ne=4, nparts=12, method="rb")
        resp = compute_response(req)
        part = partition_stage("rb", 4, 12)
        assert np.array_equal(resp.assignment, part.assignment)
        graph = mesh_graph(
            cubed_sphere_mesh(4),
            edge_weight=DEFAULT_COST_MODEL.npts,
            corner_weight=1,
        )
        q = evaluate_partition(graph, part)
        assert resp.metrics["edgecut"] == q.edgecut
        assert resp.metrics["lb_spcv"] == q.lb_spcv

    def test_validates_assignment(self):
        req = PartitionRequest(ne=2, nparts=4)
        good = compute_response(req)
        with pytest.raises(ValueError, match="shape"):
            PartitionResponse(req, good.assignment[:-1], good.metrics)
        bad = good.assignment.copy()
        bad[0] = 99
        with pytest.raises(ValueError, match="out-of-range"):
            PartitionResponse(req, bad, good.metrics)
        with pytest.raises(ValueError, match="metrics missing"):
            PartitionResponse(req, good.assignment, {"edgecut": 1})

    def test_json_round_trip(self):
        resp = compute_response(PartitionRequest(ne=2, nparts=6, seed=2))
        back = PartitionResponse.from_json(resp.to_json())
        assert back.request == resp.request
        assert np.array_equal(back.assignment, resp.assignment)
        assert back.metrics == resp.metrics

    def test_with_source_copies_without_revalidating(self, monkeypatch):
        resp = compute_response(PartitionRequest(ne=2, nparts=6, seed=2))

        def fail(self):
            raise AssertionError("__post_init__ reran")

        monkeypatch.setattr(PartitionResponse, "__post_init__", fail)
        hit = resp.with_source("memory")
        assert hit is not resp and type(hit) is PartitionResponse
        assert hit.source == "memory" and resp.source == "computed"
        assert hit.assignment is resp.assignment
        assert not hit.assignment.flags.writeable
        assert hit.request is resp.request and hit.metrics is resp.metrics
        assert hit.elapsed_s == resp.elapsed_s
        with pytest.raises(AttributeError):
            hit.source = "disk"

    def test_with_request_reattaches(self):
        resp = compute_response(PartitionRequest(ne=2, nparts=4))
        detached = resp.with_request(None)
        assert detached.request is None and detached.assignment is resp.assignment
        back = detached.with_request(resp.request)
        assert back.request is resp.request
        assert back.to_dict() == resp.to_dict()

    def test_payload_keeps_the_array(self):
        resp = compute_response(PartitionRequest(ne=2, nparts=4))
        payload = resp.to_payload()
        assert payload["assignment"] is resp.assignment
        data = resp.to_dict()
        assert data["assignment"] == resp.assignment.tolist()
        assert {**payload, "assignment": data["assignment"]} == data

    def test_to_partition(self):
        resp = compute_response(PartitionRequest(ne=2, nparts=4, method="block"))
        part = resp.to_partition()
        part.validate()
        assert part.method == "block"
        assert part.nparts == 4


class TestLoadRequestFile:
    def test_json_list(self, tmp_path):
        path = tmp_path / "reqs.json"
        path.write_text(json.dumps([{"ne": 4, "nparts": 8}, {"ne": 4, "nparts": 12}]))
        reqs = load_request_file(path)
        assert [r.nparts for r in reqs] == [8, 12]

    def test_json_wrapper(self, tmp_path):
        path = tmp_path / "reqs.json"
        path.write_text(json.dumps({"requests": [{"ne": 2, "nparts": 4, "seed": 7}]}))
        (req,) = load_request_file(path)
        assert req.seed == 7

    def test_csv(self, tmp_path):
        path = tmp_path / "reqs.csv"
        path.write_text("ne,nparts,method,seed\n4,8,,\n4,12,rb,3\n")
        reqs = load_request_file(path)
        assert reqs[0] == PartitionRequest(ne=4, nparts=8)
        assert reqs[1] == PartitionRequest(ne=4, nparts=12, method="rb", seed=3)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "reqs.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="no requests"):
            load_request_file(path)

    def test_rebalance_rejected(self, tmp_path):
        path = tmp_path / "reqs.json"
        rebalance = {"ne": 1, "old_assignment": [0] * 6, "weights": [1.0] * 6}
        path.write_text(json.dumps([{"ne": 1, "nparts": 2}, rebalance]))
        with pytest.raises(ValueError, match="holds partitions"):
            load_request_file(path)

    def test_non_list_rejected(self, tmp_path):
        path = tmp_path / "reqs.json"
        path.write_text('{"nope": 1}')
        with pytest.raises(ValueError, match="expected a JSON list"):
            load_request_file(path)


class TestRepartitionResponse:
    def _response(self):
        from repro.partition.sfc import sfc_partition
        from repro.service import PartitionRequest, compute_response

        return compute_response(
            PartitionRequest(
                ne=4,
                old_assignment=sfc_partition(4, 8).assignment,
                weights={"scenario": "storm", "step": 5},
            )
        )

    def test_with_source_shares_the_plan(self):
        resp = self._response()
        hit = resp.with_source("coalesced")
        assert hit.source == "coalesced" and resp.source == "computed"
        assert hit.plan is resp.plan and hit.request is resp.request

    def test_payload_matches_to_dict(self):
        resp = self._response()
        payload = resp.to_payload()
        assert payload["plan"]["assignment"] is resp.plan.new_assignment
        assert payload["request"]["old_assignment"] is resp.request.old_assignment
        data = resp.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert data["plan"]["moves"] == {
            str(r): g.tolist() for r, g in resp.plan.moves.items()
        }
