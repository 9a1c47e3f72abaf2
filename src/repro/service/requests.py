"""Request/response schema of the partition service.

A :class:`PartitionRequest` names one partitioning problem — the same
``(ne, nparts, method, seed, options)`` tuple the CLI and the sweeps
pass around — as a validated frozen dataclass with a *canonical JSON
form*.  The canonical form is what the cache hashes: two requests that
mean the same partition always hash identically, regardless of how
they were constructed (CLI flags, a JSON batch file, or a sweep loop).

A rebalance is the same request with a starting point: given an
``old_assignment`` (and, then required, the new ``weights``), the
request re-cuts on the same curve and diffs the new owners against the
old ones.

A :class:`PartitionResponse` carries everything a client needs: the
dense assignment vector, the full Table-2 metric set (scalars of
:class:`~repro.partition.metrics.PartitionQuality`), the compute time,
and where the answer came from (``computed`` / ``memory`` / ``disk``).
A rebalance is answered by a :class:`RepartitionResponse` carrying the
migration plan.

One request type speaks one small protocol, so the engine, its cache
and the server serve both answers through one path:

* ``from_dict`` / ``cache_key`` — parse a wire object; the content
  address of the canonical form;
* ``compute()`` — the answer, computed from scratch (what a pool
  worker runs);
* ``restored(assignment, meta)`` — the answer rebuilt from its stored
  form, the pair a response's ``stored()`` gives: one int64 array plus
  JSON metadata;
* the response's ``record()`` — its per-request metrics.

Every type round-trips through JSON, so batch files and wire bodies
share one serialization.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import reprlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from ..partition import registry
from ..partition.repartition import (
    RepartitionPlan,
    group_moves,
    _plan_repartition,
    validate_old_assignment,
)
from ..telemetry import inc, observe, span

__all__ = [
    "METRIC_FIELDS",
    "PartitionRequest",
    "PartitionResponse",
    "RepartitionResponse",
    "WeightSpec",
    "quality_metrics",
    "load_request_file",
]

#: Scalar metrics copied off a ``PartitionQuality`` into responses.
METRIC_FIELDS = (
    "lb_nelemd",
    "lb_weight",
    "lb_spcv",
    "edgecut",
    "weighted_edgecut",
    "total_volume_points",
    "boundary_vertices",
)


def quality_metrics(quality) -> dict[str, float | int]:
    """Extract the scalar Table-2 metrics of a ``PartitionQuality``."""
    return {name: getattr(quality, name) for name in METRIC_FIELDS}


def _listed(arr) -> list:
    """An array field as the plain list :meth:`to_dict` forms carry."""
    return np.asarray(arr).tolist()


class _Response:
    """What both response kinds share: the wire forms, relabelled
    copies and ``record()``.

    Copies that change one field skip ``dataclasses.replace``, which
    would rerun ``__post_init__``'s validation on every cache hit and
    coalesced joiner; a copy shares every other field, the read-only
    assignment included.
    """

    def _copy(self, name: str, value):
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        object.__setattr__(clone, name, value)
        return clone

    def with_source(self, source: str):
        """This response, labelled as served from ``source``."""
        return self._copy("source", source)

    def with_request(self, request):
        """This response answering ``request``.

        A pool worker sends its response back with ``None`` here, so
        the request (the whole old assignment, for a rebalance) does
        not cross the process boundary twice; the caller, which holds
        the request, attaches it again.
        """
        return self._copy("request", request)

    def _fields(self, array) -> dict:
        return {
            "schema": 1,
            "request": self.request._wire(array),
            **self._answer(array),
            "elapsed_s": self.elapsed_s,
            "source": self.source,
        }

    def to_dict(self) -> dict:
        """JSON-ready plain-dict form (shared by files and the server)."""
        return self._fields(_listed)

    def to_payload(self) -> dict:
        """:meth:`to_dict` with every array left as an int64 array: the
        assignment, and a plan's echoed old assignment and moves.

        What the server hands :func:`~repro.server.http.json_body`,
        which writes the arrays' text natively (same bytes).
        """
        return self._fields(np.asarray)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        data = json.loads(text)
        return PartitionRequest.from_dict(data["request"]).restored(
            np.asarray(cls._wire_assignment(data), dtype=np.int64),
            data,
            str(data.get("source", "computed")),
        )

    def record(self) -> None:
        """Per-request metrics and source counters (no-op when idle).

        The ``partitioner`` label is the registry name (the single
        source of truth for method identity), not the free-form
        ``method`` string a ``Partition`` happens to carry.
        """
        partitioner = registry.get(self.request.method).name
        self._observe(partitioner)
        if self.source == "computed":
            observe("request_compute_seconds", self.elapsed_s, partitioner=partitioner)


def _sha256_json(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


class _ContentAddressed:
    """A value whose content address is computed once, and whose
    equality and hash are its canonical form's.

    The key is kept on the instance outside the dataclass fields, so
    ``repr`` and ``dataclasses.replace`` (a new instance, which
    computes its own key) ignore it; it pickles with the value into a
    pool worker.  Field equality could not compare an array field.
    """

    def cache_key(self) -> str:
        """Content address: SHA-256 of the canonical JSON form."""
        key = self.__dict__.get("_cache_key")
        if key is None:
            key = _sha256_json(self.canonical())
            object.__setattr__(self, "_cache_key", key)
        return key

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.cache_key() == other.cache_key()

    def __hash__(self) -> int:
        return hash(self.cache_key())


def _int_field(data: dict, name: str, default: int | None = None):
    """A wire request's integer field: a digit string (as CSV request
    files carry) parsed, anything else left for the constructor's check,
    which rejects floats and booleans rather than truncating them."""
    value = data.get(name, default)
    if isinstance(value, str):
        with contextlib.suppress(ValueError):
            return int(value)
    return value


def _schedule_field(schedule) -> str | None:
    """A request's refinement schedule: a string, or ``None`` for the
    default.  An empty string is the default too, as on the wire, so a
    request keys the same before and after a JSON round trip."""
    if schedule is not None and not isinstance(schedule, str):
        raise ValueError("schedule must be a string or None")
    return schedule or None


def _float_array(values) -> np.ndarray:
    """Inline weights as float64; ``ValueError`` if they are not numbers."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"inline weights must be numbers: {exc}") from None


def _frozen(arr: np.ndarray, given) -> np.ndarray:
    """``arr``, checked from the caller's ``given``, made read-only: a
    copy when it is ``given`` itself, so the caller's array stays
    writeable and cannot change a request after its key is taken."""
    if arr is given:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class WeightSpec(_ContentAddressed):
    """Per-element weights of a request: inline values OR a named scenario.

    Two mutually exclusive forms:

    * **inline** — ``values`` carries the ``(K,)`` float64 array
      itself.  On the wire it is a plain JSON list; in the *canonical*
      (hashed) form it collapses to ``{"inline": {"n": ..., "sha256":
      ...}}`` so cache keys stay O(1) regardless of K, while any
      change to any weight changes the key.
    * **scenario** — ``scenario``/``step``/``params`` name a generator
      from :mod:`repro.scenarios`; the weights are regenerated
      deterministically wherever the request is resolved (server
      worker, CLI, cache validation), so the wire form stays tiny even
      for huge meshes.

    Both forms JSON round-trip (:meth:`to_wire` / :meth:`coerce`).
    """

    scenario: str | None = None
    step: int = 0
    params: tuple[tuple[str, float], ...] = ()
    values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if (self.scenario is None) == (self.values is None):
            raise ValueError(
                "weights must be either inline values or a named scenario"
            )
        if self.scenario is not None:
            from .. import scenarios

            spec = scenarios.get_scenario(self.scenario)
            step = self.step
            if not isinstance(step, (int, np.integer)) or isinstance(step, bool):
                raise ValueError(f"scenario step must be an integer, got {step!r}")
            object.__setattr__(self, "step", int(step))
            params = self.params
            if isinstance(params, dict):
                params = params.items()
            try:
                params = tuple(sorted((str(k), float(v)) for k, v in params))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(
                    f"scenario params must map names to numbers: {exc}"
                ) from None
            known = {name for name, _ in spec.params}
            unknown = sorted(set(name for name, _ in params) - known)
            if unknown:
                raise ValueError(
                    f"scenario {self.scenario!r} does not accept parameters "
                    f"{unknown}; accepted: {sorted(known)}"
                )
            object.__setattr__(self, "params", params)
        else:
            arr = registry.validate_weights(_float_array(self.values))
            object.__setattr__(self, "values", _frozen(arr, self.values))

    @classmethod
    def coerce(cls, obj, k: int | None = None) -> "WeightSpec | None":
        """Normalize any accepted weights form (or ``None``).

        Accepts an existing :class:`WeightSpec`, a numeric list/array
        (inline), or a wire object: ``{"scenario": name, "step": ...,
        "params": {...}}`` / ``{"inline": [...]}``.

        Args:
            obj: The weights payload (``None`` passes through).
            k: Required inline length (``6 ne^2``) when known.
        """
        if obj is None:
            return None
        if isinstance(obj, cls):
            spec = obj
        elif isinstance(obj, dict):
            if "scenario" in obj:
                extra = sorted(set(obj) - {"scenario", "step", "params"})
                if extra:
                    raise ValueError(f"unknown scenario weight fields: {extra}")
                params = obj.get("params") or {}
                if not isinstance(params, dict):
                    raise ValueError("scenario params must be an object")
                spec = cls(
                    scenario=str(obj["scenario"]),
                    step=obj.get("step", 0),
                    params=tuple(sorted(params.items())),
                )
            elif "inline" in obj:
                extra = sorted(set(obj) - {"inline"})
                if extra:
                    raise ValueError(f"unknown inline weight fields: {extra}")
                spec = cls(values=obj["inline"])
            else:
                raise ValueError(
                    "weights object needs a 'scenario' name or 'inline' values"
                )
        elif isinstance(obj, (list, tuple, np.ndarray)):
            spec = cls(values=obj)
        else:
            raise ValueError(
                "weights must be a numeric list, an array, or a scenario "
                f"object, got {type(obj).__name__}"
            )
        if k is not None and spec.values is not None and len(spec.values) != k:
            raise ValueError(
                f"weights must have one entry per element: expected {k}, "
                f"got {len(spec.values)}"
            )
        return spec

    def canonical(self) -> dict:
        """Hashed form: scenario spec verbatim, inline as a digest."""
        if self.scenario is not None:
            return {
                "scenario": self.scenario,
                "step": self.step,
                "params": dict(self.params),
            }
        return {
            "inline": {
                "n": int(len(self.values)),
                "sha256": hashlib.sha256(self.values.tobytes()).hexdigest(),
            }
        }

    def to_wire(self):
        """Round-trippable JSON form (full values for inline weights)."""
        if self.scenario is None:
            return self.values.tolist()
        out: dict = {"scenario": self.scenario}
        if self.step:
            out["step"] = self.step
        if self.params:
            out["params"] = dict(self.params)
        return out

    def resolve(self, ne: int) -> np.ndarray:
        """The concrete ``(6 ne^2,)`` weight array at resolution ``ne``."""
        if self.values is not None:
            return self.values
        from .. import scenarios

        return scenarios.scenario_weights(
            self.scenario, ne, self.step, **dict(self.params)
        )


@dataclass(frozen=True, eq=False)
class PartitionRequest(_ContentAddressed):
    """One partitioning problem, in canonical form — or, given an old
    assignment, one rebalancing problem.

    Attributes:
        ne: Elements per cube-face edge (``K = 6 ne^2``).
        nparts: Processor count, ``1 <= nparts <= K``; with an old
            assignment it defaults to the old owner count (and may
            differ from it, to grow or shrink the job).
        method: Partitioner name (see
            :func:`repro.partition.registry.available`).
        seed: Seed for randomized partitioners.
        schedule: Optional face-local refinement schedule (methods
            with schedule support only).
        weights: Optional per-element weights — a :class:`WeightSpec`
            (inline values or named scenario); plain lists/arrays and
            wire objects are coerced.  Required with an old assignment:
            they are the new load.
        old_assignment: Optional ``(K,)`` current owner per element.
            With it the request is a rebalance: the partition under
            ``weights`` is diffed against it, and the answer is a
            :class:`RepartitionResponse` carrying the migration plan.

    The method name and the request's capability profile (``ne``
    admissibility, schedule support, weight support) are validated
    against the partitioner registry at construction time, so
    violations fail here — with the registry's did-you-mean /
    capability messages — rather than mid-compute.
    """

    ne: int
    nparts: int | None = None
    method: str = "sfc"
    seed: int = 0
    schedule: str | None = None
    weights: WeightSpec | None = None
    old_assignment: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        old = self.old_assignment
        for name in ("ne", "nparts", "seed"):
            value = getattr(self, name)
            if value is None and name == "nparts" and old is not None:
                continue
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(
                    f"{name} must be an integer, got {reprlib.repr(value)}"
                )
            object.__setattr__(self, name, int(value))
        if self.ne < 1:
            raise ValueError(f"ne must be >= 1, got {self.ne}")
        if old is not None:
            old = _frozen(validate_old_assignment(old, self.ne), old)
            object.__setattr__(self, "old_assignment", old)
            if self.nparts is None:
                nparts = int(old.max()) + 1 if len(old) else 1
                object.__setattr__(self, "nparts", nparts)
        if not 1 <= self.nparts <= self.k:
            raise ValueError(
                f"nparts must be in [1, K={self.k}], got {self.nparts}"
            )
        object.__setattr__(self, "schedule", _schedule_field(self.schedule))
        weights = WeightSpec.coerce(self.weights, self.k)
        if weights is None and old is not None:
            raise ValueError("repartition requires weights (the new load)")
        object.__setattr__(self, "weights", weights)
        # Raises UnknownPartitionerError (with a did-you-mean) for a
        # bad name, CapabilityError for a contract violation.
        registry.get(self.method).validate(
            ne=self.ne,
            nparts=self.nparts,
            schedule=self.schedule,
            weighted=weights is not None,
            seed=self.seed,
        )

    @property
    def k(self) -> int:
        """Total element count ``K = 6 ne^2``."""
        return 6 * self.ne * self.ne

    def _scalars(self) -> dict:
        return {
            "method": self.method,
            "ne": self.ne,
            "nparts": self.nparts,
            "schedule": self.schedule,
            "seed": self.seed,
        }

    def canonical(self) -> dict:
        """Key-sorted plain dict — the hashed canonical form.

        Inline weights appear as an O(1) content digest, scenarios as
        their spec; unweighted requests omit the key entirely, so
        every pre-weights cache key is preserved and a weighted
        request can never collide with its unweighted twin.  A
        rebalance adds a ``"kind": "repartition"`` marker and an O(1)
        digest of its old assignment, so it never collides with the
        partition of the same parameters.
        """
        out = self._scalars()
        if self.weights is not None:
            out["weights"] = self.weights.canonical()
        if self.old_assignment is not None:
            out["kind"] = "repartition"
            out["old_sha256"] = hashlib.sha256(
                self.old_assignment.tobytes()
            ).hexdigest()
        return out

    def _wire(self, array) -> dict:
        """:meth:`to_wire`'s fields, the old assignment passed through
        ``array``."""
        out = self._scalars()
        if self.weights is not None:
            out["weights"] = self.weights.to_wire()
        if self.old_assignment is not None:
            out["old_assignment"] = array(self.old_assignment)
        return out

    def to_wire(self) -> dict:
        """Round-trippable plain-dict form (full inline weights and old
        assignment)."""
        return self._wire(_listed)

    def resolve_weights(self) -> np.ndarray | None:
        """The concrete weight array (generating scenario weights)."""
        return None if self.weights is None else self.weights.resolve(self.ne)

    def compute(self) -> "PartitionResponse | RepartitionResponse":
        """Compute the answer from scratch.

        Deterministic, so parallel and serial execution agree
        bit-for-bit.  A partition runs the staged pipeline
        (:func:`repro.partition.pipeline.run_pipeline`).  For weighted
        requests ``lb_weight`` is the imbalance under the *request's*
        weights (what a weighted cut balances), not uniform ones.

        A rebalance plans the migration on the streaming key path,
        :func:`~repro.partition.repartition.plan_repartition` on the old
        assignment this request has already checked (so it is not
        checked again).
        """
        from ..partition.metrics import load_balance
        from ..partition.pipeline import run_pipeline

        start = perf_counter()
        tags = dict(
            key=self.cache_key()[:12], method=self.method, ne=self.ne,
            nparts=self.nparts,
        )
        if self.old_assignment is not None:
            with span("repartition", "service", **tags):
                plan = _plan_repartition(
                    self.old_assignment, self.resolve_weights(),
                    ne=self.ne, nparts=self.nparts, method=self.method,
                    seed=self.seed, schedule=self.schedule,
                )
            return RepartitionResponse(self, plan, perf_counter() - start)
        with span("compute", "service", **tags):
            weights = self.resolve_weights()
            result = run_pipeline(
                self.method, self.ne, self.nparts,
                seed=self.seed, schedule=self.schedule, weights=weights,
            )
        metrics = quality_metrics(result.quality)
        if weights is not None:
            loads = np.bincount(
                result.partition.assignment, weights=weights, minlength=self.nparts
            )
            metrics["lb_weight"] = load_balance(loads)
        return PartitionResponse(
            self, result.partition.assignment, metrics, perf_counter() - start
        )

    def restored(
        self, assignment: np.ndarray, meta: dict, source: str = "disk"
    ) -> "PartitionResponse | RepartitionResponse":
        """The response stored as ``assignment`` + ``meta``.

        ``meta`` is a response's ``stored()`` metadata, or a whole wire
        body: ``elapsed_s`` plus a partition's ``metrics`` or a plan's
        scalars under ``plan``.  A plan's moves are regrouped from this
        request's old assignment.
        """
        elapsed_s = float(meta.get("elapsed_s", 0.0))
        if self.old_assignment is None:
            return PartitionResponse(
                self, assignment, meta["metrics"], elapsed_s, source
            )
        scalars = {
            k: v for k, v in meta["plan"].items() if k not in ("assignment", "moves")
        }
        plan = RepartitionPlan(
            new_assignment=assignment,
            moves=group_moves(self.old_assignment, assignment)[1],
            **scalars,
        )
        return RepartitionResponse(self, plan, elapsed_s, source)

    def to_json(self) -> str:
        return json.dumps(self.to_wire(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "PartitionRequest":
        known = {
            "ne", "nparts", "method", "seed", "schedule", "weights",
            "old_assignment",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown request fields: {sorted(unknown)}")
        if "ne" not in data or ("nparts" not in data and "old_assignment" not in data):
            raise ValueError("request needs at least 'ne' and 'nparts'")
        nparts = data.get("nparts")
        return cls(
            ne=_int_field(data, "ne"),
            nparts=None if nparts is None else _int_field(data, "nparts"),
            method=str(data.get("method", "sfc")),
            seed=_int_field(data, "seed", 0),
            schedule=data.get("schedule"),
            weights=data.get("weights"),
            old_assignment=data.get("old_assignment"),
        )

    @classmethod
    def from_json(cls, text: str) -> "PartitionRequest":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class PartitionResponse(_Response):
    """The service's answer to one :class:`PartitionRequest` without an
    old assignment.

    Attributes:
        request: The request answered.
        assignment: ``(K,)`` int64 gid -> part vector.
        metrics: Scalar Table-2 metrics (:data:`METRIC_FIELDS`).
        elapsed_s: Compute time of the underlying partition run (0 is
            legal for cache hits loaded without recomputation).
        source: Where the answer came from: ``"computed"``,
            ``"memory"``, ``"disk"``, ``"dedup"`` (a within-batch
            duplicate of another request), or ``"coalesced"`` (a
            concurrent server request that shared another request's
            in-flight compute).
    """

    request: PartitionRequest
    assignment: np.ndarray = field(repr=False)
    metrics: dict[str, float | int]
    elapsed_s: float = 0.0
    source: str = "computed"

    def __post_init__(self) -> None:
        arr = np.asarray(self.assignment, dtype=np.int64)
        if arr.shape != (self.request.k,):
            raise ValueError(
                f"assignment has shape {arr.shape}, expected ({self.request.k},)"
            )
        if len(arr) and (arr.min() < 0 or arr.max() >= self.request.nparts):
            raise ValueError("assignment contains out-of-range part ids")
        object.__setattr__(self, "assignment", arr)
        arr.setflags(write=False)
        missing = set(METRIC_FIELDS) - set(self.metrics)
        if missing:
            raise ValueError(f"metrics missing fields: {sorted(missing)}")

    def to_partition(self):
        """Reconstruct the :class:`~repro.partition.base.Partition`."""
        from ..partition.base import Partition

        return Partition(
            self.assignment, nparts=self.request.nparts, method=self.request.method
        )

    def _answer(self, array) -> dict:
        return {"assignment": array(self.assignment), "metrics": self.metrics}

    @staticmethod
    def _wire_assignment(data: dict) -> list:
        return data["assignment"]

    def stored(self) -> tuple[np.ndarray, dict]:
        """The cache's form: the assignment plus JSON metadata."""
        return self.assignment, {"metrics": self.metrics, "elapsed_s": self.elapsed_s}

    def _observe(self, partitioner: str) -> None:
        """The Table-2 quality metrics of the served partition."""
        inc("service_requests_total", source=self.source, partitioner=partitioner)
        m = self.metrics
        observe("request_lb_nelemd", m["lb_nelemd"], partitioner=partitioner)
        observe("request_lb_spcv", m["lb_spcv"], partitioner=partitioner)
        observe("request_edgecut", m["edgecut"], partitioner=partitioner)
        observe("request_tcv_points", m["total_volume_points"], partitioner=partitioner)


@dataclass(frozen=True)
class RepartitionResponse(_Response):
    """The service's answer to one :class:`PartitionRequest` with an old
    assignment: the migration plan.

    A plan is a pure function of its request (whose canonical form
    hashes the old assignment and the weights spec), so plans share
    the engine's content-addressed cache with partitions.

    Attributes:
        request: The request answered.
        plan: The migration plan
            (:class:`~repro.partition.repartition.RepartitionPlan`).
        elapsed_s: Compute time of the underlying planning run.
        source: ``"computed"``, ``"memory"``, ``"disk"``, ``"dedup"``
            or ``"coalesced"``, as for :class:`PartitionResponse`.
    """

    request: PartitionRequest
    plan: object = field(repr=False)
    elapsed_s: float = 0.0
    source: str = "computed"

    def _answer(self, array) -> dict:
        return {"plan": self.plan._fields(array, include_assignment=True)}

    @staticmethod
    def _wire_assignment(data: dict) -> list:
        return data["plan"]["assignment"]

    def stored(self) -> tuple[np.ndarray, dict]:
        """The cache's form: the new assignment plus the plan's scalars."""
        return self.plan.new_assignment, {
            "plan": self.plan.scalars(),
            "elapsed_s": self.elapsed_s,
        }

    def _observe(self, partitioner: str) -> None:
        """Plan-shaped metrics: migration quantities, not Table-2 ones."""
        if self.source in ("memory", "disk"):
            inc("server_repartition_cache_hits")
        inc("server_repartition_total", source=self.source, partitioner=partitioner)
        observe("repartition_lb_after", self.plan.lb_after, partitioner=partitioner)
        observe(
            "repartition_fraction_moved",
            self.plan.fraction_moved, partitioner=partitioner,
        )


def load_request_file(path: Path | str) -> list[PartitionRequest]:
    """Parse a batch request file (JSON or CSV by extension).

    JSON accepts either a list of request objects or a wrapper
    ``{"requests": [...]}``.  CSV needs a header with at least
    ``ne,nparts``; ``method``, ``seed`` and ``schedule`` columns are
    optional (empty cells fall back to defaults).  The file's requests
    are partitions: the batch table reports each one's Table-2 metrics,
    which a rebalance's migration plan does not have.
    """
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".csv":
        rows = []
        for row in csv.DictReader(text.splitlines()):
            cleaned = {k: v for k, v in row.items() if k and v not in (None, "")}
            rows.append(cleaned)
    else:
        data = json.loads(text)
        if isinstance(data, dict):
            data = data.get("requests")
        if not isinstance(data, list):
            raise ValueError(
                f"{path}: expected a JSON list of requests "
                "(or {'requests': [...]})"
            )
        rows = data
    if not rows:
        raise ValueError(f"{path}: no requests found")
    requests = [PartitionRequest.from_dict(row) for row in rows]
    if any(request.old_assignment is not None for request in requests):
        raise ValueError(
            f"{path}: a request file holds partitions; post a rebalance "
            "(old_assignment) to the server's /repartition"
        )
    return requests
