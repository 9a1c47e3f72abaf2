"""Stage-output fingerprints: an output change must come with a version bump.

``cache_version()`` stamps every on-disk cache entry with
:data:`~repro.partition.pipeline.STAGE_VERSIONS`.  If a change alters a
stage's output but not its version, entries computed before the change
are served as current.  This test pins a digest of each covered stage's
output over a small probe set — every registered method, unweighted
and (where the method takes weights) weighted, at Ne 4 and 8 with two
part counts — keyed by the versions that output depends on:

* ``partition`` — the assignments, keyed by the partition version;
* ``evaluate`` — the quality metrics (integers exact, floats rounded
  to 12 digits), keyed by the partition and evaluate versions, since
  the metrics are computed from the partition stage's assignments.

A digest that differs under an unchanged key names the stage to bump.
After a deliberate bump, pin the new digests with
``PYTHONPATH=src python -m tests.partition.test_stage_fingerprint``
(it adds the current keys to the golden file and keeps the old ones).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.partition import registry
from repro.partition.pipeline import STAGE_VERSIONS, run_pipeline

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "stage_fingerprints.json"
NES = (4, 8)
NPARTS = (7, 24)


def _probes():
    """``(method, ne, nparts, weights)`` of every probe."""
    for ne in NES:
        k = 6 * ne * ne
        weights = 1.0 + (np.arange(k) % 5) / 4
        for spec in registry.specs():
            if spec.check_ne is not None and not spec.check_ne(ne):
                continue
            for nparts in NPARTS:
                yield spec.name, ne, nparts, None
                if spec.weighted:
                    yield spec.name, ne, nparts, weights


def _digest(rows: list) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def stage_keys() -> dict[str, str]:
    """The golden-file key of each stage's digest at the current versions."""
    p, e = STAGE_VERSIONS["partition"], STAGE_VERSIONS["evaluate"]
    return {"partition": f"partition{p}", "evaluate": f"partition{p}.evaluate{e}"}


def fingerprints() -> dict[str, str]:
    """Digest of each covered stage's output over the probe set."""
    assignments, metrics = [], []
    for method, ne, nparts, weights in _probes():
        result = run_pipeline(method, ne, nparts, weights=weights)
        q = result.quality
        label = [method, ne, nparts, weights is not None]
        assignments.append(
            label + [hashlib.sha256(result.partition.assignment.tobytes()).hexdigest()]
        )
        metrics.append(label + [
            q.edgecut, q.weighted_edgecut, q.total_volume_points,
            q.boundary_vertices, q.nelemd.tolist(), q.spcv.tolist(),
            *(round(float(x), 12) for x in (q.lb_nelemd, q.lb_weight, q.lb_spcv)),
        ])
    return {"partition": _digest(assignments), "evaluate": _digest(metrics)}


def test_stage_outputs_match_their_versions():
    golden = json.loads(GOLDEN.read_text())
    got = fingerprints()
    # Partition first: new assignments change the metrics too, and the
    # stage to bump is then the partition stage.
    for stage, key in stage_keys().items():
        pinned = golden[stage].get(key)
        assert pinned is not None, (
            f"no {stage} fingerprint pinned for {key}: after bumping "
            f"STAGE_VERSIONS, pin it with `python -m {__name__}`"
        )
        assert got[stage] == pinned, (
            f"the {stage} stage's output changed, but its key {key} did "
            f"not: bump STAGE_VERSIONS[{stage!r}], then pin the new "
            f"fingerprint with `python -m {__name__}`"
        )


if __name__ == "__main__":
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    got = fingerprints()
    for stage, key in stage_keys().items():
        golden.setdefault(stage, {})[key] = got[stage]
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
