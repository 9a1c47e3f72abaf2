"""Figures 2-5 — curve construction, validated and benchmarked.

Regenerates the constructions the paper illustrates (Hilbert level 1-2,
level-1 m-Peano, the 36-cell level-1 Hilbert-Peano curve) as ASCII
artifacts, and benchmarks raw curve generation throughput up to
1024 x 1024 cells: ``generate_curve`` keys every cell and inverts the
keys, timed with its LRU emptied before every round.
"""

from __future__ import annotations

import pytest

from repro.experiments import format_table
from repro.sfc import analyze_curve, generate_curve


def test_fig2_to_fig5_reproduction(benchmark, save_artifact):
    benchmark.pedantic(
        lambda: [generate_curve(schedule=s) for s in ("H", "HH", "P", "PH")],
        rounds=1,
        iterations=1,
    )
    parts = []
    for title, schedule in [
        ("Figure 2a: level-1 Hilbert", "H"),
        ("Figure 2c: level-2 Hilbert", "HH"),
        ("Figure 4a: level-1 m-Peano", "P"),
        ("Figure 5: level-1 Hilbert-Peano (36 sub-domains)", "PH"),
    ]:
        c = generate_curve(schedule=schedule)
        parts.append(f"{title}\n{c.render()}")
        assert (c.step_lengths() == 1).all()
    save_artifact("fig02_05_curves", "\n\n".join(parts))
    assert len(generate_curve(schedule="PH")) == 36


def test_locality_summary_artifact(benchmark, save_artifact):
    locs = benchmark.pedantic(
        lambda: {
            s: analyze_curve(generate_curve(schedule=s))
            for s in ("HHHH", "PP", "PHH", "PPH")
        },
        rounds=1,
        iterations=1,
    )
    rows = []
    for schedule in ("HHHH", "PP", "PHH", "PPH"):
        c = generate_curve(schedule=schedule)
        loc = locs[schedule]
        rows.append(
            [
                schedule,
                c.size,
                f"{loc.mean_bbox_aspect:.2f}",
                f"{loc.mean_surface_to_volume:.2f}",
                loc.max_neighbor_stretch,
            ]
        )
    save_artifact(
        "curve_locality",
        format_table(
            ["schedule", "size", "bbox aspect", "surf/vol", "max stretch"],
            rows,
            title="Curve locality by family",
        ),
    )


def _time_cold(benchmark, schedule: str):
    """Time ``generate_curve(schedule=...)`` with its memo emptied first."""
    from repro.memo import MEMOS

    return benchmark.pedantic(
        generate_curve,
        kwargs={"schedule": schedule},
        setup=MEMOS["face_curve"].clear,
        rounds=10,
    )


@pytest.mark.parametrize("level", [6, 8, 10], ids=lambda n: f"2^{n}")
def test_hilbert_generation_speed(benchmark, level):
    curve = _time_cold(benchmark, "H" * level)
    assert len(curve) == 4**level


@pytest.mark.parametrize("schedule", ["PPP", "PPHH", "PPPHH"])
def test_mixed_generation_speed(benchmark, schedule):
    _time_cold(benchmark, schedule)


@pytest.mark.parametrize("ne", [64, 256])
def test_cubed_sphere_curve_build_speed(benchmark, ne):
    """``build_curve`` on a prebuilt mesh: the global curve alone."""
    from repro.cubesphere import build_curve, cubed_sphere_mesh

    mesh = cubed_sphere_mesh(ne)
    curve = benchmark.pedantic(build_curve, args=(mesh,), rounds=10)
    assert len(curve) == 6 * ne * ne
