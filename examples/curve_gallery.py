#!/usr/bin/env python3
"""Gallery of the paper's space-filling curves (Figures 2-6), in ASCII.

Renders the visit order of the Hilbert curve (levels 1-2, Fig. 2), the
level-1 meandering Peano curve (Fig. 4), the level-1 Hilbert-Peano
curve connecting 36 sub-domains (Fig. 5), and the single continuous
curve over the flattened cube (Fig. 6), plus locality statistics for
every nesting order of a 12x12 Hilbert-Peano domain.

Run:  python examples/curve_gallery.py
"""

from __future__ import annotations

from repro import cubed_sphere_curve, generate_curve, hilbert_curve, peano_curve
from repro.experiments import format_table
from repro.sfc import all_schedules, analyze_curve


def render_flattened_cube(ne: int) -> str:
    """ASCII flattened-cube rendering of the global curve (Fig. 6).

    Layout (face ids)::

                +---+
                | 4 |
        +---+---+---+---+
        | 0 | 1 | 2 | 3 |
        +---+---+---+---+
                | 5 |
    """
    curve = cubed_sphere_curve(ne)
    mesh = curve.mesh
    width = len(str(mesh.nelem - 1))
    blank = " " * width
    # Face panel origins in a (4*ne x 3*ne) character grid of cells.
    origin = {0: (0, ne), 1: (ne, ne), 2: (2 * ne, ne), 3: (3 * ne, ne),
              4: (ne, 2 * ne), 5: (ne, 0)}
    cols, rows_n = 4 * ne, 3 * ne
    grid = [[blank for _ in range(cols)] for _ in range(rows_n)]
    for gid in range(mesh.nelem):
        face, ix, iy = mesh.locate(gid)
        ox, oy = origin[face]
        grid[oy + iy][ox + ix] = f"{int(curve.position[gid]):>{width}d}"
    lines = [" ".join(row) for row in reversed(grid)]
    return "\n".join(lines)


def main() -> None:
    print("=== Level-1 Hilbert curve (paper Fig. 2a) ===")
    print(hilbert_curve(1).render(), "\n")
    print("=== Level-2 Hilbert curve (paper Fig. 2c) ===")
    print(hilbert_curve(2).render(), "\n")
    print("=== Level-1 meandering Peano curve (paper Fig. 4a) ===")
    print(peano_curve(1).render(), "\n")
    print("=== Level-1 Hilbert-Peano curve, 36 sub-domains (paper Fig. 5) ===")
    print(generate_curve(size=6).render(), "\n")
    print("=== Continuous curve over the flattened cube, Ne=2 (paper Fig. 6) ===")
    print(render_flattened_cube(2), "\n")

    print("=== Locality of every 12x12 Hilbert-Peano nesting order ===")
    rows = []
    for sched in all_schedules(12):
        loc = analyze_curve(generate_curve(schedule=sched), nsegments=12)
        rows.append(
            [
                sched,
                f"{loc.mean_bbox_aspect:.3f}",
                f"{loc.mean_surface_to_volume:.3f}",
                f"{loc.mean_neighbor_stretch:.1f}",
                loc.max_neighbor_stretch,
            ]
        )
    print(
        format_table(
            ["schedule", "bbox aspect", "surface/volume", "mean stretch", "max stretch"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
