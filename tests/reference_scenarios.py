"""Reference copies of the built-in scenario generators, as first written.

Each call recomputes the element-center longitude/latitude and the
latitude trig from the mesh's center positions, in the original float
expression order.  :mod:`repro.scenarios` reads the lon/lat and
``sin``/``cos`` of the latitude cached on the mesh instead; its weights
must stay bit-identical to these (``tests/test_scenarios.py``).
"""

from __future__ import annotations

import numpy as np

from repro.cubesphere.mesh import cubed_sphere_mesh
from repro.cubesphere.projection import sphere_to_lonlat


def centers_lonlat(ne: int) -> tuple[np.ndarray, np.ndarray]:
    return sphere_to_lonlat(cubed_sphere_mesh(ne).centers_xyz)


def angular_distance(lon, lat, lon0: float, lat0: float) -> np.ndarray:
    return np.arccos(
        np.clip(
            np.sin(lat) * np.sin(lat0)
            + np.cos(lat) * np.cos(lat0) * np.cos(lon - lon0),
            -1.0,
            1.0,
        )
    )


def storm(ne, step, nsteps=100, amplitude=8.0, sigma=0.5, lat0=0.0):
    lon, lat = centers_lonlat(ne)
    lon0 = 2.0 * np.pi * (step % nsteps) / nsteps
    d = angular_distance(lon, lat, lon0, float(lat0))
    return 1.0 + float(amplitude) * np.exp(-0.5 * (d / float(sigma)) ** 2)


def daynight(ne, step, nsteps=100, day_weight=4.0, night_weight=1.0):
    lon, lat = centers_lonlat(ne)
    lon_sun = 2.0 * np.pi * (step % nsteps) / nsteps
    cosz = np.maximum(np.cos(lat) * np.cos(lon - lon_sun), 0.0)
    return float(night_weight) + (float(day_weight) - float(night_weight)) * cosz


def amr(ne, step, nsteps=100, max_level=2, radius=0.7, lon0=0.0, lat0=0.3):
    max_level = int(max_level)
    lon, lat = centers_lonlat(ne)
    d = angular_distance(lon, lat, float(lon0), float(lat0))
    phase = (step % nsteps) / nsteps * (2 * max_level)
    level = int(round(max_level - abs(phase - max_level)))
    weights = np.ones_like(d)
    weights[d < float(radius)] = 4.0 ** level
    return weights


REFERENCE = {"storm": storm, "daynight": daynight, "amr": amr}
