"""Global element keys equal the forward-constructed curve's positions.

``element_keys`` must agree with the position array of the forward
construction in ``tests/cubesphere/reference_curve.py`` for every
admissible resolution and schedule — including the ``ne = 1``
degenerate case — and the canonical face chain it relies on must be
independent of resolution.  The fused C kernel matches its NumPy
oracle (``tests/sfc/reference_keys.py``), and ids off the mesh are
rejected before the kernel reads a table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cubesphere.curve import (
    cubed_sphere_curve,
    element_keys,
    face_chain,
    find_face_chain,
)
from repro.cubesphere.mesh import cubed_sphere_mesh
from tests.cubesphere.reference_curve import reference_cubed_sphere_curve
from tests.sfc.reference_keys import element_keys_numpy

NES = (1, 2, 3, 4, 6, 8, 12)


class TestGoldenEquivalence:
    @pytest.mark.parametrize("ne", NES)
    def test_matches_forward_construction(self, ne):
        curve = reference_cubed_sphere_curve(ne)
        keys = element_keys(ne)
        assert keys.dtype == np.uint64
        np.testing.assert_array_equal(
            keys.astype(np.int64), curve.position.astype(np.int64)
        )

    @pytest.mark.parametrize("schedule", ["HP", "PH", "PP", "HHH"])
    def test_matches_with_explicit_schedule(self, schedule):
        from repro.sfc.factorization import schedule_size

        ne = schedule_size(schedule)
        curve = reference_cubed_sphere_curve(ne, schedule)
        np.testing.assert_array_equal(
            element_keys(ne, schedule).astype(np.int64),
            curve.position.astype(np.int64),
        )

    def test_gid_subset_slices_the_full_keying(self):
        full = element_keys(6)
        gids = np.array([0, 17, 100, 215])
        np.testing.assert_array_equal(element_keys(6, gids=gids), full[gids])

    def test_gid_shape_preserved(self):
        gids = np.arange(24).reshape(4, 6)
        assert element_keys(2, gids=gids).shape == (4, 6)

    def test_keys_are_a_bijection(self):
        keys = element_keys(4)
        assert sorted(keys.tolist()) == list(range(6 * 16))

    def test_schedule_size_mismatch(self):
        with pytest.raises(ValueError, match="mesh has ne"):
            element_keys(4, schedule="HHH")


class TestKernelParity:
    @pytest.mark.parametrize("ne", (1, 2, 6, 8, 12))
    def test_fused_kernel_matches_numpy_oracle(self, ne):
        np.testing.assert_array_equal(element_keys(ne), element_keys_numpy(ne))

    def test_ids_off_the_mesh_rejected(self):
        """An id off the mesh raises before the decode reads a table.

        Runs in a subprocess: a regression would let the kernel read
        past its tables and crash the interpreter.
        """
        import os
        import subprocess
        import sys

        script = (
            "import numpy as np\n"
            "from repro.cubesphere.curve import element_keys\n"
            "for bad in (-1, 24, 10**12):\n"
            "    try:\n"
            "        element_keys(2, gids=np.array([23, bad]))\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ),
        )
        assert proc.returncode == 0, proc.stderr
        errors = proc.stdout.splitlines()
        assert errors == ["element ids must lie in [0, 24) for ne=2"] * 3


class TestFaceChain:
    @pytest.mark.parametrize("ne", [2, 3, 4, 6])
    def test_chain_is_resolution_independent(self, ne):
        chain = find_face_chain(cubed_sphere_mesh(ne))
        assert chain == face_chain()

    def test_ne_1_same_face_order(self):
        chain = find_face_chain(cubed_sphere_mesh(1))
        assert chain.faces == face_chain().faces


class TestDowncast:
    """Satellite: curve arrays shrink to int32 when element ids fit."""

    def test_int32_order_and_position(self):
        curve = cubed_sphere_curve(4)
        assert curve.order.dtype == np.int32
        assert curve.position.dtype == np.int32

    def test_downcast_positions_unchanged(self):
        # The int32 arrays still encode the permutation the forward
        # construction builds independently.
        curve = cubed_sphere_curve(8)
        np.testing.assert_array_equal(
            curve.position, reference_cubed_sphere_curve(8).position
        )
        np.testing.assert_array_equal(
            np.sort(curve.order), np.arange(6 * 64, dtype=np.int32)
        )
