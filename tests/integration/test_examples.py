"""Smoke tests: every example script must run end-to-end.

Examples are part of the public surface; they are executed in-process
(with small arguments where the script accepts them) and their output
is checked for the landmark strings a reader would look for.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, argv: list[str], capsys) -> str:
    old_argv = sys.argv
    sys.argv = [name, *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", [], capsys)
        assert "sfc (Hilbert)" in out
        assert "LB(nelemd)" in out

    def test_curve_gallery(self, capsys):
        out = run_example("curve_gallery.py", [], capsys)
        assert "Level-1 Hilbert curve" in out
        assert "flattened cube" in out
        assert "12x12 Hilbert-Peano" in out

    def test_climate_partitioning_small(self, capsys):
        out = run_example("climate_partitioning.py", ["8", "96"], capsys)
        assert "Partitioner comparison" in out
        assert "Weighted elements" in out

    def test_cosine_bell_advection_small(self, capsys):
        out = run_example("cosine_bell_advection.py", ["2", "0.05"], capsys)
        assert "relative L2 error" in out
        assert "mass drift" in out

    def test_scaling_study_small(self, capsys):
        out = run_example("scaling_study.py", ["2"], capsys)
        assert "Speedup vs 1 processor" in out
        assert "sfc advantage" in out

    def test_adaptive_load_balancing_runs(self, capsys):
        out = run_example("adaptive_load_balancing.py", ["4", "12"], capsys)
        assert "Rebalancing a moving hotspot" in out
        assert "Average migration" in out

    def test_shallow_water_tc2_small(self, capsys):
        out = run_example("shallow_water_tc2.py", ["2", "0.2"], capsys)
        assert "Steady-state hold" in out
        assert "mass drift (rel)" in out

    def test_every_example_has_a_smoke_test(self):
        """Adding an example without a smoke test should fail CI."""
        scripts = {p.name for p in EXAMPLES.glob("*.py")}
        covered = {
            "quickstart.py",
            "curve_gallery.py",
            "climate_partitioning.py",
            "cosine_bell_advection.py",
            "scaling_study.py",
            "adaptive_load_balancing.py",
            "shallow_water_tc2.py",
        }
        assert scripts == covered
