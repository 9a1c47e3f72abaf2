"""Layering contract: service and partition never import experiments,
and the server never imports the SEAM core.

A second contract: no module of the package imports SciPy (the
spectral bisection and the sparse matrices that need it are test
helpers), so a server starts without paying for that import.

A third: the compiled kernel library is required.  Without a working C
compiler, importing the package's kernels raises ``ImportError`` naming
the compiler.

The registry + pipeline refactor inverted the old experiments→service
dependency; the experiments package is the *top* layer (figure/table
drivers) and nothing below it may reach back up.  This test walks the
AST of every module in the lower layers so the contract cannot rot
silently; it is the only check of it, and unlike a text grep it also
catches ``from .. import experiments``.  The same walk keeps
``repro.seam`` out of ``server/`` (a server reports the memos through
the leaf :mod:`repro.memo`, which imports only ``repro.telemetry``),
and keeps ``server/`` on the engine's public miss path: it imports no
``_``-prefixed name from ``repro.service``.

The scripts outside the package (``benchmarks/``, ``perfbench/`` and
``examples/``), some of which no CI job runs, get one more walk: every
name they import from ``repro``, also inside function bodies, must
exist, so deleting a name from the package cannot strand a script.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
REPO = SRC.parent.parent
SCRIPT_DIRS = ("benchmarks", "perfbench", "examples")
FORBIDDEN_PACKAGE = "experiments"
LOWER_LAYERS = ("service", "partition")


def _violations(
    source: str, depth: int, forbidden: str = FORBIDDEN_PACKAGE
) -> list[str]:
    """Imports of repro.<forbidden> (absolute or relative) in ``source``.

    ``depth`` is how many packages below ``repro`` the module lives
    (``repro/service/x.py`` is 1 deep, so ``from ..experiments ...``
    has level 2 and lands back inside ``repro``).
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro" and forbidden in parts:
                    found.append(f"line {node.lineno}: import {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            module_parts = node.module.split(".") if node.module else []
            lands_in_repro = (
                (node.level == 0 and module_parts[:1] == ["repro"])
                or node.level > depth
            )
            if lands_in_repro and (
                forbidden in module_parts
                or any(a.name == forbidden for a in node.names)
            ):
                dots = "." * node.level
                names = ", ".join(a.name for a in node.names)
                found.append(
                    f"line {node.lineno}: from {dots}{node.module or ''} "
                    f"import {names}"
                )
    return found


def _layer_modules(layers=LOWER_LAYERS):
    for layer in layers:
        for path in sorted((SRC / layer).rglob("*.py")):
            yield pytest.param(path, id=str(path.relative_to(SRC)))


@pytest.mark.parametrize("path", _layer_modules())
def test_no_experiments_imports(path):
    depth = len(path.relative_to(SRC).parts) - 1
    violations = _violations(path.read_text(), depth)
    assert not violations, (
        f"{path.relative_to(SRC.parent)} imports the experiments package "
        f"(layering violation): {violations}"
    )


def test_contract_scans_something():
    assert len(list(_layer_modules())) >= 10
    assert len(list(_layer_modules(["server"]))) >= 4


@pytest.mark.parametrize("path", _layer_modules(["server"]))
def test_server_imports_no_seam(path):
    violations = _violations(path.read_text(), depth=1, forbidden="seam")
    assert not violations, (
        f"{path.relative_to(SRC.parent)} imports the SEAM core: {violations}"
    )


@pytest.mark.parametrize(
    "source",
    [
        "from ..seam.dss import shared_dss_operator",
        "from .. import seam",
        "import repro.seam.element",
        "from repro.seam import build_geometry",
    ],
)
def test_seam_detector_catches_imports(source):
    assert _violations(source, depth=1, forbidden="seam")


def _private_service_imports(source: str, depth: int = 1) -> list[str]:
    """``_``-prefixed names that ``source`` imports from ``repro.service``.

    ``depth`` is as for :func:`_violations`: a ``server/`` module is 1
    deep, so ``from ..service.engine import x`` lands in ``repro.service``.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = node.module.split(".") if node.module else []
        if node.level == 0:
            in_service = parts[:2] == ["repro", "service"]
        else:
            in_service = node.level == depth + 1 and parts[:1] == ["service"]
        found += [
            f"line {node.lineno}: {alias.name}"
            for alias in node.names
            if in_service and alias.name.startswith("_")
        ]
    return found


@pytest.mark.parametrize("path", _layer_modules(["server"]))
def test_server_imports_no_private_service_names(path):
    violations = _private_service_imports(path.read_text())
    assert not violations, (
        f"{path.relative_to(SRC.parent)} reaches past the engine's public "
        f"miss path: {violations}"
    )


@pytest.mark.parametrize(
    "source, caught",
    [
        ("from ..service.engine import _pool_compute", True),
        ("from ..service import PartitionEngine, _helper", True),
        ("from repro.service.engine import _pool_compute", True),
        ("from repro.service.cache import encoded_body", False),
        ("from ..service import PartitionEngine", False),
        ("from ..telemetry import _SESSION", False),
        ("from .http import _Result", False),
    ],
)
def test_private_service_import_detector(source, caught):
    assert bool(_private_service_imports(source)) is caught


def _unresolved_repro_imports(source: str) -> list[str]:
    """``repro`` modules and names that ``source`` imports but that do
    not exist, at any depth of the file (function bodies included)."""
    missing = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            wanted = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            wanted = [(node.module, alias.name) for alias in node.names]
        else:
            continue
        for module, name in wanted:
            if module.split(".")[0] != "repro":
                continue
            try:
                found = importlib.import_module(module)
            except ImportError:
                missing.append(f"line {node.lineno}: {module}")
                continue
            if name in (None, "*") or hasattr(found, name):
                continue
            try:
                spec = importlib.util.find_spec(f"{module}.{name}")
            except ImportError:
                spec = None
            if spec is None:
                missing.append(f"line {node.lineno}: {module}.{name}")
    return missing


def _script_modules():
    for folder in SCRIPT_DIRS:
        for path in sorted((REPO / folder).glob("*.py")):
            yield pytest.param(path, id=str(path.relative_to(REPO)))


def test_script_walk_scans_every_folder():
    scanned = {path.values[0].parent.name for path in _script_modules()}
    assert scanned == set(SCRIPT_DIRS)


@pytest.mark.parametrize("path", _script_modules())
def test_scripts_import_only_existing_names(path):
    missing = _unresolved_repro_imports(path.read_text())
    assert not missing, (
        f"{path.relative_to(REPO)} imports names the package lacks: {missing}"
    )


@pytest.mark.parametrize(
    "source, caught",
    [
        ("from repro.partition import repartition_curve", True),
        ("def f():\n    from repro.partition.sfc import nope\n", True),
        ("import repro.nope", True),
        ("from repro.nope import x", True),
        ("from repro.partition import sfc, plan_repartition", False),
        ("from repro.seam import element", False),
        ("import repro.partition.sfc", False),
        ("from tests.partition.reference_cuts import is_optimal", False),
        ("from .local import anything", False),
    ],
)
def test_unresolved_import_detector(source, caught):
    assert bool(_unresolved_repro_imports(source)) is caught


def _repro_imports(source: str) -> set[str]:
    """``repro`` subpackages imported by a module of package ``repro``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        elif isinstance(node, ast.ImportFrom):
            names = [
                f"repro.{node.module or alias.name}" for alias in node.names
            ]
        else:
            continue
        found |= {
            ".".join(name.split(".")[:2])
            for name in names
            if name.split(".")[0] == "repro"
        }
    return found


def test_memo_imports_only_telemetry():
    """:mod:`repro.memo` is a leaf: reporting the memos loads no layer
    that fills them."""
    assert _repro_imports((SRC / "memo.py").read_text()) == {"repro.telemetry"}


@pytest.mark.parametrize(
    "source, imported",
    [
        ("from .telemetry import inc", {"repro.telemetry"}),
        ("from .telemetry.runtime import inc", {"repro.telemetry"}),
        ("from . import partition", {"repro.partition"}),
        ("import repro", {"repro"}),
        ("from repro.seam.dss import x", {"repro.seam"}),
        ("from collections import OrderedDict", set()),
    ],
)
def test_repro_imports_detector(source, imported):
    assert _repro_imports(source) == imported


@pytest.mark.parametrize(
    "source",
    [
        "import repro.experiments.figures",
        "import repro.experiments",
        "from repro.experiments import figures",
        "from repro.experiments.figures import make_partition",
        "from ..experiments.figures import make_partition",
        "from ..experiments import figures",
        "from .. import experiments",
    ],
)
def test_detector_catches_violations(source):
    """The AST walker flags every spelling a violation could take."""
    assert _violations(source, depth=1), f"detector missed {source!r}"


@pytest.mark.parametrize(
    "source",
    [
        "from ..partition import registry",
        "from . import requests",
        "import numpy as np",
        "from repro.report import format_table",
        # A *local* sibling named like the forbidden package at a level
        # that stays inside the layer is not a layering violation.
        "from .experiments_helpers import x",
        "from .experiments import x",
    ],
)
def test_detector_allows_clean_imports(source):
    assert not _violations(source, depth=1)


def test_serving_imports_no_scipy():
    """``import repro.server, repro.service`` loads no ``scipy*`` module.

    Run in a fresh interpreter: this test session has long imported
    SciPy through other suites.
    """
    code = (
        "import sys, repro.server, repro.service\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    )}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]", out.stdout


def test_serving_imports_only_what_it_serves():
    """The lazy package root keeps the SEAM core, the machine model, the
    METIS package and the experiments out of ``import repro.server,
    repro.service`` (a pool worker imports METIS on its first METIS
    request)."""
    code = (
        "import sys, repro.server, repro.service\n"
        "print(sorted({m.split('.')[1] for m in sys.modules\n"
        "              if m.startswith('repro.') and m.count('.') >= 1}))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    )}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    loaded = set(ast.literal_eval(out.stdout.strip()))
    assert "server" in loaded
    assert not loaded & {"seam", "machine", "metis", "experiments"}, loaded


def _imports_scipy(source: str) -> list[str]:
    """Lines of ``source`` that import ``scipy`` or a submodule of it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            found.append(f"line {node.lineno}")
    return found


def test_no_module_imports_scipy():
    offenders = {
        str(path.relative_to(SRC)): lines
        for path in sorted(SRC.rglob("*.py"))
        if (lines := _imports_scipy(path.read_text()))
    }
    assert not offenders, f"SciPy imports under src/repro: {offenders}"


@pytest.mark.parametrize(
    "source",
    ["import scipy", "import scipy.sparse as sp", "from scipy.sparse import diags"],
)
def test_scipy_detector_catches_imports(source):
    assert _imports_scipy(source)


def test_missing_compiler_fails_the_import(tmp_path):
    """With no usable compiler and an empty kernel cache, importing the
    METIS package raises ``ImportError`` that names the compiler."""
    code = (
        "try:\n"
        "    import repro.metis\n"
        "except ImportError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    print('IMPORTED')\n"
    )
    env = {
        **os.environ,
        "XDG_CACHE_HOME": str(tmp_path),
        "CC": "/nonexistent",
        "PYTHONPATH": os.pathsep.join(
            [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
        ),
    }
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    assert "compiler '/nonexistent'" in out.stdout, out.stdout


def test_cli_without_compiler_is_one_line(tmp_path):
    """``python -m repro`` reports a kernel build failure as one line on
    stderr and exits 2, without a traceback."""
    env = {
        **os.environ,
        "XDG_CACHE_HOME": str(tmp_path),
        "CC": "/nonexistent",
        "PYTHONPATH": os.pathsep.join(
            [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
        ),
    }
    out = subprocess.run(
        [sys.executable, "-m", "repro", "--version"], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 2, out
    assert out.stdout == ""
    assert out.stderr.startswith("repro: C compiler '/nonexistent'"), out.stderr
    assert out.stderr.count("\n") == 1, out.stderr


def test_extra_cflags_get_their_own_library(tmp_path, monkeypatch):
    """Flags from ``REPRO_CFLAGS`` are appended and change the cache
    tag, so an instrumented build never replaces a plain one."""
    from repro import _native

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv(_native.EXTRA_CFLAGS_ENV, "-DREPRO_TAG_TEST=1 -g")
    assert _native._cflags() == [*_native._CFLAGS, "-DREPRO_TAG_TEST=1", "-g"]
    lib = _native.load()
    built = Path(lib._name)
    assert built.parent == tmp_path / "repro-kernels"
    assert built.name != Path(_native.LIB._name).name
