"""Build-and-load shim for the compiled hot-path kernels.

``_kernels.c`` holds exact C restatements of the METIS kernels — FM
bisection refinement (``fm_refine``), one greedy K-way refinement
sweep (``kway_refine``, edge-cut or TotalVol gain), heavy-edge
matching, subgraph extraction and greedy graph growing — plus the SEAM
DSS projection and SFC keying (see that file for the bit-identity
contract).  This module compiles it once with the system C compiler
into a content-addressed cache directory and loads it through
:mod:`ctypes` — no third-party build machinery, no install step.

Everything degrades gracefully: if there is no compiler, the build
fails, or ``REPRO_NO_CKERNELS`` is set in the environment, ``LIB`` is
``None`` and every caller falls back to the pure-Python kernels (which
produce bit-identical results, just slower).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

__all__ = ["LIB", "load"]

_SOURCE = Path(__file__).with_name("_kernels.c")
_I64P = ctypes.POINTER(ctypes.c_int64)
_F64P = ctypes.POINTER(ctypes.c_double)
_VP = ctypes.c_void_p

# -ffp-contract=off: the float kernels (dss_apply) promise bit-identity
# with the numpy fallbacks, which never fuse a multiply-add into an FMA.
_CFLAGS = ["-O2", "-ffp-contract=off", "-shared", "-fPIC"]

# Gain bounds above this make the bucket arrays unreasonably large;
# such graphs (enormous edge weights) take the Python heap path.
MAX_BOUND = 1 << 22


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME")
    if base:
        return Path(base) / "repro-kernels"
    home = Path.home()
    if os.access(home, os.W_OK):
        return home / ".cache" / "repro-kernels"
    return Path(tempfile.gettempdir()) / f"repro-kernels-{os.getuid()}"


def _compile(source: Path, out: Path) -> bool:
    cc = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return False
    tmp = out.with_name(f"{out.stem}.{os.getpid()}.tmp{out.suffix}")
    try:
        subprocess.run(
            [cc, *_CFLAGS, "-o", str(tmp), str(source)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp, out)
        return True
    except (OSError, subprocess.SubprocessError):
        tmp.unlink(missing_ok=True)
        return False


def load() -> ctypes.CDLL | None:
    """Compile (if needed) and load the kernel library, or ``None``."""
    if os.environ.get("REPRO_NO_CKERNELS"):
        return None
    try:
        source_text = _SOURCE.read_bytes()
    except OSError:
        return None
    tag = hashlib.sha256(source_text + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = cache / f"kernels-{tag}.so"
    if not lib_path.exists():
        try:
            cache.mkdir(parents=True, exist_ok=True)
        except OSError:
            return None
        if not _compile(_SOURCE, lib_path):
            return None
    try:
        lib = ctypes.CDLL(str(lib_path))
    except OSError:
        return None
    try:
        # Pointer params are void*: callers pass raw addresses (ints,
        # ``arr.ctypes.data``), skipping ctypes' per-call POINTER
        # conversion on the hot path.
        lib.fm_refine.restype = ctypes.c_int64
        lib.fm_refine.argtypes = [
            ctypes.c_int64,  # n
            _VP, _VP, _VP, _VP,  # indptr, indices, eweights, vweights
            _VP,  # side (inout)
            ctypes.c_int64, ctypes.c_int64,  # cap0, cap1
            ctypes.c_int64, ctypes.c_int64,  # pcap0, pcap1
            ctypes.c_int64,  # max_passes
            ctypes.c_int64,  # bound
            ctypes.c_int64, ctypes.c_int64,  # w0, w1
        ]
        lib.kway_refine.restype = ctypes.c_int64
        lib.kway_refine.argtypes = [
            ctypes.c_int64,  # n
            _VP, _VP, _VP, _VP,  # indptr, indices, eweights, vweights
            _VP,  # perm
            _VP, _VP,  # assign, pweights (inout)
            ctypes.c_int64,  # len(pweights)
            ctypes.c_int64, ctypes.c_int64,  # cap, ideal_cap
            ctypes.c_int64,  # volume objective
        ]
        lib.hem_claim.restype = ctypes.c_int64
        lib.hem_claim.argtypes = [
            ctypes.c_int64,  # n
            _VP, _VP, _VP,  # indptr, indices, eweights
            _VP,  # order
            _VP,  # match (out)
        ]
        lib.subgraph_extract.restype = ctypes.c_int64
        lib.subgraph_extract.argtypes = [
            ctypes.c_int64,  # n_parent
            _VP, _VP, _VP, _VP,  # indptr, indices, eweights, vweights
            _VP,  # verts
            ctypes.c_int64,  # k
            _VP, _VP, _VP, _VP,  # out csr arrays
            _VP,  # out_scalars
        ]
        lib.ggg_partition.restype = ctypes.c_int64
        lib.ggg_partition.argtypes = [
            ctypes.c_int64,  # n
            _VP, _VP, _VP, _VP,  # indptr, indices, eweights, vweights
            _VP,  # starts
            ctypes.c_int64,  # ntrials
            ctypes.c_int64,  # target_left
            ctypes.c_int64,  # bound
            _VP,  # best_side (out)
        ]
        # The DSS operator constants travel in a 7-slot int64 "plan"
        # array (see _kernels.c) to keep per-call marshalling at 5
        # arguments.
        lib.dss_apply.restype = ctypes.c_int64
        lib.dss_apply.argtypes = [
            ctypes.c_void_p,  # plan
            ctypes.c_int64,  # ncomp
            ctypes.c_void_p,  # field
            ctypes.c_void_p, ctypes.c_void_p,  # num scratch, out
        ]
        lib.sfc_keys.restype = ctypes.c_int64
        lib.sfc_keys.argtypes = [
            ctypes.c_int64,  # npts
            ctypes.c_int64,  # nlevels
            _I64P,  # packed level tables (nlevels x 66)
            ctypes.c_int64,  # domain side n
            _I64P, _I64P,  # x, y coordinates
            ctypes.POINTER(ctypes.c_uint64),  # keys (out)
        ]
        lib.sfc_face_keys.restype = ctypes.c_int64
        lib.sfc_face_keys.argtypes = [
            ctypes.c_int64,  # npts
            ctypes.c_int64,  # nlevels
            _I64P,  # packed level tables (nlevels x 66)
            ctypes.c_int64,  # ne (face side length)
            _I64P, _I64P,  # chain rank (6), chain coef (6 x 6)
            _I64P,  # gids
            ctypes.POINTER(ctypes.c_uint64),  # keys (out)
        ]
    except AttributeError:
        return None
    return lib


def as_i64p(arr) -> ctypes.POINTER(ctypes.c_int64):  # type: ignore[valid-type]
    """C pointer to a contiguous int64 NumPy array's data."""
    return arr.ctypes.data_as(_I64P)


def as_f64p(arr) -> ctypes.POINTER(ctypes.c_double):  # type: ignore[valid-type]
    """C pointer to a contiguous float64 NumPy array's data."""
    return arr.ctypes.data_as(_F64P)


LIB = load()
