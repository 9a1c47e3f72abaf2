"""Build-and-load shim for the compiled hot-path kernels.

``_kernels.c`` holds exact C restatements of the METIS kernels — one
greedy K-way refinement sweep (``kway_refine``, edge-cut or TotalVol
gain), the heavy-edge matching claim loop (``hem_claim``), graph
contraction (``contract``), subgraph extraction (``rb_extract``),
greedy graph growing (``rb_initial``) and rebalance + FM refinement
(``rb_refine``), which serve ``CSRGraph.subgraph``,
``greedy_graph_growing`` and ``fm_refine_bisection``; the whole
recursive bisection in one call (``rb_partition``, and ``rb_bisect``
for one multilevel bisection), which runs those stages, the
coarsening rounds, the split and their random streams itself; and
the METIS drivers' other random streams
(``rng_seed``, ``rng_permutations``, ``rng_integers``: NumPy's
``default_rng`` restated, see :mod:`repro.metis.rng`) — plus the SEAM
core's transport right-hand side (``transport_rhs``), its SSP-RK3
stage combination (``rk3_stage``), its DSS projection
(``dss_apply``) and the gather (which forms the stage itself), halo
exchange and scatter passes of the partitioned DSS (``pdss_gather``,
``pdss_exchange``, ``pdss_scatter``), SFC keying and the JSON text of int64 arrays
(``json_int_array``, for the server's response bodies; see that file
for the bit-identity contract) and its inverse (``json_int_arrays``,
for request bodies), and Table-2 metrics (``part_metrics``).  This
module compiles it once with the system C compiler into a
content-addressed cache directory and loads it through :mod:`ctypes` —
no third-party build machinery, no install step.

The library is required: importing this module compiles and loads it
or raises :class:`ImportError` naming the compiler that is missing or
failed.  Each kernel has this one implementation in the package; the
Python restatements it must match bit for bit are test oracles under
``tests/``.  :func:`check` turns a kernel's negative return codes into
exceptions.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import tempfile
from pathlib import Path

__all__ = ["LIB", "SIGNATURES", "check", "load"]

_SOURCE = Path(__file__).with_name("_kernels.c")
_I64P = ctypes.POINTER(ctypes.c_int64)
_VP = ctypes.c_void_p

# -ffp-contract=off: the float kernels (rk3_stage, dss_apply, pdss_*)
# promise bit-identity with their NumPy oracles, which never fuse a
# multiply-add into an FMA.  The one exception is transport_rhs, whose
# oracle is a BLAS GEMM that sums in FMA chains: it fuses on purpose,
# through explicit fma() calls and intrinsics this flag does not touch.
_CFLAGS = ["-O2", "-ffp-contract=off", "-shared", "-fPIC"]

#: Environment variable of extra compiler flags, split like a shell
#: line and appended to ``_CFLAGS`` (e.g. a sanitizer build).  The
#: library's cache tag covers them, so differently built libraries
#: never mix.
EXTRA_CFLAGS_ENV = "REPRO_CFLAGS"

#: Largest gain bound (total edge weight at one vertex) the bucket-queue
#: kernels accept; past it their bucket arrays grow unreasonably large.
MAX_BOUND = 1 << 22

#: uint64 words of one random stream's state in the rng_* kernels.
RNG_SLOTS = 6

_I64 = ctypes.c_int64
_U64P = ctypes.POINTER(ctypes.c_uint64)

#: Every kernel the library exports, with its argument types; each
#: returns int64.  METIS pointer params are void*: callers pass raw
#: addresses (ints, ``arr.ctypes.data``), skipping ctypes' per-call
#: POINTER conversion on the hot path.
SIGNATURES: dict[str, list] = {
    "kway_refine": [
        _I64,  # n
        _VP, _VP, _VP, _VP,  # indptr, indices, eweights, vweights
        _VP,  # perm
        _VP, _VP,  # assign, pweights (inout)
        _I64,  # len(pweights)
        _I64, _I64,  # cap, ideal_cap
        _I64,  # volume objective
    ],
    "hem_claim": [
        _I64,  # n
        _VP, _VP, _VP,  # indptr, indices, eweights
        _VP,  # order
        _VP,  # match (out)
    ],
    "contract": [
        _I64,  # n
        _VP, _VP, _VP, _VP,  # indptr, indices, eweights, vweights
        _VP,  # match
        _VP,  # fine_to_coarse (out)
        _VP, _VP, _VP, _VP,  # coarse csr arrays (out)
    ],
    "rb_extract": [
        _I64,  # n_parent
        _VP, _VP, _VP, _VP,  # parent indptr, indices, eweights, vweights
        _VP, _VP,  # ids, group vertex offsets
        _I64,  # group count
        _VP, _VP, _VP, _VP,  # union csr arrays (out)
        _VP, _VP,  # group edge offsets, group stats (out)
    ],
    "rb_initial": [
        _I64,  # n
        _VP, _VP, _VP, _VP,  # indptr, indices, eweights, vweights
        _I64,  # side-0 weight target
        _VP, _I64,  # start vertices, ntrials
        _I64,  # max_bound
        _VP,  # sides (out)
    ],
    "rb_refine": [
        _I64,  # n
        _VP, _VP, _VP, _VP,  # indptr, indices, eweights, vweights
        _VP,  # sides (inout)
        _I64, _I64,  # cap0, cap1
        _I64,  # max_passes
        _I64,  # max_bound
    ],
    # The recursive-bisection driver: the graph, a part count (or
    # rb_bisect's side-0 target), the base seed's uint32 words, the
    # ubfactor, 5 int64 tuning constants (see bisection.py), the
    # output and an optional per-depth timing table (NULL: none).
    "rb_partition": [
        _I64,  # n
        _VP, _VP, _VP, _VP,  # indptr, indices, eweights, vweights
        _I64,  # nparts
        _VP, _I64,  # seed words, word count
        ctypes.c_double,  # ubfactor
        _VP,  # tuning constants
        _VP,  # assignment (out)
        _VP,  # timing table (out) or NULL
    ],
    "rb_bisect": [
        _I64,  # n
        _VP, _VP, _VP, _VP,  # indptr, indices, eweights, vweights
        _I64,  # side-0 weight target
        _VP, _I64,  # seed words, word count
        ctypes.c_double,  # ubfactor
        _VP,  # tuning constants
        _VP,  # sides (out)
        _VP,  # timing row (out) or NULL
    ],
    # The DSS operator constants travel in a 7-slot int64 "plan" array
    # (see _kernels.c) to keep per-call marshalling at 5 arguments.
    "dss_apply": [
        _VP,  # plan
        _I64,  # ncomp
        _VP,  # field
        _VP, _VP,  # num scratch, out
    ],
    # nelem, np, diff, flux_u, flux_v, -1/J, q, out (all C-order
    # float64): the transport right-hand side.
    "transport_rhs": [_I64, _I64, _VP, _VP, _VP, _VP, _VP, _VP],
    # n, stage, dt, q, qk, r, out: one SSP-RK3 stage combination.
    "rk3_stage": [_I64, _I64, ctypes.c_double, _VP, _VP, _VP, _VP],
    # The partitioned DSS passes share one 8-slot int64 plan (see
    # _kernels.c); the gather takes (stage, dt, q, qk, r), the stage of
    # rk3_stage it sums, the others one input and one output.
    "pdss_gather": [_VP, _I64, ctypes.c_double, _VP, _VP, _VP, _VP],
    "pdss_exchange": [_VP, _VP, _VP],  # plan, partials, totals (out)
    "pdss_scatter": [_VP, _VP, _VP],  # plan, totals (inout), out
    "sfc_keys": [
        _I64,  # npts
        _I64,  # nlevels
        _I64P,  # packed level tables (nlevels x 66)
        _I64,  # domain side n
        _I64P, _I64P,  # x, y coordinates
        _U64P,  # keys (out)
    ],
    "sfc_face_keys": [
        _I64,  # npts
        _I64,  # nlevels
        _I64P,  # packed level tables (nlevels x 66)
        _I64,  # ne (face side length)
        _I64P, _I64P,  # chain rank (6), chain coef (6 x 6)
        _I64P,  # gids
        _U64P,  # keys (out)
    ],
    "json_int_array": [
        _I64,  # n
        _VP,  # int64 values
        _VP,  # text (out, 2 + 22 n bytes)
    ],
    "json_int_arrays": [
        _I64,  # len(text)
        _VP,  # text (bytes)
        _VP,  # spans (out, rows of [start, stop, count])
        _VP,  # int64 values (out)
    ],
    # n, csr (vweights may be NULL), nnz, assignment, nparts, rows and cuts (out).
    "part_metrics": [_I64, _VP, _VP, _VP, _VP, _I64, _VP, _I64, _VP, _VP],
    # NumPy default_rng streams: RNG_SLOTS uint64 words of state each.
    "rng_seed": [
        _I64,  # stream count
        _VP, _VP,  # uint32 seed words, per-stream word offsets
        _VP,  # states (out)
    ],
    "rng_permutations": [
        _I64, _VP,  # stream count, states (inout)
        _VP,  # permutation sizes
        _VP,  # permutations, back to back (out)
    ],
    "rng_integers": [
        _I64, _VP,  # stream count, states (inout)
        _VP,  # exclusive upper bounds
        _I64,  # draws per stream
        _VP,  # draws (out, streams x draws)
    ],
}


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME")
    if base:
        return Path(base) / "repro-kernels"
    home = Path.home()
    if os.access(home, os.W_OK):
        return home / ".cache" / "repro-kernels"
    return Path(tempfile.gettempdir()) / f"repro-kernels-{os.getuid()}"


def _cflags() -> list[str]:
    """``_CFLAGS`` plus the extra flags of :data:`EXTRA_CFLAGS_ENV`."""
    return [*_CFLAGS, *shlex.split(os.environ.get(EXTRA_CFLAGS_ENV, ""))]


def _compile(source: Path, out: Path, cflags: list[str]) -> None:
    """Compile ``source`` with ``cflags`` into the shared library ``out``.

    Raises:
        ImportError: No C compiler was found, or it failed; the message
            names the compiler.
    """
    cc = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise ImportError(
            "repro needs a C compiler to build its kernels: none found "
            "(set CC, or install cc/gcc)"
        )
    tmp = out.with_name(f"{out.stem}.{os.getpid()}.tmp{out.suffix}")
    try:
        subprocess.run(
            [cc, *cflags, "-o", str(tmp), str(source)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp, out)
    except subprocess.CalledProcessError as exc:
        tmp.unlink(missing_ok=True)
        detail = exc.stderr.decode(errors="replace").strip()
        raise ImportError(
            f"C compiler {cc!r} failed to build the repro kernels: {detail}"
        ) from exc
    except (OSError, subprocess.SubprocessError) as exc:
        tmp.unlink(missing_ok=True)
        raise ImportError(
            f"C compiler {cc!r} could not build the repro kernels: {exc}"
        ) from exc


def load() -> ctypes.CDLL:
    """Compile (if needed) and load the kernel library.

    Raises:
        ImportError: The library cannot be built or loaded.
    """
    source_text = _SOURCE.read_bytes()
    cflags = _cflags()
    tag = hashlib.sha256(source_text + " ".join(cflags).encode()).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = cache / f"kernels-{tag}.so"
    if not lib_path.exists():
        try:
            cache.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ImportError(f"cannot create the kernel cache {cache}: {exc}") from exc
        _compile(_SOURCE, lib_path, cflags)
    try:
        lib = ctypes.CDLL(str(lib_path))
        for name, argtypes in SIGNATURES.items():
            fn = getattr(lib, name)
            fn.restype = ctypes.c_int64
            fn.argtypes = argtypes
    except (OSError, AttributeError) as exc:
        raise ImportError(f"cannot load the kernel library {lib_path}: {exc}") from exc
    return lib


#: What each negative kernel return code means.
_ERRORS = {
    -1: (MemoryError, "a compiled kernel could not allocate its scratch"),
    -2: (
        ValueError,
        "subgraph vertex ids must be strictly ascending and lie in the graph",
    ),
    -3: (
        ValueError,
        "a vertex's total edge weight (the gain bound) exceeds "
        f"MAX_BOUND = {MAX_BOUND}",
    ),
    -4: (
        ValueError,
        "a random draw needs a size >= 0, a bound in [1, 2^32] and a seed word",
    ),
    -5: (
        ValueError,
        "target_left must be strictly between 0 and total weight",
    ),
    -6: (ValueError, "vertex weights too large for exact split targets"),
    -7: (ValueError, "CSR offsets must ascend within the edge arrays; "
         "ids must be in range"),
    -8: (ValueError, "an SSP-RK3 stage must be 0, 1, 2 or 3"),
    -9: (
        ValueError,
        "transport_rhs needs nelem >= 0 and 2 <= np <= 2^20 points per edge",
    ),
}


def check(rc: int) -> int:
    """Return a kernel's result ``rc``, raising if it is an error code.

    Raises:
        MemoryError: ``-1``, an allocation failed.
        ValueError: ``-2``, subgraph ids not strictly ascending, out of
            range or repeated; ``-3``, a gain bound above
            :data:`MAX_BOUND`; ``-4``, a negative permutation size, an
            ``integers`` bound outside ``[1, 2^32]`` or an empty seed;
            ``-5``, a bisection's weight target not strictly between 0
            and its graph's weight; ``-6``, vertex weights so large
            that a split target's float is inexact; ``-7``, a CSR offset,
            neighbour id or part id out of range in ``part_metrics``;
            ``-8``, an RK3 stage outside 0..3; ``-9``, a transport
            right-hand side of negative element count or of fewer than
            2 or more than 2^20 points per element edge.
    """
    if rc < 0:
        exc, message = _ERRORS[rc]
        raise exc(message)
    return rc


def as_i64p(arr) -> ctypes.POINTER(ctypes.c_int64):  # type: ignore[valid-type]
    """C pointer to a contiguous int64 NumPy array's data."""
    return arr.ctypes.data_as(_I64P)


LIB = load()
