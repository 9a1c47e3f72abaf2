"""Module entry point: ``python -m repro``."""

import sys

try:
    from . import _native  # noqa: F401  (builds or loads the kernels)
except ImportError as exc:  # no C compiler, or the build failed
    print(f"repro: {exc}", file=sys.stderr)
    raise SystemExit(2) from None

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
