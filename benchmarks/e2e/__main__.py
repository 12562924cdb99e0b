"""``python -m benchmarks.e2e`` — the same command as ``run.py``."""

import sys

from benchmarks.e2e import run  # noqa: F401  (pins BLAS, extends sys.path)

if __name__ == "__main__":
    from benchmarks.e2e.cli import run_process

    sys.exit(run_process())
