#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (see ``README.md`` here).

Run from the root of a checkout: ``python3 benchmarks/e2e/run.py``.
Pins BLAS to one thread before numpy loads — exactly as
``benchmarks/run_baseline.py`` does — and puts ``src/`` (the library)
and the checkout root (the ``benchmarks.e2e`` namespace package) on the
path, so neither ``PYTHONPATH`` nor an install is needed.  Worker
processes re-import this file under another name and inherit the pins
through the environment; only the guarded call below is skipped there.
"""

import os
import pathlib
import sys

#: One BLAS / OpenMP thread each, so wall-clock numbers measure the
#: library's kernels and not the BLAS pool.
SINGLE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(SINGLE_THREAD_ENV)

ROOT = pathlib.Path(__file__).resolve().parents[2]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"no library to measure: {ROOT / 'src' / 'repro'} is missing")
    from benchmarks.e2e.cli import run_process

    sys.exit(run_process())
