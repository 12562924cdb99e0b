"""Host ceilings, measured in the same process and under the same BLAS
pinning as the workloads: sustainable memory bandwidth (STREAM triad)
and single-thread dgemm peak.  A kernel rate is only stated against
these, never against a data-sheet number.
"""

from __future__ import annotations

import glob
import mmap
import os
import time

import numpy as np

#: The triad arrays must each be at least this many times the last-level
#: cache, or the "bandwidth" is a cache figure.
LLC_MULTIPLE: int = 4
#: ... but the three of them together take at most this share of the
#: memory the host can still give.
MEMORY_SHARE: float = 0.25
#: Best-of-k for both probes (the ceiling is the best the host can do,
#: not what a noisy neighbour left of it on one pass).
TRIAD_REPEATS: int = 3
DGEMM_REPEATS: int = 5
DGEMM_N: int = 1024


def _size_bytes(text: str) -> int:
    text = text.strip().upper()
    for suffix, scale in (("K", 1 << 10), ("M", 1 << 20), ("G", 1 << 30)):
        if text.endswith(suffix):
            return int(text[:-1]) * scale
    return int(text)


def last_level_cache_bytes() -> int:
    """Size of cpu0's highest-level data/unified cache per sysfs; 32 MiB
    when sysfs does not say (stated in the output either way)."""
    best_level, best_size = -1, 0
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "type")) as fh:
                if fh.read().strip() == "Instruction":
                    continue
            with open(os.path.join(index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(index, "size")) as fh:
                size = _size_bytes(fh.read())
        except (OSError, ValueError):
            continue
        if level > best_level:
            best_level, best_size = level, size
    return best_size or 32 << 20


def available_memory_bytes() -> int:
    """``MemAvailable`` of ``/proc/meminfo`` (0 when unreadable)."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) << 10
    except (OSError, ValueError):
        pass
    return 0


def _big_array(n: int, fill: float | None) -> np.ndarray:
    """``n`` doubles on anonymous pages that ask for huge pages where
    the kernel offers them.  First touch is what the probe costs — the
    hypervisor backs a guest page when it is first written, 3 s and more
    a gigabyte here — so an array that is only ever an output gets no
    fill: its first pass touches it, and best-of-k drops that pass."""
    buf = mmap.mmap(-1, n * 8)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        try:
            buf.madvise(mmap.MADV_HUGEPAGE)
        except OSError:
            pass
    out = np.frombuffer(buf, dtype=np.float64)
    if fill is not None:
        out[:] = fill
    return out


def triad_gbps(array_bytes: int) -> float:
    """Best-of-k ``a = b + s * c`` over three fp64 arrays of
    ``array_bytes`` each.  numpy spells the triad as two passes
    (``a = s*c``, ``a += b``), which move five array-lengths in all;
    the rate is computed from those bytes."""
    n = max(array_bytes // 8, 1)
    a, b, c = _big_array(n, None), _big_array(n, 1.0), _big_array(n, 2.0)
    best = float("inf")
    for _ in range(TRIAD_REPEATS):
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        best = min(best, time.perf_counter() - t0)
    if a[n // 2] != 7.0:
        raise AssertionError("triad computed the wrong value")
    return 5 * n * 8 / best / 1e9


def dgemm_gflops() -> float:
    """Best-of-k single-thread ``1024^3`` dgemm rate."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((DGEMM_N, DGEMM_N))
    b = rng.standard_normal((DGEMM_N, DGEMM_N))
    out = np.empty_like(a)
    best = float("inf")
    for _ in range(DGEMM_REPEATS):
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        best = min(best, time.perf_counter() - t0)
    return 2.0 * DGEMM_N ** 3 / best / 1e9


def calibrate(log=print) -> dict[str, float]:
    """The ``host.*`` per-layer metrics."""
    llc = last_level_cache_bytes()
    wanted = LLC_MULTIPLE * llc
    avail = available_memory_bytes()
    cap = int(avail * MEMORY_SHARE / 3) if avail else wanted
    array_bytes = min(wanted, cap)
    in_cache = array_bytes < wanted
    if in_cache:
        log(
            f"host: triad arrays capped at {array_bytes / 2**20:.0f} MiB "
            f"(wanted {wanted / 2**20:.0f} MiB = {LLC_MULTIPLE} x LLC); "
            "bandwidth is not a memory figure, roofline ratio withheld"
        )
    return {
        "host.triad_gbps": triad_gbps(array_bytes),
        "host.dgemm_gflops": dgemm_gflops(),
        "host.llc_mib": llc / 2**20,
        "host.triad_array_mib": array_bytes / 2**20,
        "host.triad_in_cache": float(in_cache),
        "host.nproc": float(os.cpu_count() or 1),
    }
