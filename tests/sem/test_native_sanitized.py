"""The compiled ``Ax`` source under AddressSanitizer and UBSan.

The element body reads rows as vector chunks through cast pointers;
an out-of-bounds or misaligned access there would give plausible
numbers in a normal build.  Here :data:`repro.sem.native._SOURCE` is
compiled with ``-fsanitize=address,undefined -fno-sanitize-recover=all``
into one executable with a small C driver that runs ``ax_native``,
``ax_gs_add`` and ``ax_gs_native`` on random data in buffers of exactly
the size the call may touch, each only ``sizeof(REAL)``-aligned.  Any
finding aborts the driver; two negative controls show that an overrun
and a misaligned operand do.  A toolchain without the sanitizer
runtimes skips, saying so.
"""

from __future__ import annotations

import functools
import os
import shutil
import subprocess
import tempfile

import numpy as np
import pytest

from repro.sem import native

DRIVER = r"""
#include <stdio.h>
#include <stdlib.h>

static unsigned long long state = 88172645463325252ull;

static double draw(void)  /* xorshift64: in [-0.5, 0.5) */
{
    state ^= state << 13, state ^= state >> 7, state ^= state << 17;
    return (double)(state >> 11) / 9007199254740992.0 - 0.5;
}

/* n values, filled, in a block that ends where they end, at an address
   aligned to sizeof(REAL) and no more */
static REAL *fresh(size_t n, REAL **block)
{
    *block = malloc((n + 1) * sizeof(REAL));
    for (size_t i = 0; i <= n; i++)
        (*block)[i] = (REAL)draw();
    return *block + 1;
}

int main(void)
{
    enum { NB = 2, NE = 3 };
    const ptrdiff_t nl = NE * N3, n = nl / 2 + 1;  /* nodes shared */
    const ptrdiff_t es = 6 * N3 * sizeof(REAL), cs = N3 * sizeof(REAL);
    REAL *blocks[9];
    REAL *D = fresh(NX * NX, &blocks[0]), *g = fresh(NE * 6 * N3, &blocks[1]);
    REAL *u = fresh(NB * nl, &blocks[2]), *w = fresh(NB * nl, &blocks[3]);
    REAL *ug = fresh(NB * n, &blocks[4]), *wg = fresh(NB * n, &blocks[5]);
    REAL *mask = fresh(n, &blocks[6]), *mass = fresh(nl, &blocks[7]);
    REAL *wm = fresh(NB * n, &blocks[8]);
    int64_t *l2g = malloc(nl * sizeof *l2g);
    for (ptrdiff_t p = 0; p < nl; p++)
        l2g[p] = (int64_t)((draw() + 0.5) * (double)n) % n;
    ax_native(NB, NE + OVERRUN, D, (REAL *)((char *)u + SHIFT),
              (const char *)g, es, cs, w);
    ax_gs_add(NB, NE, n, D, ug, NULL, l2g, (const char *)g, es, cs, NULL,
              0.0, wg);
    ax_gs_add(NB, NE, n, D, ug, mask, l2g, (const char *)g, es, cs, mass,
              0.5, wg);
    ax_gs_native(NB, NE, n, D, ug, mask, l2g, (const char *)g, es, cs,
                 mass, 0.5, wm);
    double sum = 0.0;
    for (ptrdiff_t i = 0; i < NB * nl; i++)
        sum += w[i];
    for (ptrdiff_t i = 0; i < NB * n; i++)
        sum += wg[i] + wm[i];
    printf("ok %g\n", sum);
    for (int b = 0; b < 9; b++)
        free(blocks[b]);
    free(l2g);
    return 0;
}
"""

#: The loader's flags for an executable, at ``-O1``: the accesses checked
#: are the source's, and the build takes about a second where ``-O2``'s
#: fully unrolled, instrumented body takes ~12 s at ``nx = 16``.
FLAGS = tuple(f for f in native._FLAGS if f not in ("-fPIC", "-shared")
              ) + ("-O1",)
SANITIZE = ("-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
            "-fno-sanitize-recover=all")
ENV = dict(os.environ, ASAN_OPTIONS="detect_leaks=0:abort_on_error=0",
           UBSAN_OPTIONS="print_stacktrace=1")


@functools.cache
def sanitizing_compiler() -> "tuple[str | None, str]":
    """The host's C compiler if it builds and runs a sanitized program,
    else ``(None, why not)``."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return None, "no C compiler on this host"
    with tempfile.TemporaryDirectory() as scratch:
        probe = os.path.join(scratch, "probe")
        built = subprocess.run(
            [cc, *SANITIZE, "-o", probe, "-x", "c", "-"],
            input=b"int main(void) { return 0; }", capture_output=True,
            timeout=120)
        if built.returncode:
            return None, (f"{cc} has no ASan/UBSan runtime: "
                          f"{built.stderr.decode(errors='replace')[-200:]}")
        ran = subprocess.run([probe], capture_output=True, env=ENV,
                             timeout=60)
        if ran.returncode:
            return None, (f"a sanitized program does not run here: "
                          f"{ran.stderr.decode(errors='replace')[-200:]}")
        return cc, ""


def run_driver(tmp_path, nx, dtype, overrun=0, shift=0):
    cc, why = sanitizing_compiler()
    if cc is None:
        pytest.skip(why)
    exe = tmp_path / "driver"
    built = subprocess.run(
        [cc, *FLAGS, *SANITIZE, f"-DNX={nx}",
         f"-DREAL={native._C_REAL[np.dtype(dtype)]}",
         f"-DOVERRUN={overrun}", f"-DSHIFT={shift}", "-o", str(exe), "-x", "c", "-"],
        input=(native._SOURCE + DRIVER).encode(), capture_output=True,
        timeout=300)
    assert built.returncode == 0, built.stderr.decode()
    return subprocess.run([str(exe)], capture_output=True, text=True,
                          env=ENV, timeout=120)


@pytest.mark.parametrize("dtype", (np.float64, np.float32))
@pytest.mark.parametrize("nx", (2, 4, 7, 8, 16))
def test_entry_points_run_clean(tmp_path, nx, dtype):
    ran = run_driver(tmp_path, nx, dtype)
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout.startswith("ok ") and "nan" not in ran.stdout


@pytest.mark.parametrize("overrun,shift,finding", (
    (1, 0, "AddressSanitizer: heap-buffer-overflow"),  # one element more
    (0, 1, "misaligned address"),  # u one byte off
))
def test_a_bad_operand_is_caught(tmp_path, overrun, shift, finding):
    ran = run_driver(tmp_path, 8, np.float64, overrun=overrun, shift=shift)
    assert ran.returncode != 0 and finding in ran.stderr
