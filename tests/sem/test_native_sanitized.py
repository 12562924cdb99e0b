"""The compiled sources under AddressSanitizer, UBSan and ThreadSanitizer.

The element body reads rows as vector chunks through cast pointers;
an out-of-bounds or misaligned access there would give plausible
numbers in a normal build.  Here :data:`repro.sem.native._SOURCE` is
compiled with ``-fsanitize=address,undefined -fno-sanitize-recover=all``
into one executable with a small C driver that runs ``ax_native``,
``ax_gs_add``, ``ax_gs_replay`` and ``ax_gs_native`` on random data in
buffers of exactly the size the call may touch, each only
``sizeof(REAL)``-aligned.  The fused pass's operands reach them in a
``struct ax_pass`` of the library's own header (``native._PASS``, part
of the source), so no field can drift.  The pass runs on a real box,
two elements sharing a face and addressed by origin and strides, with the
mask on one outer face, so one element multiplies by the mask and the
other skips it; then as the two parts of a split at that face and the
replay, which must give the whole pass's bytes.  Any finding aborts the
driver; two negative controls show that an overrun (an element origin
one row past the end) and a misaligned operand do.

:data:`_CG_SOURCE`'s vector passes read and write each full block of 8
nodes through a cast pointer too.  A second driver runs ``cg_dot``,
``cg_step`` (with and without a Jacobi diagonal) and ``cg_dir`` under
the same sanitizers on rows of 1, 7, 8, 9, 15, 17 and 1001 nodes, one
and three rows, in exactly-sized, ``sizeof(REAL)``-aligned buffers; a
source whose full-block loop runs one block further must be reported as
a heap buffer overflow.

The split CG loop runs under ``-fsanitize=thread``: :data:`_SOURCE` and
:data:`_CG_SOURCE` in one executable whose driver runs ``cg_solve`` on
the same box, masked and Jacobi-preconditioned, every pass as two
parts — the fused pass split at the shared face, one element per part,
the vector passes at each row's halves — the second part on whichever
thread claims it first, and must run clean.  Two negative controls
must be reported as a data race: a split at a plane inside the first
element, so both fused parts write the same rows (the operator is then
wrong and the solve soon breaks down, so the driver starts it again
until its iterations are run), and a source whose second half of a row
starts 8 nodes early, so both vector parts do.
A toolchain without the sanitizer runtimes skips, saying so.
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

HELPERS = r"""
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

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
"""

DRIVER = HELPERS + r"""
int main(void)
{
    /* two elements sharing a face along x, numbered z-fastest: node
       (i, j, k) of element e is global node org[e] + i*NX*NX + j*NX + k */
    enum { NB = 2, NE = 2 };
    const ptrdiff_t nl = NE * N3, n = (2 * NX - 1) * NX * NX;
    const ptrdiff_t es = 6 * N3 * sizeof(REAL), cs = N3 * sizeof(REAL);
    REAL *blocks[11];
    REAL *D = fresh(NX * NX, &blocks[0]), *g = fresh(NE * 6 * N3, &blocks[1]);
    REAL *u = fresh(NB * nl, &blocks[2]), *w = fresh(NB * nl, &blocks[3]);
    REAL *ug = fresh(NB * n, &blocks[4]), *wg = fresh(NB * n, &blocks[5]);
    REAL *mask = fresh(n, &blocks[6]), *mass = fresh(nl, &blocks[7]);
    REAL *wm = fresh(NB * n, &blocks[8]), *ws = fresh(NB * n, &blocks[9]);
    REAL *stash = fresh(NE * NB * NX * NX, &blocks[10]);
    int64_t *org = malloc(NE * sizeof *org), slot[NE] = {0, 1};
    unsigned char *edge = malloc(NE);
    for (ptrdiff_t i = 0; i < n; i++)  /* 0 on element 0's face x = 0 */
        mask[i] = (REAL)(i >= NX * NX);
    org[0] = 0, org[1] = (NX - 1) * NX * NX + OVERRUN * NX;
    edge[0] = 1, edge[1] = 0;
    /* the pass without mask and mass term, then with both, split at the
       shared face x = NX - 1 */
    struct ax_pass bare = {
        .ne = NE, .n = n, .s0 = NX * NX, .s1 = NX, .g_estride = es,
        .g_cstride = cs, .plane = -1, .D = D, .org = org,
        .g = (const char *)g};
    struct ax_pass a = bare;
    a.mask = mask, a.edge = edge, a.mass = mass, a.lam = 0.5;
    a.plane = NX - 1, a.slot = slot;
    ax_gs_add(&bare, NB, ug, -1, NULL, wg);
    ax_gs_add(&a, NB, ug, -1, NULL, wg);
    ax_gs_native(&a, NB, ug, wm);
    /* the same pass as its two parts, one element a part: the whole
       pass's bytes */
    for (int part = 0; part < 2; part++)
        ax_gs_add(&a, NB, ug, part, stash, ws);
    ax_gs_replay(&a, NB, stash, ws);
    if (memcmp(ws, wg, NB * n * sizeof *ws))
        return puts("split != whole"), 1;
    ax_native(NB, NE, D, (REAL *)((char *)u + SHIFT), (const char *)g, es,
              cs, w);
    double sum = 0.0;
    for (ptrdiff_t i = 0; i < NB * nl; i++)
        sum += w[i];
    for (ptrdiff_t i = 0; i < NB * n; i++)
        sum += wg[i] + wm[i];
    printf("ok %g\n", sum);
    for (int b = 0; b < 11; b++)
        free(blocks[b]);
    free(org);
    free(edge);
    return 0;
}
"""

CG_DRIVER = HELPERS + r"""
int main(void)
{
    /* every vector pass, nb rows of n, on buffers of exactly nb * n
       (step: nb) values, each only sizeof(REAL)-aligned: a full block
       of 8, none, a ragged tail, both halves of a row */
    static const ptrdiff_t sizes[] = {1, 7, 8, 9, 15, 17, 1001};
    double sum = 0.0;
    for (ptrdiff_t nb = 1; nb <= 3; nb += 2)
        for (int c = 0; c < (int)(sizeof sizes / sizeof *sizes); c++) {
            const ptrdiff_t n = sizes[c], nv = nb * n;
            REAL *blocks[7];
            REAL *x = fresh(nv, &blocks[0]), *r = fresh(nv, &blocks[1]);
            REAL *z = fresh(nv, &blocks[2]), *p = fresh(nv, &blocks[3]);
            REAL *ap = fresh(nv, &blocks[4]), *invm = fresh(nv, &blocks[5]);
            REAL *step = fresh(nb, &blocks[6]);
            double *out = malloc(3 * nb * sizeof *out);
            for (ptrdiff_t i = 0; i < nv; i++)
                invm[i] = (REAL)(1.0 + 0.5 * draw());
            cg_dot(nb, n, p, ap, out);
            cg_step(nb, n, step, p, ap, invm, x, r, z, out + nb,
                    out + 2 * nb);
            cg_step(nb, n, step, p, ap, NULL, x, r, r, out + nb,
                    out + 2 * nb);
            cg_dir(nb, n, step, z, p);
            for (ptrdiff_t i = 0; i < nv; i++)
                sum += x[i] + p[i];
            for (ptrdiff_t k = 0; k < 3 * nb; k++)
                sum += out[k];
            for (int b = 0; b < 7; b++)
                free(blocks[b]);
            free(out);
        }
    printf("ok %g\n", sum);
    return 0;
}
"""

SPLIT_DRIVER = HELPERS + r"""
int main(void)
{
    /* the two-element box of the ASan driver, an SPD operator on it
       (diagonal G and mass term), the mask on element 0's face x = 0 and
       a Jacobi diagonal, PLANE the split, CAP iterations */
    enum { NB = 2, NE = 2 };
    const ptrdiff_t n = (2 * NX - 1) * NX * NX, nv = NB * n;
    REAL *D = malloc(NX * NX * sizeof *D), *g = calloc(NE * 6 * N3, sizeof *g);
    REAL *mass = malloc(NE * N3 * sizeof *mass);
    REAL *x = malloc(nv * sizeof *x), *r = malloc(nv * sizeof *r);
    REAL *z = malloc(nv * sizeof *z), *invm = malloc(nv * sizeof *invm);
    REAL *p = malloc(nv * sizeof *p), *ap = malloc(nv * sizeof *ap);
    REAL *mask = malloc(n * sizeof *mask);
    REAL *stash = malloc(NE * NB * NX * NX * sizeof *stash);
    REAL step[NB];
    double rz[NB], pap[NB], coef[NB], res[NB], stop[NB] = {0};
    double history[CAP * NB];
    unsigned char active[NB], exhausted[NB];
    int64_t iterations[NB], org[NE] = {0, (NX - 1) * NX * NX};
    int64_t slot[NE] = {0, 1};
    unsigned char edge[NE] = {1, 0};
    for (ptrdiff_t i = 0; i < n; i++)
        mask[i] = (REAL)(i >= NX * NX);
    for (int i = 0; i < NX * NX; i++)
        D[i] = (REAL)draw();
    for (int e = 0; e < NE; e++)
        for (int c = 0; c < 6; c += c == 0 ? 3 : 2)  /* G = diag */
            for (int i = 0; i < N3; i++)
                g[(e * 6 + c) * N3 + i] = (REAL)(1.0 + 0.1 * draw());
    for (int i = 0; i < NE * N3; i++)
        mass[i] = (REAL)(1.0 + 0.1 * draw());
    const struct ax_pass a = {
        .ne = NE, .n = n, .s0 = NX * NX, .s1 = NX,
        .g_estride = 6 * N3 * sizeof(REAL), .g_cstride = N3 * sizeof(REAL),
        .plane = PLANE, .D = D, .mask = mask, .mass = mass, .org = org,
        .slot = slot, .edge = edge, .g = (const char *)g, .lam = 0.5,
        .add = ax_gs_add, .replay = ax_gs_replay};
    struct cg_loop s = {
        .nb = NB, .n = n, .cap = CAP, .x = x, .r = r, .z = z, .p = p,
        .ap = ap, .step = step, .invm = invm, .rz = rz, .pap = pap,
        .coef = coef,
        .res = res, .history = history, .stop = stop, .active = active,
        .exhausted = exhausted, .iterations = iterations, .fused = &a,
        .stash = stash, .split = 1};
    /* A plane inside an element breaks the operator, and the solve soon
       breaks down: it starts again until CAP iterations have run in all,
       so the helper has as many rounds to claim as in a clean run. */
    int status;
    ptrdiff_t run = 0;
    do {
        for (ptrdiff_t i = 0; i < nv; i++) {
            x[i] = 0;
            r[i] = (REAL)draw() * mask[i % n];
            invm[i] = (REAL)(1.0 + 0.1 * draw());
            p[i] = z[i] = r[i] * invm[i];
        }
        cg_dot(NB, n, r, z, rz);
        for (int k = 0; k < NB; k++)
            active[k] = 1, exhausted[k] = 0, iterations[k] = 0, coef[k] = 0;
        s.it = 0, s.history = history;
        status = cg_solve(&s);
        run += s.it + 1;
    } while (status && run < CAP);
    printf("ok %d %td %g\n", status, s.it, res[0] + res[1]);
    free(D), free(g), free(mass), free(x), free(r), free(z), free(invm);
    free(p), free(ap), free(mask), free(stash);
    return status;
}
"""

#: The loader's flags for an executable, at ``-O1``: the accesses checked
#: are the source's, and the build takes about a second where ``-O2``'s
#: fully unrolled, instrumented body takes ~12 s at ``nx = 16``.
FLAGS = tuple(f for f in native._FLAGS if f not in ("-fPIC", "-shared")
              ) + ("-O1",)
SANITIZE = ("-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
            "-fno-sanitize-recover=all")
THREADS = ("-g", "-fno-omit-frame-pointer", "-fsanitize=thread", "-pthread")
ENV = dict(os.environ, ASAN_OPTIONS="detect_leaks=0:abort_on_error=0",
           UBSAN_OPTIONS="print_stacktrace=1", TSAN_OPTIONS="exitcode=66")


@functools.cache
def sanitizing_compiler(sanitize=SANITIZE) -> "tuple[str | None, str]":
    """The host's C compiler if it builds and runs a program under the
    ``sanitize`` flags, else ``(None, why not)``."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return None, "no C compiler on this host"
    with tempfile.TemporaryDirectory() as scratch:
        probe = os.path.join(scratch, "probe")
        built = subprocess.run(
            [cc, *sanitize, "-o", probe, "-x", "c", "-"],
            input=b"int main(void) { return 0; }", capture_output=True,
            timeout=120)
        if built.returncode:
            return None, (f"{cc} has no {' '.join(sanitize)} runtime: "
                          f"{built.stderr.decode(errors='replace')[-200:]}")
        ran = subprocess.run([probe], capture_output=True, env=ENV,
                             timeout=60)
        if ran.returncode:
            return None, (f"a sanitized program does not run here: "
                          f"{ran.stderr.decode(errors='replace')[-200:]}")
        return cc, ""


def build_and_run(tmp_path, sanitize, source, *defines):
    """``source`` built with :data:`FLAGS`, ``sanitize`` and ``defines``
    into one executable, and its run; skips where ``sanitize`` has no
    runtime here."""
    cc, why = sanitizing_compiler(sanitize)
    if cc is None:
        pytest.skip(why)
    exe = tmp_path / "driver"
    built = subprocess.run(
        [cc, *FLAGS, *sanitize, *defines, "-o", str(exe), "-x", "c", "-",
         "-lm"],
        input=source.encode(), capture_output=True, timeout=300)
    assert built.returncode == 0, built.stderr.decode()
    return subprocess.run([str(exe)], capture_output=True, text=True,
                          env=ENV, timeout=120)


def real(dtype) -> str:
    return f"-DREAL={native._C_REAL[np.dtype(dtype)]}"


def run_driver(tmp_path, nx, dtype, overrun=0, shift=0):
    return build_and_run(
        tmp_path, SANITIZE, native._SOURCE + DRIVER, f"-DNX={nx}",
        real(dtype), f"-DOVERRUN={overrun}", f"-DSHIFT={shift}")


@pytest.mark.parametrize("dtype", (np.float64, np.float32))
@pytest.mark.parametrize("nx", (2, 4, 7, 8, 16))
def test_entry_points_run_clean(tmp_path, nx, dtype):
    ran = run_driver(tmp_path, nx, dtype)
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout.startswith("ok ") and "nan" not in ran.stdout


@pytest.mark.parametrize("overrun,shift,finding", (
    (1, 0, "AddressSanitizer: heap-buffer-overflow"),  # org a row past n
    (0, 1, "misaligned address"),  # u one byte off
))
def test_a_bad_operand_is_caught(tmp_path, overrun, shift, finding):
    ran = run_driver(tmp_path, 8, np.float64, overrun=overrun, shift=shift)
    assert ran.returncode != 0 and finding in ran.stderr


def run_cg(tmp_path, dtype, cg_source=native._CG_SOURCE):
    return build_and_run(tmp_path, (*SANITIZE, "-pthread"),
                         cg_source + CG_DRIVER, real(dtype))


@pytest.mark.parametrize("dtype", (np.float64, np.float32))
def test_the_cg_passes_run_clean(tmp_path, dtype):
    """``cg_dot``, ``cg_step`` with and without ``invm`` and ``cg_dir``
    on n in {1, 7, 8, 9, 15, 17, 1001}, nb in {1, 3}: every full block
    of 8 a vector load or store, every tail node by node."""
    ran = run_cg(tmp_path, dtype)
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout.startswith("ok ") and "nan" not in ran.stdout


def test_a_block_past_the_row_is_caught(tmp_path):
    """The full-block loop bound loosened by one block: the last block
    of the last row reads and writes past its end."""
    bound = "i + 8 <= hi"
    assert native._CG_SOURCE.count(bound) == 1
    ran = run_cg(tmp_path, np.float64, native._CG_SOURCE.replace(
        bound, "i + 8 <= hi + 8"))
    assert ran.returncode != 0
    assert "AddressSanitizer: heap-buffer-overflow" in ran.stderr


def run_split(tmp_path, nx, dtype, plane, cg_source=native._CG_SOURCE,
              cap=6):
    return build_and_run(
        tmp_path, THREADS, native._SOURCE + cg_source + SPLIT_DRIVER,
        f"-DNX={nx}", real(dtype), f"-DPLANE={plane}", f"-DCAP={cap}")


@pytest.mark.parametrize("dtype", (np.float64, np.float32))
@pytest.mark.parametrize("nx", (2, 8))
def test_the_split_loop_runs_clean_under_tsan(tmp_path, nx, dtype):
    """Split at the shared face x = nx - 1: one element a part, and every
    vector pass at the rows' halves for six iterations, with a mask and a
    Jacobi diagonal (at nx = 8 both halves of a row hold nodes; at
    nx = 2, n = 12 and the first half is empty)."""
    ran = run_split(tmp_path, nx, dtype, plane=nx - 1)
    assert ran.returncode == 0, ran.stderr
    assert "ThreadSanitizer" not in ran.stderr
    assert ran.stdout.startswith("ok 0 6 ") and "nan" not in ran.stdout


def test_parts_that_write_the_same_rows_are_a_data_race(tmp_path):
    """Plane 1 is inside element 0, whose rows above it part 1 zeroes
    and adds to as well.  Part 1 runs on the helper only where the
    helper claims it first, which on one CPU it may never do, and a busy
    host may run many rounds before it does: 300 iterations, as for the
    halves below."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: the parts may never run at once")
    ran = run_split(tmp_path, 8, np.float64, plane=1, cap=300)
    assert ran.returncode != 0
    assert "ThreadSanitizer: data race" in ran.stderr


def test_halves_that_overlap_are_a_data_race(tmp_path):
    """The vector passes' part 1 starting 8 nodes below the half, so
    both parts update ``x``, ``r``, ``z`` and ``p`` there.  A vector part
    is short, so a busy host may run many rounds before the helper
    claims one: 300 iterations, 900 of them."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: the parts may never run at once")
    ranges = "lo = part ? h : 0"
    assert native._CG_SOURCE.count(ranges) == 1
    ran = run_split(tmp_path, 8, np.float64, plane=7, cg_source=(
        native._CG_SOURCE.replace(ranges, "lo = part ? h - 8 : 0")), cap=300)
    assert ran.returncode != 0
    assert "ThreadSanitizer: data race" in ran.stderr
