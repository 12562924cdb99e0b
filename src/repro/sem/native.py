"""The compiled streaming passes of a solve: ``Ax`` and the CG vector half.

The paper's accelerator streams each element through gradient →
geometric factors → divergence on chip; :data:`_SOURCE` is the host
twin of that pipeline.  Its working set is one element (``u``, six
factors, three stack-resident flux arrays, ``w``: 11 ``nx^3`` blocks),
so memory sees each operand exactly once; it uses no heap and no
globals, and ``ctypes.CDLL`` releases the GIL around the call.  Its
second entry point takes the pipeline one layer further out, as the
accelerator does: each element's ``u`` is gathered from the global
vector into a stack block and its ``w`` added straight back into the
global result, so no element-local field reaches memory at all — and
a Helmholtz operator's mass term ``lam * B u`` is added in the element
on the way.

:data:`_CG_SOURCE` is the other half of an iteration in the same
style: ``p.Ap``, then ``x``/``r``/``z`` with ``r.z`` and ``r.r`` folded
into the sweep that produces them, then ``p`` — each operand once per
pass, 9 reads + 4 writes where twelve numpy calls made 17 + 7, each
full block of 8 nodes one vector operation (GCC vector extensions, as
in the element body) — and ``cg_solve``, the loop around them: the
stopping test, the freezing of finished rows and the scalar
recurrence, with ``A p`` from the fused pass (its closing mask folded
into the ``p.Ap`` sweep) or from a Python callback.  Every sum is taken
in two fixed halves of its row, each in eight fp64 lanes, and the
halves added.  With the fused pass a whole
solve is one call, and the GIL stays released from its first iteration
to its last; the call may run every pass as two parts on two threads —
the fused pass split at a node plane
(:func:`~repro.sem.gather_scatter.split_plane`), the vector passes at
the rows' halves — with the bits of one thread.

The fused pass's operands are one C struct in both sources, ``struct
ax_pass`` (:data:`_PASS`), which the CG loop holds one pointer to.
:func:`ax_kernel`, :func:`ax_gs_kernel`, :class:`AxPass` (the struct's
``ctypes`` mirror) and :func:`cg_passes` are the whole interface: one
shared object per ``(nx, dtype)`` (the ``Ax`` entry points) and one per
dtype, built with the host's C compiler on first use.  They are the
only executing path, so a C compiler is required: an ``nx`` above
:data:`MAX_NX` or a dtype other than native fp64 / fp32 is a
``ValueError``, and a build that fails is a ``RuntimeError`` naming the
compiler and the end of what it said.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import hashlib
import os
import shlex
import shutil
import stat
import subprocess
import tempfile
import threading
from typing import Callable

import numpy as np

from repro.analysis.annotations import hot_path

#: Largest ``nx`` compiled: a call keeps at most five ``nx^3`` blocks on
#: the stack — the three flux arrays, plus the gathered ``u`` and the
#: element's ``w`` of the fused call (``5 * 16^3`` doubles = 160 KiB) —
#: and no workspace buffer.
MAX_NX: int = 16

#: The element body spells out its vectors (GCC vector extensions) and
#: its unrolling (``#pragma GCC unroll``): no autovectoriser is needed,
#: and the bits are the source's — gcc 12.2's ``-O3`` build gives the
#: ``-O2`` build's bytes (``tests/sem/test_native.py``).  A compiler
#: without the vector extensions fails the build.
_FLAGS: tuple[str, ...] = ("-O2", "-march=native", "-fPIC", "-shared")

_C_REAL = {np.dtype(np.float64): "double", np.dtype(np.float32): "float"}

#: ``struct ax_pass``, in every C source that takes the fused pass.
_PASS = r"""
#ifndef AX_PASS
#define AX_PASS
#include <stddef.h>
#include <stdint.h>
/* One operator in one dtype as the fused pass, field for field
   native.AxPass: w = Q^T (D^T G D + lam B) Q (mask * u) over ne elements
   and n global nodes, node (i, j, k) of element e being global node
   org[e] + i*s0 + j*s1 + k, and component c of its geometry the block
   at byte offset e*g_estride + c*g_cstride from g.  mask == NULL: no
   mask, else only elements with edge[e] != 0 (a node's mask is not 1)
   multiply by it; mass == NULL: no mass term, else B, (ne, N3).  plane
   < 0: no split, else the node plane [plane*s0, (plane+1)*s0), an
   element face, to split at, slot[e] the stash slot of element e's row
   on it (-1: none).  add, replay: ax_gs_add, ax_gs_replay of the shared
   object built for the pass's NX. */
struct ax_pass {
    ptrdiff_t ne, n, s0, s1, g_estride, g_cstride, plane;
    const REAL *D, *mask, *mass;
    const int64_t *org, *slot;
    const unsigned char *edge;
    const char *g;
    double lam;
    void (*add)(const struct ax_pass *, ptrdiff_t, const REAL *, int,
                REAL *, REAL *);
    void (*replay)(const struct ax_pass *, ptrdiff_t, const REAL *,
                   REAL *);
};
#endif
"""

_SOURCE = _PASS + r"""
#define N3 (NX * NX * NX)
#define AT(a, b, c) (((a) * NX + (b)) * NX + (c))
/* A row of NX values is NC chunks of VL lanes, VL the largest power of
   two <= NX that one vector register holds, the last chunk flush with
   the row's end: where it overlaps the one before, both compute the
   same lanes from the same operands in the same order, so the same
   bits.  JB rows are blocked together: 4, 2 or 1, the most that divide
   NX with JB * NC <= 4, so the gradient's accumulators fit 16
   registers. */
#define P2 (NX >= 16 ? 16 : NX >= 8 ? 8 : NX >= 4 ? 4 : NX >= 2 ? 2 : 1)
#define VMAX ((int)(__BIGGEST_ALIGNMENT__ / sizeof(REAL)))
#define VL (P2 < VMAX ? P2 : VMAX)
#define NC ((NX + VL - 1) / VL)
#define JB (NX % 4 == 0 && NC == 1 ? 4 : NX % 2 == 0 && NC <= 2 ? 2 : 1)
#define OFF(c) ((c) + 1 < NC ? (c) * VL : NX - VL)
#define LD(a, i, j, c) (*(const chunk *)((a) + AT(i, j, OFF(c))))
#define ST(a, i, j, c) (*(chunk *)((a) + AT(i, j, OFF(c))))
#define UNROLL _Pragma("GCC unroll 16")
typedef REAL chunk
    __attribute__((vector_size(VL * sizeof(REAL)), aligned(sizeof(REAL))));

/* we = D^T G D ue on one element; Dt is D transposed, gc[c] the
   element's component c of G.  JB rows (i, j0.., :) at a time, each
   chunk of each with its own accumulator: 3 * JB * NC independent FMA
   chains in the gradient, JB * NC in the divergence.  Every value is a
   chain of single-product updates acc += c * v from zero, so
   contraction has exactly one FMA to form at each step: the bits are
   the source's, whatever the -O level.  Never inlined: both entry
   points run this one copy of the machine code, so the same ue gives
   the same bits through either. */
static __attribute__((noinline)) void element(
    const REAL *restrict D, const REAL *restrict Dt,
    const REAL *const gc[6], const REAL *restrict ue, REAL *restrict we)
{
    REAL wr[N3], ws[N3], wt[N3];
    for (int i = 0; i < NX; i++)
        for (int j0 = 0; j0 < NX; j0 += JB) {
            /* gradient of rows (i, j0.., :), then G while they are hot */
            chunk r[JB][NC] = {0}, s[JB][NC] = {0}, t[JB][NC] = {0};
            UNROLL for (int l = 0; l < NX; l++)
                UNROLL for (int b = 0; b < JB; b++)
                    UNROLL for (int c = 0; c < NC; c++) {
                        r[b][c] += D[i * NX + l] * LD(ue, l, j0 + b, c);
                        s[b][c] += D[(j0 + b) * NX + l] * LD(ue, i, l, c);
                        t[b][c] += LD(Dt, 0, l, c) * ue[AT(i, j0 + b, l)];
                    }
            UNROLL for (int b = 0; b < JB; b++)
                UNROLL for (int c = 0; c < NC; c++) {
                    const int j = j0 + b;
                    chunk x = {0}, y = {0}, z = {0};
                    x += LD(gc[0], i, j, c) * r[b][c];
                    y += LD(gc[1], i, j, c) * r[b][c];
                    z += LD(gc[2], i, j, c) * r[b][c];
                    x += LD(gc[1], i, j, c) * s[b][c];
                    y += LD(gc[3], i, j, c) * s[b][c];
                    z += LD(gc[4], i, j, c) * s[b][c];
                    x += LD(gc[2], i, j, c) * t[b][c];
                    y += LD(gc[4], i, j, c) * t[b][c];
                    z += LD(gc[5], i, j, c) * t[b][c];
                    ST(wr, i, j, c) = x, ST(ws, i, j, c) = y;
                    ST(wt, i, j, c) = z;
                }
        }
    for (int i = 0; i < NX; i++)
        for (int j0 = 0; j0 < NX; j0 += JB) {
            /* divergence: the three transposed contractions */
            chunk a[JB][NC] = {0};
            UNROLL for (int l = 0; l < NX; l++)
                UNROLL for (int b = 0; b < JB; b++)
                    UNROLL for (int c = 0; c < NC; c++) {
                        a[b][c] += D[l * NX + i] * LD(wr, l, j0 + b, c);
                        a[b][c] += D[l * NX + j0 + b] * LD(ws, i, l, c);
                        a[b][c] += LD(D, 0, l, c) * wt[AT(i, j0 + b, l)];
                    }
            UNROLL for (int b = 0; b < JB; b++)
                UNROLL for (int c = 0; c < NC; c++)
                    ST(we, i, j0 + b, c) = a[b][c];
        }
}

/* w = D^T G D u for nb stacked systems of ne elements.  u and w are
   C-contiguous (nb, ne, NX, NX, NX); g, g_estride, g_cstride as in
   struct ax_pass. */
void ax_native(ptrdiff_t nb, ptrdiff_t ne, const REAL *restrict D,
               const REAL *restrict u, const char *restrict g,
               ptrdiff_t g_estride, ptrdiff_t g_cstride, REAL *restrict w)
{
    REAL Dt[NX * NX];
    for (int k = 0; k < NX; k++)
        for (int l = 0; l < NX; l++)
            Dt[l * NX + k] = D[k * NX + l];
    for (ptrdiff_t e = 0; e < ne; e++) {
        const REAL *gc[6];
        for (int c = 0; c < 6; c++)
            gc[c] = (const REAL *)(g + e * g_estride + c * g_cstride);
        for (ptrdiff_t b = 0; b < nb; b++)
            element(D, Dt, gc, u + (b * ne + e) * N3, w + (b * ne + e) * N3);
    }
}

/* we += (m * ue) * lam: the Helmholtz mass term, rounded as numpy's
   two multiplies and one add.  Contraction is off here alone, so no FMA
   changes the bits the layers give. */
static __attribute__((noinline, optimize("fp-contract=off"))) void mass_term(
    const REAL *restrict m, REAL lam, const REAL *restrict ue,
    REAL *restrict we)
{
    for (int p = 0; p < N3; p++) {
        const REAL mu = m[p] * ue[p];
        we[p] += mu * lam;
    }
}

/* w = Q^T (D^T G D + lam B) Q (mask * u) of the pass a for nb stacked
   global vectors, C-contiguous (nb, n): scatter, Ax and gather-add in
   one pass per element, no element-local field in memory; rows are
   copied in and added back whole.  Each node takes its contributions in
   ascending local index -- np.add.at's order, so the bits of scatter ->
   ax_native (-> mass term) -> gather.  The closing mask is the
   caller's: ax_gs_native's, or the CG loop's p.Ap sweep.

   part < 0 is the whole mesh.  Else the sweep is part 0 or 1 of two
   split at a->plane: part 0 zeroes and accumulates the nodes below the
   plane from the elements whose origin is below it, part 1 the nodes
   above it from the rest, so the parts write apart and may run at once.
   An element's row i on the plane goes to its (nb, NX, NX) slot of the
   stash, slot[e], instead of into w; ax_gs_replay adds the slots in
   once both parts are done. */
void ax_gs_add(const struct ax_pass *a, ptrdiff_t nb,
               const REAL *restrict u, int part, REAL *restrict stash,
               REAL *restrict w)
{
    const REAL *restrict D = a->D, *restrict mask = a->mask;
    const REAL *restrict mass = a->mass;
    const int64_t *restrict org = a->org, *restrict slot = a->slot;
    const unsigned char *restrict edge = a->edge;
    const char *restrict g = a->g;
    const ptrdiff_t ne = a->ne, n = a->n, s0 = a->s0, s1 = a->s1;
    const ptrdiff_t plane = part < 0 ? -1 : a->plane;
    const ptrdiff_t cut = plane * s0;  /* the plane's first node */
    /* the nodes this call owns: [lo, hi) */
    const ptrdiff_t lo = plane >= 0 && part ? cut + s0 : 0;
    const ptrdiff_t hi = plane >= 0 && !part ? cut : n;
    REAL Dt[NX * NX];
    for (int k = 0; k < NX; k++)
        for (int l = 0; l < NX; l++)
            Dt[l * NX + k] = D[k * NX + l];
    for (ptrdiff_t b = 0; b < nb; b++)
        for (ptrdiff_t i = lo; i < hi; i++)
            w[b * n + i] = 0;
    for (ptrdiff_t e = 0; e < ne; e++) {
        if (plane >= 0 && (org[e] >= cut) != part)
            continue;
        /* the element's row i on the plane, if 0 <= face < NX */
        const ptrdiff_t face = plane >= 0 ? plane - org[e] / s0 : -1;
        const REAL *m = mask && edge[e] ? mask + org[e] : NULL;
        const REAL *gc[6];
        for (int c = 0; c < 6; c++)
            gc[c] = (const REAL *)(g + e * a->g_estride + c * a->g_cstride);
        for (ptrdiff_t b = 0; b < nb; b++) {
            const REAL *ub = u + b * n + org[e];
            REAL *wb = w + b * n + org[e];
            REAL ue[N3], we[N3];
            for (int i = 0; i < NX; i++)
                for (int j = 0; j < NX; j++) {
                    const ptrdiff_t o = i * s0 + j * s1;
                    if (m)
                        for (int k = 0; k < NX; k++)
                            ue[AT(i, j, k)] = ub[o + k] * m[o + k];
                    else
                        for (int k = 0; k < NX; k++)
                            ue[AT(i, j, k)] = ub[o + k];
                }
            element(D, Dt, gc, ue, we);
            if (mass)
                mass_term(mass + e * N3, (REAL)a->lam, ue, we);
            for (int i = 0; i < NX; i++) {
                if (i == face) {
                    REAL *st = stash + (slot[e] * nb + b) * NX * NX;
                    for (int p = 0; p < NX * NX; p++)
                        st[p] = we[AT(i, 0, p)];
                    continue;
                }
                for (int j = 0; j < NX; j++) {
                    REAL *row = wb + i * s0 + j * s1;
                    for (int k = 0; k < NX; k++)
                        row[k] += we[AT(i, j, k)];
                }
            }
        }
    }
}

/* The plane of the pass a split by ax_gs_add, once both parts are done:
   zeroed, then each stashed row added in, elements in ascending order
   -- every node takes the additions, in the order, of the whole-mesh
   pass, so its bits. */
void ax_gs_replay(const struct ax_pass *a, ptrdiff_t nb,
                  const REAL *restrict stash, REAL *restrict w)
{
    const int64_t *restrict org = a->org, *restrict slot = a->slot;
    const ptrdiff_t ne = a->ne, n = a->n, s0 = a->s0, s1 = a->s1;
    const ptrdiff_t plane = a->plane;
    for (ptrdiff_t b = 0; b < nb; b++)
        for (ptrdiff_t i = plane * s0; i < (plane + 1) * s0; i++)
            w[b * n + i] = 0;
    for (ptrdiff_t e = 0; e < ne; e++)
        for (ptrdiff_t b = 0; slot[e] >= 0 && b < nb; b++) {
            const REAL *st = stash + (slot[e] * nb + b) * NX * NX;
            REAL *wb = w + b * n + plane * s0 + org[e] % s0;
            for (int j = 0; j < NX; j++)
                for (int k = 0; k < NX; k++)
                    wb[j * s1 + k] += st[j * NX + k];
        }
}

/* w = mask * Q^T (D^T G D + lam B) Q (mask * u): ax_gs_add, whole, then
   the mask, if any. */
void ax_gs_native(const struct ax_pass *a, ptrdiff_t nb,
                  const REAL *restrict u, REAL *restrict w)
{
    const REAL *restrict mask = a->mask;
    const ptrdiff_t n = a->n;
    ax_gs_add(a, nb, u, -1, NULL, w);
    if (mask)
        for (REAL *wb = w; wb < w + nb * n; wb += n)
            for (ptrdiff_t i = 0; i < n; i++)
                wb[i] *= mask[i];
}
"""

#: The vector passes spell out their vectors, as the element body does:
#: gcc 12.2 at ``-O3`` compiles a sum into lane ``(i - lo) % 8`` as
#: unrolled scalar code, so no autovectoriser is asked to find them.
#: ``-O3`` stays to unswitch the step's ``invm`` test out of its loop.
#: No contraction: one rounding per operation, so ``x``, ``r``, ``z``,
#: ``p`` are numpy's bits given the same scalars, and ``-O2`` and ``-O3``
#: builds give the same bytes (``tests/sem/test_native.py``).  No
#: ``errno`` either: the loop's ``sqrt`` is the instruction, as numpy's.
_CG_FLAGS: tuple[str, ...] = (
    *_FLAGS, "-O3", "-ffp-contract=off", "-fno-math-errno", "-pthread")

_CG_SOURCE = _PASS + r"""
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>
#include <stddef.h>
#include <stdint.h>
/* Every sum: products rounded to REAL, then a row's two halves, [0, h)
   and [h, n) with h = n / 16 * 8 (RANGE), each summed on its own --
   element i into fp64 lane (i - lo) % 8 of its half, the lanes folded
   in one fixed order -- and the two halves added.  A row's value is a
   function of that row alone, whatever nb, the BLAS or its threads, and
   of whether one thread sums both halves or two threads one each. */
#define RANGE(n, part) \
    const ptrdiff_t h = (n) / 16 * 8; \
    const ptrdiff_t lo = part ? h : 0, hi = part ? (n) : h;
#define FOLD(s) \
    (((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7])))
/* A sweep takes each full block of 8 nodes as one operation on a vec
   of 8 REALs (aligned to one REAL only), its products widened into the
   8 fp64 lanes at once, and the ragged tail node by node into the same
   lanes.  BODY(AT, ADD) is spelled once for both: AT(v) is v's block
   from i or its node i, ADD(s, v) adds v into every lane of s or into
   lane l.  Lane l takes nodes lo + l, lo + 8 + l, ... either way, with
   the same roundings in the same order: a vec changes no bit. */
typedef REAL vec
    __attribute__((vector_size(8 * sizeof(REAL)), aligned(sizeof(REAL))));
typedef double lanes __attribute__((vector_size(8 * sizeof(double))));
#define AT8(v) (*(vec *)((v) + i))
#define AT1(v) ((v)[i])
#define ADD8(s, v) (s += __builtin_convertvector(v, lanes))
#define ADD1(s, v) (s[l] += v)
#define SWEEP(BODY) \
    ptrdiff_t i = lo; \
    for (; i + 8 <= hi; i += 8) BODY(AT8, ADD8) \
    for (int l = 0; i < hi; i++, l++) BODY(AT1, ADD1)
#define DOT(AT, ADD) { const __auto_type ab = AT(a) * AT(b); ADD(s, ab); }
/* ap *= mask, then DOT: the fused operator's closing mask and p.Ap in
   one sweep, DOT's bits. */
#define MASKDOT(AT, ADD) { \
        const __auto_type wi = AT(ap) * AT(mask); \
        AT(ap) = wi; \
        const __auto_type ab = AT(p) * wi; \
        ADD(s, ab); }
#define STEP(AT, ADD) { \
        const __auto_type ri = AT(r) - alpha * AT(ap); \
        __auto_type zi = ri; \
        AT(x) += alpha * AT(p); \
        AT(r) = ri; \
        if (invm) AT(z) = zi = ri * AT(invm); \
        const __auto_type rzi = ri * zi; \
        const __auto_type rri = ri * ri; \
        ADD(s, rzi); \
        ADD(t, rri); }
#define DIR(AT, ADD) { AT(p) = beta * AT(p) + AT(z); }

/* Half `part` of each of nb C-contiguous rows of n, for the passes
   below: out[k] = the half of a[k] . b[k]. */
static void dot_half(ptrdiff_t nb, ptrdiff_t n, int part, const REAL *a,
                     const REAL *b, double *out)
{
    RANGE(n, part)
    for (ptrdiff_t k = 0; k < nb; k++, a += n, b += n) {
        lanes s = {0};
        SWEEP(DOT)
        out[k] = FOLD(s);
    }
}

/* ap *= mask and out[k] = the half of p[k] . ap[k]. */
static void mask_dot_half(ptrdiff_t nb, ptrdiff_t n, int part,
                          const REAL *restrict mask, const REAL *restrict p,
                          REAL *restrict ap, double *out)
{
    RANGE(n, part)
    for (ptrdiff_t k = 0; k < nb; k++, p += n, ap += n) {
        lanes s = {0};
        SWEEP(MASKDOT)
        out[k] = FOLD(s);
    }
}

/* x += step*p, r -= step*ap, z = r*invm, and rz[k], rr[k] the half of
   r.z, r.r.  invm == NULL is "no preconditioner": z (which then aliases
   r) is never touched and rz == rr. */
static void step_half(ptrdiff_t nb, ptrdiff_t n, int part, const REAL *step,
                      const REAL *restrict p, const REAL *restrict ap,
                      const REAL *restrict invm, REAL *restrict x,
                      REAL *restrict r, REAL *restrict z, double *rz,
                      double *rr)
{
    RANGE(n, part)
    for (ptrdiff_t k = 0; k < nb; k++) {
        const REAL alpha = step[k];
        lanes s = {0}, t = {0};
        SWEEP(STEP)
        rz[k] = FOLD(s);
        rr[k] = FOLD(t);
        p += n, ap += n, x += n, r += n;
        if (invm) invm += n, z += n;
    }
}

/* p = step*p + z on the half. */
static void dir_half(ptrdiff_t nb, ptrdiff_t n, int part, const REAL *step,
                     const REAL *restrict z, REAL *restrict p)
{
    RANGE(n, part)
    for (ptrdiff_t k = 0; k < nb; k++, z += n, p += n) {
        const REAL beta = step[k];
        SWEEP(DIR)
    }
}

/* out[k] = sums[k] + sums[nb + k]: a row's two halves, added. */
static void add_halves(ptrdiff_t nb, const double *sums, double *out)
{
    for (ptrdiff_t k = 0; k < nb; k++)
        out[k] = sums[k] + sums[nb + k];
}

/* out[k] = a[k] . b[k] over nb C-contiguous rows of n. */
void cg_dot(ptrdiff_t nb, ptrdiff_t n, const REAL *a, const REAL *b,
            double *out)
{
    for (ptrdiff_t k = 0; k < nb; k++, a += n, b += n) {
        double sums[2];
        for (int part = 0; part < 2; part++)
            dot_half(1, n, part, a, b, sums + part);
        add_halves(1, sums, out + k);
    }
}

/* One sweep per row: x += step*p, r -= step*ap, z = r*invm, rz = r.z,
   rr = r.r; invm as for step_half. */
void cg_step(ptrdiff_t nb, ptrdiff_t n, const REAL *step,
             const REAL *restrict p, const REAL *restrict ap,
             const REAL *restrict invm, REAL *restrict x, REAL *restrict r,
             REAL *restrict z, double *rz, double *rr)
{
    for (ptrdiff_t k = 0; k < nb; k++) {
        const ptrdiff_t o = k * n;
        double sums[4];
        for (int part = 0; part < 2; part++)
            step_half(1, n, part, step + k, p + o, ap + o,
                      invm ? invm + o : NULL, x + o, r + o,
                      invm ? z + o : z, sums + part, sums + 2 + part);
        add_halves(1, sums, rz + k);
        add_halves(1, sums + 2, rr + k);
    }
}

/* p = step*p + z, row by row. */
void cg_dir(ptrdiff_t nb, ptrdiff_t n, const REAL *step,
            const REAL *restrict z, REAL *restrict p)
{
    for (int part = 0; part < 2; part++)
        dir_half(nb, n, part, step, z, p);
}

/* One solve's state, field for field native.CGLoop.  (nb, n) vectors,
   (nb,) fp64 scalars and 0/1 bytes, as _cg_iterate binds them; history
   takes one (nb,) row of ||r|| per iteration. */
struct cg_loop {
    ptrdiff_t nb, n, it, cap;  /* it: iterations run; none past cap */
    REAL *x, *r, *z, *p, *ap, *step;
    const REAL *invm;          /* NULL: no preconditioner, z is r */
    double *rz, *pap, *coef, *res, *history;
    const double *stop;
    unsigned char *active, *exhausted;
    int64_t *iterations;
    const int64_t *maxiter;    /* per row; NULL: cap is everyone's */
    /* ap = A p: the fused pass (its add, masked here if it has a mask),
       else call() into Python, non-zero on an exception */
    const struct ax_pass *fused;
    /* split != 0: every pass of an iteration runs as its two parts on
       two threads -- the fused pass split at its plane, then its replay
       adds the stash, one (nb, NX, NX) slot per element on the plane,
       into it; the vector passes at each row's halves.  0: one thread */
    REAL *stash;
    int split;
    int (*call)(void);
};

/* The passes of an iteration, in order: A p (fused), p.Ap with the
   closing mask, the step, the direction. */
enum phase { AP, PAP, STEP, DIR };

/* The two parts of every pass of a solve and the helper thread that
   may take part 1, on cg_solve's stack; sums is 4 * nb fp64: each
   half's sums of a pass, row by row.  With a helper (split), in round k
   cg_solve sets phase, then go = k to start the pass's parts, runs part
   0, and then part 1 is whoever's first to move claimed from k - 1 to
   k: the helper, which then sets done = k once the part is written, or
   cg_solve itself where the helper has not begun it -- so a helper with
   no CPU to run on costs the solve no wait.  The helper reads phase
   only once it has claimed the round, which cg_solve does not leave
   before done = k.  go = -1 ends the helper.  Both wait by polling and
   yielding, never by sleeping: waking a sleeping thread wakes an idle
   CPU, and a poll sees the flag within one yield.  On a 2-vCPU guest at
   E = 512 a helper that slept on a condition variable gave 1.35x over
   one thread where polling gives 1.59x, and a pthread barrier lost to
   one thread whenever the host was busy. */
struct team {
    const struct cg_loop *s;
    double *sums;
    int split, phase;
    _Atomic ptrdiff_t go, claimed, done;
};

/* Part `part` of pass `phase`: of the fused pass split at the plane, or
   of every row's half, its sums into t->sums. */
static void run(const struct team *t, int phase, int part)
{
    const struct cg_loop *s = t->s;
    const ptrdiff_t nb = s->nb, n = s->n;
    double *sums = t->sums + part * nb;
    switch (phase) {
    case AP:
        s->fused->add(s->fused, nb, s->p, part, s->stash, s->ap);
        break;
    case PAP:
        if (s->fused && s->fused->mask)
            mask_dot_half(nb, n, part, s->fused->mask, s->p, s->ap, sums);
        else
            dot_half(nb, n, part, s->p, s->ap, sums);
        break;
    case STEP:
        step_half(nb, n, part, s->step, s->p, s->ap, s->invm, s->x, s->r,
                  s->z, sums, sums + 2 * nb);
        break;
    case DIR:
        dir_half(nb, n, part, s->step, s->z, s->p);
    }
}

/* Whether this thread takes part 1 of round k. */
static int claim(struct team *t, ptrdiff_t k)
{
    ptrdiff_t prev = k - 1;
    return atomic_compare_exchange_strong(&t->claimed, &prev, k);
}

static void *helper_main(void *arg)
{
    struct team *t = arg;
    for (ptrdiff_t seen = 0;;) {
        ptrdiff_t k;
        while ((k = atomic_load_explicit(&t->go, memory_order_acquire))
               == seen)
            sched_yield();
        if (k < 0)
            return NULL;
        seen = k;
        if (claim(t, k)) {
            run(t, t->phase, 1);
            atomic_store_explicit(&t->done, k, memory_order_release);
        }
    }
}

/* Both parts of pass `phase`: at once, part 1 on the helper where it
   claims it first, or one after the other where there is no helper. */
static void both(struct team *t, int phase)
{
    if (!t->split) {
        run(t, phase, 0);
        run(t, phase, 1);
        return;
    }
    const ptrdiff_t k = atomic_load_explicit(&t->go, memory_order_relaxed)
        + 1;
    t->phase = phase;
    atomic_store_explicit(&t->go, k, memory_order_release);
    run(t, phase, 0);
    if (claim(t, k))
        run(t, phase, 1);
    else
        while (atomic_load_explicit(&t->done, memory_order_acquire) != k)
            sched_yield();
}

/* _cg_iterate's loop, pass for pass and scalar for scalar, until no row
   is live or it == cap; every pass as its two parts, at once where t
   has a helper.  0, or -1 on a breakdown, or call()'s status. */
static int iterate(struct cg_loop *s, struct team *t)
{
    const ptrdiff_t nb = s->nb;
    unsigned char *active = s->active;
    double *coef = s->coef, *rz = s->rz, *pap = s->pap, *res = s->res;
    while (s->it < s->cap) {
        int live = 0, bad = 0;
        for (ptrdiff_t k = 0; k < nb; k++)
            live |= active[k];
        if (!live)
            break;
        if (t->split) {  /* the two parts, then the plane */
            both(t, AP);
            s->fused->replay(s->fused, nb, s->stash, s->ap);
        } else if (s->fused)
            s->fused->add(s->fused, nb, s->p, -1, NULL, s->ap);
        else {
            const int status = s->call();
            if (status)
                return status;
        }
        both(t, PAP);
        add_halves(nb, t->sums, pap);
        double worst = 0.0;
        for (ptrdiff_t k = 0; k < nb; k++)
            if (active[k] && pap[k] <= 0.0) {
                bad = 1;
                worst = pap[k] < worst ? pap[k] : worst;
            }
        if (bad) {
            if (worst <= -1e-300)
                return -1;  /* pap, active: as found, for the caller */
            /* exact zero directions: solved subspaces, frozen */
            live = 0;
            for (ptrdiff_t k = 0; k < nb; k++) {
                if (active[k] && pap[k] <= 0.0)
                    active[k] = 0, s->exhausted[k] = 1;
                live |= active[k];
            }
            if (!live)
                break;
        }
        s->it++;
        for (ptrdiff_t k = 0; k < nb; k++) {
            s->iterations[k] += active[k];
            if (active[k])
                coef[k] = rz[k] / pap[k];
            s->step[k] = (REAL)(coef[k] * (double)active[k]);  /* alpha */
        }
        both(t, STEP);  /* pap: the new r.z, res: r.r */
        add_halves(nb, t->sums, pap);
        add_halves(nb, t->sums + 2 * nb, res);
        for (ptrdiff_t k = 0; k < nb; k++) {
            if (active[k])
                coef[k] = pap[k] / rz[k];
            s->step[k] = (REAL)(coef[k] * (double)active[k]);  /* beta */
            rz[k] = pap[k];
        }
        both(t, DIR);
        for (ptrdiff_t k = 0; k < nb; k++) {
            res[k] = sqrt(res[k]);
            s->history[k] = res[k];
            if (res[k] <= s->stop[k]
                    || (s->maxiter && !(s->it < s->maxiter[k])))
                active[k] = 0;
        }
        s->history += nb;
    }
    return 0;
}

/* iterate(), each pass's part 1 on a helper thread where the fused
   pass is to split and the helper starts (else on this thread, the same
   bits); the helper is joined before any return. */
int cg_solve(struct cg_loop *s)
{
    double sums[4 * s->nb];
    struct team t = {.s = s, .sums = sums, .go = 0, .claimed = 0,
                     .done = 0};
    pthread_t thread;
    t.split = s->fused && s->split
        && !pthread_create(&thread, NULL, helper_main, &t);
    const int status = iterate(s, &t);
    if (t.split) {
        atomic_store_explicit(&t.go, -1, memory_order_release);
        pthread_join(thread, NULL);
    }
    return status;
}
"""

_lock = threading.Lock()
_kernels: dict[tuple, tuple] = {}


def _cached(load: Callable, *args):
    # A warm call costs one dict lookup.  The loader is part of the key:
    # two loaders taking the same arguments must not share an entry.  A
    # loader that raises leaves no entry: the next call tries again.
    key = (load, *args)
    try:
        return _kernels[key]
    except KeyError:
        with _lock:
            if key not in _kernels:
                _kernels[key] = load(*args)
            return _kernels[key]


def ax_kernel(nx: int, dtype: np.dtype) -> Callable:
    """``ax(d, u, g, w)`` compiled for ``(nx, dtype)``.

    The callable writes ``w = D^T G D u`` and checks nothing: the caller
    guarantees aligned C-contiguous ``d``, ``u`` and writeable ``w`` of
    that dtype, ``w`` shaped like ``u``, and a shape-checked ``g`` of it
    whose every ``g[e, c]`` block is contiguous.  ``nx`` outside
    ``[1, MAX_NX]`` or a dtype other than native fp64 / fp32 is a
    ``ValueError``; a build or load that fails, a ``RuntimeError``.
    """
    return _cached(_load_ax, nx, dtype)[0]


def ax_gs_kernel(nx: int, dtype: np.dtype) -> Callable:
    """``ax_gs(fused, nb, u, w)``, ``ax_gs_native`` of :func:`ax_kernel`'s
    shared object; it raises as that does.  It writes ``w = A u`` for an
    :class:`AxPass` built for ``(nx, dtype)`` and the addresses of ``nb``
    aligned, C-contiguous, non-overlapping ``(nb, fused.n)`` vectors of
    that dtype, unchecked.  Its attributes ``add`` and ``replay``, which
    an :class:`AxPass` carries for ``cg_solve``, address the pass without
    its closing mask, whole or as a part of a split
    (:func:`~repro.sem.gather_scatter.split_plane`), and the call that
    adds the plane in after the parts."""
    return _cached(_load_ax, nx, dtype)[1]


def cg_passes(dtype: np.dtype) -> "tuple[Callable, ...]":
    """``(cg_dot, cg_step, cg_dir, cg_solve)`` of :data:`_CG_SOURCE`
    compiled for ``dtype``; it raises as :func:`ax_kernel` does.

    The passes take *addresses* (``arr.ctypes.data``) and check nothing:
    the caller guarantees aligned C-contiguous ``(nb, n)`` vectors of
    ``dtype`` and ``(nb,)`` scalars (``step`` of ``dtype``, the sums
    fp64), writeable where written.  ``cg_solve`` takes a :class:`CGLoop`
    of such addresses and runs the whole iteration in one call.
    """
    return _cached(_load_cg, dtype)


def _library(stem: str, source: str, dtype: np.dtype, *flags: str):
    real = _C_REAL.get(dtype)
    if real is None:
        raise ValueError(
            f"no compiled {stem} kernel for dtype {dtype}: the kernels "
            "take native-order float64 or float32")
    try:
        return ctypes.CDLL(_build(stem, source, [*flags, f"-DREAL={real}"]))
    except Exception as exc:  # boundary: one typed error for every cause
        cc = os.environ.get("CC")
        named = f"$CC={cc!r}" if cc else "$CC unset, so cc or gcc"
        raise RuntimeError(
            f"repro.sem.native: no {stem} kernel, and a C compiler is "
            f"required ({named}): {type(exc).__name__}: {exc}") from exc


def _load_ax(nx: int, dtype: np.dtype) -> "tuple[Callable, Callable]":
    if not 1 <= nx <= MAX_NX:
        raise ValueError(
            f"no compiled Ax kernel for nx = {nx}: nx must be in "
            f"[1, {MAX_NX}] (native.MAX_NX, the element's stack budget)")
    lib = _library("ax", _SOURCE, dtype, *_FLAGS, f"-DNX={nx}")
    size_t, ptr = ctypes.c_ssize_t, ctypes.c_void_p
    fn, gs_fn = lib.ax_native, lib.ax_gs_native
    fn.argtypes = [size_t, size_t, ptr, ptr, ptr, size_t, size_t, ptr]
    gs_fn.argtypes = [ctypes.POINTER(AxPass), size_t, ptr, ptr]
    fn.restype = gs_fn.restype = None

    @hot_path
    def ax(d, u, g, w) -> None:
        fn(u.shape[0] if u.ndim == 5 else 1, u.shape[-4], d.ctypes.data,
           u.ctypes.data, g.ctypes.data, g.strides[0], g.strides[1],
           w.ctypes.data)

    gs_fn.add = ctypes.cast(lib.ax_gs_add, ptr).value
    gs_fn.replay = ctypes.cast(lib.ax_gs_replay, ptr).value
    return ax, gs_fn


class AxPass(ctypes.Structure):
    """``struct ax_pass`` of :data:`_PASS`: one operator in one dtype as
    the fused pass.  ``fused(u, w)`` writes ``w = mask * Q^T (A + lam B)
    Q (mask * u)`` for a global ``(n,)`` or stacked ``(B, n)`` ``u``, to
    the bit what ``scatter`` -> ``ax`` (-> ``w += lam * (mass * u)``) ->
    ``gather`` give; ``cg_solve`` takes its address.  Built, unchecked,
    from the arrays the struct describes — ``d`` and ``g`` as for
    :func:`ax_kernel`, int64 ``org`` (``GatherScatter.affine``), uint8
    ``edge``, ``mask`` and ``mass`` ``None`` for none — and the map's
    ``GatherScatter.split``; it holds every array it points at, so its
    addresses stay valid while it lives."""

    _fields_ = [
        *((name, ctypes.c_ssize_t) for name in (
            "ne", "n", "s0", "s1", "g_estride", "g_cstride", "plane")),
        *((name, ctypes.c_void_p) for name in (
            "D", "mask", "mass", "org", "slot", "edge", "g")),
        ("lam", ctypes.c_double),
        *((name, ctypes.c_void_p) for name in ("add", "replay")),
    ]

    def __init__(self, n, d, g, org, s0, s1, mask=None, edge=None,
                 mass=None, lam=0.0, split=None):
        plane, slot = (-1, None) if split is None else split
        self.ax_gs = ax_gs_kernel(d.shape[0], d.dtype)
        self.arrays = dict(D=d, mask=mask, mass=mass, org=org, slot=slot,
                           edge=edge, g=g)
        self.nx, self.dtype = d.shape[0], d.dtype
        self.slots = 0 if slot is None else int(slot.max()) + 1  # of a split
        super().__init__(
            ne=g.shape[0], n=n, s0=s0, s1=s1, g_estride=g.strides[0],
            g_cstride=g.strides[1], plane=plane, lam=lam,
            add=self.ax_gs.add, replay=self.ax_gs.replay,
            **{k: None if a is None else a.ctypes.data
               for k, a in self.arrays.items()})

    @hot_path
    def __call__(self, u, w) -> None:
        self.ax_gs(self, u.shape[0] if u.ndim == 2 else 1, u.ctypes.data,
                   w.ctypes.data)


#: ``int call(void)``: the Python operator the compiled loop calls back.
OperatorCall = ctypes.CFUNCTYPE(ctypes.c_int)


class CGLoop(ctypes.Structure):
    """``struct cg_loop`` of :data:`_CG_SOURCE`: pointers as addresses."""

    _fields_ = [
        *((name, ctypes.c_ssize_t) for name in ("nb", "n", "it", "cap")),
        *((name, ctypes.c_void_p) for name in (
            "x", "r", "z", "p", "ap", "step", "invm", "rz", "pap", "coef",
            "res", "history", "stop", "active", "exhausted", "iterations",
            "maxiter", "fused", "stash")),
        ("split", ctypes.c_int),
        ("call", OperatorCall),
    ]


def _load_cg(dtype: np.dtype) -> "tuple[Callable, ...]":
    return _cg_entry_points(_library("cg", _CG_SOURCE, dtype, *_CG_FLAGS))


def _cg_entry_points(lib: ctypes.CDLL) -> "tuple[Callable, ...]":
    """``(cg_dot, cg_step, cg_dir, cg_solve)`` of a build of
    :data:`_CG_SOURCE`, typed for ``ctypes``."""
    size_t, ptr = ctypes.c_ssize_t, ctypes.c_void_p
    for fn, pointers in ((lib.cg_dot, 3), (lib.cg_step, 9), (lib.cg_dir, 3)):
        fn.argtypes = [size_t, size_t] + [ptr] * pointers
        fn.restype = None
    lib.cg_solve.argtypes = [ctypes.POINTER(CGLoop)]
    lib.cg_solve.restype = ctypes.c_int
    return lib.cg_dot, lib.cg_step, lib.cg_dir, lib.cg_solve


def _build(stem: str, source: str, flags: list[str]) -> str:
    """Path of the shared object for ``source``, compiled if absent.

    The name hashes what the bits depend on — source, flags, compiler
    (every word of a ``CC="ccache gcc"``), the CPU's feature flags — so
    no CPU loads another's ``-march=native`` build; ``os.replace``
    publishes the finished file, so two processes building at once can
    never load half of one.
    """
    env_cc = shlex.split(os.environ.get("CC") or "")
    cc = shutil.which(env_cc[0]) if env_cc else (
        shutil.which("cc") or shutil.which("gcc"))
    if cc is None:
        raise FileNotFoundError(
            f"no C compiler ({' '.join(env_cc) or 'cc, gcc'})")
    cmd = [cc, *env_cc[1:], *flags]  # $CC split as a shell would
    key = "\0".join([source, *cmd[1:], cc, _cpu_flags()]).encode()
    cache = _cache_dir()
    path = os.path.join(
        cache, f"{stem}-{hashlib.sha256(key).hexdigest()[:20]}.so")
    if not os.path.exists(path):
        with tempfile.TemporaryDirectory(dir=cache) as scratch:
            tmp = os.path.join(scratch, f"{stem}.so")
            done = subprocess.run(
                [*cmd, "-o", tmp, "-x", "c", "-"],
                input=source.encode(), capture_output=True, timeout=120,
            )
            if done.returncode:
                raise RuntimeError(
                    f"{cc}: {done.stderr.decode(errors='replace')[-400:]}")
            os.replace(tmp, path)
    return path


@functools.cache
def _cpu_flags() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next(x for x in f if x.startswith(("flags", "Features")))
    except (OSError, StopIteration):
        return " ".join(os.uname())


@functools.cache
def _cache_dir() -> str:
    """A directory of ours nobody else can write or swap files in:
    ``$XDG_CACHE_HOME`` (else ``~/.cache``), then the temp dir, then a
    per-process ``mkdtemp`` removed at exit."""
    for path in (
        os.path.join(os.environ.get("XDG_CACHE_HOME")
                     or os.path.expanduser("~/.cache"), "repro-sem"),
        os.path.join(tempfile.gettempdir(), f"repro-{os.getuid()}"),
    ):
        if not os.path.isabs(path):  # an unexpanded "~" must not land in cwd
            continue
        try:
            os.makedirs(path, mode=0o700, exist_ok=True)
            st = os.lstat(path)
        except OSError:
            continue
        if (stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid()
                and not st.st_mode & 0o022):
            return path
    path = tempfile.mkdtemp(prefix="repro-")
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path
