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
pass, 9 reads + 4 writes where twelve numpy calls made 17 + 7 — and
``cg_solve``, the loop around them: the stopping test, the freezing of
finished rows and the scalar recurrence, with ``A p`` from the fused
pass (its closing mask folded into the ``p.Ap`` sweep) or from a Python
callback.  With the fused pass a whole solve is one call, and the GIL
stays released from its first iteration to its last.

:func:`ax_kernel`, :func:`ax_gs_kernel` and :func:`cg_passes` are the
whole interface: one shared object per ``(nx, dtype)`` (the ``Ax``
entry points) and one per dtype, built with the host's C compiler on
first use.  On *any* failure they warn once, stop trying for the rest
of the process and return ``None``, and
:func:`repro.sem.kernels.ax_local_matmul` / :mod:`repro.sem.cg` run
their numpy bodies instead: a C compiler is optional, never required.
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
import warnings
from typing import Callable, NamedTuple

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
#: without the vector extensions fails the build: the numpy body runs.
_FLAGS: tuple[str, ...] = ("-O2", "-march=native", "-fPIC", "-shared")

_C_REAL = {np.dtype(np.float64): "double", np.dtype(np.float32): "float"}

_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>
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
   C-contiguous (nb, ne, NX, NX, NX); component c of element e of the
   geometry is the contiguous block at byte offset e*g_estride +
   c*g_cstride from g. */
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

/* w = Q^T (D^T G D + lam B) Q (mask * u) for nb stacked global vectors,
   C-contiguous (nb, n): scatter, Ax and gather-add in one pass per
   element, no element-local field in memory.  l2g maps the ne * N3
   local nodes to [0, n); g is as for ax_native.  mask == NULL is no
   mask, mass == NULL no mass term (else B, contiguous (ne, N3)).  Each
   row takes its contributions in ascending local index -- the order of
   np.add.at, so the bits of scatter -> ax_native (-> mass term) ->
   gather.  The closing mask is the caller's: ax_gs_native's, or the CG
   loop's p.Ap sweep. */
void ax_gs_add(ptrdiff_t nb, ptrdiff_t ne, ptrdiff_t n,
               const REAL *restrict D, const REAL *restrict u,
               const REAL *restrict mask, const int64_t *restrict l2g,
               const char *restrict g, ptrdiff_t g_estride,
               ptrdiff_t g_cstride, const REAL *restrict mass, double lam,
               REAL *restrict w)
{
    REAL Dt[NX * NX];
    for (int k = 0; k < NX; k++)
        for (int l = 0; l < NX; l++)
            Dt[l * NX + k] = D[k * NX + l];
    for (ptrdiff_t i = 0; i < nb * n; i++)
        w[i] = 0;
    for (ptrdiff_t e = 0; e < ne; e++) {
        const int64_t *le = l2g + e * N3;
        const REAL *gc[6];
        for (int c = 0; c < 6; c++)
            gc[c] = (const REAL *)(g + e * g_estride + c * g_cstride);
        for (ptrdiff_t b = 0; b < nb; b++) {
            const REAL *ub = u + b * n;
            REAL *wb = w + b * n;
            REAL ue[N3], we[N3];
            if (mask)
                for (int p = 0; p < N3; p++)
                    ue[p] = ub[le[p]] * mask[le[p]];
            else
                for (int p = 0; p < N3; p++)
                    ue[p] = ub[le[p]];
            element(D, Dt, gc, ue, we);
            if (mass)
                mass_term(mass + e * N3, (REAL)lam, ue, we);
            for (int p = 0; p < N3; p++)
                wb[le[p]] += we[p];
        }
    }
}

/* w = mask * Q^T (D^T G D + lam B) Q (mask * u): ax_gs_add, then the
   mask, if any. */
void ax_gs_native(ptrdiff_t nb, ptrdiff_t ne, ptrdiff_t n,
                  const REAL *restrict D, const REAL *restrict u,
                  const REAL *restrict mask, const int64_t *restrict l2g,
                  const char *restrict g, ptrdiff_t g_estride,
                  ptrdiff_t g_cstride, const REAL *restrict mass,
                  double lam, REAL *restrict w)
{
    ax_gs_add(nb, ne, n, D, u, mask, l2g, g, g_estride, g_cstride, mass,
              lam, w);
    if (mask)
        for (REAL *wb = w; wb < w + nb * n; wb += n)
            for (ptrdiff_t i = 0; i < n; i++)
                wb[i] *= mask[i];
}
"""

#: The vector passes want ``-O3`` (gcc 12's ``-O2`` cost model leaves the
#: step sweep scalar) and no contraction: one rounding per operation, so
#: ``x``, ``r``, ``z``, ``p`` are the numpy body's bits given its scalars.
#: No ``errno`` either: the loop's ``sqrt`` is the instruction, as numpy's.
_CG_FLAGS: tuple[str, ...] = (
    *_FLAGS, "-O3", "-ffp-contract=off", "-fno-math-errno")

_CG_SOURCE = r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>
/* Every sum: products rounded to REAL, element i added into fp64 lane
   i % 8, the lanes folded in one fixed order -- a row's value is a
   function of that row alone, whatever nb, the BLAS or its threads. */
#define FOLD(s) \
    (((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7])))
#define SWEEP(BODY) \
    ptrdiff_t i = 0; \
    for (; i + 8 <= n; i += 8) \
        for (int l = 0; l < 8; l++) BODY(i + l, l) \
    for (int l = 0; i < n; i++, l++) BODY(i, l)
#define DOT(i, l) { const REAL ab = a[i] * b[i]; s[l] += ab; }
#define STEP(i, l) { \
        const REAL ri = r[i] - alpha * ap[i]; \
        REAL zi = ri; \
        x[i] += alpha * p[i]; \
        r[i] = ri; \
        if (invm) z[i] = zi = ri * invm[i]; \
        const REAL rzi = ri * zi, rri = ri * ri; \
        s[l] += rzi; \
        t[l] += rri; }

/* out[k] = a[k] . b[k] over nb C-contiguous rows of n. */
void cg_dot(ptrdiff_t nb, ptrdiff_t n, const REAL *a, const REAL *b,
            double *out)
{
    for (ptrdiff_t k = 0; k < nb; k++, a += n, b += n) {
        double s[8] = {0};
        SWEEP(DOT)
        out[k] = FOLD(s);
    }
}

/* One sweep per row: x += step*p, r -= step*ap, z = r*invm, rz = r.z,
   rr = r.r.  invm == NULL is "no preconditioner": z (which then aliases
   r) is never touched and rz == rr. */
void cg_step(ptrdiff_t nb, ptrdiff_t n, const REAL *step,
             const REAL *restrict p, const REAL *restrict ap,
             const REAL *restrict invm, REAL *restrict x, REAL *restrict r,
             REAL *restrict z, double *rz, double *rr)
{
    for (ptrdiff_t k = 0; k < nb; k++) {
        const REAL alpha = step[k];
        double s[8] = {0}, t[8] = {0};
        SWEEP(STEP)
        rz[k] = FOLD(s);
        rr[k] = FOLD(t);
        p += n, ap += n, x += n, r += n;
        if (invm) invm += n, z += n;
    }
}

/* p = step*p + z, row by row. */
void cg_dir(ptrdiff_t nb, ptrdiff_t n, const REAL *step,
            const REAL *restrict z, REAL *restrict p)
{
    for (ptrdiff_t k = 0; k < nb; k++, z += n, p += n) {
        const REAL beta = step[k];
        for (ptrdiff_t i = 0; i < n; i++)
            p[i] = beta * p[i] + z[i];
    }
}

/* ap *= mask, then out[k] = p[k] . ap[k]: the fused operator's closing
   mask and cg_dot in one sweep, cg_dot's bits. */
#define MASKDOT(i, l) { \
        const REAL wi = ap[i] * mask[i]; \
        ap[i] = wi; \
        const REAL ab = p[i] * wi; \
        s[l] += ab; }
static void mask_dot(ptrdiff_t nb, ptrdiff_t n, const REAL *restrict mask,
                     const REAL *restrict p, REAL *restrict ap, double *out)
{
    for (ptrdiff_t k = 0; k < nb; k++, p += n, ap += n) {
        double s[8] = {0};
        SWEEP(MASKDOT)
        out[k] = FOLD(s);
    }
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
    /* ap = A p: the fused pass (ax_gs_add of the problem's shared object,
       masked here if there is a mask), else call() into Python, non-zero
       on an exception */
    void (*fused)(ptrdiff_t, ptrdiff_t, ptrdiff_t, const REAL *,
                  const REAL *, const REAL *, const int64_t *, const char *,
                  ptrdiff_t, ptrdiff_t, const REAL *, double, REAL *);
    ptrdiff_t ne, g_estride, g_cstride;
    const REAL *D, *mask, *mass;  /* mask, mass: NULL for none */
    const int64_t *l2g;
    const char *g;
    double lam;
    int (*call)(void);
    double worst;              /* out: p.Ap of a breakdown */
};

/* _cg_iterate's loop, pass for pass and scalar for scalar, until no row
   is live or it == cap.  0, or -1 on a breakdown, or call()'s status. */
int cg_solve(struct cg_loop *s)
{
    const ptrdiff_t nb = s->nb, n = s->n;
    unsigned char *active = s->active;
    double *coef = s->coef, *rz = s->rz, *pap = s->pap, *res = s->res;
    while (s->it < s->cap) {
        int live = 0, bad = 0;
        for (ptrdiff_t k = 0; k < nb; k++)
            live |= active[k];
        if (!live)
            break;
        if (s->fused) {
            s->fused(nb, s->ne, n, s->D, s->p, s->mask, s->l2g, s->g,
                     s->g_estride, s->g_cstride, s->mass, s->lam, s->ap);
            if (s->mask)
                mask_dot(nb, n, s->mask, s->p, s->ap, pap);
            else
                cg_dot(nb, n, s->p, s->ap, pap);
        } else {
            const int status = s->call();
            if (status)
                return status;
            cg_dot(nb, n, s->p, s->ap, pap);
        }
        double worst = 0.0;
        for (ptrdiff_t k = 0; k < nb; k++)
            if (active[k] && pap[k] <= 0.0) {
                bad = 1;
                worst = pap[k] < worst ? pap[k] : worst;
            }
        if (bad) {
            if (worst <= -1e-300) {
                s->worst = worst;
                return -1;
            }
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
        cg_step(nb, n, s->step, s->p, s->ap, s->invm, s->x, s->r, s->z,
                pap, res);
        for (ptrdiff_t k = 0; k < nb; k++) {
            if (active[k])
                coef[k] = pap[k] / rz[k];
            s->step[k] = (REAL)(coef[k] * (double)active[k]);  /* beta */
            rz[k] = pap[k];
        }
        cg_dir(nb, n, s->step, s->z, s->p);
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
"""

_lock = threading.Lock()
_kernels: dict[tuple, "tuple | None"] = {}
_failures: list[str] = []  # non-empty: native is off for this process


def _cached(load: Callable, *args):
    # A warm call costs one dict lookup.  The loader is part of the key:
    # two loaders taking the same arguments must not share an entry.
    key = (load, *args)
    try:
        return _kernels[key]
    except KeyError:
        with _lock:
            if key not in _kernels:
                _kernels[key] = load(*args)
            return _kernels[key]


def ax_kernel(nx: int, dtype: np.dtype) -> "Callable | None":
    """``ax(d, u, g, w)`` compiled for ``(nx, dtype)``, or ``None`` — "run
    the numpy body": ``nx`` above :data:`MAX_NX`, a dtype other than
    native fp64 / fp32, or a toolchain failure.

    The callable writes ``w = D^T G D u`` and checks nothing: the caller
    guarantees aligned C-contiguous ``d``, ``u`` and writeable ``w`` of
    that dtype, ``w`` shaped like ``u``, and a shape-checked ``g`` of it
    whose every ``g[e, c]`` block is contiguous.
    """
    return _cached(_load_ax, nx, dtype)[0]


def ax_gs_kernel(nx: int, dtype: np.dtype) -> "Callable | None":
    """``ax_gs(d, u, mask, l2g, g, mass, lam, w)`` from
    :func:`ax_kernel`'s shared object, or ``None`` where that is ``None``.

    It writes ``w = mask * Q^T (A + lam B) Q (mask * u)`` for a global
    ``(n,)`` or stacked ``(B, n)`` ``u`` in one pass per element, to the
    bit what ``scatter`` -> ``ax`` (-> ``w += lam * (mass * u)``) ->
    ``gather`` give, and checks nothing: the caller guarantees ``d`` and
    ``g`` as for :func:`ax_kernel`, aligned C-contiguous ``u`` and
    writeable ``w`` of that dtype and shape that do not overlap, a
    contiguous ``(n,)`` ``mask`` of it (``None``: no mask), a contiguous
    int64 ``l2g`` of ``E * nx^3`` entries in ``[0, n)`` and a contiguous
    ``(E, nx, nx, nx)`` ``mass`` of it (``None``: no mass term).  Its
    attribute ``unmasked`` is the address of the same pass without the
    closing mask, which ``cg_solve`` (:func:`cg_passes`) calls.
    """
    return _cached(_load_ax, nx, dtype)[1]


def cg_passes(dtype: np.dtype) -> "tuple[Callable, ...] | None":
    """``(cg_dot, cg_step, cg_dir, cg_solve)`` of :data:`_CG_SOURCE`
    compiled for ``dtype``, or ``None`` — "run the numpy body" — as
    :func:`ax_kernel`.

    The passes take *addresses* (``arr.ctypes.data``) and check nothing:
    the caller guarantees aligned C-contiguous ``(nb, n)`` vectors of
    ``dtype`` and ``(nb,)`` scalars (``step`` of ``dtype``, the sums
    fp64), writeable where written.  ``cg_solve`` takes a :class:`CGLoop`
    of such addresses and runs the whole iteration in one call.
    """
    return _cached(_load_cg, dtype)


def _library(
    stem: str, source: str, dtype: np.dtype, *flags: str
) -> "ctypes.CDLL | None":
    real = _C_REAL.get(dtype)
    if real is None or _failures:
        return None
    try:
        return ctypes.CDLL(_build(stem, source, [*flags, f"-DREAL={real}"]))
    except Exception as exc:  # boundary: any failure means "numpy path"
        _failures.append(repr(exc))
        warnings.warn(
            f"repro.sem.native: no compiled {stem} kernel, the numpy body "
            f"runs instead ({exc!r})", RuntimeWarning, stacklevel=6,
        )
        return None


def _load_ax(nx: int, dtype: np.dtype) -> "tuple[Callable | None, ...]":
    if not 1 <= nx <= MAX_NX:
        return None, None
    lib = _library("ax", _SOURCE, dtype, *_FLAGS, f"-DNX={nx}")
    if lib is None:
        return None, None
    size_t, ptr = ctypes.c_ssize_t, ctypes.c_void_p
    fn, gs_fn = lib.ax_native, lib.ax_gs_native
    fn.argtypes = [size_t, size_t, ptr, ptr, ptr, size_t, size_t, ptr]
    gs_fn.argtypes = ([size_t] * 3 + [ptr] * 5
                      + [size_t, size_t, ptr, ctypes.c_double, ptr])
    fn.restype = gs_fn.restype = None

    @hot_path
    def ax(d, u, g, w) -> None:
        fn(u.shape[0] if u.ndim == 5 else 1, u.shape[-4], d.ctypes.data,
           u.ctypes.data, g.ctypes.data, g.strides[0], g.strides[1],
           w.ctypes.data)

    @hot_path
    def ax_gs(d, u, mask, l2g, g, mass, lam, w) -> None:
        gs_fn(u.shape[0] if u.ndim == 2 else 1, g.shape[0], u.shape[-1],
              d.ctypes.data, u.ctypes.data,
              None if mask is None else mask.ctypes.data, l2g.ctypes.data,
              g.ctypes.data, g.strides[0], g.strides[1],
              None if mass is None else mass.ctypes.data, lam, w.ctypes.data)

    ax_gs.unmasked = ctypes.cast(lib.ax_gs_add, ctypes.c_void_p).value
    return ax, ax_gs


#: ``int call(void)``: the Python operator the compiled loop calls back.
OperatorCall = ctypes.CFUNCTYPE(ctypes.c_int)


class CGLoop(ctypes.Structure):
    """``struct cg_loop`` of :data:`_CG_SOURCE`: pointers as addresses."""

    _fields_ = [
        *((name, ctypes.c_ssize_t) for name in ("nb", "n", "it", "cap")),
        *((name, ctypes.c_void_p) for name in (
            "x", "r", "z", "p", "ap", "step", "invm", "rz", "pap", "coef",
            "res", "history", "stop", "active", "exhausted", "iterations",
            "maxiter", "fused")),
        *((name, ctypes.c_ssize_t) for name in (
            "ne", "g_estride", "g_cstride")),
        *((name, ctypes.c_void_p)
          for name in ("D", "mask", "mass", "l2g", "g")),
        ("lam", ctypes.c_double),
        ("call", OperatorCall),
        ("worst", ctypes.c_double),
    ]


class FusedPass(NamedTuple):
    """One problem's operator in one dtype as :func:`ax_gs_kernel`'s
    pass: the pass and every operand but the vectors — ``mask`` and
    ``mass`` ``None`` where the operator has none, ``n`` the global
    size.  ``fused(u, w)`` writes ``w = A u``."""

    ax_gs: Callable
    n: int
    d: np.ndarray
    mask: "np.ndarray | None"
    l2g: np.ndarray
    g: np.ndarray
    mass: "np.ndarray | None"
    lam: float

    def __call__(self, u, w) -> None:
        self.ax_gs(self.d, u, self.mask, self.l2g, self.g, self.mass,
                   self.lam, w)


def _load_cg(dtype: np.dtype) -> "tuple[Callable, ...] | None":
    lib = _library("cg", _CG_SOURCE, dtype, *_CG_FLAGS)
    if lib is None:
        return None
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
