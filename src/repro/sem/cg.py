"""Preconditioned conjugate gradients — the iterative solver around ``Ax``.

The paper's kernel lives inside "a preconditioned Krylov subspace method";
Nekbone, the proxy app the paper draws its CPU baseline from, is exactly a
Jacobi-preconditioned CG over the matrix-free SEM operator.  This module
provides that solver with an operator-callback interface so the FPGA
accelerator simulator can be swapped in as the ``Ax`` backend.

There is **one CG iteration** (:func:`_cg_iterate`) and **one refinement
loop** around it (:func:`_refine`); the public names are entry points:

* The iteration advances a stacked ``(B, n)`` block of independent
  systems in lockstep — one operator application and one set of fused
  ``(B, n)`` vector updates per step, with per-system convergence
  masking and per-system ``tol``/``maxiter``.  Vectors live in the rhs
  dtype (fp64, or fp32 for the mixed inner solve); every inner product
  is accumulated in fp64.  :func:`cg_solve_batched` is its public face.
* The refinement loop (:func:`cg_solve_batched_mixed`) runs that
  iteration in fp32 on the current fp64 true residual and accumulates
  the corrections in fp64.
* :func:`cg_solve` and :func:`cg_solve_mixed` are the same loops at
  ``B = 1``: they lift a 1-D system to a ``(1, n)`` view and return row
  0 (:meth:`BatchedCGResult.row`, the one rule for how a row of a block
  becomes a solo result).  A solo solve's operator is handed 1-D row
  views (``p[0]``, ``out=ap[0]``), so a callback written for vectors
  never sees a block and a SEM problem's ``apply_A`` stays on its
  un-stacked kernel path.

All four validate through :func:`_validate`, so a bad argument is the
same ``ValueError`` from every name.

The loop is allocation-free: every vector is bound once at entry — from
a :class:`~repro.sem.workspace.SolverWorkspace` when one is passed,
otherwise freshly allocated — and every update runs through in-place
ufuncs.  If the operator callback accepts an ``out=`` keyword (as
:meth:`repro.sem.poisson.PoissonProblem.apply_A` does), ``A p`` is also
computed without allocating, so a warm iteration performs zero
field-sized heap allocations.

The vector half of an iteration is three streaming passes — ``p.Ap``;
``x``, ``r``, ``z`` with ``r.z`` and ``r.r`` summed in the sweep that
produces them; ``p`` — and where the host has a C compiler the whole
loop around them runs in C (:func:`repro.sem.native.cg_passes`,
:func:`_compiled_loop`), step for step the numpy loop's.  A SEM
problem's own operator is applied there by its fused compiled pass, so
such a solve is one call that never takes the GIL; any other operator
is called back once per iteration.  The numpy body is the same
arithmetic (``x``, ``r``, ``z``, ``p`` agree to the bit given the same
scalars; only the sums' order differs) and runs without a compiler and
for buffers C must not be handed.  No parameter selects a path.

Inner products read their operands once and accumulate in fp64, fp32
products rounded to fp32 first: compiled, in eight fixed lanes; in the
numpy body one BLAS ``ddot`` per fp64 row (``np.vecdot``), a
``multiply`` into fp32 storage + a pairwise ``sum`` per fp32 row.
Either way a row's value is a function of that row alone — never of
``B`` or of its batchmates — and no other arithmetic reads across rows,
so a system solved inside a stacked block is **bit-identical** to the
same system solved alone — the property the micro-batching serving
layer (:mod:`repro.serve`) is built on.  Only the numpy body's fp64
value also depends on the BLAS thread count: OpenBLAS splits a ``ddot``
longer than 10^4 elements across its threads, so
``OPENBLAS_NUM_THREADS=1`` and ``=2`` differ in the last ulp there — a
per-process constant fleet workers inherit with their environment.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from repro.analysis.annotations import hot_path
from repro.sem import native
from repro.sem.workspace import SolverWorkspace

#: ``apply_A(v)`` / ``apply_A(v, out=buf)``, in the dtype it is handed.
Operator = Callable[..., NDArray[np.floating]]


@dataclass(frozen=True)
class CGResult:
    """Outcome of a CG solve.

    Attributes
    ----------
    x:
        Final iterate.
    iterations:
        Number of iterations executed.
    converged:
        True if the residual criterion was met before ``maxiter``, or if
        the Krylov subspace was exhausted (exact-zero search direction),
        in which case the iterate is the exact solution on that subspace.
    residual_norm:
        Final preconditioned residual 2-norm.
    residual_history:
        Per-iteration residual norms (length ``iterations + 1``,
        including the initial residual).
    """

    x: NDArray[np.floating]
    iterations: int
    converged: bool
    residual_norm: float
    residual_history: tuple[float, ...]


@dataclass(frozen=True)
class BatchedCGResult:
    """Outcome of a batched multi-RHS CG solve.

    Attributes
    ----------
    x:
        Final iterates, shape ``(B, n)``.
    iterations:
        Per-system iteration counts, shape ``(B,)`` — the iteration at
        which each system first met its own residual criterion (the
        total executed count for systems that never converged).
    converged:
        Per-system convergence flags, shape ``(B,)``.  A system frozen
        by the exact-zero-direction breakdown path (its Krylov subspace
        is exhausted and exactly solved) counts as converged even when
        its residual criterion was never met; a system whose residual
        is not finite (NaN/inf in its rhs) never does.
    residual_norm:
        Final residual 2-norms, shape ``(B,)``.
    residual_history:
        Residual norms per iteration and system, shape
        ``(total_iterations + 1, B)`` (frozen rows for systems that
        converged early).
    """

    x: NDArray[np.floating]
    iterations: NDArray[np.int64]
    converged: NDArray[np.bool_]
    residual_norm: NDArray[np.float64]
    residual_history: NDArray[np.float64]

    @property
    def all_converged(self) -> bool:
        """True if every system met its residual criterion."""
        return bool(np.all(self.converged))

    @property
    def total_iterations(self) -> int:
        """Iterations the batched loop executed (the slowest system)."""
        return self.residual_history.shape[0] - 1

    def row(self, k: int) -> CGResult:
        """System ``k`` as the :class:`CGResult` of a solo solve of it."""
        return CGResult(**_row_fields(self, k, int(self.iterations[k])))


def _row_fields(block, k: int, live: int) -> dict:
    """The fields every solo result shares, for row ``k`` of a block.

    The residual history is cut at the system's own ``live`` prefix
    (later rows are frozen repeats) and ``x`` is copied out of the
    block: every field is bit for bit what the solo name reports, and
    holding the row does not pin its batchmates.
    """
    return dict(
        x=block.x[k].copy(),
        iterations=int(block.iterations[k]),
        converged=bool(block.converged[k]),
        residual_norm=float(block.residual_norm[k]),
        residual_history=tuple(block.residual_history[: live + 1, k].tolist()),
    )


def check_tol(value, name: str = "tol") -> NDArray[np.float64]:
    """``value`` (a scalar or an array) as fp64, every entry finite and
    ``>= 0``.

    The one ``tol`` rule of the solvers and the serving front doors.  A
    NaN tolerance poisons the ``res > stop`` active mask (comparisons
    with NaN are False), freezing its system at 0 iterations as if it
    had converged; a negative one runs it silently to its cap.
    """
    arr = np.asarray(value, dtype=np.float64)
    # Entries as Python floats: a knob has one entry per system, and
    # scalar comparisons are ~20x cheaper than ufuncs on a 0-d array.
    # NaN fails both comparisons.
    if not all(0.0 <= v < math.inf for v in arr.ravel().tolist()):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return arr


def check_integral(value, name: str) -> NDArray[np.int64]:
    """``value`` (a scalar or an array) as int64 when every entry is an
    integral, non-bool, finite number in int64's range.

    Anything else — ``2.7``, ``True``, ``1e400``, ``"5"`` — is a
    ``ValueError``, never a truncation or an ``OverflowError``.
    """
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf" or not all(
        math.isfinite(v) and v == int(v) and -(2**63) <= v < 2**63
        for v in arr.ravel().tolist()
    ):
        raise ValueError(f"{name} must be an integral number, got {value!r}")
    return arr.astype(np.int64, copy=False)


def check_maxiter(value, name: str = "maxiter") -> NDArray[np.int64]:
    """``value`` as int64 by :func:`check_integral`, every entry ``>= 0``:
    the one ``maxiter`` rule of the solvers and the serving front doors."""
    arr = check_integral(value, name)
    if min(arr.ravel().tolist(), default=0) < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return arr


def _per_system(arr: NDArray, nb: int, name: str) -> NDArray:
    """``arr`` when it is a scalar or ``(B,)``."""
    if arr.ndim not in (0, 1) or (arr.ndim == 1 and arr.shape != (nb,)):
        raise ValueError(
            f"{name} must be a scalar or ({nb},), got shape {arr.shape}"
        )
    return arr


def _check_workspace(workspace, shape, dtype) -> None:
    if workspace is None:
        return
    workspace.require_batch(shape[0])
    workspace.require_global(shape[1])
    if workspace.cg_x.dtype != dtype:
        raise ValueError(
            f"workspace dtype {workspace.cg_x.dtype} != solve dtype {dtype}"
        )


def _validate(
    b, x0, precond_diag, tol, maxiter, workspace, dtype, stacked: bool
) -> tuple:
    """The one set of argument checks behind all four solver names.

    Returns ``(b, x0, md, tol, maxiter)``: rhs and initial guess as
    ``(B, n)`` arrays of ``dtype`` (a solo system lifted to a ``(1, n)``
    view), the Jacobi diagonal as given (``(n,)`` or ``(B, n)``) and
    ``tol``/``maxiter`` as scalar-or-``(B,)`` fp64/int64 arrays.
    """
    # C order: ddot sums a strided row in another order than a
    # contiguous one, and ||b|| must not depend on the caller's layout.
    b = np.asarray(b, dtype=dtype, order="C")
    if stacked:
        if b.ndim != 2 or b.shape[0] < 1:
            raise ValueError(
                f"batched rhs must be (B >= 1, n), got shape {b.shape}"
            )
    else:
        if b.ndim != 1:
            raise ValueError(
                f"rhs must be 1-D (or (B, n) for a batched solve), "
                f"got shape {b.shape}"
            )
        if np.ndim(tol) != 0 or np.ndim(maxiter) != 0:
            raise ValueError(
                "per-system tol/maxiter arrays require a stacked (B, n) rhs"
            )
    shape = b.shape  # x0 / precond_diag are checked in the caller's rank
    if not stacked:
        b = b[None]
    nb = b.shape[0]
    tol = _per_system(check_tol(tol, "tol entries"), nb, "tol")
    maxiter = _per_system(
        check_maxiter(maxiter, "maxiter entries"), nb, "maxiter"
    )
    _check_workspace(workspace, b.shape, b.dtype)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=dtype)
        if x0.shape != shape:
            raise ValueError(f"x0 shape {x0.shape} != b shape {shape}")
        x0 = x0.reshape(b.shape)
    md = None
    if precond_diag is not None:
        md = np.asarray(precond_diag, dtype=dtype)
        if md.shape not in (shape[-1:], shape):
            raise ValueError(
                f"preconditioner shape {md.shape} must be {shape[-1:]}"
                + (f" or {shape}" if stacked else "")
            )
        if (md <= 0).any():
            raise ValueError("Jacobi preconditioner has non-positive entries")
    return b, x0, md, tol, maxiter


@functools.lru_cache(maxsize=512)
def _accepts_keyword_cached(fn: Callable, name: str) -> bool:
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # builtins without introspection
        return False
    if name in params:
        return True
    return any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )


def accepts_keyword(fn: Callable, name: str) -> bool:
    """True if ``fn`` can be called with keyword argument ``name``.

    Used to probe an operator for ``out=`` support, so plain ``A(v)``
    callables keep working through the same dispatch site.  Probes are
    memoized (``signature`` reflection is slow relative to a short
    solve); bound methods are probed through their underlying function
    so the cache never pins the bound instance (e.g. a whole
    ``PoissonProblem`` behind ``prob.apply_A``), and unhashable
    callables fall back to direct inspection.
    """
    # Keyword acceptance is identical for a bound method and its
    # underlying function (binding only consumes the first positional).
    fn = getattr(fn, "__func__", fn)
    try:
        return _accepts_keyword_cached(fn, name)
    except TypeError:
        return _accepts_keyword_cached.__wrapped__(fn, name)


def _bind_operator(apply_A: Operator, rows_1d: bool, dtype) -> tuple:
    """``(apply_into, fused)``: ``apply_into(vec, dst)`` over ``(B, n)``
    buffers, probing ``out=`` once — ``rows_1d`` (a solo solve) hands the
    callback the single row of ``vec``/``dst`` as 1-D views, see the
    module docstring — and what the compiled loop may call in its place
    on ``dtype`` vectors: when ``apply_A`` is a SEM problem's own
    operator, that problem's fused pass (``_solver_pass``), else
    ``None``."""
    # Memoized (functools.lru_cache), so repeated short solves don't
    # re-run inspect.signature reflection on every call.
    out_ok = accepts_keyword(apply_A, "out")

    @hot_path
    def apply_into(vec: NDArray, dst: NDArray) -> None:
        if rows_1d:
            vec, dst = vec[0], dst[0]
        # Operators may accept ``out=`` yet still return a fresh array
        # (only writing into ``out`` is optional); honor the return
        # value whenever it isn't the destination buffer itself.
        res = apply_A(vec, out=dst) if out_ok else apply_A(vec)
        if res is not dst:
            np.copyto(dst, res)

    solver_pass = getattr(getattr(apply_A, "__self__", None),
                          "_solver_pass", None)
    fused = None if solver_pass is None else solver_pass(
        apply_A.__func__, np.dtype(dtype))
    return apply_into, fused


def _buffers(workspace, b, vectors, scalars) -> list[NDArray]:
    """The named ``(B, n)`` vectors and ``(B,)`` fp64 scalars, then the
    bool live mask: the workspace's buffers, else fresh ones."""
    nb = b.shape[0]
    if workspace is None:
        return (
            [np.empty_like(b) for _ in vectors]
            + [np.empty(nb) for _ in scalars]
            + [np.empty(nb, dtype=bool)]
        )
    # reshape is a no-op view for a batch>1 workspace and lifts the
    # unbatched (n,) buffers of a batch-of-one workspace.
    return (
        [getattr(workspace, name).reshape(b.shape) for name in vectors]
        + [getattr(workspace, name) for name in scalars]
        + [workspace.cg_active]
    )


def _raw(arrays, dtype, shape, written: bool) -> bool:
    """Whether C may be handed a bare pointer to each of ``arrays``."""
    return all(
        a.dtype == dtype and a.shape == shape and a.flags.c_contiguous
        and a.flags.aligned and (a.flags.writeable or not written)
        for a in arrays
    )


@hot_path
def _row_dots(a_vec, b_vec, tmp, dst) -> None:
    # Per-system inner products into the fp64 ``dst``.
    passes = native.cg_passes(a_vec.dtype)
    if (passes is not None
            and _raw((a_vec, b_vec), a_vec.dtype, a_vec.shape, False)
            and _raw((dst,), np.float64, a_vec.shape[:1], True)):
        passes[0](*a_vec.shape, a_vec.ctypes.data, b_vec.ctypes.data,
                  dst.ctypes.data)
        return
    if a_vec.dtype == np.float64:
        # One cblas_ddot per row: each operand is read once and nothing
        # field-sized is written.  (einsum("ij,ij->i") is not a
        # substitute: past 8192 elements a row's value depends on B.)
        np.vecdot(a_vec, b_vec, out=dst)
        return
    # fp32 vectors: dtype=float64 pins the accumulator — the precision
    # contract is that products round to fp32 storage and the sum never
    # does.  (vecdot(dtype=float64) would allocate two field-sized
    # casts and multiply in fp64.)
    np.multiply(a_vec, b_vec, out=tmp)
    np.add.reduce(tmp, axis=1, out=dst, dtype=np.float64)


@hot_path
def _row_norms(vec, tmp, dst) -> None:
    _row_dots(vec, vec, tmp, dst)
    np.sqrt(dst, out=dst)


def _start(b, r, tol, maxiter, tmp, res, stop, active) -> None:
    """Initial ``||r_i||``, thresholds ``tol_i * ||b_i||`` and live mask."""
    _row_norms(b, tmp, stop)
    stop[...] = tol * np.where(stop > 0, stop, 1.0)  # absolute if b = 0
    _row_norms(r, tmp, res)
    # A NaN/inf rhs row compares False and so never starts iterating;
    # its threshold is non-finite too (an inf row would pass inf <= inf),
    # so ``converged`` is res <= stop *and* a finite res.
    np.greater(res, stop, out=active)
    if maxiter.ndim:
        active &= maxiter > 0  # zero-cap requests never start iterating


# census: no-compiler numpy body of cg_step (the CI leg "No C compiler")
@hot_path
def _numpy_step(x, r, z, p, ap, tmp, inv_m, step, dots, rr) -> None:
    """``x += step * p``, ``r -= step * Ap``, ``z = r * inv_m``,
    ``dots = r.z``, ``rr = r.r``: ``cg_step``'s numpy body."""
    np.multiply(p, step[:, None], out=tmp)
    np.add(x, tmp, out=x)
    np.multiply(ap, step[:, None], out=tmp)
    np.subtract(r, tmp, out=r)
    if inv_m is not None:
        np.multiply(r, inv_m, out=z)
    _row_dots(r, z, tmp, dots)
    _row_dots(r, r, tmp, rr)


# census: no-compiler numpy body of cg_dir (the CI leg "No C compiler")
@hot_path
def _numpy_direction(p, z, step) -> None:
    """``p = step * p + z``: ``cg_dir``'s numpy body."""
    np.multiply(p, step[:, None], out=p)
    np.add(p, z, out=p)


# census: refusal: the CG breakdown error (p.Ap <= 0)
def _breakdown(worst: float) -> ValueError:
    return ValueError(
        f"CG breakdown: p^T A p = {worst:g} <= 0 on an active "
        "system (operator not SPD?)"
    )


#: Iterations one ``cg_solve`` call may run before it returns for a fresh
#: block of residual history, which bounds the block a huge ``maxiter``
#: allocates: more than any solve in the examples or benchmarks takes.
_HISTORY_BLOCK: int = 1024


def _compiled_loop(
    apply_into, fused, maxiter, x, r, z, p, ap, inv_m, step, rz, pap,
    coef, res, stop, active, iterations, exhausted,
) -> "NDArray | None":
    """Run the loop of :func:`_cg_iterate` as ``native.cg_solve`` and
    return its residual history — ``None`` (nothing run) without
    compiled passes or where a buffer is not one C may write through.

    With ``fused`` C applies the operator itself, and a solve is one
    call without the GIL; otherwise it calls ``apply_into`` back."""
    passes = native.cg_passes(x.dtype)
    nb, vecs = x.shape[0], (x, r, p, ap)
    if inv_m is not None:
        vecs += (z, inv_m)
    if (passes is None or not _raw(vecs, x.dtype, x.shape, True)
            or not _raw((step,), x.dtype, (nb,), True)
            or not _raw((rz, pap, coef, res, stop), np.float64, (nb,), True)
            or not _raw((active, exhausted), np.bool_, (nb,), True)):
        return None
    state = native.CGLoop(nb=nb, n=x.shape[1], **{
        name: None if a is None else a.ctypes.data for name, a in (
            ("x", x), ("r", r), ("z", z), ("p", p), ("ap", ap),
            ("step", step), ("invm", inv_m), ("rz", rz), ("pap", pap),
            ("coef", coef), ("res", res), ("stop", stop),
            ("active", active), ("exhausted", exhausted),
            ("iterations", iterations))})
    if maxiter.ndim:
        maxiter = np.ascontiguousarray(maxiter)
        state.maxiter = maxiter.ctypes.data
    errors: list[BaseException] = []
    if fused is not None and fused.n == x.shape[1]:
        state.fused, state.ne = fused.ax_gs.unmasked, fused.g.shape[0]
        state.g_estride, state.g_cstride = fused.g.strides[:2]
        state.D, state.mask, state.mass, state.l2g, state.g = (
            None if a is None else a.ctypes.data
            for a in (fused.d, fused.mask, fused.mass, fused.l2g, fused.g))
        state.lam = fused.lam
    else:
        def call() -> int:
            try:
                apply_into(p, ap)
            except BaseException as exc:  # C cannot unwind it: hand it back
                errors.append(exc)
                return 1
            return 0

        state.call = native.OperatorCall(call)
    history, cap = [res[None].copy()], int(maxiter.max())
    while True:
        block = np.empty((min(cap - state.it, _HISTORY_BLOCK), nb))
        state.history, state.cap = block.ctypes.data, state.it + len(block)
        start = state.it
        status = passes[3](state)
        history.append(block[: state.it - start])
        if status:
            raise errors[0] if errors else _breakdown(state.worst)
        if state.it < state.cap or state.it == cap:
            return np.concatenate(history)


def _cg_iterate(
    apply_into, b, x0, md, tol, maxiter, workspace, fused=None
) -> BatchedCGResult:
    """Jacobi-PCG over a ``(B, n)`` block; arguments as :func:`_validate`
    returns them, operator and ``fused`` pass as :func:`_bind_operator`
    binds them.  The loop is compiled (:func:`_compiled_loop`) where the
    host allows, else the numpy body below; the two run the same passes
    in the same order.  The returned ``x`` aliases the workspace's buffer
    when one is given (:func:`_finish` copies it out)."""
    nb = b.shape[0]
    (
        x, r, z, p, ap, tmp, inv_m, rz, pap, coef, step, res, stop, active,
    ) = _buffers(
        workspace, b,
        ("cg_x", "cg_r", "cg_z", "cg_p", "cg_ap", "cg_tmp", "cg_invm"),
        ("cg_rz", "cg_pap", "cg_alpha", "cg_beta", "cg_res", "cg_stop"),
    )
    x[...] = 0.0 if x0 is None else x0
    apply_into(x, ap)
    np.subtract(b, ap, out=r)
    if md is None:
        inv_m, z = None, r  # unpreconditioned: z aliases r, no copy needed
    else:
        np.divide(1.0, md, out=inv_m)  # broadcasts a shared (n,) diagonal
        np.multiply(r, inv_m, out=z)
    np.copyto(p, z)
    _row_dots(r, z, tmp, rz)
    _start(b, r, tol, maxiter, tmp, res, stop, active)

    # The scalar recurrence (rz, pap and their ratio ``coef`` = alpha,
    # then beta) stays fp64 on every path; ``step`` is that ratio masked
    # to the live systems and rounded to the *vector* dtype.  For fp32
    # vectors the rounding is load-bearing: broadcasting the fp64 array
    # would promote each update to fp64 and round only on store, which
    # is not the fp32 arithmetic the mixed path is specified in (a
    # Python-float alpha times an fp32 array multiplies in fp32).
    if b.dtype != np.float64:
        step = np.empty(nb, dtype=b.dtype)
    coef.fill(0.0)
    iterations = np.zeros(nb, dtype=np.int64)
    # Systems frozen by subspace exhaustion are solved on their Krylov
    # subspace even though their residual criterion never fires; they
    # are folded into the returned ``converged``.
    exhausted = np.zeros(nb, dtype=bool)
    history = _compiled_loop(
        apply_into, fused, maxiter, x, r, z, p, ap, inv_m, step, rz, pap,
        coef, res, stop, active, iterations, exhausted)
    if history is None:
        history = [res.copy()]
        iter_cap = int(maxiter.max())
        it = 0
        while active.any() and it < iter_cap:
            apply_into(p, ap)
            _row_dots(p, ap, tmp, pap)
            bad = active & (pap <= 0.0)
            if bad.any():
                worst = float(pap[bad].min())
                if worst <= -1e-300:
                    raise _breakdown(worst)
                # Exact zero directions: those systems' subspaces are
                # solved; freeze them and let the others continue.
                active &= ~bad
                exhausted |= bad
                if not active.any():
                    break
            it += 1
            iterations += active  # a system counts the steps it was live for
            # Masked step: frozen systems get alpha = beta = 0, freezing
            # their x and r exactly (bit-for-bit) while the rest iterate.
            np.divide(rz, pap, out=coef, where=active)
            np.multiply(coef, active, out=step)  # alpha
            # x, r, z; pap now carries rz_new and res ||r||^2
            _numpy_step(x, r, z, p, ap, tmp, inv_m, step, pap, res)
            np.divide(pap, rz, out=coef, where=active)
            np.multiply(coef, active, out=step)  # beta
            np.copyto(rz, pap)
            # Frozen systems have beta = 0, so their p is simply parked at
            # their (frozen) z: nothing reads it, since their alpha is 0.
            _numpy_direction(p, z, step)
            np.sqrt(res, out=res)
            history.append(res.copy())
            active &= ~(res <= stop)  # (a NaN residual stays live to its cap)
            if maxiter.ndim:
                # Per-request iteration caps: freeze systems at their own
                # maxiter (their x is already exactly the capped iterate).
                active &= it < maxiter
        history = np.stack(history)

    return BatchedCGResult(
        x=x,
        iterations=iterations,
        converged=(res <= stop) & np.isfinite(res) | exhausted,
        residual_norm=res.copy(),
        residual_history=history,
    )


def _finish(res, workspace: SolverWorkspace | None, stacked: bool):
    """A loop's result as the caller gets it: row 0 for a solo solve,
    else the block with ``x`` copied out of the workspace so it outlives
    the next solve there (a workspace-free solve already owns ``x``)."""
    if not stacked:
        return res.row(0)
    return res if workspace is None else replace(res, x=res.x.copy())


def cg_solve_batched(
    apply_A: Operator,
    b: NDArray[np.floating],
    x0: NDArray[np.floating] | None = None,
    precond_diag: NDArray[np.floating] | None = None,
    tol: float | NDArray[np.floating] = 1e-10,
    maxiter: int | NDArray[np.integer] = 1000,
    workspace: SolverWorkspace | None = None,
    dtype: np.dtype | type = np.float64,
) -> BatchedCGResult:
    """Solve ``B`` independent SPD systems ``A x_i = b_i`` in lockstep.

    All ``B`` systems share the operator ``A`` (and optionally the
    Jacobi diagonal), so every iteration applies the operator to one
    stacked ``(B, n)`` block — the matrix-free SEM ``Ax`` then reads the
    geometric factors once per element block for all systems: the
    multi-tenant serving primitive.  Each system stops updating
    (``alpha_i = 0``) once its own criterion ``||r_i|| <= tol_i *
    ||b_i||`` is met or its own cap is exhausted, while the others
    iterate on — bit-identical to solving it alone.  A system whose rhs
    is not finite (NaN/inf) is frozen the same way before its first
    iteration and reports ``iterations == 0, converged == False``; its
    batchmates are unaffected.

    Parameters
    ----------
    apply_A:
        Matrix-free operator callback; must accept a stacked ``(B, n)``
        argument (as :meth:`repro.sem.poisson.PoissonProblem.apply_A`
        does).  If it accepts an ``out=`` keyword, results are written
        into a preallocated buffer.
    b:
        Stacked right-hand sides, shape ``(B, n)``.
    x0:
        Stacked initial guesses, shape ``(B, n)`` (zeros if omitted).
    precond_diag:
        Jacobi diagonal, shape ``(n,)`` (shared by all systems) or
        ``(B, n)`` (per system); identity if omitted.  Entries must be
        positive.
    tol:
        Relative tolerance on ``||r||_2 / ||b||_2`` (absolute if
        ``b = 0``): a scalar, or a ``(B,)`` array of request-level
        tolerances.
    maxiter:
        Iteration cap: a scalar, or a ``(B,)`` array of per-request
        caps, so heterogeneous requests coalesced into one stacked
        solve finish exactly as if solved separately.
    workspace:
        Optional :class:`~repro.sem.workspace.SolverWorkspace` built
        with ``batch=B`` and this ``dtype``; supplies every CG vector
        and per-system scalar buffer.  The returned iterate is copied
        out of it, so the result stays valid across subsequent solves.
    dtype:
        Floating dtype of the iteration's *vectors* (``b``, ``x``,
        ``r``, ``p``, …).  ``float64`` (the default) is the historical
        bit-exact path; ``float32`` is the inner loop of the
        mixed-precision solvers — vector storage and updates run in
        fp32 while the per-system scalar state (``rz``, ``alpha``,
        residual norms, …) and every inner-product accumulation stay
        fp64.

    Returns
    -------
    BatchedCGResult
        Per-system iterates, iteration counts, convergence flags and
        the stacked residual history.

    Raises
    ------
    ValueError
        On shape mismatches, non-positive preconditioner entries,
        ``tol`` entries that are not finite and ``>= 0``, ``maxiter``
        entries that are not integral, non-bool and ``>= 0``, a
        workspace of the wrong size or dtype, or a CG breakdown
        (``p_i^T A p_i <= 0`` on an active system), which indicates the
        operator is not SPD on that subspace.

    Notes
    -----
    Not thread-safe per workspace: the solve mutates the workspace's
    (or the operator's own) buffers in place, so one workspace/problem
    admits one solve at a time.  Concurrent solves need one problem
    instance per concurrent solve, or serialized access (the lock
    :class:`repro.serve.SolveService` holds).
    """
    args = _validate(
        b, x0, precond_diag, tol, maxiter, workspace, np.dtype(dtype),
        stacked=True,
    )
    apply_into, fused = _bind_operator(apply_A, False, dtype)
    res = _cg_iterate(apply_into, *args, workspace, fused)
    return _finish(res, workspace, True)


def cg_solve(
    apply_A: Operator,
    b: NDArray[np.floating],
    x0: NDArray[np.floating] | None = None,
    precond_diag: NDArray[np.floating] | None = None,
    tol: float = 1e-10,
    maxiter: int = 1000,
    workspace: SolverWorkspace | None = None,
    dtype: np.dtype | type = np.float64,
) -> CGResult | BatchedCGResult:
    """Solve ``A x = b`` for SPD ``A`` with (Jacobi-)preconditioned CG.

    The solo entry point onto :func:`cg_solve_batched`'s loop: ``b`` is
    lifted to a ``(1, n)`` view, iterated with the same arithmetic,
    stopping rules and errors, and row 0 comes back as a
    :class:`CGResult`; only ``apply_A`` sees a difference — it is
    called with 1-D vectors.  Parameters are as
    :func:`cg_solve_batched` with every ``(B, n)`` read as ``(n,)``;
    ``tol`` and ``maxiter`` must be scalars.  A stacked ``(B, n)`` rhs
    is solved as :func:`cg_solve_batched` solves it and returns its
    :class:`BatchedCGResult`.
    """
    stacked = np.ndim(b) == 2
    args = _validate(
        b, x0, precond_diag, tol, maxiter, workspace, np.dtype(dtype),
        stacked,
    )
    apply_into, fused = _bind_operator(apply_A, not stacked, dtype)
    res = _cg_iterate(apply_into, *args, workspace, fused)
    return _finish(res, workspace, stacked)


# ----------------------------------------------------------------------
# Mixed precision: fp32 inner Jacobi-CG + fp64 iterative refinement
# ----------------------------------------------------------------------

#: Solve precision policies understood end to end (problems, services,
#: process shards): ``"fp64"`` is the historical bit-exact double path,
#: ``"mixed"`` the fp32-inner / fp64-refinement path.
VALID_PRECISIONS: tuple[str, ...] = ("fp64", "mixed")


def check_precision(precision: str) -> str:
    """Validate a precision policy string, returning it unchanged."""
    if precision not in VALID_PRECISIONS:
        raise ValueError(
            f"precision must be one of {VALID_PRECISIONS}, "
            f"got {precision!r}"
        )
    return precision


@dataclass(frozen=True)
class MixedCGResult:
    """Outcome of a mixed-precision refinement solve.

    Mirrors :class:`CGResult` (``x``/``iterations``/``converged``/
    ``residual_norm``) so the serving layer handles both uniformly, and
    adds the refinement bookkeeping.

    Attributes
    ----------
    x:
        Final fp64 iterate.
    iterations:
        Total fp32 inner CG iterations across all sweeps.
    converged:
        True if the fp64 true-residual criterion was met within the
        sweep cap (and refinement never stalled).
    residual_norm:
        Final **true** fp64 residual 2-norm ``||b - A x||`` — not the
        inner loop's recurrence residual.
    residual_history:
        True-residual norms per refinement sweep (length
        ``sweeps + 1``, including the initial residual).
    sweeps:
        Refinement sweeps executed (fp32 correction solves).
    inner_iterations:
        Per-sweep fp32 CG iteration counts (length ``sweeps``).
    """

    x: NDArray[np.float64]
    iterations: int
    converged: bool
    residual_norm: float
    residual_history: tuple[float, ...]
    sweeps: int
    inner_iterations: tuple[int, ...]


@dataclass(frozen=True)
class BatchedMixedCGResult:
    """Outcome of a batched mixed-precision refinement solve.

    Mirrors :class:`BatchedCGResult` plus per-system sweep counts.

    Attributes
    ----------
    x:
        Final fp64 iterates, shape ``(B, n)``.
    iterations:
        Total fp32 inner iterations per system, shape ``(B,)``.
    converged:
        Per-system fp64 true-residual convergence flags, shape ``(B,)``.
    residual_norm:
        Final true fp64 residual norms, shape ``(B,)``.
    residual_history:
        True-residual norms per sweep and system, shape
        ``(total_sweeps + 1, B)``.
    sweeps:
        Per-system sweep counts (the sweep at which each system met its
        criterion; the total executed count for systems that never
        converged), shape ``(B,)``.
    inner_iterations:
        fp32 inner CG iterations per sweep and system, shape
        ``(total_sweeps, B)``; frozen systems contribute zeros.  Row
        prefixes of length ``sweeps[k]`` recover each system's solo
        per-sweep record.
    """

    x: NDArray[np.float64]
    iterations: NDArray[np.int64]
    converged: NDArray[np.bool_]
    residual_norm: NDArray[np.float64]
    residual_history: NDArray[np.float64]
    sweeps: NDArray[np.int64]
    inner_iterations: NDArray[np.int64]

    def row(self, k: int) -> MixedCGResult:
        """System ``k`` as the :class:`MixedCGResult` of a solo solve of
        it; histories are cut at the system's own sweep count."""
        sweeps = int(self.sweeps[k])
        return MixedCGResult(
            **_row_fields(self, k, sweeps),
            sweeps=sweeps,
            inner_iterations=tuple(self.inner_iterations[:sweeps, k].tolist()),
        )


#: Default relative tolerance of the fp32 correction solves.  Each sweep
#: multiplies the true residual by roughly this factor — until the fp32
#: operator-quantization floor cuts in: the correction ``d`` is computed
#: against ``A32``, so the fp64 residual after the update carries a
#: ``(A - A32) d`` term of order ``kappa * eps_fp32`` relative to the
#: sweep's own residual (~1e-4 at the N=7/E=512 bench shape).  Pushing
#: the inner recurrence below that floor burns fp32 iterations the
#: refinement update immediately throws away — measured end to end,
#: 1e-4 needs fewer *total* inner iterations than 1e-5 at every shape
#: tried, while still reaching ``tol = 1e-10`` in about three sweeps.
MIXED_INNER_TOL: float = 1e-4

#: Default cap on refinement sweeps.  Well-conditioned SEM systems
#: converge in 2-4; hitting the cap means fp32 refinement is stalling on
#: this operator (the result reports ``converged=False``).
MIXED_MAX_SWEEPS: int = 8


def _refine(
    apply_A, apply_A32, b, x0, precond_diag, tol, maxiter, workspace,
    workspace32, inner_tol, max_sweeps, stacked: bool,
) -> MixedCGResult | BatchedMixedCGResult:
    """The refinement loop behind both mixed names: fp64 sweeps around
    fp32 :func:`_cg_iterate` solves.  ``stacked=False`` is the solo lift
    (1-D rhs, operators handed 1-D row views, row 0 returned)."""
    b, x0, md, tol, maxiter = _validate(
        b, x0, precond_diag, tol, maxiter, workspace, np.dtype(np.float64),
        stacked,
    )
    nb = b.shape[0]
    _check_workspace(workspace32, b.shape, np.dtype(np.float32))
    inner_tol = _per_system(
        check_tol(inner_tol, "inner_tol entries"), nb, "inner_tol"
    )
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    apply_into, _ = _bind_operator(apply_A, not stacked, np.float64)
    apply_into32, fused32 = _bind_operator(apply_A32, not stacked, np.float32)
    x, r, ap, tmp, res, stop, active = _buffers(
        workspace, b, ("cg_x", "cg_r", "cg_ap", "cg_tmp"),
        ("cg_res", "cg_stop"),
    )
    # The preconditioner is cast to fp32 once for every inner solve.
    md32 = None if md is None else md.astype(np.float32)
    if x0 is None:
        x.fill(0.0)
        np.copyto(r, b)  # r = b - A*0 without paying the operator
    else:
        np.copyto(x, x0)
        apply_into(x, ap)
        np.subtract(b, ap, out=r)
    _start(b, r, tol, maxiter, tmp, res, stop, active)

    sweeps = np.zeros(nb, dtype=np.int64)
    inner_hist: list[NDArray[np.int64]] = []
    history = [res.copy()]
    prev_res = res.copy()
    while active.any() and len(inner_hist) < max_sweeps:
        # fp32 correction solve A d = r.  The cast of r is the sweep's
        # only field-sized allocation; the correction starts from zero
        # (the standard refinement step), so no x0 is passed.
        r32 = r.astype(np.float32)
        r32[~active] = 0.0  # frozen systems: zero rhs => zero correction
        inner = _cg_iterate(
            apply_into32, r32, None, md32, inner_tol, maxiter, workspace32,
            fused32,
        )
        np.add(x, inner.x, out=x)  # fp64 accumulation; frozen rows add 0
        apply_into(x, ap)
        np.subtract(b, ap, out=r)  # TRUE residual, recomputed in fp64
        _row_norms(r, tmp, res)
        sweeps += active  # a system counts the sweeps it was live for
        inner_hist.append(np.where(active, inner.iterations, 0))
        history.append(res.copy())
        active &= ~(res <= stop)
        # Per-system stall guard: fp32 can no longer reduce the fp64
        # residual (conditioning exceeds what single precision
        # resolves); stop burning sweeps and report honestly instead of
        # looping to the cap.
        active &= ~(res >= prev_res)
        np.copyto(prev_res, res)

    inner_iterations = np.array(inner_hist, dtype=np.int64).reshape(-1, nb)
    res = BatchedMixedCGResult(
        x=x,
        iterations=inner_iterations.sum(axis=0),
        converged=(res <= stop) & np.isfinite(res),
        residual_norm=res.copy(),
        residual_history=np.stack(history),
        sweeps=sweeps,
        inner_iterations=inner_iterations,
    )
    return _finish(res, workspace, stacked)


def cg_solve_batched_mixed(
    apply_A: Operator,
    apply_A32: Operator,
    b: NDArray[np.float64],
    x0: NDArray[np.float64] | None = None,
    precond_diag: NDArray[np.float64] | None = None,
    tol: float | NDArray[np.floating] = 1e-10,
    maxiter: int | NDArray[np.integer] = 1000,
    workspace: SolverWorkspace | None = None,
    workspace32: SolverWorkspace | None = None,
    inner_tol: float = MIXED_INNER_TOL,
    max_sweeps: int = MIXED_MAX_SWEEPS,
) -> BatchedMixedCGResult:
    """Solve a ``(B, n)`` block to fp64 ``tol`` with fp32 inner CG sweeps.

    Classic iterative refinement around the bandwidth-bound ``Ax``: the
    expensive Krylov iteration runs entirely in fp32 (the
    :func:`cg_solve_batched` loop with ``dtype=float32`` — half the
    bytes per DOF through the sum-factorization kernels), while an
    outer fp64 loop recomputes the **true** residual ``r = b - A x``,
    feeds it back as the next fp32 correction problem ``A d = r``, and
    accumulates ``x += d`` in fp64.  Convergence is judged only on the
    fp64 true residual, so the result meets the caller's fp64 tolerance
    despite the fp32 inner arithmetic (as long as the operator is
    well-enough conditioned for fp32 to make progress; a stalled system
    terminates with ``converged=False`` instead of burning the sweep
    cap).  Systems that have met their criterion are frozen exactly —
    zero correction rhs, zero inner iterations, an fp64 iterate that
    never moves — so a system refined inside a block finishes
    bit-identically to the same system refined alone.

    Parameters
    ----------
    apply_A:
        fp64 operator callback (true-residual recomputation).
    apply_A32:
        fp32 operator callback over the same physical operator —
        typically the problem's fp32-geometry twin.  Must accept and
        return fp32 arrays.
    b:
        fp64 right-hand sides, shape ``(B, n)``.
    x0, precond_diag, tol, maxiter:
        As :func:`cg_solve_batched` (``tol``/``maxiter`` optionally
        ``(B,)`` per-request arrays).  ``maxiter`` caps each fp32 inner
        solve (per sweep); the preconditioner is cast to fp32 once for
        the inner loop.
    workspace, workspace32:
        Optional fp64 workspace for the outer loop's vectors and fp32
        workspace (same mesh/batch sizing) for the inner solves.
    inner_tol:
        Relative tolerance of each fp32 correction solve
        (default :data:`MIXED_INNER_TOL`).
    max_sweeps:
        Refinement sweep cap (default :data:`MIXED_MAX_SWEEPS`).

    Returns
    -------
    BatchedMixedCGResult
        fp64 iterates, true-residual record and sweep bookkeeping.
    """
    return _refine(
        apply_A, apply_A32, b, x0, precond_diag, tol, maxiter, workspace,
        workspace32, inner_tol, max_sweeps, stacked=True,
    )


def cg_solve_mixed(
    apply_A: Operator,
    apply_A32: Operator,
    b: NDArray[np.float64],
    x0: NDArray[np.float64] | None = None,
    precond_diag: NDArray[np.float64] | None = None,
    tol: float = 1e-10,
    maxiter: int = 1000,
    workspace: SolverWorkspace | None = None,
    workspace32: SolverWorkspace | None = None,
    inner_tol: float = MIXED_INNER_TOL,
    max_sweeps: int = MIXED_MAX_SWEEPS,
) -> MixedCGResult | BatchedMixedCGResult:
    """Solve ``A x = b`` to fp64 ``tol`` with fp32 inner CG sweeps.

    The solo entry point onto :func:`cg_solve_batched_mixed`'s
    refinement loop, exactly as :func:`cg_solve` is onto
    :func:`cg_solve_batched`'s: a 1-D ``b`` is refined as a ``(1, n)``
    block with both operators handed 1-D vectors, and row 0 comes back
    as a :class:`MixedCGResult`; ``tol`` and ``maxiter`` must be
    scalars.  A stacked ``(B, n)`` rhs is handed to
    :func:`cg_solve_batched_mixed` unchanged.
    """
    return _refine(
        apply_A, apply_A32, b, x0, precond_diag, tol, maxiter, workspace,
        workspace32, inner_tol, max_sweeps, stacked=np.ndim(b) == 2,
    )
