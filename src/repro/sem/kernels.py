"""Named ``Ax`` kernel registry + the BLAS-backed sum-factorization kernel.

The paper's premise is that the matrix-free ``Ax`` dominates SEM solver
time; this module makes the CPU-side hot path as fast as the hardware
model assumes and gives every caller a single way to pick an
implementation by name:

* :func:`ax_local_matmul` — sum factorization recast as stacked
  ``(nx, nx) @ (nx, nx^2)`` matrix products via reshapes, so all three
  derivative phases hit BLAS ``dgemm`` — or, where the host has a C
  compiler, the one-pass-per-element kernel of
  :mod:`repro.sem.native` behind the same name.  Elements are
  processed in cache-sized blocks, one after the other, every block
  through the same block of scratch rows; the only parallelism inside
  a call is the BLAS's own.  A stacked
  ``(B, E, nx, nx, nx)`` input runs all ``B`` systems through each
  element block while its geometry is hot (the multi-RHS serving path).
* the registry — :func:`get_ax_kernel`, :func:`register_ax_kernel`,
  :func:`available_ax_kernels`, :func:`resolve_ax_backend` — through
  which :class:`~repro.sem.poisson.PoissonProblem`,
  :class:`~repro.core.accel.SEMAccelerator`, the examples and the
  benchmarks select ``"einsum" | "matmul" | "listing1" | "dense"``.

Every built-in kernel has the uniform signature
``kernel(ref, u, g, out=None, workspace=None)``; ``workspace`` is a
:class:`~repro.sem.workspace.SolverWorkspace` whose scratch buffers make
the call allocation-free after warm-up.  :func:`uniform` is the one
adapter that gives a plain ``(ref, u, g)`` callable that signature — the
two scalar reference kernels in the registry, and whatever callable a
problem is handed (the accelerator adapter, a lambda) — so a problem
calls its backend in exactly one form.
"""

from __future__ import annotations

import functools
import inspect
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from repro.analysis.annotations import hot_path
from repro.sem import native
from repro.sem.element import ReferenceElement
from repro.sem.operators import (
    _check_shapes,
    ax_local,
    ax_local_dense,
    ax_local_listing1,
)
from repro.sem.workspace import FUSED_BATCH_DOFS, SolverWorkspace

#: Uniform kernel signature: ``(ref, u, g, out=None, workspace=None)``.
AxKernel = Callable[..., NDArray[np.float64]]

#: Cache-blocking target: elements are processed in chunks of roughly
#: this many DOFs so the gradient/flux work arrays stay resident in the
#: last-level cache between the three phases (measured optimum on the
#: benchmark host; the exact value is not critical within ~2x).
BLOCK_DOFS: int = 16384


def _middle_axis_single_gemm(nx: int, itemsize: int) -> bool:
    """Whether the middle-axis derivative runs as one reshaped GEMM.

    The s-derivative is the one axis whose contraction index is neither
    leading nor trailing, so the plain spelling is ``rows * nx`` stacked
    ``(nx, nx) @ (nx, nx)`` products — dispatch-bound at small ``nx``.
    Contracting against ``kron(D, I)`` instead folds the whole field
    into a single ``(rows * nx, nx^2) @ (nx^2, nx^2)`` GEMM on
    contiguous views (no transposes, no extra passes) at the price of
    ``nx``-fold more FLOPs, the extras being exact multiplies by zero.

    Measured on the bench host, the single GEMM wins up to ``nx = 4``
    in fp64 (1.4–4x) and ``nx = 5`` in fp32, and loses beyond (the
    stacked matmul is already bandwidth-saturated at ``N = 7``, where
    even a same-size single GEMM is slower); those are also exactly the
    contraction lengths (<= 25) OpenBLAS handles with one unblocked
    micro-kernel sweep, keeping per-row results bit-identical across
    row counts — which the fused-batch == per-system exact-equality
    contract relies on.
    """
    return nx <= (4 if itemsize == 8 else 5)


@functools.lru_cache(maxsize=64)
def _kron_middle_ops(
    d_bytes: bytes, nx: int, dtype_str: str
) -> tuple[NDArray, NDArray]:
    """``(kron(D^T, I), kron(D, I))`` for the single-GEMM middle axis.

    Keyed by the differentiation matrix's bytes (tiny — ``nx^2``
    floats), so every reference element / dtype pair builds its pair
    once.  The first factor serves the gradient phase
    (``us = u @ kron(D^T, I)`` row-wise), the second the transposed
    divergence phase.
    """
    d = np.frombuffer(d_bytes, dtype=dtype_str).reshape(nx, nx)
    eye = np.eye(nx, dtype=d.dtype)
    grad = np.ascontiguousarray(np.kron(d.T, eye))
    div = np.ascontiguousarray(np.kron(d, eye))
    grad.setflags(write=False)
    div.setflags(write=False)
    return grad, div


@hot_path
def _ax_gradient_phase(
    d: NDArray[np.float64],
    dt: NDArray[np.float64],
    uf: NDArray[np.float64],
    ur: NDArray[np.float64],
    us: NDArray[np.float64],
    ut: NDArray[np.float64],
    r_shape: tuple[int, ...],
    t_shape: tuple[int, ...],
    kron_grad: NDArray | None = None,
    m_shape: tuple[int, ...] | None = None,
) -> None:
    """Phase 1: reference-space gradient, dgemm-backed contractions.

    The r- and t-contractions collapse to large GEMMs ((nx, nx) against
    a tall-skinny reshape); the middle axis runs as one reshaped
    ``kron(D^T, I)`` GEMM when ``kron_grad`` is given (small ``nx``,
    see :func:`_middle_axis_single_gemm`) and as numpy's stacked-matmul
    batching otherwise.  ``uf`` and the scratch are stacked
    ``(rows, nx, nx, nx)`` views (one block, or a whole folded batch).
    """
    np.matmul(d, uf.reshape(r_shape), out=ur.reshape(r_shape))
    if kron_grad is not None:
        np.matmul(uf.reshape(m_shape), kron_grad, out=us.reshape(m_shape))
    else:
        np.matmul(d, uf, out=us)
    np.matmul(uf.reshape(t_shape), dt, out=ut.reshape(t_shape))


@hot_path
def _ax_geometric_phase(
    gc: tuple[NDArray[np.float64], ...],
    ur: NDArray[np.float64],
    us: NDArray[np.float64],
    ut: NDArray[np.float64],
    wr: NDArray[np.float64],
    ws: NDArray[np.float64],
    wt: NDArray[np.float64],
    tmp: NDArray[np.float64],
) -> None:
    """Phase 2: symmetric geometric tensor, in place via one scratch.

    ``gc`` holds the six components ``(rr, rs, rt, ss, st, tt)``; each
    must broadcast against the gradient arrays (equal shapes for the
    per-system sweep, an extra leading batch axis on ``ur``/... for the
    fused sweep).  With the SoA layout every component is contiguous.
    """
    g0, g1, g2, g3, g4, g5 = gc
    np.multiply(g0, ur, out=wr)
    np.multiply(g1, us, out=tmp)
    wr += tmp
    np.multiply(g2, ut, out=tmp)
    wr += tmp
    np.multiply(g1, ur, out=ws)
    np.multiply(g3, us, out=tmp)
    ws += tmp
    np.multiply(g4, ut, out=tmp)
    ws += tmp
    np.multiply(g2, ur, out=wt)
    np.multiply(g4, us, out=tmp)
    wt += tmp
    np.multiply(g5, ut, out=tmp)
    wt += tmp


@hot_path
def _ax_divergence_phase(
    d: NDArray[np.float64],
    dt: NDArray[np.float64],
    of: NDArray[np.float64],
    wr: NDArray[np.float64],
    ws: NDArray[np.float64],
    wt: NDArray[np.float64],
    tmp: NDArray[np.float64],
    r_shape: tuple[int, ...],
    t_shape: tuple[int, ...],
    kron_div: NDArray | None = None,
    m_shape: tuple[int, ...] | None = None,
) -> None:
    """Phase 3: transposed derivative, accumulated into the output."""
    np.matmul(dt, wr.reshape(r_shape), out=of.reshape(r_shape))
    if kron_div is not None:
        np.matmul(ws.reshape(m_shape), kron_div, out=tmp.reshape(m_shape))
    else:
        np.matmul(dt, ws, out=tmp)
    of += tmp
    np.matmul(wt.reshape(t_shape), d, out=tmp.reshape(t_shape))
    of += tmp


@hot_path
def _ax_matmul_block(
    d: NDArray[np.float64],
    dt: NDArray[np.float64],
    ub: NDArray[np.float64],
    gb: NDArray[np.float64],
    ob: NDArray[np.float64],
    bufs: tuple[NDArray[np.float64], ...],
) -> None:
    """``w = D^T G D u`` on one element block (all phases, dgemm-backed).

    ``ub``/``ob`` are contiguous ``(e, nx, nx, nx)`` slices of one
    system; ``gb`` is the block's ``(e, 6, nx, nx, nx)`` geometry.  All
    seven scratch arrays in ``bufs`` match ``ub``'s shape.  Everything
    is a view.
    """
    nx = d.shape[0]
    ur, us, ut, wr, ws, wt, tmp = bufs
    e = ub.shape[0]
    r_shape = (e, nx, nx * nx)
    t_shape = (e * nx * nx, nx)
    m_shape = (e * nx, nx * nx)
    kron_grad = kron_div = None
    if _middle_axis_single_gemm(nx, d.itemsize):
        kron_grad, kron_div = _kron_middle_ops(
            d.tobytes(), nx, d.dtype.str
        )
    _ax_gradient_phase(
        d, dt, ub, ur, us, ut, r_shape, t_shape, kron_grad, m_shape
    )
    _ax_geometric_phase(
        tuple(gb[:, c] for c in range(6)), ur, us, ut, wr, ws, wt, tmp
    )
    _ax_divergence_phase(
        d, dt, ob, wr, ws, wt, tmp, r_shape, t_shape, kron_div, m_shape
    )


@hot_path
def _ax_matmul_fused_batch(
    d: NDArray[np.float64],
    dt: NDArray[np.float64],
    u: NDArray[np.float64],
    g: NDArray[np.float64],
    result: NDArray[np.float64],
    bufs: tuple[NDArray[np.float64], ...],
) -> None:
    """All-systems fused sweep for small stacked blocks.

    ``u``/``result`` are contiguous ``(B, E, nx, nx, nx)``; the GEMM
    phases fold ``(B, E)`` into one stacked-matmul axis (identical
    per-element dgemms, ~B× fewer dispatches) and the geometric phase
    broadcasts each ``(E, ...)`` component across the batch axis.  Only
    used when the whole block fits the cache budget
    (:data:`~repro.sem.workspace.FUSED_BATCH_DOFS`); results are
    bit-identical to the per-system sweep.
    """
    nx = d.shape[0]
    nb, e = u.shape[0], u.shape[1]
    fold = (nb * e, nx, nx, nx)
    uf, rf = u.reshape(fold), result.reshape(fold)
    ur, us, ut, wr, ws, wt, tmp = (buf.reshape(fold) for buf in bufs)
    r_shape = (nb * e, nx, nx * nx)
    t_shape = (nb * e * nx * nx, nx)
    m_shape = (nb * e * nx, nx * nx)
    kron_grad = kron_div = None
    if _middle_axis_single_gemm(nx, d.itemsize):
        kron_grad, kron_div = _kron_middle_ops(
            d.tobytes(), nx, d.dtype.str
        )
    _ax_gradient_phase(
        d, dt, uf, ur, us, ut, r_shape, t_shape, kron_grad, m_shape
    )
    bshape = (nb, e) + (nx,) * 3
    _ax_geometric_phase(
        tuple(g[:, c] for c in range(6)),
        *(x.reshape(bshape) for x in (ur, us, ut, wr, ws, wt, tmp)),
    )
    _ax_divergence_phase(
        d, dt, rf, wr, ws, wt, tmp, r_shape, t_shape, kron_div, m_shape
    )


def ax_local_matmul(
    ref: ReferenceElement,
    u: NDArray[np.float64],
    g: NDArray[np.float64],
    out: NDArray[np.float64] | None = None,
    workspace: SolverWorkspace | None = None,
) -> NDArray[np.float64]:
    """``w = D^T G D u`` with every derivative phase as a BLAS ``dgemm``.

    That is the numpy body, the path of a host without a C compiler;
    after the same checks, operands the compiled kernel can take
    (:func:`repro.sem.native.ax_kernel`) stream through it instead.

    The three reference-space derivatives are stacked matrix products on
    contiguous views of ``u`` (no copies):

    * ``ur``: ``D @ u.reshape(E, nx, nx^2)`` — one ``(nx, nx^2)`` GEMM
      per element, batched by ``np.matmul``;
    * ``us``: ``D @ u`` over the last two axes (``E*nx`` stacked GEMMs);
    * ``ut``: ``u @ D^T`` over the last two axes.

    The transposed phase mirrors them with ``D^T``, and the geometric
    tensor is applied with in-place elementwise ufuncs through one
    scratch buffer.  Elements are processed in cache-sized blocks
    (:data:`BLOCK_DOFS`) and every block reuses the *same* scratch rows
    — rows ``[0, e)`` of the workspace's scratch fields — so the six
    work arrays stay hot across all three phases and from one block to
    the next: the software analogue of the paper's on-chip buffer
    reuse.  A warm call with ``workspace`` performs **zero** field-sized
    heap allocations.

    Parameters
    ----------
    ref, u, g:
        As :func:`repro.sem.operators.ax_local`; ``u`` may also be a
        stacked multi-system block ``(B, E, nx, nx, nx)`` sharing one
        geometry, in which case each element block sweeps all ``B``
        systems while its geometric factors and scratch stay
        cache-resident — per-system results are bit-identical to ``B``
        separate calls.
    out:
        Optional preallocated result array, same shape as ``u``.
    workspace:
        Optional :class:`~repro.sem.workspace.SolverWorkspace` providing
        the seven scratch fields; sized for ``(E, nx)`` (and the batch
        size for stacked inputs).  Only the first ``block`` rows of
        each are touched by the blocked sweep.
    """
    _check_shapes(ref, u, g)
    for name, arr in (("g", g), ("out", out)):
        if arr is not None and arr.dtype != u.dtype:
            raise TypeError(
                f"{name} is {arr.dtype} but u is {u.dtype}: cast one (a "
                "Geometry.as_dtype twin) — the kernel never promotes"
            )
    # Match D to the field dtype (fp32 inputs contract against the
    # cached fp32 D — never a silent promotion to fp64 mid-kernel).
    d = ref.deriv_as(u.dtype)
    dt = d.T
    batched = u.ndim == 5
    num_b = u.shape[0] if batched else 1
    num_e, nx = u.shape[-4], ref.n_points
    if not u.flags.c_contiguous:
        u = np.ascontiguousarray(u)  # the reshape views below need it
    # Block sizing is per system: a batched input sweeps its systems one
    # at a time inside each element block, so the cache-resident work
    # set (scratch + geometry slice) never grows with B.
    block = max(1, min(num_e, BLOCK_DOFS // nx ** 3))
    if workspace is not None and workspace.ur.dtype == u.dtype:
        workspace.require_local(num_e, nx)
        ws_bufs = (workspace.ur, workspace.us, workspace.ut,
                   workspace.wr, workspace.ws, workspace.wt, workspace.tmp)
    else:
        # No workspace — or one whose buffers hold the other precision
        # (mixed solves keep separate fp32 workspaces; a stray mismatch
        # falls back to fresh scratch rather than corrupting GEMM
        # ``out=`` targets).
        ws_bufs = None
    if out is None:
        out = np.empty_like(u)
    # A non-contiguous ``out`` cannot serve as a matmul/reshape target;
    # compute into a contiguous result and copy once at the end.
    result = out if out.flags.c_contiguous else np.empty_like(u)

    ax = native.ax_kernel(nx, u.dtype)
    if (ax is not None and d.flags.c_contiguous
            and result.shape == u.shape and result.flags.writeable
            and g.strides[2:] == result.strides[-3:]
            and u.flags.aligned and g.flags.aligned and result.flags.aligned):
        # One streaming pass per element.  Everything below is the same
        # operator for a host without a C compiler, and for operands C
        # must not be handed (strided g blocks, a mis-shaped out, ...).
        ax(d, u, g, result)
        if result is not out:
            np.copyto(out, result)
        return out

    if batched and num_b * num_e * nx ** 3 <= FUSED_BATCH_DOFS:
        # Small stacked blocks are dispatch-bound, not bandwidth-bound:
        # fuse all systems into single GEMM/ufunc sweeps.
        rows = num_b * num_e
        if ws_bufs is not None and ws_bufs[0].shape[0] >= rows:
            bufs = tuple(buf[:rows] for buf in ws_bufs)
        else:
            bufs = tuple(
                np.empty((rows, nx, nx, nx), dtype=u.dtype)
                for _ in range(7)
            )
        _ax_matmul_fused_batch(d, dt, u, g, result, bufs)
        if result is not out:
            np.copyto(out, result)
        return out

    # Block-resident scratch: every block reuses rows ``[0, e)``, so
    # the seven work arrays stay in cache from one block to the next
    # instead of streaming through a field-sized buffer.
    scratch = ws_bufs if ws_bufs is not None else tuple(
        np.empty((block, nx, nx, nx), dtype=u.dtype) for _ in range(7)
    )
    for start in range(0, num_e, block):
        stop = min(start + block, num_e)
        bufs = tuple(buf[:stop - start] for buf in scratch)
        gb = g[start:stop]
        if batched:
            # The multi-RHS sweep: the block's geometry and scratch stay
            # hot while every system streams through, and each system
            # runs the exact op sequence of an unbatched call.
            for b in range(num_b):
                _ax_matmul_block(
                    d, dt, u[b, start:stop], gb, result[b, start:stop], bufs
                )
        else:
            _ax_matmul_block(d, dt, u[start:stop], gb, result[start:stop], bufs)

    if result is not out:
        np.copyto(out, result)
    return out


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

    Used to probe backends for ``out=``/``workspace=`` support so
    plain ``(ref, u, g)`` callables (e.g. the accelerator adapter) keep
    working through the same dispatch sites.  Probes are
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


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def uniform(kernel: Callable[..., NDArray[np.float64]]) -> AxKernel:
    """Give a plain ``kernel(ref, u, g)`` the uniform signature.

    A kernel that already takes ``out=`` and ``workspace=`` is returned
    as is.  Anything else — the scalar Listing-1 and dense reference
    kernels, the accelerator adapter, a user's lambda — is wrapped: it
    sees one system at a time (a stacked ``(B, E, nx, nx, nx)`` block is
    swept row by row) and its result is copied into ``out`` when one is
    given; ``workspace`` is accepted and unused.  The wrapped callable
    stays reachable as ``adapted.plain`` (what :func:`ax_kernel_name`
    looks through).
    """
    if accepts_keyword(kernel, "out") and accepts_keyword(kernel, "workspace"):
        return kernel

    def adapted(ref, u, g, out=None, workspace=None):
        if u.ndim == 5:
            if out is None:
                out = np.empty_like(u)
            for b in range(u.shape[0]):
                np.copyto(out[b], kernel(ref, u[b], g))
            return out
        w = kernel(ref, u, g)
        if out is not None:
            np.copyto(out, w)
            return out
        return w

    adapted.plain = kernel
    return adapted


_REGISTRY: dict[str, AxKernel] = {
    "einsum": ax_local,
    "matmul": ax_local_matmul,
    "listing1": uniform(ax_local_listing1),
    "dense": uniform(ax_local_dense),
}

#: The library's default hot-path kernel name.
DEFAULT_AX_KERNEL: str = "einsum"


def available_ax_kernels() -> tuple[str, ...]:
    """Names currently registered, in registration order."""
    return tuple(_REGISTRY)


def get_ax_kernel(name: str) -> AxKernel:
    """Look up an ``Ax`` implementation by name.

    Raises
    ------
    KeyError
        For unknown names, listing the registered alternatives.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown ax kernel {name!r}; "
            f"available: {', '.join(_REGISTRY)}"
        ) from None


def register_ax_kernel(
    name: str, kernel: AxKernel, overwrite: bool = False
) -> None:
    """Register a custom kernel under ``name``.

    Either the uniform signature
    ``kernel(ref, u, g, out=None, workspace=None)`` or a plain
    ``kernel(ref, u, g)`` callable: problems run the latter through
    :func:`uniform`, so it works everywhere — it just opts out of the
    allocation-free path.
    """
    if not name:
        raise ValueError("kernel name must be non-empty")
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"ax kernel {name!r} already registered")
    if not callable(kernel):
        raise TypeError(f"kernel must be callable, got {type(kernel)!r}")
    _REGISTRY[name] = kernel


def ax_kernel_name(kernel: AxKernel) -> "str | None":
    """The registry name of a kernel callable, or ``None`` if unregistered.

    The inverse of :func:`get_ax_kernel`, used where a backend must be
    *serialized by name* rather than by reference — the picklable
    :class:`~repro.sem.spec.ProblemSpec` a worker process rebuilds its
    problem from stores the name, so the worker resolves the identical
    registered kernel instead of pickling a closure.  A problem holds a
    registered plain callable behind its :func:`uniform` adapter, while
    ``listing1`` and ``dense`` are registered *as* adapters; the lookup
    matches either form.
    """
    plain = getattr(kernel, "plain", kernel)
    for name, registered in _REGISTRY.items():
        if registered is kernel or registered is plain:
            return name
    return None


def resolve_ax_backend(spec: "str | AxKernel") -> AxKernel:
    """Turn a kernel name or callable into a callable backend."""
    if isinstance(spec, str):
        return get_ax_kernel(spec)
    if not callable(spec):
        raise TypeError(
            f"ax backend must be a kernel name or callable, got {spec!r}"
        )
    return spec
