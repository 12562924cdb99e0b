"""The production ``Ax``, and the two-call registry that names it.

:func:`ax_local_matmul` is the one local operator every problem runs:
``w = D^T G D u`` per element, for ``(E, nx, nx, nx)`` fields or stacked
``(B, E, nx, nx, nx)`` blocks sharing one geometry.  Where the host has
a C compiler its operands stream through the one-pass-per-element
kernel of :mod:`repro.sem.native`.  Elsewhere its numpy body runs: a
supported, correct platform, not a fast one — the three derivative
phases as BLAS GEMMs over cache-sized element blocks, every block
through the same scratch rows, and a stacked block sweeping all ``B``
systems through each element block while its geometry is hot.

:func:`get_ax_kernel` and :func:`register_ax_kernel` map names to
kernels.  ``"matmul"`` is the production kernel; anything else
registered is a wrapper somebody wants to select by name (a timing
proxy, say).  A problem's ``ax_backend`` takes such a name, a plain
``(ref, u, g)`` callable (the accelerator model) or nothing — the
production kernel.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.typing import NDArray

from repro.analysis.annotations import hot_path
from repro.sem import native
from repro.sem.element import ReferenceElement
from repro.sem.operators import _check_shapes
from repro.sem.workspace import SolverWorkspace

#: A local operator: ``kernel(ref, u, g) -> w`` on ``(E, nx, nx, nx)``
#: fields or stacked ``(B, E, nx, nx, nx)`` blocks.
AxKernel = Callable[..., NDArray[np.float64]]

#: Cache-blocking target: elements are processed in chunks of roughly
#: this many DOFs so the gradient/flux work arrays stay resident in the
#: last-level cache between the three phases (measured optimum on the
#: benchmark host; the exact value is not critical within ~2x).
BLOCK_DOFS: int = 16384


# census: no-compiler numpy body of the Ax kernel (the CI leg "No C compiler")
@hot_path
def _ax_matmul_block(
    d: NDArray[np.float64],
    dt: NDArray[np.float64],
    ub: NDArray[np.float64],
    gb: NDArray[np.float64],
    ob: NDArray[np.float64],
    bufs: tuple[NDArray[np.float64], ...],
) -> None:
    """``w = D^T G D u`` on one element block, every phase a GEMM or an
    in-place ufunc.

    ``ub``/``ob`` are contiguous ``(e, nx, nx, nx)`` slices of one
    system; ``gb`` is the block's ``(e, 6, nx, nx, nx)`` geometry.  All
    seven scratch arrays in ``bufs`` match ``ub``'s shape.  Everything
    is a view.
    """
    nx, e = d.shape[0], ub.shape[0]
    ur, us, ut, wr, ws, wt, tmp = bufs
    r_shape, t_shape = (e, nx, nx * nx), (e * nx * nx, nx)
    # Gradient: the r- and t-contractions collapse to large GEMMs
    # ((nx, nx) against a tall-skinny reshape); the middle axis runs as
    # numpy's stacked-matmul batching.
    np.matmul(d, ub.reshape(r_shape), out=ur.reshape(r_shape))
    np.matmul(d, ub, out=us)
    np.matmul(ub.reshape(t_shape), dt, out=ut.reshape(t_shape))
    # The symmetric geometric tensor (rr, rs, rt, ss, st, tt), in place
    # through one scratch; with the SoA layout every component is
    # contiguous.
    g0, g1, g2, g3, g4, g5 = (gb[:, c] for c in range(6))
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
    # Divergence: the transposed contractions, accumulated into ``ob``.
    np.matmul(dt, wr.reshape(r_shape), out=ob.reshape(r_shape))
    np.matmul(dt, ws, out=tmp)
    ob += tmp
    np.matmul(wt.reshape(t_shape), d, out=tmp.reshape(t_shape))
    ob += tmp


def ax_local_matmul(
    ref: ReferenceElement,
    u: NDArray[np.float64],
    g: NDArray[np.float64],
    out: NDArray[np.float64] | None = None,
    workspace: SolverWorkspace | None = None,
) -> NDArray[np.float64]:
    """``w = D^T G D u``: the compiled kernel where it can take the
    operands, else the numpy body.

    The numpy body contracts contiguous views of ``u`` (no copies):

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
        Reference element, ``(E, nx, nx, nx)`` fields — or a stacked
        ``(B, E, nx, nx, nx)`` block sharing one geometry, each system
        bit-identical to its own call — and the ``(E, 6, nx, nx, nx)``
        factors ``(rr, rs, rt, ss, st, tt)``, all in one dtype.
    out:
        Optional preallocated result array, same shape as ``u``.
    workspace:
        Optional :class:`~repro.sem.workspace.SolverWorkspace` providing
        the seven scratch fields of the numpy body; sized for
        ``(E, nx)``.  Only the first ``block`` rows of each are touched.
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
    batched = u.ndim == 5
    num_b = u.shape[0] if batched else 1
    num_e, nx = u.shape[-4], ref.n_points
    # A workspace whose buffers hold the other precision (mixed solves
    # keep separate fp32 workspaces) is not used: fresh scratch instead
    # of corrupt GEMM ``out=`` targets.
    if workspace is not None and workspace.ur.dtype != u.dtype:
        workspace = None
    if workspace is not None:
        workspace.require_local(num_e, nx)
    if not u.flags.c_contiguous:
        u = np.ascontiguousarray(u)  # the reshape views below need it
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
    else:
        # Block sizing is per system: the cache-resident work set
        # (scratch + geometry slice) never grows with B.
        block = max(1, min(num_e, BLOCK_DOFS // nx ** 3))
        if workspace is not None:
            scratch = (workspace.ur, workspace.us, workspace.ut,
                       workspace.wr, workspace.ws, workspace.wt, workspace.tmp)
        else:
            scratch = tuple(
                np.empty((block, nx, nx, nx), dtype=u.dtype)
                for _ in range(7)
            )
        dt = d.T
        for start in range(0, num_e, block):
            stop = min(start + block, num_e)
            bufs = tuple(buf[:stop - start] for buf in scratch)
            gb = g[start:stop]
            # A stacked block sweeps every system through the block
            # while its geometry and scratch are hot, each system with
            # the exact op sequence of an unbatched call.
            for b in range(num_b):
                ub = u[b, start:stop] if batched else u[start:stop]
                ob = result[b, start:stop] if batched else result[start:stop]
                _ax_matmul_block(d, dt, ub, gb, ob, bufs)

    if result is not out:
        np.copyto(out, result)
    return out


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, AxKernel] = {"matmul": ax_local_matmul}


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
    """Register ``kernel(ref, u, g) -> w`` under ``name``, for
    ``ax_backend=name``.  It may take ``out=`` / ``workspace=`` too; a
    problem passes neither."""
    if not name:
        raise ValueError("kernel name must be non-empty")
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"ax kernel {name!r} already registered")
    if not callable(kernel):
        raise TypeError(f"kernel must be callable, got {type(kernel)!r}")
    _REGISTRY[name] = kernel
