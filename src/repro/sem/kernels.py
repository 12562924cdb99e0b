"""The production ``Ax``, and the two-call registry that names it.

:func:`ax_local_matmul` is the one local operator every problem runs:
``w = D^T G D u`` per element, for ``(E, nx, nx, nx)`` fields or stacked
``(B, E, nx, nx, nx)`` blocks sharing one geometry, streamed through the
one-pass-per-element kernel of :mod:`repro.sem.native` — the only path,
so a host needs a C compiler.

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

from repro.sem import native
from repro.sem.element import ReferenceElement
from repro.sem.operators import _check_shapes

#: A local operator: ``kernel(ref, u, g) -> w`` on ``(E, nx, nx, nx)``
#: fields or stacked ``(B, E, nx, nx, nx)`` blocks.
AxKernel = Callable[..., NDArray[np.float64]]


def ax_local_matmul(
    ref: ReferenceElement,
    u: NDArray[np.float64],
    g: NDArray[np.float64],
    out: NDArray[np.float64] | None = None,
    workspace: object = None,
) -> NDArray[np.float64]:
    """``w = D^T G D u`` through the compiled kernel, one streaming pass
    per element with the element's scratch on the C stack.

    Operands C cannot take as they are — a strided or unaligned ``u``, a
    ``g`` whose ``(nx, nx, nx)`` blocks are strided, a byte-swapped
    dtype — are copied once into contiguous native arrays; a strided
    ``out`` receives the result through one contiguous temporary.  A
    warm call with a contiguous ``out`` allocates nothing field-sized.

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
        Accepted and unused (the kernel needs no scratch), so wrappers
        that forward a ``workspace=`` keyword keep working.

    ``g`` or ``out`` in another dtype than ``u`` is a ``TypeError``;
    ``nx`` above :data:`repro.sem.native.MAX_NX`, a dtype other than
    fp64 / fp32 and a read-only or mis-shaped ``out`` are a
    ``ValueError`` — all before C runs.  Without a C compiler the call
    is the ``RuntimeError`` of :func:`repro.sem.native.ax_kernel`.
    """
    _check_shapes(ref, u, g)
    for name, arr in (("g", g), ("out", out)):
        if arr is not None and arr.dtype != u.dtype:
            raise TypeError(
                f"{name} is {arr.dtype} but u is {u.dtype}: cast one (a "
                "Geometry.as_dtype twin) — the kernel never promotes"
            )
    if out is not None and (out.shape != u.shape or not out.flags.writeable):
        raise ValueError(f"out must be writeable and of u's shape {u.shape}, "
                         f"got shape {out.shape}, read-only: "
                         f"{not out.flags.writeable}")
    dtype, nx = u.dtype.newbyteorder("="), ref.n_points
    ax = native.ax_kernel(nx, dtype)
    # fp32 inputs contract against the cached fp32 D — never a silent
    # promotion to fp64 mid-kernel.
    d = np.require(ref.deriv_as(dtype), dtype, "CA")
    u = np.require(u, dtype, "CA")
    size = dtype.itemsize
    if (g.dtype != dtype or not g.flags.aligned
            or g.strides[2:] != (nx * nx * size, nx * size, size)):
        g = np.require(g, dtype, "CA")
    result = (out if out is not None and out.flags.carray
              and out.dtype == dtype else np.empty_like(u))
    ax(d, u, g, result)
    if out is None or result is out:
        return result
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
    ``ax_backend=name``.  A problem calls it as ``kernel(ref, u, g)``."""
    if not name:
        raise ValueError("kernel name must be non-empty")
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"ax kernel {name!r} already registered")
    if not callable(kernel):
        raise TypeError(f"kernel must be callable, got {type(kernel)!r}")
    _REGISTRY[name] = kernel
