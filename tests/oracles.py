"""Reference ``Ax`` implementations the production kernel is checked
against.

:func:`ax_local` spells ``w = D^T G D u`` as einsum contractions (the
library's kernel before the compiled one), :func:`ax_element_matrix` /
:func:`ax_local_dense` assemble and apply the dense element matrix
(small ``N`` only), and :func:`helmholtz_local` adds the BK5 mass term.
They are oracles: slow, allocating, and called by nothing under
``src/``.  Each also works as a plain ``(ref, u, g)`` problem backend.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from repro.sem.element import ReferenceElement
from repro.sem.operators import _check_shapes


def ax_local(
    ref: ReferenceElement,
    u: NDArray[np.float64],
    g: NDArray[np.float64],
    out: NDArray[np.float64] | None = None,
    workspace=None,
) -> NDArray[np.float64]:
    """Vectorized ``w = D^T G D u`` per element, as einsum contractions.

    ``u`` is ``(E, nx, nx, nx)`` or a stacked ``(B, E, nx, nx, nx)``
    block, swept one system at a time (each row is its solo call's
    bits).  ``out`` receives the result, and a
    :class:`~repro.sem.workspace.SolverWorkspace` lends its scratch.
    """
    _check_shapes(ref, u, g)
    if u.ndim == 5:
        if out is None:
            out = np.empty_like(u)
        for b in range(u.shape[0]):
            ax_local(ref, u[b], g, out=out[b], workspace=workspace)
        return out
    if out is not None and not out.flags.c_contiguous:
        np.copyto(out, ax_local(ref, u, g, workspace=workspace))
        return out
    # A dtype-matched D keeps every contraction in the field's precision.
    d = ref.deriv_as(u.dtype)
    if out is None:
        out = np.empty_like(u)
    if workspace is None:
        ur = np.einsum("il,eljk->eijk", d, u, optimize=True)
        us = np.einsum("jl,eilk->eijk", d, u, optimize=True)
        ut = np.einsum("kl,eijl->eijk", d, u, optimize=True)
        wr = g[:, 0] * ur + g[:, 1] * us + g[:, 2] * ut
        ws = g[:, 1] * ur + g[:, 3] * us + g[:, 4] * ut
        wt = g[:, 2] * ur + g[:, 4] * us + g[:, 5] * ut
        np.einsum("li,eljk->eijk", d, wr, out=out, optimize=True)
        out += np.einsum("lj,eilk->eijk", d, ws, optimize=True)
        out += np.einsum("lk,eijl->eijk", d, wt, optimize=True)
        return out
    ne = u.shape[0]
    workspace.require_local(ne, ref.n_points)
    ur, us, ut = workspace.ur[:ne], workspace.us[:ne], workspace.ut[:ne]
    wr, ws, wt = workspace.wr[:ne], workspace.ws[:ne], workspace.wt[:ne]
    tmp = workspace.tmp[:ne]
    np.einsum("il,eljk->eijk", d, u, out=ur, optimize=True)
    np.einsum("jl,eilk->eijk", d, u, out=us, optimize=True)
    np.einsum("kl,eijl->eijk", d, u, out=ut, optimize=True)
    np.multiply(g[:, 0], ur, out=wr)
    np.multiply(g[:, 1], us, out=tmp)
    wr += tmp
    np.multiply(g[:, 2], ut, out=tmp)
    wr += tmp
    np.multiply(g[:, 1], ur, out=ws)
    np.multiply(g[:, 3], us, out=tmp)
    ws += tmp
    np.multiply(g[:, 4], ut, out=tmp)
    ws += tmp
    np.multiply(g[:, 2], ur, out=wt)
    np.multiply(g[:, 4], us, out=tmp)
    wt += tmp
    np.multiply(g[:, 5], ut, out=tmp)
    wt += tmp
    np.einsum("li,eljk->eijk", d, wr, out=out, optimize=True)
    np.einsum("lj,eilk->eijk", d, ws, out=tmp, optimize=True)
    out += tmp
    np.einsum("lk,eijl->eijk", d, wt, out=tmp, optimize=True)
    out += tmp
    return out


def ax_element_matrix(
    ref: ReferenceElement, g_e: NDArray[np.float64]
) -> NDArray[np.float64]:
    """The dense ``(nx^3, nx^3)`` element matrix ``A^e`` of one
    element's ``(6, nx, nx, nx)`` factors, in Listing-1 flat ordering
    (``i`` fastest) — prohibitively expensive in production, as the
    paper stresses, and how symmetry, semi-definiteness and the constant
    null space are checked here."""
    nx = ref.n_points
    ndof = nx ** 3
    basis = np.eye(ndof).reshape(ndof, nx, nx, nx).transpose(0, 3, 2, 1)
    w = ax_local(ref, basis, np.broadcast_to(g_e[None], (ndof, 6, nx, nx, nx)))
    return w.transpose(0, 3, 2, 1).reshape(ndof, ndof).T


def ax_local_dense(
    ref: ReferenceElement,
    u: NDArray[np.float64],
    g: NDArray[np.float64],
) -> NDArray[np.float64]:
    """Apply the densely assembled ``A^e`` of every element (small N only)."""
    _check_shapes(ref, u, g)
    nx = ref.n_points
    out = np.empty_like(u)
    for e in range(u.shape[0]):
        a = ax_element_matrix(ref, g[e])
        we = a @ u[e].transpose(2, 1, 0).reshape(-1)
        out[e] = we.reshape(nx, nx, nx).transpose(2, 1, 0)
    return out


def helmholtz_local(
    ref: ReferenceElement,
    u: NDArray[np.float64],
    g: NDArray[np.float64],
    mass: NDArray[np.float64],
    lam: float = 1.0,
) -> NDArray[np.float64]:
    """BK5-style ``w = D^T G D u + lam * B u`` (``lam = 0`` is ``Ax``)."""
    w = ax_local(ref, u, g)
    if lam != 0.0:
        w = w + lam * mass * u
    return w
