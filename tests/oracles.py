"""References the compiled passes are checked against.

:func:`ax_local` spells ``w = D^T G D u`` as einsum contractions (the
library's kernel before the compiled one), :func:`ax_element_matrix` /
:func:`ax_local_dense` assemble and apply the dense element matrix
(small ``N`` only), and :func:`helmholtz_local` adds the BK5 mass term;
each also works as a plain ``(ref, u, g)`` problem backend.
:func:`lapack_geometric_factors` forms ``G`` by matrix inverse (the
library's formula before its closed form).  :func:`row_dots`, :func:`cg_step` and :func:`cg_direction` are the CG
vector passes in numpy, and :func:`python_cg_loop` is the CG loop in
Python around C's passes.  They are oracles: slow, allocating, and
called by nothing under ``src/``.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from repro.sem import native
from repro.sem.element import ReferenceElement
from repro.sem.geometry import reference_gradient
from repro.sem.operators import _check_shapes


def ax_local(
    ref: ReferenceElement,
    u: NDArray[np.float64],
    g: NDArray[np.float64],
    out: NDArray[np.float64] | None = None,
) -> NDArray[np.float64]:
    """Vectorized ``w = D^T G D u`` per element, as einsum contractions.

    ``u`` is ``(E, nx, nx, nx)`` or a stacked ``(B, E, nx, nx, nx)``
    block, swept one system at a time (each row is its solo call's
    bits).  ``out`` receives the result.
    """
    _check_shapes(ref, u, g)
    if u.ndim == 5:
        if out is None:
            out = np.empty_like(u)
        for b in range(u.shape[0]):
            ax_local(ref, u[b], g, out=out[b])
        return out
    # A dtype-matched D keeps every contraction in the field's precision.
    d = ref.deriv_as(u.dtype)
    ur = np.einsum("il,eljk->eijk", d, u, optimize=True)
    us = np.einsum("jl,eilk->eijk", d, u, optimize=True)
    ut = np.einsum("kl,eijl->eijk", d, u, optimize=True)
    wr = g[:, 0] * ur + g[:, 1] * us + g[:, 2] * ut
    ws = g[:, 1] * ur + g[:, 3] * us + g[:, 4] * ut
    wt = g[:, 2] * ur + g[:, 4] * us + g[:, 5] * ut
    w = np.einsum("li,eljk->eijk", d, wr, optimize=True)
    w += np.einsum("lj,eilk->eijk", d, ws, optimize=True)
    w += np.einsum("lk,eijl->eijk", d, wt, optimize=True)
    if out is None:
        return w
    np.copyto(out, w)
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


def lapack_geometric_factors(mesh):
    """``(g_soa, jac)`` of ``mesh`` from a batched ``np.linalg.det`` and
    ``np.linalg.inv`` of every nodal 3x3 Jacobian, ``G_pq = w3 |J|
    sum_m (dr_p/dx_m)(dr_q/dx_m)``."""
    grads = [reference_gradient(mesh.ref, mesh.coords[m]) for m in range(3)]
    # jmat[..., m, p] = dx_m / dr_p
    jmat = np.stack([np.stack(grads[m], axis=-1) for m in range(3)], axis=-2)
    jac = np.linalg.det(jmat)
    jinv = np.linalg.inv(jmat)  # jinv[..., p, m] = dr_p / dx_m
    scale = mesh.ref.weights_3d()[None] * jac
    g_soa = np.stack([
        scale * np.einsum("...m,...m->...", jinv[..., p, :], jinv[..., q, :])
        for p in range(3) for q in range(p, 3)
    ])
    return g_soa, jac


# ----------------------------------------------------------------------
# The CG vector passes and loop


def row_dots(a: NDArray, b: NDArray) -> NDArray[np.float64]:
    """Per-row inner products of ``(B, n)`` blocks: the products in the
    operands' dtype (fp32 products rounded to fp32), summed in fp64."""
    return np.add.reduce(a * b, axis=1, dtype=np.float64)


def cg_step(x, r, z, p, ap, inv_m, step):
    """``x += step * p``, ``r -= step * Ap``, ``z = r * inv_m`` in place,
    one rounding per operation as C's ``cg_step``; returns ``(r.z,
    r.r)``."""
    x += p * step[:, None]
    r -= ap * step[:, None]
    if inv_m is not None:
        np.multiply(r, inv_m, out=z)
    return row_dots(r, z), row_dots(r, r)


def cg_direction(p, z, step) -> None:
    """``p = step * p + z`` in place, as C's ``cg_dir``."""
    p *= step[:, None]
    p += z


def python_cg_loop(
    apply_into, fused, maxiter, x, r, z, p, ap, inv_m, step, rz, pap,
    coef, res, stop, active, iterations, exhausted,
):
    """``repro.sem.cg._compiled_loop`` with its loop in Python: the same
    buffers and the same stopping, freezing and scalar recurrence,
    driving C's ``cg_dot``, ``cg_step`` and ``cg_dir`` one call at a
    time and calling the operator back every iteration (``fused`` is
    not used).  Returns the residual history, or ``None`` on a
    breakdown, as the compiled loop."""
    dot, c_step, c_dir = native.cg_passes(x.dtype)[:3]

    def at(a):
        return None if a is None else a.ctypes.data

    history, it = [res.copy()], 0
    while active.any() and it < int(maxiter.max()):
        apply_into(p, ap)
        dot(*p.shape, at(p), at(ap), at(pap))
        bad = active & (pap <= 0.0)
        if bad.any():
            if pap[bad].min() <= -1e-300:
                return None
            # Exact zero directions: those systems' subspaces are
            # solved; freeze them and let the others continue.
            active &= ~bad
            exhausted |= bad
            if not active.any():
                break
        it += 1
        iterations += active  # a system counts the steps it was live for
        # Masked step: frozen systems get alpha = beta = 0, freezing
        # their x and r exactly while the rest iterate.
        np.divide(rz, pap, out=coef, where=active)
        np.multiply(coef, active, out=step)  # alpha
        # x, r, z; pap now carries rz_new and res ||r||^2
        c_step(*x.shape, *map(at, (step, p, ap, inv_m, x, r, z, pap, res)))
        np.divide(pap, rz, out=coef, where=active)
        np.multiply(coef, active, out=step)  # beta
        np.copyto(rz, pap)
        c_dir(*p.shape, *map(at, (step, z, p)))
        np.sqrt(res, out=res)
        history.append(res.copy())
        active &= ~(res <= stop)  # (a NaN residual stays live to its cap)
        if maxiter.ndim:
            active &= it < maxiter  # per-request caps
    return np.stack(history)
