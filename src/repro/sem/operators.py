"""The paper's Listing 1, and the shape contract every ``Ax`` checks.

:func:`ax_local_listing1` is a literal Python port of the paper's C
code (same loop structure, same flattened indexing, same accumulation
order) — slow, and the ground truth for the accelerator simulator's
numerics and for the tests.  The production kernel every problem runs,
:func:`~repro.sem.kernels.ax_local_matmul`, lives in
:mod:`repro.sem.kernels`; the einsum and dense-matrix references it is
checked against live with the tests.

Local fields are ``(E, nx, nx, nx)`` (see :mod:`repro.sem.mesh` for the
index convention) and the geometric factors ``(E, 6, nx, nx, nx)`` in
the ``(rr, rs, rt, ss, st, tt)`` order.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from repro.sem.element import ReferenceElement


def _check_shapes(
    ref: ReferenceElement, u: NDArray[np.float64], g: NDArray[np.float64]
) -> None:
    """Validate ``(E, nx, nx, nx)`` or batched ``(B, E, nx, nx, nx)`` fields.

    The geometry is always per-element, ``(E, 6, nx, nx, nx)`` — a
    batched field block shares it across all ``B`` systems.
    """
    nx = ref.n_points
    if u.ndim == 5:
        if u.shape[2:] != (nx, nx, nx):
            raise ValueError(
                f"batched u must be (B, E, {nx}, {nx}, {nx}), got {u.shape}"
            )
        num_e = u.shape[1]
    elif u.ndim == 4 and u.shape[1:] == (nx, nx, nx):
        num_e = u.shape[0]
    else:
        raise ValueError(f"u must be (E, {nx}, {nx}, {nx}), got {u.shape}")
    if g.shape != (num_e, 6, nx, nx, nx):
        raise ValueError(
            f"g must be ({num_e}, 6, {nx}, {nx}, {nx}), got {g.shape}"
        )


def ax_local_listing1(
    ref: ReferenceElement,
    u: NDArray[np.float64],
    g: NDArray[np.float64],
) -> NDArray[np.float64]:
    """Literal port of Listing 1 (paper §II) — scalar loops, flat arrays.

    The C code stores ``u``/``w`` flattened per element with
    ``ijk = i + j*nx + k*nx*nx``, ``gxyz`` with stride 6 per node, and
    keeps ``dxt`` (= ``D``) and ``dx`` (= ``D^T``) as row-major ``nx*nx``
    arrays.  We reproduce that layout and the exact accumulation order so
    floating-point results match the hardware dataflow bit-for-bit.
    """
    _check_shapes(ref, u, g)
    nx = ref.n_points
    num_e = u.shape[0]
    # Listing 1 memory layout: dxt[l + i*nx] multiplies u(l, j, k) to give
    # the r-derivative at (i, j, k), hence dxt[row i, col l] = D[i, l];
    # dx[l + i*nx] = D^T[i, l] = D[l, i].
    dxt = ref.deriv.reshape(-1)            # row-major D
    dx = ref.deriv.T.copy().reshape(-1)    # row-major D^T
    u_flat = u.transpose(0, 3, 2, 1).reshape(num_e, -1)   # i fastest
    g_flat = g.transpose(0, 4, 3, 2, 1).reshape(num_e, -1, 6)  # [e, ijk, c]
    w_flat = np.zeros_like(u_flat)

    for e in range(num_e):
        ue = u_flat[e]
        ge = g_flat[e]
        shur = np.zeros(nx * nx * nx)
        shus = np.zeros(nx * nx * nx)
        shut = np.zeros(nx * nx * nx)
        for k in range(nx):
            for j in range(nx):
                for i in range(nx):
                    ij = i + j * nx
                    ijk = ij + k * nx * nx
                    rtmp = 0.0
                    stmp = 0.0
                    ttmp = 0.0
                    for l in range(nx):
                        rtmp += dxt[l + i * nx] * ue[l + j * nx + k * nx * nx]
                        stmp += dxt[l + j * nx] * ue[i + l * nx + k * nx * nx]
                        ttmp += dxt[l + k * nx] * ue[ij + l * nx * nx]
                    shur[ijk] = ge[ijk, 0] * rtmp + ge[ijk, 1] * stmp + ge[ijk, 2] * ttmp
                    shus[ijk] = ge[ijk, 1] * rtmp + ge[ijk, 3] * stmp + ge[ijk, 4] * ttmp
                    shut[ijk] = ge[ijk, 2] * rtmp + ge[ijk, 4] * stmp + ge[ijk, 5] * ttmp
        for k in range(nx):
            for j in range(nx):
                for i in range(nx):
                    ij = i + j * nx
                    ijk = ij + k * nx * nx
                    wijke = 0.0
                    for l in range(nx):
                        wijke += dx[l + i * nx] * shur[l + j * nx + k * nx * nx]
                        wijke += dx[l + j * nx] * shus[i + l * nx + k * nx * nx]
                        wijke += dx[l + k * nx] * shut[ij + l * nx * nx]
                    w_flat[e, ijk] = wijke
    return w_flat.reshape(num_e, nx, nx, nx).transpose(0, 3, 2, 1)


def ax_flops(n: int, num_elements: int) -> int:
    """Total FLOPs of one ``Ax`` application: ``(12(N+1)+15) * E * (N+1)^3``.

    Matches the paper's cost measure ``C(N)`` summed over adds and mults
    (see :mod:`repro.core.cost` for the split).
    """
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if num_elements < 0:
        raise ValueError(f"element count must be >= 0, got {num_elements}")
    nx = n + 1
    return (12 * nx + 15) * num_elements * nx ** 3
