"""Lagrange interpolation on GLL nodes (the SEM nodal basis).

The paper's basis functions (its Eq. for ``l_i``) are the Lagrange cardinal
polynomials through the GLL points.  We provide stable barycentric
evaluation, the interpolation matrix between point sets, and cardinality
checks used by the test-suite.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike, NDArray


# census: reference: the weights of derivative_matrix_general
def barycentric_weights(nodes: ArrayLike) -> NDArray[np.float64]:
    """Barycentric weights ``w_j = 1 / prod_{k != j} (x_j - x_k)``.

    Scaled by the maximum magnitude to avoid overflow for large node
    counts; the scaling cancels in all barycentric formulas.
    """
    x = np.asarray(nodes, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("nodes must be a 1-D array with at least 2 entries")
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    # Guard against duplicate nodes.
    if np.min(np.abs(diff + np.eye(x.size))) == 0.0:
        raise ValueError("nodes must be distinct")
    w = 1.0 / np.prod(diff, axis=1)
    return w / np.max(np.abs(w))


def lagrange_basis_matrix(nodes: ArrayLike, x: ArrayLike) -> NDArray[np.float64]:
    """Matrix ``B[m, j] = l_j(x_m)`` of all cardinal functions at points ``x``.

    ``B @ f_nodes`` interpolates nodal values ``f_nodes`` to ``x``.  Rows
    corresponding to evaluation points that coincide with a node are exact
    unit vectors (cardinality), handled without division by zero.
    """
    xn = np.asarray(nodes, dtype=np.float64)
    xe = np.atleast_1d(np.asarray(x, dtype=np.float64))
    w = barycentric_weights(xn)
    diff = xe[:, None] - xn[None, :]
    exact = diff == 0.0
    safe = np.where(exact, 1.0, diff)
    terms = w[None, :] / safe
    denom = terms.sum(axis=1)
    b = terms / denom[:, None]
    hit = exact.any(axis=1)
    if np.any(hit):
        b[hit] = 0.0
        rows, cols = np.nonzero(exact)
        b[rows, cols] = 1.0
    return b


def interpolate(nodes: ArrayLike, values: ArrayLike, x: ArrayLike) -> NDArray[np.float64]:
    """Evaluate the interpolant through ``(nodes, values)`` at ``x``."""
    b = lagrange_basis_matrix(nodes, x)
    v = np.asarray(values, dtype=np.float64)
    if v.shape[0] != b.shape[1]:
        raise ValueError(
            f"values has leading dim {v.shape[0]}, expected {b.shape[1]}"
        )
    return b @ v


def interpolation_matrix(from_nodes: ArrayLike, to_nodes: ArrayLike) -> NDArray[np.float64]:
    """Interpolation operator from one nodal set to another.

    Used e.g. to build the paper's §III-E *padding* transform, which embeds
    an ``N+1``-point element into a larger ``N2+1``-point kernel.
    """
    return lagrange_basis_matrix(from_nodes, to_nodes)
