"""Spectral differentiation matrices on GLL nodes.

``D[i, j] = l_j'(x_i)`` — applying ``D`` to nodal values differentiates the
degree-``N`` interpolant exactly.  This is the paper's ``D`` (``dx`` in
Listing 1; ``dxt`` is its transpose).

Two constructions are provided: the closed-form GLL formula (used by the
library) and a barycentric construction valid for arbitrary distinct nodes
(used for cross-validation in the tests and for padded node sets).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.sem.basis import barycentric_weights
from repro.sem.legendre import legendre
from repro.sem.quadrature import gll_points_and_weights


@lru_cache(maxsize=64)
def _derivative_matrix_cached(n_points: int) -> bytes:
    n = n_points - 1
    x, _ = gll_points_and_weights(n_points)
    ln = legendre(n, x)
    d = np.zeros((n_points, n_points))
    for i in range(n_points):
        for j in range(n_points):
            if i != j:
                d[i, j] = ln[i] / (ln[j] * (x[i] - x[j]))
    d[0, 0] = -n * (n + 1) / 4.0
    d[-1, -1] = n * (n + 1) / 4.0
    # Negative-sum trick: set the remaining diagonal so rows sum to zero
    # exactly (derivative of the constant function vanishes identically).
    for i in range(1, n_points - 1):
        d[i, i] = -np.sum(d[i, :i]) - np.sum(d[i, i + 1:])
    return d.tobytes()


def derivative_matrix(n_points: int) -> NDArray[np.float64]:
    """GLL spectral differentiation matrix of size ``n_points x n_points``.

    Parameters
    ----------
    n_points:
        ``N + 1`` GLL nodes (must be >= 2).

    Returns
    -------
    ``D`` with ``(D f)(x_i) = f'(x_i)`` exact for ``f`` of degree <= N.
    """
    if n_points < 2:
        raise ValueError(f"need at least 2 points, got {n_points}")
    buf = _derivative_matrix_cached(n_points)
    return np.frombuffer(buf, dtype=np.float64).reshape(n_points, n_points).copy()


# census: reference: test_derivative.py checks derivative_matrix against it
def derivative_matrix_general(nodes: ArrayLike) -> NDArray[np.float64]:
    """Differentiation matrix for arbitrary distinct nodes (barycentric).

    ``D[i, j] = (w_j / w_i) / (x_i - x_j)`` off-diagonal, diagonal via the
    negative-sum trick.  Agrees with :func:`derivative_matrix` on GLL nodes
    to machine precision; also serves padded/odd node sets.
    """
    x = np.asarray(nodes, dtype=np.float64)
    w = barycentric_weights(x)
    n = x.size
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    d = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d
