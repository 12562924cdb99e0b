"""Gauss-Lobatto-Legendre (GLL) quadrature nodes and weights.

The SEM of the paper collocates the solution on the ``N+1`` GLL points per
direction; mass matrices become diagonal and the stiffness application
reduces to the tensor-product kernel of Listing 1.

The rule with ``N+1`` nodes integrates polynomials up to degree ``2N - 1``
exactly, nodes include the endpoints ``±1``, and the weights are
``w_i = 2 / (N (N+1) L_N(x_i)^2)``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from repro.sem.legendre import legendre, q_and_evaluations

_NEWTON_TOL = 1e-15
_NEWTON_MAXIT = 100


def _gll_points(n_points: int) -> NDArray[np.float64]:
    """Compute the ``n_points`` GLL nodes on [-1, 1] (ascending)."""
    n = n_points - 1  # polynomial degree
    if n == 1:
        return np.array([-1.0, 1.0])
    # Chebyshev-Gauss-Lobatto initial guess, excellent for Newton on q.
    x = -np.cos(np.pi * np.arange(1, n) / n)
    for _ in range(_NEWTON_MAXIT):
        q, qp, _ = q_and_evaluations(n, x)
        dx = q / qp
        x = x - dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    pts = np.concatenate(([-1.0], x, [1.0]))
    # Enforce exact antisymmetry (the rule is symmetric about the origin).
    pts = 0.5 * (pts - pts[::-1])
    return pts


@lru_cache(maxsize=64)
def _gll_cached(n_points: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    n = n_points - 1
    pts = _gll_points(n_points)
    ln = legendre(n, pts)
    wts = 2.0 / (n * (n + 1) * ln * ln)
    return tuple(pts.tolist()), tuple(wts.tolist())


def gll_points_and_weights(n_points: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Return the ``n_points``-node GLL rule ``(points, weights)``.

    Parameters
    ----------
    n_points:
        Number of quadrature nodes, ``N + 1`` in the paper's notation;
        must be at least 2 (the rule always contains both endpoints).

    Returns
    -------
    points:
        Ascending nodes in ``[-1, 1]`` with ``points[0] == -1`` and
        ``points[-1] == 1``.
    weights:
        Positive weights summing to 2.

    Notes
    -----
    Results are cached per ``n_points``; callers receive fresh arrays and
    may mutate them freely.
    """
    if n_points < 2:
        raise ValueError(f"GLL rule needs at least 2 points, got {n_points}")
    pts, wts = _gll_cached(n_points)
    return np.array(pts), np.array(wts)
