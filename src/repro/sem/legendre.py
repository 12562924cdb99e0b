"""Legendre polynomials and derivatives via the three-term recurrence.

These are the building blocks of the SEM basis: the paper's basis functions
are Lagrange interpolants on the Gauss-Lobatto-Legendre (GLL) points, which
are the extrema of the degree-``N`` Legendre polynomial ``L_N`` plus the
interval endpoints.

All evaluators are vectorized over the sample points.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike, NDArray


def legendre(n: int, x: ArrayLike) -> NDArray[np.float64]:
    """Evaluate the Legendre polynomial ``L_n`` at ``x``.

    Uses the Bonnet recurrence
    ``(k+1) L_{k+1}(x) = (2k+1) x L_k(x) - k L_{k-1}(x)``,
    which is numerically stable on ``[-1, 1]``.

    Parameters
    ----------
    n:
        Polynomial degree, ``n >= 0``.
    x:
        Evaluation points (any shape).

    Returns
    -------
    ``L_n(x)`` with the same shape as ``x``.
    """
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    xv = np.asarray(x, dtype=np.float64)
    p_prev = np.ones_like(xv)
    if n == 0:
        return p_prev
    p = xv.copy()
    for k in range(1, n):
        p, p_prev = ((2 * k + 1) * xv * p - k * p_prev) / (k + 1), p
    return p


def legendre_prime(n: int, x: ArrayLike) -> NDArray[np.float64]:
    """Evaluate the derivative ``L_n'`` at ``x``.

    Uses ``(1-x^2) L_n'(x) = n (L_{n-1}(x) - x L_n(x))`` away from the
    endpoints and the exact endpoint values
    ``L_n'(±1) = (±1)^{n-1} n(n+1)/2``.
    """
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    xv = np.asarray(x, dtype=np.float64)
    if n == 0:
        return np.zeros_like(xv)
    ln = legendre(n, xv)
    lnm1 = legendre(n - 1, xv)
    denom = 1.0 - xv * xv
    out = np.empty_like(xv)
    interior = np.abs(denom) > 1e-14
    out[interior] = n * (lnm1[interior] - xv[interior] * ln[interior]) / denom[interior]
    # Endpoint limits.
    at_p1 = ~interior & (xv > 0)
    at_m1 = ~interior & (xv <= 0)
    out[at_p1] = n * (n + 1) / 2.0
    out[at_m1] = ((-1.0) ** (n - 1)) * n * (n + 1) / 2.0
    return out


def q_and_evaluations(n: int, x: ArrayLike) -> tuple[
    NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]
]:
    """Evaluate ``q(x) = (1 - x^2) L_n'(x)`` and its derivative, plus ``L_n``.

    The interior GLL points of degree ``n`` are the roots of ``q``; Newton's
    method on ``q`` is the standard way to compute them.  Using
    ``q'(x) = -n (n+1) L_n(x)`` (a Legendre ODE identity) keeps the Newton
    update free of cancellation at the cluster near the endpoints.

    Returns
    -------
    ``(q, q_prime, L_n)`` evaluated at ``x``.
    """
    xv = np.asarray(x, dtype=np.float64)
    ln = legendre(n, xv)
    lp = legendre_prime(n, xv)
    q = (1.0 - xv * xv) * lp
    qp = -n * (n + 1) * ln
    return q, qp, ln
