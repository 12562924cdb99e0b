"""Tests for repro.sem.legendre."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sem.legendre import (
    legendre,
    legendre_prime,
    q_and_evaluations,
)


class TestLegendre:
    def test_degree_zero_is_one(self):
        x = np.linspace(-1, 1, 11)
        assert np.array_equal(legendre(0, x), np.ones(11))

    def test_degree_one_is_identity(self):
        x = np.linspace(-1, 1, 11)
        assert np.allclose(legendre(1, x), x)

    @pytest.mark.parametrize("n", range(2, 12))
    def test_endpoint_values(self, n):
        # L_n(1) = 1, L_n(-1) = (-1)^n
        assert legendre(n, 1.0) == pytest.approx(1.0, abs=1e-13)
        assert legendre(n, -1.0) == pytest.approx((-1.0) ** n, abs=1e-13)

    @pytest.mark.parametrize("n", range(0, 10))
    def test_parity(self, n):
        x = np.linspace(0.05, 0.95, 7)
        left = legendre(n, -x)
        right = ((-1.0) ** n) * legendre(n, x)
        assert np.allclose(left, right, atol=1e-14)

    def test_matches_numpy_polynomial(self):
        x = np.linspace(-1, 1, 33)
        for n in range(0, 16):
            coeffs = np.zeros(n + 1)
            coeffs[n] = 1.0
            expected = np.polynomial.legendre.legval(x, coeffs)
            assert np.allclose(legendre(n, x), expected, atol=1e-12), n

    def test_orthogonality_under_gauss_quadrature(self):
        # integrate L_m L_n over [-1,1] with a fine Gauss rule.
        xg, wg = np.polynomial.legendre.leggauss(32)
        for m in range(6):
            for n in range(6):
                val = np.sum(wg * legendre(m, xg) * legendre(n, xg))
                expected = 2.0 / (2 * n + 1) if m == n else 0.0
                assert val == pytest.approx(expected, abs=1e-12)

    def test_negative_degree_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            legendre(-1, 0.0)

    def test_scalar_input_shape(self):
        out = legendre(5, 0.3)
        assert np.ndim(out) == 0


class TestLegendrePrime:
    @pytest.mark.parametrize("n", range(1, 12))
    def test_endpoint_derivatives(self, n):
        expected = n * (n + 1) / 2.0
        assert legendre_prime(n, 1.0) == pytest.approx(expected, rel=1e-13)
        assert legendre_prime(n, -1.0) == pytest.approx(
            ((-1.0) ** (n - 1)) * expected, rel=1e-13
        )

    @pytest.mark.parametrize("n", range(0, 10))
    def test_matches_finite_differences(self, n):
        x = np.linspace(-0.9, 0.9, 13)
        h = 1e-6
        fd = (legendre(n, x + h) - legendre(n, x - h)) / (2 * h)
        assert np.allclose(legendre_prime(n, x), fd, atol=1e-7)

    def test_derivative_of_constant_is_zero(self):
        assert np.all(legendre_prime(0, np.linspace(-1, 1, 5)) == 0.0)

    def test_negative_degree_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            legendre_prime(-2, 0.0)


class TestQFunction:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_q_vanishes_at_endpoints(self, n):
        q, _, _ = q_and_evaluations(n, np.array([-1.0, 1.0]))
        assert np.allclose(q, 0.0, atol=1e-13)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_q_prime_identity(self, n):
        # q'(x) = -n(n+1) L_n(x) via the Legendre ODE.
        x = np.linspace(-0.95, 0.95, 11)
        h = 1e-6
        qp_fd = (q_and_evaluations(n, x + h)[0] - q_and_evaluations(n, x - h)[0]) / (2 * h)
        _, qp, _ = q_and_evaluations(n, x)
        assert np.allclose(qp, qp_fd, atol=1e-6)
