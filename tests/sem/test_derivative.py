"""Tests for repro.sem.derivative (spectral differentiation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sem.derivative import derivative_matrix, derivative_matrix_general
from repro.sem.quadrature import gll_points_and_weights


class TestDerivativeMatrix:
    @pytest.mark.parametrize("npts", range(2, 14))
    def test_exact_on_polynomials(self, npts):
        d = derivative_matrix(npts)
        x = gll_points_and_weights(npts)[0]
        for deg in range(npts):
            p = x ** deg
            dp = deg * x ** (deg - 1) if deg > 0 else np.zeros_like(x)
            assert np.allclose(d @ p, dp, atol=1e-10), (npts, deg)

    @pytest.mark.parametrize("npts", range(2, 14))
    def test_rows_sum_to_zero(self, npts):
        d = derivative_matrix(npts)
        assert np.allclose(d.sum(axis=1), 0.0, atol=1e-12)

    @pytest.mark.parametrize("npts", (3, 6, 11))
    def test_corner_values(self, npts):
        n = npts - 1
        d = derivative_matrix(npts)
        assert d[0, 0] == pytest.approx(-n * (n + 1) / 4.0)
        assert d[-1, -1] == pytest.approx(n * (n + 1) / 4.0)

    @pytest.mark.parametrize("npts", (4, 8))
    def test_centro_antisymmetry(self, npts):
        # D(i,j) = -D(N-i, N-j) for the symmetric GLL node set.
        d = derivative_matrix(npts)
        assert np.allclose(d, -d[::-1, ::-1], atol=1e-11)

    def test_two_point_matrix(self):
        d = derivative_matrix(2)
        assert np.allclose(d, [[-0.5, 0.5], [-0.5, 0.5]])

    def test_too_few_points_raises(self):
        with pytest.raises(ValueError, match="at least 2"):
            derivative_matrix(1)

    def test_returns_fresh_array(self):
        d = derivative_matrix(4)
        d[0, 0] = 123.0
        assert derivative_matrix(4)[0, 0] != 123.0

    def test_integration_by_parts_identity(self):
        # For GLL collocation: W D + (W D)^T = B_N - B_0 (boundary terms),
        # the discrete integration-by-parts that makes D^T G D symmetric.
        npts = 8
        x, w = gll_points_and_weights(npts)
        d = derivative_matrix(npts)
        wd = np.diag(w) @ d
        boundary = np.zeros((npts, npts))
        boundary[0, 0] = -1.0
        boundary[-1, -1] = 1.0
        assert np.allclose(wd + wd.T, boundary, atol=1e-11)


class TestGeneralDerivativeMatrix:
    @pytest.mark.parametrize("npts", (3, 7, 12))
    def test_agrees_with_gll_formula(self, npts):
        d1 = derivative_matrix(npts)
        d2 = derivative_matrix_general(gll_points_and_weights(npts)[0])
        assert np.allclose(d1, d2, atol=1e-9)

    def test_works_on_uniform_nodes(self):
        x = np.linspace(-1, 1, 6)
        d = derivative_matrix_general(x)
        for deg in range(6):
            p = x ** deg
            dp = deg * x ** (deg - 1) if deg > 0 else np.zeros_like(x)
            assert np.allclose(d @ p, dp, atol=1e-9)

    def test_rows_sum_to_zero(self):
        d = derivative_matrix_general(np.array([-1.0, -0.3, 0.4, 1.0]))
        assert np.allclose(d.sum(axis=1), 0.0, atol=1e-12)
