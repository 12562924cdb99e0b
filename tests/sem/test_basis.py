"""Tests for repro.sem.basis (Lagrange/barycentric interpolation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sem.basis import (
    barycentric_weights,
    interpolate,
    interpolation_matrix,
    lagrange_basis_matrix,
)
from repro.sem.quadrature import gll_points_and_weights


class TestBarycentricWeights:
    def test_two_nodes(self):
        w = barycentric_weights([-1.0, 1.0])
        assert np.allclose(np.abs(w), [0.5 / 0.5, 0.5 / 0.5])
        assert np.sign(w[0]) != np.sign(w[1])

    def test_alternating_signs_on_sorted_nodes(self):
        w = barycentric_weights(gll_points_and_weights(7)[0])
        assert np.all(np.sign(w[:-1]) == -np.sign(w[1:]))

    def test_duplicate_nodes_raise(self):
        with pytest.raises(ValueError, match="distinct"):
            barycentric_weights([0.0, 0.0, 1.0])

    def test_single_node_raises(self):
        with pytest.raises(ValueError, match="at least 2"):
            barycentric_weights([0.0])


class TestCardinality:
    @pytest.mark.parametrize("npts", (2, 4, 8, 12))
    def test_basis_matrix_at_nodes_is_identity(self, npts):
        nodes = gll_points_and_weights(npts)[0]
        b = lagrange_basis_matrix(nodes, nodes)
        assert np.allclose(b, np.eye(npts), atol=1e-12)

    def test_partition_of_unity(self):
        nodes = gll_points_and_weights(9)[0]
        x = np.linspace(-1, 1, 57)
        b = lagrange_basis_matrix(nodes, x)
        assert np.allclose(b.sum(axis=1), 1.0, atol=1e-12)

    def test_evaluation_point_on_node_exact(self):
        nodes = gll_points_and_weights(6)[0]
        b = lagrange_basis_matrix(nodes, [nodes[2]])
        expected = np.zeros(6)
        expected[2] = 1.0
        assert np.array_equal(b[0], expected)


class TestInterpolation:
    @pytest.mark.parametrize("npts", (3, 6, 10))
    def test_reproduces_polynomials(self, npts):
        nodes = gll_points_and_weights(npts)[0]
        x = np.linspace(-1, 1, 23)
        for deg in range(npts):
            vals = nodes ** deg
            out = interpolate(nodes, vals, x)
            assert np.allclose(out, x ** deg, atol=1e-11), deg

    def test_spectral_accuracy_on_smooth_function(self):
        x = np.linspace(-1, 1, 101)
        errs = []
        for npts in (5, 9, 13):
            nodes = gll_points_and_weights(npts)[0]
            out = interpolate(nodes, np.sin(2 * nodes), x)
            errs.append(np.max(np.abs(out - np.sin(2 * x))))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-8

    def test_wrong_value_length_raises(self):
        with pytest.raises(ValueError, match="leading dim"):
            interpolate(gll_points_and_weights(4)[0], np.ones(5), [0.0])

    def test_interpolation_matrix_roundtrip(self):
        # Coarse -> fine -> evaluate matches direct evaluation (padding
        # transform of paper §III-E).
        coarse = gll_points_and_weights(5)[0]
        fine = gll_points_and_weights(9)[0]
        p = interpolation_matrix(coarse, fine)
        f = np.cos(coarse)
        f_fine = p @ f
        direct = interpolate(coarse, f, fine)
        assert np.allclose(f_fine, direct, atol=1e-13)

    def test_matrix_shape(self):
        p = interpolation_matrix(
            gll_points_and_weights(4)[0], gll_points_and_weights(7)[0]
        )
        assert p.shape == (7, 4)
