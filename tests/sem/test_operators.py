"""Tests for repro.sem.operators (Listing 1, the shape contract) and
the oracles the production kernel is checked against."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sem.element import ReferenceElement
from repro.sem.geometry import geometric_factors
from repro.sem.mesh import BoxMesh
from oracles import ax_element_matrix, ax_local, ax_local_dense, helmholtz_local
from repro.core.cost import KernelCost
from repro.sem.operators import ax_local_listing1


@pytest.fixture(scope="module")
def fields3():
    """Curved mesh, geometry and a random field at degree 3."""
    ref = ReferenceElement.from_degree(3)
    mesh = BoxMesh.build(ref, (2, 1, 1)).deform(
        lambda x, y, z: (
            x + 0.05 * np.sin(np.pi * y),
            y + 0.04 * np.sin(np.pi * z),
            z + 0.03 * np.sin(np.pi * x),
        )
    )
    geo = geometric_factors(mesh)
    rng = np.random.default_rng(7)
    u = rng.standard_normal((mesh.num_elements, 4, 4, 4))
    return ref, geo, u


class TestEquivalence:
    def test_listing1_matches_vectorized(self, fields3):
        ref, geo, u = fields3
        w_fast = ax_local(ref, u, geo.g)
        w_ref = ax_local_listing1(ref, u, geo.g)
        assert np.allclose(w_fast, w_ref, rtol=1e-13, atol=1e-13)

    def test_dense_matches_vectorized(self, fields3):
        ref, geo, u = fields3
        assert np.allclose(
            ax_local_dense(ref, u, geo.g), ax_local(ref, u, geo.g),
            rtol=1e-12, atol=1e-12,
        )

    @pytest.mark.parametrize("n", (1, 2, 4))
    def test_equivalence_across_degrees(self, n):
        ref = ReferenceElement.from_degree(n)
        mesh = BoxMesh.build(ref, (1, 1, 1)).deform(
            lambda x, y, z: (x + 0.05 * y * z, y, z + 0.04 * x * y)
        )
        geo = geometric_factors(mesh)
        rng = np.random.default_rng(n)
        u = rng.standard_normal((1,) + (n + 1,) * 3)
        assert np.allclose(
            ax_local(ref, u, geo.g), ax_local_listing1(ref, u, geo.g),
            rtol=1e-12, atol=1e-12,
        )


class TestOperatorAlgebra:
    def test_linearity(self, fields3, rng):
        ref, geo, u = fields3
        v = rng.standard_normal(u.shape)
        a, b = 2.5, -1.25
        left = ax_local(ref, a * u + b * v, geo.g)
        right = a * ax_local(ref, u, geo.g) + b * ax_local(ref, v, geo.g)
        assert np.allclose(left, right, rtol=1e-12, atol=1e-12)

    def test_constant_in_nullspace(self, fields3):
        ref, geo, _ = fields3
        ones = np.ones((geo.num_elements,) + (ref.n_points,) * 3)
        w = ax_local(ref, ones, geo.g)
        assert np.allclose(w, 0.0, atol=1e-10)

    def test_self_adjoint(self, fields3, rng):
        # <v, A u> == <u, A v> element-wise (A^e symmetric).
        ref, geo, u = fields3
        v = rng.standard_normal(u.shape)
        left = np.sum(v * ax_local(ref, u, geo.g))
        right = np.sum(u * ax_local(ref, v, geo.g))
        assert left == pytest.approx(right, rel=1e-11)

    def test_positive_semidefinite(self, fields3):
        ref, geo, u = fields3
        energy = np.sum(u * ax_local(ref, u, geo.g))
        assert energy > -1e-10

    def test_energy_matches_exact_gradient_integral(self, ref3):
        # For u = x on an affine element, a(u,u) = int |grad u|^2 = volume.
        mesh = BoxMesh.build(ref3, (1, 1, 1), extent=(1.0, 1.0, 1.0))
        geo = geometric_factors(mesh)
        u = mesh.coords[0].copy()
        energy = np.sum(u * ax_local(ref3, u, geo.g))
        assert energy == pytest.approx(1.0, rel=1e-12)

    def test_out_parameter(self, fields3):
        ref, geo, u = fields3
        out = np.empty_like(u)
        result = ax_local(ref, u, geo.g, out=out)
        assert result is out
        assert np.allclose(out, ax_local(ref, u, geo.g))


class TestElementMatrix:
    def test_symmetric_psd_with_constant_nullspace(self, fields3):
        ref, geo, _ = fields3
        a = ax_element_matrix(ref, geo.g[0])
        assert np.allclose(a, a.T, atol=1e-11)
        eig = np.linalg.eigvalsh(a)
        assert eig[0] > -1e-9
        assert np.allclose(a @ np.ones(a.shape[0]), 0.0, atol=1e-9)

    def test_rank_deficiency_is_exactly_one_on_affine_element(self, ref3):
        mesh = BoxMesh.build(ref3, (1, 1, 1))
        geo = geometric_factors(mesh)
        a = ax_element_matrix(ref3, geo.g[0])
        eig = np.linalg.eigvalsh(a)
        assert np.count_nonzero(eig < 1e-10) == 1


class TestHelmholtz:
    def test_lambda_zero_recovers_ax(self, fields3):
        ref, geo, u = fields3
        mass = np.ones_like(u)
        assert np.allclose(
            helmholtz_local(ref, u, geo.g, mass, lam=0.0),
            ax_local(ref, u, geo.g),
        )

    def test_mass_term_added(self, fields3):
        ref, geo, u = fields3
        mass = np.full_like(u, 2.0)
        w0 = ax_local(ref, u, geo.g)
        w1 = helmholtz_local(ref, u, geo.g, mass, lam=3.0)
        assert np.allclose(w1 - w0, 6.0 * u, rtol=1e-12)

    def test_positive_definite_with_mass(self, fields3, rng):
        # BK5-style operator is strictly PD (no nullspace) for lam > 0.
        ref, geo, _ = fields3
        mesh_mass = np.abs(rng.standard_normal((geo.num_elements,) + (4,) * 3)) + 0.1
        ones = np.ones_like(mesh_mass)
        w = helmholtz_local(ref, ones, geo.g, mesh_mass, lam=1.0)
        assert np.sum(ones * w) > 0.1


class TestCostAccounting:
    """The ``Ax`` FLOP count has one description, :class:`KernelCost`."""

    @pytest.mark.parametrize("n", (1, 7, 15))
    def test_ax_flops_formula(self, n):
        nx = n + 1
        assert KernelCost(n).flops(10) == (12 * nx + 15) * 10 * nx ** 3

    def test_invalid_args(self):
        with pytest.raises(ValueError, match=">= 1"):
            KernelCost(0)
        with pytest.raises(ValueError, match=">= 0"):
            KernelCost(3).flops(-1)


class TestValidation:
    def test_bad_u_shape(self, fields3):
        ref, geo, u = fields3
        with pytest.raises(ValueError, match="u must be"):
            ax_local(ref, u[:, :-1], geo.g)

    def test_bad_g_shape(self, fields3):
        ref, geo, u = fields3
        with pytest.raises(ValueError, match="g must be"):
            ax_local(ref, u, geo.g[:, :5])
