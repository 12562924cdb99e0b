"""Tests for repro.sem.geometry (geometric factors)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sem.element import ReferenceElement
from repro.sem.geometry import (
    affine_geometric_factors,
    geometric_factors,
    reference_gradient,
)
from repro.sem.mesh import BoxMesh


class TestReferenceGradient:
    def test_gradient_of_linear_fields(self, ref3, mesh3):
        x, y, z = mesh3.coords
        # d(x)/dr should be constant hx/2 per element on the box mesh.
        xr, xs, xt = reference_gradient(ref3, x)
        hx = mesh3.extent[0] / mesh3.shape[0]
        assert np.allclose(xr, hx / 2.0, atol=1e-12)
        assert np.allclose(xs, 0.0, atol=1e-12)
        assert np.allclose(xt, 0.0, atol=1e-12)

    def test_gradient_of_product_field(self, ref3, mesh3):
        # f = x*y on [0,1]^2 slabs: df/dr = y*hx/2 in reference space.
        x, y, _ = mesh3.coords
        f = x * y
        fr, fs, ft = reference_gradient(ref3, f)
        hx = mesh3.extent[0] / mesh3.shape[0]
        hy = mesh3.extent[1] / mesh3.shape[1]
        assert np.allclose(fr, y * hx / 2.0, atol=1e-10)
        assert np.allclose(fs, x * hy / 2.0, atol=1e-10)
        assert np.allclose(ft, 0.0, atol=1e-10)


class TestAffineFactors:
    def test_matches_spectral_computation_on_box(self, ref3):
        mesh = BoxMesh.build(ref3, (2, 2, 2), extent=(1.0, 2.0, 3.0))
        geo = geometric_factors(mesh)
        hx, hy, hz = (1.0 / 2, 2.0 / 2, 3.0 / 2)
        exact = affine_geometric_factors(ref3, mesh.num_elements, hx, hy, hz)
        assert np.allclose(geo.g, exact.g, atol=1e-11)
        assert np.allclose(geo.jac, exact.jac, atol=1e-12)
        assert np.allclose(geo.mass, exact.mass, atol=1e-12)

    def test_off_diagonals_vanish_on_box(self, ref3, mesh3):
        geo = geometric_factors(mesh3)
        for comp in (1, 2, 4):  # rs, rt, st
            assert np.allclose(geo.g[:, comp], 0.0, atol=1e-12)

    def test_invalid_sizes_raise(self, ref3):
        with pytest.raises(ValueError, match="positive"):
            affine_geometric_factors(ref3, 1, -1.0, 1.0, 1.0)


class TestCurvedFactors:
    def test_symmetric_tensor_psd(self, curved_geo3):
        # Reconstruct full 3x3 G at each node and check PSD.
        g = curved_geo3.g
        gm = np.empty(g.shape[:1] + g.shape[2:] + (3, 3))
        idx = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 1): 3, (1, 2): 4, (2, 2): 5}
        for (p, q), c in idx.items():
            gm[..., p, q] = g[:, c]
            gm[..., q, p] = g[:, c]
        eig = np.linalg.eigvalsh(gm)
        assert np.all(eig > -1e-12)

    def test_jacobian_positive(self, curved_geo3):
        assert np.all(curved_geo3.jac > 0)

    def test_mass_sums_to_volume(self, ref3):
        # Volume of the (undeformed) box must equal sum of the mass,
        # counting interface nodes once per element (local mass).
        mesh = BoxMesh.build(ref3, (2, 2, 1), extent=(1.0, 1.0, 1.0))
        geo = geometric_factors(mesh)
        assert geo.mass.sum() == pytest.approx(1.0, rel=1e-12)

    def test_volume_preserving_deformation_keeps_volume(self, ref3):
        mesh = BoxMesh.build(ref3, (2, 2, 2))
        # Shear: x' = x + 0.2 y is volume preserving (det = 1).
        sheared = mesh.deform(lambda x, y, z: (x + 0.2 * y, y, z))
        geo = geometric_factors(sheared)
        assert geo.mass.sum() == pytest.approx(1.0, rel=1e-12)

    def test_tangled_mesh_rejected(self, ref3):
        mesh = BoxMesh.build(ref3, (1, 1, 1))
        with pytest.raises(ValueError, match="tangled"):
            geometric_factors(mesh.deform(lambda x, y, z: (-x, y, z)))

    @pytest.mark.parametrize(
        "case", ("nan", "inf", "overflow", "inverted", "g_overflow")
    )
    def test_bad_coordinates_refused_at_construction(self, case):
        """Regression: the check was ``np.any(jac <= 0)``, which is False
        for NaN (and for a Jacobian that overflowed to +inf), so a mesh
        with one NaN coordinate became a Geometry with NaN factors — a
        problem whose every solve is NaN instead of a refusal.  And a
        mesh whose Jacobians are all finite and positive can still have
        factors past the range of a double (``g_overflow``)."""
        from repro.sem import HelmholtzProblem, PoissonProblem

        def poke(value, index):
            def f(x, y, z):
                x = x.copy()
                x[index] = value
                return x, y, z
            return f

        unit = (1.0, 1.0, 1.0)
        degree, extent, deform = {
            "nan": (3, unit, poke(np.nan, (1, 2, 1, 0))),
            # Stretching a corner outwards keeps every *finite* Jacobian
            # positive: only NaN and +inf are left to notice.
            "inf": (1, unit, poke(np.inf, (0, 1, 0, 0))),
            "overflow": (3, unit, lambda x, y, z: (1e200 * x, 1e200 * y, z)),
            "inverted": (3, unit, lambda x, y, z: (-x, y, z)),
            # |J| ~ 1e148, but G_rr ~ |J| (dr/dx)^2 ~ 1e448.
            "g_overflow": (3, (1e-150, 1e150, 1e150),
                           lambda x, y, z: (x, y, z)),
        }[case]
        ref = ReferenceElement.from_degree(degree)
        with np.errstate(all="ignore"):
            mesh = BoxMesh.build(ref, (2, 2, 2), extent=extent).deform(deform)
            for build in (
                geometric_factors,
                PoissonProblem,
                lambda m: HelmholtzProblem(m, lam=1.0),
            ):
                with pytest.raises(ValueError, match="tangled"):
                    build(mesh)


class TestClosedFormAgainstLapack:
    """The cofactor form of ``geometric_factors`` against the matrix
    inverse it replaced (``oracles.lapack_geometric_factors``), on meshes
    that end in a ragged block."""

    SHAPES = {1: (13, 13, 13), 3: (7, 7, 6), 7: (5, 3, 3)}

    def mesh(self, degree, deformed):
        ref = ReferenceElement.from_degree(degree)
        mesh = BoxMesh.build(ref, self.SHAPES[degree], extent=(1.0, 0.7, 1.3))
        if not deformed:
            return mesh
        amp = np.random.default_rng(38 + degree).uniform(0.02, 0.06, 3)
        return mesh.deform(lambda x, y, z: (
            x + amp[0] * np.sin(np.pi * y) * np.sin(np.pi * z),
            y + amp[1] * np.sin(np.pi * z) * np.sin(np.pi * x),
            z + amp[2] * np.sin(np.pi * x) * np.sin(np.pi * y),
        ))

    @pytest.mark.parametrize("deformed", (False, True), ids=("box", "deformed"))
    @pytest.mark.parametrize("degree", (1, 3, 7))
    def test_matches_lapack(self, degree, deformed):
        from oracles import lapack_geometric_factors
        from repro.sem import geometry

        mesh = self.mesh(degree, deformed)
        step = max(1, geometry._BLOCK_NODES // mesh.ref.n_points ** 3)
        assert mesh.num_elements > step and mesh.num_elements % step
        geo = geometric_factors(mesh)
        g_ref, jac_ref = lapack_geometric_factors(mesh)
        # Each node's entries against that node's largest one.
        scale = np.abs(g_ref).max(axis=0)
        assert np.all(np.abs(geo.g_soa - g_ref) <= 1e-13 * scale)
        assert np.all(np.abs(geo.jac - jac_ref) <= 1e-13 * jac_ref)
        assert np.array_equal(geo.mass, mesh.ref.weights_3d()[None] * geo.jac)
        gm = np.empty(geo.jac.shape + (3, 3))
        for c, (p, q) in enumerate(
            (p, q) for p in range(3) for q in range(p, 3)
        ):
            gm[..., p, q] = gm[..., q, p] = geo.g_soa[c]
        assert np.all(np.linalg.eigvalsh(gm) >= -1e-13 * scale[..., None])
        if not deformed:
            for c in (1, 2, 4):  # rs, rt, st
                assert np.all(np.abs(geo.g_soa[c]) <= 1e-12 * scale)


class TestSoALayout:
    """The split (SoA) geometry storage and its compatibility view."""

    def test_g_soa_is_contiguous_component_major(self, curved_geo3):
        g_soa = curved_geo3.g_soa
        assert g_soa.flags.c_contiguous
        assert g_soa.shape[0] == 6
        for c in range(6):
            assert g_soa[c].flags.c_contiguous

    def test_g_view_matches_soa_and_shares_memory(self, curved_geo3):
        geo = curved_geo3
        g = geo.g
        assert g.shape[:2] == (geo.g_soa.shape[1], 6)
        for c in range(6):
            comp = g[:, c]
            assert comp.flags.c_contiguous  # the point of the layout
            assert np.shares_memory(comp, geo.g_soa)
            assert np.array_equal(comp, geo.g_soa[c])

    def test_bad_shapes_rejected(self, ref3):
        from repro.sem.geometry import Geometry

        with pytest.raises(ValueError, match="g_soa"):
            Geometry(
                g_soa=np.zeros((5, 2, 4, 4, 4)),
                jac=np.ones((2, 4, 4, 4)),
                mass=np.ones((2, 4, 4, 4)),
            )

    def test_all_kernels_match_on_soa_geometry(self, ref3):
        """The production kernel and Listing 1 consume the SoA-backed
        view."""
        from oracles import ax_local
        from repro.sem import ax_local_listing1, get_ax_kernel

        mesh = BoxMesh.build(ref3, (2, 2, 1)).deform(
            lambda x, y, z: (x + 0.03 * np.sin(np.pi * y), y, z)
        )
        geo = geometric_factors(mesh)
        rng = np.random.default_rng(17)
        u = rng.standard_normal(mesh.l2g.shape)
        w_ref = ax_local(ref3, u, geo.g)
        scale = max(np.abs(w_ref).max(), 1.0)
        for w in (get_ax_kernel("matmul")(ref3, u, geo.g),
                  ax_local_listing1(ref3, u, geo.g)):
            assert np.allclose(w, w_ref, atol=1e-10 * scale)
