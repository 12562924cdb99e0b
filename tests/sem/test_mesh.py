"""Tests for repro.sem.mesh (BoxMesh and its node numbering)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sem.element import ReferenceElement
from repro.sem.mesh import BoxMesh


class TestBuild:
    def test_counts(self, ref3):
        mesh = BoxMesh.build(ref3, (2, 3, 4))
        assert mesh.num_elements == 24
        assert mesh.num_local_dofs == 24 * 64
        assert mesh.global_grid == (7, 10, 13)
        assert mesh.n_global == 7 * 10 * 13

    def test_invalid_args(self, ref3):
        with pytest.raises(ValueError, match=">= 1"):
            BoxMesh.build(ref3, (0, 1, 1))
        with pytest.raises(ValueError, match="positive"):
            BoxMesh.build(ref3, (1, 1, 1), extent=(1.0, -1.0, 1.0))

    def test_coordinate_ranges(self, ref3):
        mesh = BoxMesh.build(ref3, (2, 2, 2), extent=(2.0, 3.0, 4.0))
        x, y, z = mesh.coords
        assert x.min() == pytest.approx(0.0) and x.max() == pytest.approx(2.0)
        assert y.min() == pytest.approx(0.0) and y.max() == pytest.approx(3.0)
        assert z.min() == pytest.approx(0.0) and z.max() == pytest.approx(4.0)

    def test_coordinate_axis_convention(self, ref3):
        # index i varies x, j varies y, k varies z.
        mesh = BoxMesh.build(ref3, (1, 1, 1))
        x, y, z = mesh.coords
        assert np.allclose(np.diff(x[0, :, 0, 0]) > 0, True)
        assert np.allclose(x[0, :, 1, 2], x[0, :, 0, 0])
        assert np.allclose(np.diff(y[0, 0, :, 0]) > 0, True)
        assert np.allclose(np.diff(z[0, 0, 0, :]) > 0, True)

    def test_shared_nodes_have_shared_coordinates(self, mesh3):
        # Nodes with the same global id must carry identical coordinates.
        for c in mesh3.coords:
            flat_ids = mesh3.l2g.reshape(-1)
            flat_c = c.reshape(-1)
            agg = {}
            for gid, val in zip(flat_ids, flat_c):
                if gid in agg:
                    assert val == pytest.approx(agg[gid], abs=1e-13)
                else:
                    agg[gid] = val


class TestConnectivity:
    def test_l2g_covers_all_global_nodes(self, mesh3):
        assert set(np.unique(mesh3.l2g)) == set(range(mesh3.n_global))

    def test_multiplicity(self, ref3):
        mesh = BoxMesh.build(ref3, (2, 1, 1))
        mult = np.bincount(mesh.l2g.ravel(), minlength=mesh.n_global)
        # Face between the two elements is shared by exactly 2.
        assert set(np.unique(mult)) == {1, 2}
        nx = ref3.n_points
        shared = np.count_nonzero(mult == 2)
        assert shared == nx * nx  # one interface face of nodes

    def test_boundary_mask_counts(self, ref3):
        mesh = BoxMesh.build(ref3, (2, 2, 2))
        mask = mesh.boundary_mask()
        ngx, ngy, ngz = mesh.global_grid
        interior = (ngx - 2) * (ngy - 2) * (ngz - 2)
        assert np.count_nonzero(~mask) == interior

    def test_single_element_boundary_is_shell(self, ref3):
        mesh = BoxMesh.build(ref3, (1, 1, 1))
        mask = mesh.boundary_mask()
        n = ref3.n_points
        assert np.count_nonzero(mask) == n ** 3 - (n - 2) ** 3


class TestDeform:
    def test_identity_deform_preserves_coords(self, mesh3):
        out = mesh3.deform(lambda x, y, z: (x, y, z))
        assert np.array_equal(out.coords, mesh3.coords)
        assert out.l2g is mesh3.l2g

    def test_shape_change_rejected(self, mesh3):
        with pytest.raises(ValueError, match="changed coordinate shape"):
            mesh3.deform(lambda x, y, z: (x[..., :-1], y[..., :-1], z[..., :-1]))


class TestAffineNumbering:
    """Global ids run z-fastest, the element's memory-fastest axis, so
    every element's map is ``org[e] + a*s0 + b*s1 + c``."""

    @pytest.mark.parametrize("deformed", (False, True))
    @pytest.mark.parametrize("shape", ((1, 1, 1), (2, 1, 1), (3, 2, 5)))
    @pytest.mark.parametrize("degree", (1, 3, 7))
    def test_origin_and_strides_rebuild_l2g(self, degree, shape, deformed):
        mesh = BoxMesh.build(ReferenceElement.from_degree(degree), shape)
        if deformed:
            mesh = mesh.deform(lambda x, y, z: (
                x + 0.05 * np.sin(np.pi * y) * np.sin(np.pi * z),
                y + 0.04 * np.sin(np.pi * z) * np.sin(np.pi * x),
                z + 0.03 * np.sin(np.pi * x) * np.sin(np.pi * y),
            ))
        l2g = mesh.l2g
        org = l2g[:, 0, 0, 0]
        s0, s1 = l2g[0, 1, 0, 0] - org[0], l2g[0, 0, 1, 0] - org[0]
        assert s0 > s1 > 1  # rows (a, b, :) are contiguous and apart
        _, ngy, ngz = mesh.global_grid
        assert (s0, s1) == (ngy * ngz, ngz)
        i = np.arange(mesh.ref.n_points)
        rebuilt = (org[:, None, None, None] + i[:, None, None] * s0
                   + i[:, None] * s1 + i)
        assert rebuilt.dtype == l2g.dtype and np.array_equal(rebuilt, l2g)
