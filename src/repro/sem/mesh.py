"""Structured hexahedral SEM meshes of a box domain.

A :class:`BoxMesh` carries per-element nodal coordinates in the layout used
throughout the library: C-ordered arrays of shape ``(E, nx, nx, nx)``
indexed ``[e, i, j, k]``, ``i``, ``j``, ``k`` along ``x``, ``y``, ``z``,
and a local-to-global map for the gather-scatter (direct-stiffness)
operation.  Global nodes are numbered ``z``-fastest, the element's
memory-fastest axis, so every element row ``[e, i, j, :]`` is a run of
contiguous global nodes (the map is affine, see :attr:`BoxMesh.l2g`).

Meshes may be smoothly deformed through :meth:`BoxMesh.deform`; all
geometric factors are computed spectrally from the nodal coordinates, so
curvilinear elements are supported throughout (the ``G^e`` tensor of the
paper is never assumed diagonal).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from repro.sem.element import ReferenceElement

DeformFn = Callable[
    [NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]],
    tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]],
]


@dataclass(frozen=True)
class BoxMesh:
    """Tensor-product mesh of ``ex x ey x ez`` hexahedral elements.

    Use :meth:`BoxMesh.build` to construct.  Attributes of interest:

    Attributes
    ----------
    ref:
        The shared :class:`ReferenceElement`.
    shape:
        ``(ex, ey, ez)`` element counts per direction.
    extent:
        ``(Lx, Ly, Lz)`` physical box size (origin at 0).
    coords:
        Nodal coordinates, shape ``(3, E, nx, nx, nx)`` (x, y, z).
    l2g:
        Local-to-global node map, shape ``(E, nx, nx, nx)``, values in
        ``[0, n_global)``.  Shared faces/edges/vertices receive the same
        global id, which is what makes the gather-scatter assemble the
        continuous system.  Global node ``(gx, gy, gz)`` is
        ``(gx*ngy + gy)*ngz + gz``, so ``l2g[e, i, j, k] == l2g[e, 0, 0,
        0] + i*ngy*ngz + j*ngz + k``: affine, with unit inner stride.
    """

    ref: ReferenceElement
    shape: tuple[int, int, int]
    extent: tuple[float, float, float]
    coords: NDArray[np.float64] = field(repr=False)
    l2g: NDArray[np.int64] = field(repr=False)
    n_global: int = 0

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        ref: ReferenceElement,
        shape: tuple[int, int, int],
        extent: tuple[float, float, float] = (1.0, 1.0, 1.0),
    ) -> "BoxMesh":
        """Create the mesh of the box ``[0,Lx] x [0,Ly] x [0,Lz]``.

        Parameters
        ----------
        ref:
            Reference element (fixes the polynomial degree).
        shape:
            Elements per direction ``(ex, ey, ez)``, each >= 1.
        extent:
            Box side lengths ``(Lx, Ly, Lz)``, each > 0.
        """
        ex, ey, ez = shape
        lx, ly, lz = extent
        if min(ex, ey, ez) < 1:
            raise ValueError(f"element counts must be >= 1, got {shape}")
        if min(lx, ly, lz) <= 0:
            raise ValueError(f"extents must be positive, got {extent}")
        n = ref.degree
        nx = ref.n_points
        num_e = ex * ey * ez

        # 1-D global node coordinates per direction: element offsets plus
        # scaled GLL points; shared endpoints appear once.
        def axis_nodes(ne: int, length: float) -> NDArray[np.float64]:
            h = length / ne
            pts01 = (ref.points + 1.0) / 2.0  # GLL points mapped to [0,1]
            g = np.empty(ne * n + 1)
            for e in range(ne):
                g[e * n : e * n + nx] = e * h + pts01 * h
            return g

        gx_nodes = axis_nodes(ex, lx)
        gy_nodes = axis_nodes(ey, ly)
        gz_nodes = axis_nodes(ez, lz)
        ngx, ngy, ngz = ex * n + 1, ey * n + 1, ez * n + 1

        coords = np.empty((3, num_e, nx, nx, nx))
        l2g = np.empty((num_e, nx, nx, nx), dtype=np.int64)
        li = np.arange(nx)
        for iz in range(ez):
            for iy in range(ey):
                for ix in range(ex):
                    e = (iz * ey + iy) * ex + ix
                    gxi = ix * n + li  # global 1-D indices along x
                    gyi = iy * n + li
                    gzi = iz * n + li
                    coords[0, e] = gx_nodes[gxi][:, None, None]
                    coords[1, e] = gy_nodes[gyi][None, :, None]
                    coords[2, e] = gz_nodes[gzi][None, None, :]
                    gid = (
                        gxi[:, None, None] * ngy + gyi[None, :, None]
                    ) * ngz + gzi[None, None, :]
                    l2g[e] = gid
        return cls(
            ref=ref,
            shape=(ex, ey, ez),
            extent=(float(lx), float(ly), float(lz)),
            coords=coords,
            l2g=l2g,
            n_global=ngx * ngy * ngz,
        )

    # ------------------------------------------------------------------
    @property
    def num_elements(self) -> int:
        """Total number of elements ``E``."""
        return self.shape[0] * self.shape[1] * self.shape[2]

    @property
    def num_local_dofs(self) -> int:
        """Total element-local DOFs ``E * (N+1)^3`` (with duplicates)."""
        return self.num_elements * self.ref.dofs_per_element

    @property
    def global_grid(self) -> tuple[int, int, int]:
        """Global node counts per direction ``(ex*N+1, ey*N+1, ez*N+1)``."""
        ex, ey, ez = self.shape
        n = self.ref.degree
        return (ex * n + 1, ey * n + 1, ez * n + 1)

    # ------------------------------------------------------------------
    def boundary_mask(self) -> NDArray[np.bool_]:
        """Boolean mask over global nodes that lie on the box boundary.

        Used to impose homogeneous Dirichlet conditions (the paper solves
        the homogeneous Poisson problem).
        """
        ngx, ngy, ngz = self.global_grid
        mask = np.zeros((ngx, ngy, ngz), dtype=bool)
        mask[0, :, :] = mask[-1, :, :] = True
        mask[:, 0, :] = mask[:, -1, :] = True
        mask[:, :, 0] = mask[:, :, -1] = True
        return mask.reshape(-1)

    def deform(self, fn: DeformFn) -> "BoxMesh":
        """Return a smoothly deformed copy of the mesh.

        ``fn(x, y, z) -> (x', y', z')`` is applied to the nodal coordinate
        arrays.  The local-to-global map is unchanged (the topology is
        preserved); geometric factors must be recomputed by the caller.
        """
        x2, y2, z2 = fn(self.coords[0], self.coords[1], self.coords[2])
        new_coords = np.stack([x2, y2, z2], axis=0)
        if new_coords.shape != self.coords.shape:
            raise ValueError(
                f"deformation changed coordinate shape {self.coords.shape} "
                f"-> {new_coords.shape}"
            )
        return replace(self, coords=new_coords)

