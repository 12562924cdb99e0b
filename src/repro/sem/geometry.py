"""Geometric factors ``G^e`` of the SEM Poisson operator.

For the mapping ``x(r)`` from the reference element to element ``e`` the
paper's tensor ``G^e`` has the six unique entries (it is symmetric)

``G_pq = w_i w_j w_k  |J|  sum_m (dr_p/dx_m)(dr_q/dx_m)``

evaluated at each GLL point, with ``(p, q)`` in the order
``(rr, rs, rt, ss, st, tt)`` — exactly the ``gxyz[0..5]`` layout consumed
by Listing 1.  All derivatives are taken spectrally (apply ``D`` to the
nodal coordinates), so curved elements are handled exactly at the
discretization's own accuracy.  :func:`geometric_factors` forms ``G`` in
closed form from the cofactors of the Jacobian (cross products of its
columns, no matrix inverse), a block of whole elements at a time.

Storage is split (SoA): the six components live in one C-contiguous
``(6, E, nx, nx, nx)`` array (:attr:`Geometry.g_soa`) so each component
is a single contiguous streamable operand — the software analogue of the
paper's banked external-memory layout, and what lets the ``Ax`` kernels'
``g[:, c]`` reads run without numpy's strided chunked-buffer path.  The
historical interleaved ``(E, 6, nx, nx, nx)`` shape survives as the
zero-copy compatibility view :attr:`Geometry.g`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from repro.sem.element import ReferenceElement
from repro.sem.mesh import BoxMesh

#: Order of the six unique symmetric entries of G, matching gxyz[0..5].
G_COMPONENTS: tuple[str, ...] = ("rr", "rs", "rt", "ss", "st", "tt")


def reference_gradient(
    ref: ReferenceElement, u: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Spectral gradient ``(du/dr, du/ds, du/dt)`` of local fields.

    Parameters
    ----------
    ref:
        Reference element providing ``D``.
    u:
        Local nodal fields, shape ``(E, nx, nx, nx)`` indexed
        ``[e, i, j, k]`` with ``i`` along ``r``.
    """
    d = ref.deriv
    ur = np.einsum("il,eljk->eijk", d, u, optimize=True)
    us = np.einsum("jl,eilk->eijk", d, u, optimize=True)
    ut = np.einsum("kl,eijl->eijk", d, u, optimize=True)
    return ur, us, ut


@dataclass(frozen=True)
class Geometry:
    """Geometric data of a mesh: ``G`` factors, Jacobian, diagonal mass.

    Attributes
    ----------
    g_soa:
        Geometric factors in the split (SoA) layout, one C-contiguous
        array of shape ``(6, E, nx, nx, nx)`` in the
        :data:`G_COMPONENTS` order; ``g_soa[c]`` is a contiguous
        component field.
    jac:
        Jacobian determinant ``|J|`` at every node, shape
        ``(E, nx, nx, nx)``; positive for valid meshes.
    mass:
        Diagonal mass matrix ``B = w_i w_j w_k |J|``, same shape as
        ``jac``.  ``sum(mass)`` equals the domain volume (with interface
        nodes counted once per element).
    """

    g_soa: NDArray[np.float64] = field(repr=False)
    jac: NDArray[np.float64] = field(repr=False)
    mass: NDArray[np.float64] = field(repr=False)

    def __post_init__(self) -> None:
        if self.g_soa.ndim != 5 or self.g_soa.shape[0] != 6:
            raise ValueError(
                f"g_soa must be (6, E, nx, nx, nx), got {self.g_soa.shape}"
            )
        if not self.g_soa.flags.c_contiguous:
            object.__setattr__(
                self, "g_soa", np.ascontiguousarray(self.g_soa)
            )

    @property
    def g(self) -> NDArray[np.float64]:
        """Zero-copy ``(E, 6, nx, nx, nx)`` compatibility view.

        ``g[:, c]`` on this view *is* the contiguous ``g_soa[c]``, so
        every historical consumer transparently gets the streaming
        layout.
        """
        return self.g_soa.transpose(1, 0, 2, 3, 4)

    # ------------------------------------------------------------------
    # Reduced-precision twins (mixed-precision solve path)
    # ------------------------------------------------------------------
    def as_dtype(self, dtype: "np.dtype | type") -> "Geometry":
        """A :class:`Geometry` twin with all arrays cast to ``dtype``.

        ``float64`` returns ``self``; other dtypes (the fp32 inner-solve
        path) get a read-only contiguous copy, computed once and cached
        on this instance — the cast covers ``6 + 2`` field-sized arrays,
        so it must never be paid per ``Ax`` application.  The rounding
        happens here, once, from the fp64 factors; the fp32 kernels then
        stream half the bytes per DOF, which is the entire point of the
        mixed path on a bandwidth-bound operator.
        """
        dtype = np.dtype(dtype)
        if dtype == self.g_soa.dtype:
            return self
        twins: dict | None = getattr(self, "_dtype_twins", None)
        if twins is None:
            twins = {}
            object.__setattr__(self, "_dtype_twins", twins)
        twin = twins.get(dtype.str)
        if twin is None:
            twin = Geometry(
                g_soa=np.ascontiguousarray(self.g_soa.astype(dtype)),
                jac=np.ascontiguousarray(self.jac.astype(dtype)),
                mass=np.ascontiguousarray(self.mass.astype(dtype)),
            )
            for arr in (twin.g_soa, twin.jac, twin.mass):
                arr.setflags(write=False)
            twins[dtype.str] = twin
        return twin

    def adopt_twin(self, twin: "Geometry") -> None:
        """Register an externally built dtype twin (shared-memory path).

        A process-sharded worker attaches the parent's fp32 geometry
        export and installs it here, so :meth:`as_dtype` resolves to the
        shared pages instead of each worker paying a private field-sized
        cast.  The twin must match this geometry's shapes exactly.
        """
        if twin.g_soa.shape != self.g_soa.shape:
            raise ValueError(
                f"twin g_soa shape {twin.g_soa.shape} != {self.g_soa.shape}"
            )
        if twin.g_soa.dtype == self.g_soa.dtype:
            raise ValueError(
                f"twin dtype {twin.g_soa.dtype} matches own dtype; "
                "nothing to adopt"
            )
        twins: dict | None = getattr(self, "_dtype_twins", None)
        if twins is None:
            twins = {}
            object.__setattr__(self, "_dtype_twins", twins)
        twins[np.dtype(twin.g_soa.dtype).str] = twin

    # ------------------------------------------------------------------
    # Shared-memory protocol (process-level sharding)
    # ------------------------------------------------------------------
    def export_shared(self):
        """Export the geometric arrays into one shared-memory block.

        The geometry is the largest immutable array set a solve carries
        (``g_soa`` alone is ``6 * E * nx^3`` doubles); the process-level
        shard (:class:`repro.serve.procshard.ProcessShardedSolveService`)
        exports it once and every worker attaches the same physical
        pages instead of recomputing or copying per process.

        Returns
        -------
        (SharedMemory, SharedArrayManifest)
            The owning handle (the caller must eventually ``close()`` +
            ``unlink()`` it) and the picklable manifest that
            :meth:`attach_shared` consumes in any process.
        """
        from repro.sem.shared import export_shared_arrays

        return export_shared_arrays(
            {"g_soa": self.g_soa, "jac": self.jac, "mass": self.mass}
        )

    @classmethod
    def attach_shared(cls, manifest) -> "Geometry":
        """Rebuild a :class:`Geometry` over an exported block, zero-copy.

        The returned instance's arrays are read-only views into the
        shared pages (a stray in-place write raises instead of
        corrupting every attached process); the shared-memory mapping's
        lifetime is tied to the returned object.

        Parameters
        ----------
        manifest:
            The :class:`~repro.sem.shared.SharedArrayManifest` from
            :meth:`export_shared`.
        """
        from repro.sem.shared import attach_shared_arrays

        shm, views = attach_shared_arrays(manifest)
        geo = cls(g_soa=views["g_soa"], jac=views["jac"], mass=views["mass"])
        # Keep the mapping alive exactly as long as the views are
        # reachable (frozen dataclass: bypass the frozen __setattr__).
        object.__setattr__(geo, "_shm", shm)
        return geo


#: Nodes per block of :func:`geometric_factors` (whole elements, at
#: least one): a block's two dozen temporaries stay a few MB.
_BLOCK_NODES = 16384


def geometric_factors(mesh: BoxMesh) -> Geometry:
    """Compute :class:`Geometry` for every element of ``mesh``.

    The factors are taken in closed form from cofactors, as Nek5000
    forms them: with ``a_p = dx/dr_p`` the Jacobian's columns,
    ``c_0 = a_1 x a_2``, ``c_1 = a_2 x a_0`` and ``c_2 = a_0 x a_1`` are
    ``|J|`` times the rows of its inverse, so ``|J| = a_0 . c_0`` and
    ``G_pq = w3 (c_p . c_q) / |J|``.  The mesh is swept in blocks of
    whole elements, about :data:`_BLOCK_NODES` nodes each, written
    straight into the result, so no temporary is larger than a block.

    Raises
    ------
    ValueError
        If any nodal Jacobian determinant is not positive and finite
        (a tangled mesh, or NaN / infinite / overflowing coordinates),
        or any factor is not finite (coordinates whose scales differ
        past the range of a double).
    """
    ref = mesh.ref
    w3 = ref.weights_3d()
    shape = mesh.coords.shape[1:]
    g_soa = np.empty((6,) + shape)
    jac = np.empty(shape)
    step = max(1, _BLOCK_NODES // w3.size)
    bad = 0
    with np.errstate(all="ignore"):  # refused below, node by node
        for lo in range(0, shape[0], step):
            blk = slice(lo, lo + step)
            # grads[m][p] = dx_m / dr_p, so column p is a_p[m].
            grads = [reference_gradient(ref, mesh.coords[m, blk])
                     for m in range(3)]
            a = [[grads[m][p] for m in range(3)] for p in range(3)]
            c = [_cross(a[1], a[2]), _cross(a[2], a[0]), _cross(a[0], a[1])]
            j = _dot(a[0], c[0])
            jac[blk] = j
            scale = w3 / j
            comp = 0
            for p in range(3):
                for q in range(p, 3):
                    np.multiply(scale, _dot(c[p], c[q]), out=g_soa[comp, blk])
                    comp += 1
            # Select the good nodes, not the bad ones: NaN fails
            # ``j <= 0`` too, and a determinant that overflowed to +inf
            # is no Jacobian.
            good = np.isfinite(j) & (j > 0)
            good &= np.isfinite(g_soa[:, blk]).all(axis=0)
            bad += int(good.size - np.count_nonzero(good))
    if bad:
        raise ValueError(
            f"mesh is tangled: {bad} nodal Jacobians are not positive "
            "and finite, or give factors that are not finite"
        )
    mass = w3[None] * jac
    return Geometry(g_soa=g_soa, jac=jac, mass=mass)


def _cross(u, v):
    """``u x v`` of two vector fields given as three component arrays."""
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    """``u . v`` of two vector fields given as three component arrays."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


# census: reference: test_geometry.py checks geometric_factors against it
def affine_geometric_factors(
    ref: ReferenceElement, num_elements: int, hx: float, hy: float, hz: float
) -> Geometry:
    """Closed-form factors for axis-aligned boxes of size ``hx x hy x hz``.

    For an affine, axis-aligned element ``dr/dx = 2/hx`` etc., the Jacobian
    is constant ``hx hy hz / 8``, the off-diagonal ``G`` entries vanish and

    ``G_rr = w3 * (hy hz) / (2 hx)`` (cyclic for ss, tt).

    Used as an independent verification path for :func:`geometric_factors`.
    """
    for name, h in (("hx", hx), ("hy", hy), ("hz", hz)):
        if h <= 0:
            raise ValueError(f"{name} must be positive, got {h}")
    nx = ref.n_points
    w3 = ref.weights_3d()
    jac_const = hx * hy * hz / 8.0
    shape = (num_elements, nx, nx, nx)
    g_soa = np.zeros((6,) + shape)
    g_soa[0] = w3[None] * (hy * hz) / (2.0 * hx)   # rr
    g_soa[3] = w3[None] * (hx * hz) / (2.0 * hy)   # ss
    g_soa[5] = w3[None] * (hx * hy) / (2.0 * hz)   # tt
    jac = np.full(shape, jac_const)
    mass = w3[None] * jac
    return Geometry(g_soa=g_soa, jac=jac, mass=mass)
