"""Gather-scatter (direct-stiffness summation) between local and global DOFs.

SEM solvers like Nek5000 keep fields element-local with redundant interface
values; the gather-scatter operator ``QQ^T`` sums local contributions into
shared global nodes and redistributes the result.  The paper lists this
phase among the solver components surrounding the ``Ax`` kernel.

Each operand crosses memory once: ``gather`` zero-fills the global vector
and accumulates the local field into it with one ``np.add.at`` (numpy's
indexed loop), ``scatter`` is one ``np.take``.  The summation order of a
gather is therefore *defined*: contributions are added in ascending local
index, bit for bit what ``np.bincount(l2g, weights=local)`` returns in
fp64; a global id no local slot maps to is simply left at zero.  Stacked
``(B, ...)`` blocks are accumulated one row at a time, so a row's result
never depends on ``B`` or on its batchmates.

The operator is stateless after construction — the l2g map, the node
multiplicities, the map's affine form (:attr:`GatherScatter.affine`,
the element origins and strides the compiled pass addresses rows by)
and the plane that pass may split at (:attr:`GatherScatter.split`)
are read-only — so one instance serves any number of threads, solve
replicas and dtype twins.  ``gather``/``scatter`` accept ``out=`` so the
allocation-free solver path (:mod:`repro.sem.workspace`) can reuse
preallocated buffers; on that path the input and ``out`` must both be in
the operator's dtype (a mismatch would make numpy cast element by element
through its generic loop, ~20x slower, so it is refused, not served).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from repro.analysis.annotations import hot_path
from repro.sem.mesh import BoxMesh


@dataclass(frozen=True)
class SharedGatherScatter:
    """Picklable handle to a :meth:`GatherScatter.export_shared` export.

    Carries the :class:`~repro.sem.shared.SharedArrayManifest` of the
    operator's construction-time caches plus the scalar state
    (:attr:`n_global`, :attr:`local_shape`) that
    :meth:`GatherScatter.attach_shared` needs to rebuild an instance
    without recounting the multiplicities.
    """

    arrays: object  # SharedArrayManifest (kept loose to avoid a cycle)
    n_global: int
    local_shape: tuple[int, int, int, int]


@dataclass(frozen=True)
class GatherScatter:
    """Bound gather-scatter operator for a fixed mesh topology.

    Attributes
    ----------
    l2g_flat:
        Flattened local-to-global map, shape ``(E * nx^3,)``.
    n_global:
        Number of global (unique) nodes.
    local_shape:
        ``(E, nx, nx, nx)`` shape of local fields.
    dtype:
        Floating dtype of the operator's float cache (multiplicities),
        of the vectors it allocates and of the vectors it accepts with
        ``out=``.  The l2g map is dtype-independent and shared across
        precisions via :meth:`as_dtype`.
    affine:
        ``(org, s0, s1)``, ``org`` a contiguous ``(E,)`` int64 array,
        with ``l2g[e, a, b, c] == org[e] + a*s0 + b*s1 + c`` for every
        local node (every mesh map has it), else ``None``.
    split:
        ``(plane, slot)``, the :func:`split_plane` of :attr:`affine`,
        else ``None``.  Worked out with it, from the same map.
    """

    l2g_flat: NDArray[np.int64]
    n_global: int
    local_shape: tuple[int, int, int, int]
    dtype: "np.dtype | type" = field(default=np.float64, compare=False)
    # Construction-time caches (set via object.__setattr__; frozen class).
    _mult: NDArray[np.float64] = field(init=False, repr=False, compare=False)
    affine: "tuple[NDArray[np.int64], int, int] | None" = field(
        init=False, repr=False, compare=False
    )
    split: "tuple[int, NDArray[np.int64]] | None" = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Validate once here: gather/scatter index without a bounds
        # check of their own (np.take runs in mode="clip").
        if self.l2g_flat.size and (
            self.l2g_flat.min() < 0 or self.l2g_flat.max() >= self.n_global
        ):
            raise ValueError(
                f"l2g map references nodes outside [0, {self.n_global})"
            )
        dtype = np.dtype(self.dtype)
        if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(
                f"dtype must be float64 or float32, got {dtype}"
            )
        object.__setattr__(self, "dtype", dtype)
        counts = np.bincount(self.l2g_flat, minlength=self.n_global)
        # In the owning dtype: pinned to fp64 they once silently
        # promoted every fp32 kernel touching them.
        object.__setattr__(self, "_mult", counts.astype(dtype))
        for name, value in _addressing(self.l2g_flat, self.local_shape):
            object.__setattr__(self, name, value)

    @classmethod
    def from_mesh(
        cls, mesh: BoxMesh, dtype: "np.dtype | type" = np.float64
    ) -> "GatherScatter":
        """Build the operator from a mesh's connectivity."""
        return cls(
            l2g_flat=mesh.l2g.reshape(-1),
            n_global=mesh.n_global,
            local_shape=mesh.l2g.shape,
            dtype=dtype,
        )

    def as_dtype(self, dtype: "np.dtype | type") -> "GatherScatter":
        """A twin of this operator whose float caches live in ``dtype``.

        The l2g map and its affine form are shared with ``self``; the
        multiplicities are cast *once*.  Twins are cached per dtype —
        the only state filled in after construction, and its entries
        are as immutable as ``self`` — so the mixed solve path resolves
        its fp32 operator with a dict lookup, and every solve replica
        sharing this operator shares its twins.
        """
        dtype = np.dtype(dtype)
        if dtype == self.dtype:
            return self
        twins: dict | None = getattr(self, "_dtype_twins", None)
        if twins is None:
            twins = {}
            object.__setattr__(self, "_dtype_twins", twins)
        twin = twins.get(dtype.str)
        if twin is None:
            twin = copy.copy(self)
            for name, value in (
                ("dtype", dtype),
                ("_mult", self._mult.astype(dtype, copy=False)),
                ("_dtype_twins", {}),
            ):
                object.__setattr__(twin, name, value)
            twins[dtype.str] = twin
        return twin

    # ------------------------------------------------------------------
    # Shared-memory protocol (process-level sharding)
    # ------------------------------------------------------------------
    def export_shared(self) -> "tuple[object, SharedGatherScatter]":
        """Export the construction-time caches into one shared block.

        The l2g map and the multiplicities are the operator's whole
        state — one ``E * nx^3`` int64 array and a float array of
        ``n_global``.  Worker processes attach them zero-copy via
        :meth:`attach_shared`.

        Returns
        -------
        (SharedMemory, SharedGatherScatter)
            The owning handle (``close()`` + ``unlink()`` is the
            caller's job) and the picklable handle workers attach from.
        """
        from repro.sem.shared import export_shared_arrays

        shm, manifest = export_shared_arrays({
            "l2g_flat": self.l2g_flat,
            "mult": self._mult,
        })
        handle = SharedGatherScatter(
            arrays=manifest,
            n_global=self.n_global,
            local_shape=tuple(self.local_shape),
        )
        return shm, handle

    @classmethod
    def attach_shared(cls, handle: SharedGatherScatter) -> "GatherScatter":
        """Rebuild an operator over an exported block, zero-copy.

        Skips the bincount of :meth:`__post_init__` (only :attr:`affine`
        and :attr:`split` are worked out again) and views the shared
        caches read-only.  The shared mapping's lifetime is tied to the
        returned object.
        """
        from repro.sem.shared import attach_shared_arrays

        shm, views = attach_shared_arrays(handle.arrays)
        gs = cls.__new__(cls)
        for name, value in (
            ("l2g_flat", views["l2g_flat"]),
            ("n_global", int(handle.n_global)),
            ("local_shape", tuple(handle.local_shape)),
            ("dtype", views["mult"].dtype),
            ("_mult", views["mult"]),
            *_addressing(views["l2g_flat"], handle.local_shape),
            ("_shm", shm),
        ):
            object.__setattr__(gs, name, value)
        return gs

    # ------------------------------------------------------------------
    def _bind(
        self, what: str, vec: NDArray, out: "NDArray | None", out_shape: tuple
    ) -> "tuple[NDArray, NDArray]":
        """``(vec, out)`` as the indexed loops need them: both in the
        operator's dtype.  Without ``out`` (the convenience path) the
        input is converted once and the result allocated; with it,
        nothing is cast — a mismatch is refused."""
        if out is None:
            return (
                np.asarray(vec, dtype=self.dtype),
                np.empty(out_shape, self.dtype),
            )
        if out.shape != out_shape:
            raise ValueError(f"out must be {out_shape}, got {out.shape}")
        if vec.dtype != self.dtype or out.dtype != self.dtype:
            raise ValueError(
                f"{what} with out= needs input and out in the operator's "
                f"dtype {self.dtype}, got input {vec.dtype} and out "
                f"{out.dtype} (use as_dtype() for the matching twin)"
            )
        return vec, out

    @hot_path
    def gather(
        self,
        local: NDArray[np.float64],
        out: NDArray[np.float64] | None = None,
    ) -> NDArray[np.float64]:
        """Sum local contributions into a global vector (``Q^T``).

        Contributions are added in ascending local index (see the module
        docstring), each row of a stacked block on its own.

        Parameters
        ----------
        local:
            Element-local field, shape ``local_shape``, or a stacked
            block ``(B,) + local_shape`` of independent systems.
        out:
            Optional preallocated global vector of length ``n_global``
            (``(B, n_global)`` for stacked input).  With ``out``, both
            it and ``local`` must be in the operator's :attr:`dtype`;
            without, ``local`` is converted to it once.

        Returns
        -------
        Global vector of length ``n_global`` (``(B, n_global)`` when
        stacked).

        Raises
        ------
        ValueError
            On a shape mismatch, or a dtype mismatch on the ``out=``
            path.
        """
        batched = local.ndim == len(self.local_shape) + 1
        if batched:
            if local.shape[1:] != self.local_shape:
                raise ValueError(
                    f"expected (B,) + {self.local_shape}, got {local.shape}"
                )
            out_shape: tuple[int, ...] = (local.shape[0], self.n_global)
        elif local.shape == self.local_shape:
            out_shape = (self.n_global,)
        else:
            raise ValueError(f"expected {self.local_shape}, got {local.shape}")
        local, out = self._bind("gather", local, out, out_shape)
        if not out.flags.c_contiguous:
            # ufunc.at through a strided ``out`` leaves numpy's indexed
            # loop (3.5 ms where the contiguous call takes 0.7); compute
            # into a contiguous result and copy once.
            np.copyto(out, self.gather(local))
            return out
        out.fill(0)
        if batched:
            for dst, row in zip(out, local.reshape(local.shape[0], -1)):
                np.add.at(dst, self.l2g_flat, row)
        else:
            np.add.at(out, self.l2g_flat, local.reshape(-1))
        return out

    @hot_path
    def scatter(
        self,
        global_vec: NDArray[np.float64],
        out: NDArray[np.float64] | None = None,
    ) -> NDArray[np.float64]:
        """Copy global values out to element-local storage (``Q``).

        Accepts a single global vector ``(n_global,)`` or a stacked
        block ``(B, n_global)`` (returning ``(B,) + local_shape``).
        Dtypes as in :meth:`gather`: with ``out``, both it and
        ``global_vec`` must be in the operator's :attr:`dtype`
        (``ValueError`` otherwise); without, ``global_vec`` is converted
        to it once.
        """
        batched = global_vec.ndim == 2 and global_vec.shape[1] == self.n_global
        if batched:
            out_shape: tuple[int, ...] = (
                global_vec.shape[0],
            ) + self.local_shape
        elif global_vec.shape == (self.n_global,):
            out_shape = self.local_shape
        else:
            raise ValueError(
                f"expected ({self.n_global},), got {global_vec.shape}"
            )
        global_vec, out = self._bind("scatter", global_vec, out, out_shape)
        if not out.flags.c_contiguous:
            # ``out.reshape`` would silently *copy* for a non-contiguous
            # target, dropping the result; take into a contiguous result
            # and copy once instead.
            np.copyto(out, self.scatter(global_vec))
            return out
        # mode="clip" skips numpy's defensive full-size bounce buffer;
        # the map is construction-time valid, so it never clips.
        if batched:
            np.take(
                global_vec, self.l2g_flat, axis=1,
                out=out.reshape(global_vec.shape[0], -1), mode="clip",
            )
        else:
            np.take(
                global_vec, self.l2g_flat, out=out.reshape(-1), mode="clip"
            )
        return out

    # ------------------------------------------------------------------
    def multiplicity(self) -> NDArray[np.float64]:
        """Global node multiplicities (how many elements touch each node).

        Precomputed at construction; a copy is returned so callers can
        safely modify it.
        """
        return self._mult.copy()


def _addressing(l2g_flat: NDArray[np.int64], local_shape: tuple):
    """The ``("affine", ...)`` and ``("split", ...)`` attributes of a
    map, one from the other, so no pass pairs one map's strides with
    another's plane."""
    affine = _affine(l2g_flat, local_shape)
    return (("affine", affine), ("split", None if affine is None
                                  else split_plane(*affine, local_shape[1])))


def _affine(l2g_flat: NDArray[np.int64], local_shape: tuple):
    """``(org, s0, s1)`` with ``l2g[e, a, b, c] == org[e] + a*s0 + b*s1
    + c`` over a whole ``(E, nx, nx, nx)`` map, ``nx > 1``, else ``None``."""
    e, *nx = local_shape
    if e < 1 or len(nx) != 3 or not 1 < nx[0] == nx[1] == nx[2]:
        return None
    l2g = l2g_flat.reshape(local_shape)
    org = np.ascontiguousarray(l2g[:, 0, 0, 0], dtype=np.int64)
    s0, s1 = int(l2g[0, 1, 0, 0] - org[0]), int(l2g[0, 0, 1, 0] - org[0])
    i = np.arange(nx[0])
    rebuilt = (org[:, None, None, None] + i[:, None, None] * s0
               + i[:, None] * s1 + i)
    return (org, s0, s1) if np.array_equal(rebuilt, l2g) else None


def split_plane(
    org: NDArray[np.int64], s0: int, s1: int, nx: int
) -> "tuple[int, NDArray[np.int64]] | None":
    """``(plane, slot)``: where the compiled fused pass over an ``(org,
    s0, s1)`` map (:attr:`GatherScatter.affine`) splits into two parts
    that write apart, or ``None`` where it cannot.

    ``plane`` is a global node plane ``[plane*s0, (plane+1)*s0)`` that is
    an element face: every element row lies in one plane, and each
    element lies wholly on one side of this one, touching it at most
    with its first or last row.  Of the planes with elements on both
    sides it is the one that halves the elements most evenly.
    ``slot[e]`` (int64) numbers the elements that touch the plane in
    ascending order — their place in the pass's stash — and is -1 for
    the rest."""
    org = np.asarray(org, dtype=np.int64)
    if (s1 < nx or s0 <= 0 or not org.size
            or (org % s0 + (nx - 1) * (s1 + 1) >= s0).any()):
        return None
    low = org // s0  # each element's first plane
    best, plane = org.size, -1
    for p in sorted(set(low.tolist()))[1:]:  # np.unique loads numpy.ma
        below = int((low < p).sum())
        straddle = ((low < p) & (low + nx - 1 > p)).any()
        if not straddle and abs(org.size - 2 * below) < best:
            best, plane = abs(org.size - 2 * below), p
    if plane < 0:
        return None
    touch = (low == plane) | (low + nx - 1 == plane)
    return plane, np.where(touch, np.cumsum(touch) - 1, -1).astype(np.int64)
