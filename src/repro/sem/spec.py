"""Picklable problem specs: rebuild a solve-identical problem anywhere.

A problem object (:class:`~repro.sem.poisson.PoissonProblem`,
:class:`~repro.sem.helmholtz.HelmholtzProblem`,
:class:`~repro.sem.nekbone.NekboneCase`) is deliberately *not*
picklable-by-value — it owns thread pools, scratch buffers and resolved
callables.  Process-level sharding
(:class:`repro.serve.procshard.ProcessShardedSolveService`) instead
ships a :class:`ProblemSpec`: a tiny frozen description (kind, degree,
element box, precision) plus optional shared-memory
manifests for the large immutable arrays.  :func:`rebuild` turns the
spec back into a warm problem in any process; with manifests attached,
the rebuilt problem's geometry, gather-scatter caches, nodal
coordinates, quadrature arrays and Jacobi diagonal are zero-copy views
onto the exporter's physical pages — ``K`` workers, one copy of
``g_soa``.

Which problems a spec can describe is one table, kind -> class; each
class names its own ``kind`` (and a Helmholtz problem its ``lam``), so
classifying a problem and rebuilding one read the same table.

Bit-identity is the contract, twice over: a problem rebuilt from a
plain spec re-runs the identical deterministic construction, and a
problem rebuilt from a *shared* export doesn't even recompute — it
reads the exporter's own arrays, so there is nothing left to differ.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from repro.sem.element import ReferenceElement
from repro.sem.gather_scatter import GatherScatter, SharedGatherScatter
from repro.sem.geometry import Geometry
from repro.sem.helmholtz import HelmholtzProblem
from repro.sem.kernels import ax_local_matmul
from repro.sem.mesh import BoxMesh
from repro.sem.nekbone import NekboneCase
from repro.sem.poisson import PoissonProblem
from repro.sem.shared import (
    SharedArrayManifest,
    SlotRingManifest,
    attach_shared_arrays,
    export_shared_arrays,
)

#: Problem kind -> class, keyed by each class's own ``kind`` attribute.
_PROBLEM_CLASSES: dict[str, type] = {
    cls.kind: cls for cls in (PoissonProblem, HelmholtzProblem, NekboneCase)
}

#: Problem kinds a spec can describe (the serving protocol's problems).
PROBLEM_KINDS: tuple[str, ...] = tuple(_PROBLEM_CLASSES)


@dataclass(frozen=True)
class ProblemSpec:
    """Frozen, picklable description of one SEM problem.

    It names no kernel: a rebuilt problem runs the production one,
    :func:`~repro.sem.kernels.ax_local_matmul`.

    Attributes
    ----------
    kind:
        One of :data:`PROBLEM_KINDS`.
    degree / shape / extent:
        The discretization: polynomial degree and the element box.
    lam:
        Helmholtz coefficient (``None`` for the other kinds).
    precision:
        Default solve precision policy of the rebuilt problem
        (``"fp64"`` or ``"mixed"``); per-request precision still works
        either way.
    geometry / gather_scatter / extras:
        Optional shared-memory handles (set by
        :func:`export_shared_problem`): the
        :class:`~repro.sem.shared.SharedArrayManifest` of the geometric
        factors, the :class:`~repro.sem.gather_scatter.
        SharedGatherScatter` of the l2g map and multiplicity caches, and
        a manifest with the nodal coordinates, reference-element
        quadrature arrays
        (``points``/``weights``/``deriv``) and the assembled Jacobi
        diagonal.  ``None`` means :func:`rebuild` recomputes instead of
        attaching.
    geometry32:
        Optional manifest of the fp32 geometry twin
        (:meth:`~repro.sem.geometry.Geometry.as_dtype`), exported
        alongside the fp64 factors so every worker's mixed-precision
        inner solves stream one parent-owned fp32 copy instead of each
        paying a private field-sized cast.
    ring:
        Optional :class:`~repro.sem.shared.SlotRingManifest` of the
        request/response slot ring assigned to the worker rebuilding
        from this spec (the zero-copy serving transport; see
        :class:`~repro.sem.shared.SlotRing`).  Unlike the manifests
        above, which every worker shares, a ring is **per worker** —
        the parent stamps each worker's spec with its own ring via
        :meth:`SharedProblemExport.spec_with_ring`.  :func:`rebuild`
        ignores it; the serving layer attaches it beside the problem.
    """

    kind: str
    degree: int
    shape: tuple[int, int, int]
    extent: tuple[float, float, float]
    lam: float | None = None
    precision: str = "fp64"
    geometry: SharedArrayManifest | None = None
    gather_scatter: SharedGatherScatter | None = None
    extras: SharedArrayManifest | None = None
    geometry32: SharedArrayManifest | None = None
    ring: SlotRingManifest | None = None

    @property
    def shared_blocks(self) -> tuple[str, ...]:
        """Names of the shared-memory blocks this spec attaches to."""
        names = []
        if self.geometry is not None:
            names.append(self.geometry.block)
        if self.gather_scatter is not None:
            names.append(self.gather_scatter.arrays.block)
        if self.extras is not None:
            names.append(self.extras.block)
        if self.geometry32 is not None:
            names.append(self.geometry32.block)
        if self.ring is not None:
            names.append(self.ring.block)
        return tuple(names)


@dataclass(frozen=True)
class ProblemParts:
    """Prebuilt immutable state handed to a problem's constructor.

    The ``_parts`` hand-off of :func:`rebuild`: when present, the problem
    adopts these instead of recomputing, so attached shared-memory state
    flows into the ordinary constructors without a second code path.
    """

    geometry: Geometry
    gather_scatter: GatherScatter
    precond_diag: NDArray | None = None


@dataclass
class SharedProblemExport:
    """One problem exported for process-level sharing.

    The exporting process keeps this object: :attr:`spec` is the
    picklable hand-off for workers (:func:`rebuild` attaches its
    manifests), :attr:`blocks` are the owning ``SharedMemory`` handles.
    Call :meth:`close` exactly once when the fleet is done — it unmaps
    *and unlinks* the blocks, which is the exporter's job alone
    (see :mod:`repro.sem.shared`).
    """

    spec: ProblemSpec
    blocks: tuple

    @property
    def block_names(self) -> tuple[str, ...]:
        """The shared blocks' names (``/dev/shm`` entries on Linux)."""
        return tuple(shm.name for shm in self.blocks)

    def spec_with_ring(self, ring: SlotRingManifest) -> ProblemSpec:
        """This export's spec stamped with one worker's ring descriptor.

        The per-worker hand-off of the zero-copy transport: the shared
        problem manifests are common to the fleet, the ring is the one
        per-worker block — a respawned worker gets the *same* ring
        manifest back, re-attaching the slots its predecessor left.
        """
        return replace(self.spec, ring=ring)

    def close(self, unlink: bool = True) -> None:
        """Unmap (and by default unlink) every exported block.  Idempotent."""
        from repro.sem.shared import unlink_shared_block

        for shm in self.blocks:
            try:
                shm.close()
            except (OSError, BufferError):  # pragma: no cover - teardown race
                pass
            if unlink:
                unlink_shared_block(shm)
        self.blocks = ()


def _classify(problem) -> tuple[str, object]:
    """``(kind, inner_problem)`` of a protocol problem, or raise."""
    kind = getattr(problem, "kind", None)
    if not isinstance(problem, _PROBLEM_CLASSES.get(kind, ())):
        raise TypeError(
            f"problem {type(problem).__name__} has no spec; expected a "
            "PoissonProblem, HelmholtzProblem or NekboneCase"
        )
    # A NekboneCase wraps the problem whose arrays the spec describes.
    return kind, getattr(problem, "problem", problem)


def _base_spec(problem) -> tuple[ProblemSpec, object]:
    """The shared-manifest-free spec of ``problem``, and the inner
    problem whose arrays it describes."""
    kind, inner = _classify(problem)
    if inner.ax_backend is not ax_local_matmul:
        raise ValueError(
            "problem's ax backend is not the production kernel; a spec "
            "names no kernel (a rebuilt problem runs ax_local_matmul), so "
            "a problem on any other backend has no spec"
        )
    mesh = inner.mesh
    spec = ProblemSpec(
        kind=kind,
        degree=mesh.ref.degree,
        shape=tuple(mesh.shape),
        extent=tuple(mesh.extent),
        lam=None if inner.lam is None else float(inner.lam),
        precision=inner.precision,
    )
    return spec, inner


def problem_spec(problem) -> ProblemSpec:
    """A plain (no shared memory) picklable spec of ``problem``.

    :func:`rebuild` re-runs the deterministic construction from this
    spec, so the mesh must be reproducible from ``(degree, shape,
    extent)`` — a deformed mesh is rejected here (its coordinates only
    travel through :func:`export_shared_problem`, which ships them in
    shared memory).

    Raises
    ------
    TypeError
        For non-protocol problems.
    ValueError
        For a backend other than the production kernel, or a deformed
        mesh.
    """
    spec, inner = _base_spec(problem)
    pristine = BoxMesh.build(inner.mesh.ref, spec.shape, spec.extent)
    if not np.array_equal(pristine.coords, inner.mesh.coords):
        raise ValueError(
            "mesh coordinates are not reproducible from (degree, shape, "
            "extent) — the mesh was deformed; use export_shared(), which "
            "ships the coordinates in shared memory"
        )
    return spec


def export_shared_problem(problem) -> SharedProblemExport:
    """Export ``problem``'s immutable arrays and return spec + blocks.

    Four blocks are created: the geometric factors
    (:meth:`~repro.sem.geometry.Geometry.export_shared`), the
    gather-scatter caches (:meth:`~repro.sem.gather_scatter.
    GatherScatter.export_shared`), an extras block with the nodal
    coordinates, the reference element's quadrature arrays and the
    (force-computed) Jacobi diagonal, and the fp32 geometry twin for
    the mixed-precision inner solves (exported unconditionally — it is
    half the fp64 factors' size, and shipping it lets any worker honor
    a per-request ``precision="mixed"`` zero-copy even when the
    problem's default policy is fp64).  Every worker that
    :func:`rebuild`-s the returned spec attaches these same blocks —
    one physical copy of the big arrays across the whole fleet,
    deformed meshes included (the coordinates ride along).

    Returns
    -------
    SharedProblemExport
        Keep it for the fleet's lifetime; ``close()`` unlinks the blocks.
    """
    spec, inner = _base_spec(problem)
    blocks: list = []
    try:
        geo_shm, geo_manifest = inner.geometry.export_shared()
        blocks.append(geo_shm)
        gs_shm, gs_handle = inner.gs.export_shared()
        blocks.append(gs_shm)
        ref = inner.mesh.ref
        extras_shm, extras_manifest = export_shared_arrays({
            "coords": inner.mesh.coords,
            "ref_points": ref.points,
            "ref_weights": ref.weights,
            "ref_deriv": ref.deriv,
            "precond_diag": problem.precond_diag(),
        })
        blocks.append(extras_shm)
        geo32_shm, geo32_manifest = (
            inner.geometry.as_dtype(np.float32).export_shared()
        )
        blocks.append(geo32_shm)
    except BaseException:
        for shm in blocks:
            shm.close()
            shm.unlink()
        raise
    spec = replace(
        spec,
        geometry=geo_manifest,
        gather_scatter=gs_handle,
        extras=extras_manifest,
        geometry32=geo32_manifest,
    )
    return SharedProblemExport(spec=spec, blocks=tuple(blocks))


def rebuild(spec: ProblemSpec):
    """Reconstruct a warm, solve-identical problem from a spec.

    With shared manifests the big arrays are attached zero-copy
    (read-only views whose mappings live as long as the objects holding
    them); without, the deterministic construction is re-run.  Either
    way the rebuilt problem's solves are bit-identical to the source
    problem's — the process-shard's serving contract rests on this.

    Parameters
    ----------
    spec:
        A :class:`ProblemSpec` (typically received pickled from the
        exporting process).

    Returns
    -------
    PoissonProblem | HelmholtzProblem | NekboneCase
        Per ``spec.kind``, ready to solve through.

    Raises
    ------
    ValueError
        For an unknown kind or a spec with only one of the
        geometry/gather-scatter manifests.
    """
    if spec.kind not in PROBLEM_KINDS:
        raise ValueError(
            f"unknown problem kind {spec.kind!r}; expected one of "
            f"{PROBLEM_KINDS}"
        )
    if (spec.geometry is None) != (spec.gather_scatter is None):
        raise ValueError(
            "spec must carry both the geometry and gather-scatter "
            "manifests (or neither)"
        )
    if spec.geometry32 is not None and spec.geometry is None:
        raise ValueError(
            "spec carries an fp32 geometry manifest without the fp64 "
            "geometry it twins"
        )
    extras_shm = extras = None
    if spec.extras is not None:
        extras_shm, extras = attach_shared_arrays(spec.extras)
    if extras is not None and "ref_points" in extras:
        ref = ReferenceElement(
            degree=spec.degree,
            points=extras["ref_points"],
            weights=extras["ref_weights"],
            deriv=extras["ref_deriv"],
        )
    else:
        ref = ReferenceElement.from_degree(spec.degree)
    mesh = BoxMesh.build(ref, spec.shape, spec.extent)
    if extras is not None and "coords" in extras:
        mesh = replace(mesh, coords=extras["coords"])
    if extras_shm is not None:
        # Tie the extras mapping to the object holding its views.
        object.__setattr__(mesh, "_shm", extras_shm)

    parts = None
    if spec.geometry is not None:
        geometry = Geometry.attach_shared(spec.geometry)
        if spec.geometry32 is not None:
            # Install the parent's shared fp32 twin, so as_dtype()
            # resolves to the exported pages instead of a private cast.
            geometry.adopt_twin(Geometry.attach_shared(spec.geometry32))
        parts = ProblemParts(
            geometry=geometry,
            gather_scatter=GatherScatter.attach_shared(spec.gather_scatter),
            precond_diag=(
                extras["precond_diag"]
                if extras is not None and "precond_diag" in extras
                else None
            ),
        )

    knobs = dict(precision=spec.precision)
    if spec.lam is not None:
        knobs["lam"] = spec.lam
    if spec.kind != NekboneCase.kind:
        return _PROBLEM_CLASSES[spec.kind](mesh, **knobs, _parts=parts)
    # A NekboneCase wraps the Poisson problem the spec's arrays describe.
    return NekboneCase(
        n=spec.degree, shape=spec.shape, **knobs,
        _problem=PoissonProblem(mesh, **knobs, _parts=parts),
    )
