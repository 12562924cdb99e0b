"""Picklable problem specs: one shared block rebuilds a problem anywhere.

A problem object (:class:`~repro.sem.poisson.PoissonProblem`,
:class:`~repro.sem.helmholtz.HelmholtzProblem`) is deliberately *not*
picklable-by-value — it owns scratch buffers and resolved callables.
Process-level sharding
(:class:`repro.serve.procshard.ProcessShardedSolveService`) instead
ships a :class:`ProblemSpec`: a tiny frozen description (kind, degree,
element box, precision) plus the manifest of one shared-memory block
that holds every large immutable array of the problem.
:func:`export_shared_problem` packs that block; :func:`rebuild` attaches
it once in any process and builds the problem over its views — the
geometry and its fp32 twin, the gather-scatter map and multiplicities,
the nodal coordinates, the quadrature arrays and the Jacobi diagonal
are zero-copy views onto the exporter's physical pages: ``K`` workers,
one copy of ``g_soa``.  This module is the only one that knows the
block's layout.

Which problems a spec can describe is one table, kind -> class; each
class names its own ``kind`` (and a Helmholtz problem its ``lam``), so
classifying a problem and rebuilding one read the same table.

Bit-identity is the contract: a rebuilt problem does not recompute
anything it could differ in — it reads the exporter's own arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from repro.sem.element import ReferenceElement
from repro.sem.gather_scatter import GatherScatter
from repro.sem.geometry import Geometry
from repro.sem.helmholtz import HelmholtzProblem
from repro.sem.kernels import ax_local_matmul
from repro.sem.mesh import BoxMesh
from repro.sem.poisson import PoissonProblem
from repro.sem.shared import (
    SharedArrayManifest,
    attach_shared_arrays,
    export_shared_arrays,
    unlink_shared_block,
)

#: Problem kind -> class, keyed by each class's own ``kind`` attribute.
_PROBLEM_CLASSES: dict[str, type] = {
    cls.kind: cls for cls in (PoissonProblem, HelmholtzProblem)
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
    arrays:
        The :class:`~repro.sem.shared.SharedArrayManifest` of the one
        block :func:`export_shared_problem` packs: the geometric
        factors and their fp32 twin, the gather-scatter map and
        multiplicities, the nodal coordinates, the reference element's
        quadrature arrays and the assembled Jacobi diagonal.
    lam:
        Helmholtz coefficient (``None`` for Poisson).
    precision:
        Default solve precision policy of the rebuilt problem
        (``"fp64"`` or ``"mixed"``); per-request precision still works
        either way.
    ring:
        Optional :class:`~repro.sem.shared.SharedArrayManifest` of the
        request/response slot ring assigned to the worker rebuilding
        from this spec (the zero-copy serving transport; see
        :class:`~repro.sem.shared.SlotRing`).  Unlike :attr:`arrays`,
        which every worker shares, a ring is **per worker** — the parent
        stamps each worker's spec with its own ring via
        :meth:`SharedProblemExport.spec_with_ring`.  :func:`rebuild`
        ignores it; the serving layer attaches it beside the problem.
    """

    kind: str
    degree: int
    shape: tuple[int, int, int]
    extent: tuple[float, float, float]
    arrays: SharedArrayManifest
    lam: float | None = None
    precision: str = "fp64"
    ring: SharedArrayManifest | None = None

    @property
    def shared_blocks(self) -> tuple[str, ...]:
        """Names of the shared-memory blocks this spec attaches to."""
        ring = () if self.ring is None else (self.ring.block,)
        return (self.arrays.block,) + ring


@dataclass(frozen=True)
class ProblemParts:
    """Prebuilt immutable state handed to a problem's constructor.

    The ``_parts`` hand-off of :func:`rebuild`: the problem adopts these
    instead of recomputing, so attached shared-memory state flows into
    the ordinary constructors without a second code path.
    """

    geometry: Geometry
    gather_scatter: GatherScatter
    precond_diag: NDArray


@dataclass
class SharedProblemExport:
    """One problem exported for process-level sharing.

    The exporting process keeps this object: :attr:`spec` is the
    picklable hand-off for workers (:func:`rebuild` attaches its
    block), :attr:`block` is the owning ``SharedMemory`` handle, kept
    only to unlink the block.  Call :meth:`close` when the fleet is
    done — unlinking is the exporter's job alone (see
    :mod:`repro.sem.shared`).
    """

    spec: ProblemSpec
    block: object  # SharedMemory, already unmapped; None once closed

    @property
    def block_names(self) -> tuple[str, ...]:
        """The live block's name (its ``/dev/shm`` entry on Linux), or
        nothing once closed."""
        return () if self.block is None else (self.block.name,)

    def spec_with_ring(self, ring: SharedArrayManifest) -> ProblemSpec:
        """This export's spec stamped with one worker's ring descriptor.

        The per-worker hand-off of the zero-copy transport: the problem
        block is common to the fleet, the ring is the one per-worker
        block — a respawned worker gets the *same* ring manifest back,
        re-attaching the slots its predecessor left.
        """
        return replace(self.spec, ring=ring)

    def close(self) -> None:
        """Unlink the block.  Idempotent.  Problems already rebuilt
        from it keep reading their views."""
        shm, self.block = self.block, None
        if shm is not None:
            unlink_shared_block(shm)


def export_shared_problem(problem) -> SharedProblemExport:
    """Pack ``problem``'s immutable arrays into one shared block.

    The block holds the geometric factors (``g_soa``/``jac``/``mass``)
    and their fp32 twin (exported unconditionally — half the fp64
    factors' size, it lets any worker honor a per-request
    ``precision="mixed"`` zero-copy even when the problem's default
    policy is fp64), the gather-scatter's ``l2g_flat`` map and
    multiplicities, the nodal coordinates (so deformed meshes travel
    too), the reference element's quadrature arrays and the
    (force-computed) Jacobi diagonal.  Every worker that
    :func:`rebuild`-s the returned spec attaches this one block — one
    physical copy of the big arrays across the whole fleet.  A packing
    failure leaves no block behind
    (:func:`~repro.sem.shared.export_shared_arrays` unlinks it).

    Returns
    -------
    SharedProblemExport
        Keep it for the fleet's lifetime; ``close()`` unlinks the block.

    Raises
    ------
    TypeError
        For anything but a :class:`PoissonProblem` or
        :class:`HelmholtzProblem`.
    ValueError
        For a backend other than the production kernel: a spec names no
        kernel, so a problem on any other backend has no spec.
    """
    kind = getattr(problem, "kind", None)
    if not isinstance(problem, _PROBLEM_CLASSES.get(kind, ())):
        raise TypeError(
            f"problem {type(problem).__name__} has no spec; expected a "
            "PoissonProblem or HelmholtzProblem"
        )
    if problem.ax_backend is not ax_local_matmul:
        raise ValueError(
            "problem's ax backend is not the production kernel; a spec "
            "names no kernel (a rebuilt problem runs ax_local_matmul), so "
            "a problem on any other backend has no spec"
        )
    geo, gs, mesh = problem.geometry, problem.gs, problem.mesh
    geo32 = geo.as_dtype(np.float32)
    shm, manifest = export_shared_arrays({
        "g_soa": geo.g_soa,
        "jac": geo.jac,
        "mass": geo.mass,
        "g_soa32": geo32.g_soa,
        "jac32": geo32.jac,
        "mass32": geo32.mass,
        "l2g_flat": gs.l2g_flat,
        "mult": gs.multiplicity(),
        "coords": mesh.coords,
        "ref_points": mesh.ref.points,
        "ref_weights": mesh.ref.weights,
        "ref_deriv": mesh.ref.deriv,
        "precond_diag": problem.precond_diag(),
    })
    spec = ProblemSpec(
        kind=kind,
        degree=mesh.ref.degree,
        shape=tuple(mesh.shape),
        extent=tuple(mesh.extent),
        arrays=manifest,
        lam=None if problem.lam is None else float(problem.lam),
        precision=problem.precision,
    )
    return SharedProblemExport(spec=spec, block=shm)


def rebuild(spec: ProblemSpec):
    """Reconstruct a warm, solve-identical problem from a spec.

    Attaches the spec's block once and builds the problem over
    read-only views of it: nothing big is recomputed or copied, so the
    rebuilt problem's solves are bit-identical to the source problem's
    — the process-shard's serving contract rests on this.

    Parameters
    ----------
    spec:
        A :class:`ProblemSpec` (typically received pickled from the
        exporting process).

    Returns
    -------
    PoissonProblem | HelmholtzProblem
        Per ``spec.kind``, ready to solve through.

    Raises
    ------
    ValueError
        For an unknown kind.
    FileNotFoundError
        If the exporter has already unlinked the block.
    """
    cls = _PROBLEM_CLASSES.get(spec.kind)
    if cls is None:
        raise ValueError(
            f"unknown problem kind {spec.kind!r}; expected one of "
            f"{PROBLEM_KINDS}"
        )
    views = attach_shared_arrays(spec.arrays)
    ref = ReferenceElement(
        degree=spec.degree,
        points=views["ref_points"],
        weights=views["ref_weights"],
        deriv=views["ref_deriv"],
    )
    coords, l2g_flat, mult = views["coords"], views["l2g_flat"], views["mult"]
    local_shape = coords.shape[1:]
    mesh = BoxMesh(
        ref=ref, shape=tuple(spec.shape), extent=tuple(spec.extent),
        coords=coords, l2g=l2g_flat.reshape(local_shape),
        n_global=mult.size,
    )
    geometry = Geometry(
        g_soa=views["g_soa"], jac=views["jac"], mass=views["mass"]
    )
    # The parent's fp32 twin, so as_dtype() resolves to the shared
    # pages instead of a private cast.
    geometry32 = Geometry(
        g_soa=views["g_soa32"], jac=views["jac32"], mass=views["mass32"]
    )
    geometry.adopt_twin(geometry32)
    gs = GatherScatter._from_views(l2g_flat, mult, local_shape)
    knobs = dict(precision=spec.precision)
    if spec.lam is not None:
        knobs["lam"] = spec.lam
    return cls(mesh, **knobs, _parts=ProblemParts(
        geometry=geometry, gather_scatter=gs,
        precond_diag=views["precond_diag"],
    ))
