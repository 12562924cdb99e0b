"""Preallocated solver workspaces for the allocation-free hot path.

The paper's FPGA datapath wins by streaming DOFs through fixed on-chip
buffers with zero redundant memory traffic; the CPU baseline should play
by the same rules.  :class:`SolverWorkspace` preallocates every
per-iteration temporary the solver stack needs for a fixed ``(E, nx)``
local shape and global DOF count:

* local scatter/gather buffers and one element-space scratch (``tmp``,
  for the Helmholtz mass term) used by the layered path of
  :meth:`repro.sem.poisson.PoissonProblem.apply_A` — the compiled
  ``Ax`` kernel keeps its own scratch on the C stack,
* the CG vectors (``x``, ``r``, ``z``, ``p``, ``ap``, the scaled
  right-hand side ``b`` and the inverse Jacobi diagonal) and per-system
  scalars consumed by :func:`repro.sem.cg.cg_solve`.

One serving knob extends the workspace beyond one solve at a time:
``batch`` sizes every buffer with a leading ``(B, ...)`` system
dimension so one warm workspace carries ``B`` independent right-hand
sides through :func:`repro.sem.cg.cg_solve_batched`, amortizing the
geometry traffic across all of them.

One workspace serves one (possibly batched) solve at a time — buffers
are reused across calls, so concurrent *solves* must not share a
workspace.  After a warm-up call every kernel and CG iteration runs
without any field-sized heap allocation — verified by the
``tracemalloc`` regression tests in ``tests/sem/test_workspace.py``.
A workspace is buffers and nothing else: it starts no thread and needs
no teardown.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from repro.sem.mesh import BoxMesh

#: Element-space scratch, shaped ``(E, nx, nx, nx)`` at every batch
#: size: the layered operator adds the mass term one system at a time
#: through it.
SCRATCH_BUFFERS: tuple[str, ...] = ("tmp",)

#: Local field buffer names, shaped ``(E, nx, nx, nx)`` for
#: ``batch == 1`` and ``(batch, E, nx, nx, nx)`` otherwise.
LOCAL_FIELD_BUFFERS: tuple[str, ...] = ("u_local", "w_local")

#: All local (element-space) buffer names.
LOCAL_BUFFERS: tuple[str, ...] = SCRATCH_BUFFERS + LOCAL_FIELD_BUFFERS

#: Global (assembled-space) buffer names, shaped ``(n_global,)`` for
#: ``batch == 1`` and ``(batch, n_global)`` otherwise.
GLOBAL_BUFFERS: tuple[str, ...] = (
    "cg_x", "cg_r", "cg_z", "cg_p", "cg_ap", "cg_b", "cg_invm", "g_tmp",
)

#: Per-system scalar buffers of the batched CG loop, shaped ``(batch,)``.
BATCH_SCALAR_BUFFERS: tuple[str, ...] = (
    "cg_rz", "cg_pap", "cg_alpha", "cg_beta", "cg_res", "cg_stop",
)


@dataclass
class SolverWorkspace:
    """Every per-iteration temporary of the SEM solver stack, preallocated.

    Parameters
    ----------
    num_elements:
        Element count ``E`` of the local fields.
    nx:
        GLL points per direction (``N + 1``).
    n_global:
        Global DOF count; ``0`` builds a kernel-only workspace (no CG /
        gather-scatter buffers).
    batch:
        Number of independent right-hand sides the buffers carry at
        once.  ``1`` (the default) keeps the historical unbatched
        shapes; ``B > 1`` prepends a system axis to the local field and
        global (CG) buffers for :func:`repro.sem.cg.cg_solve_batched`.
        The element-space scratch ``tmp`` stays single-system.
    dtype:
        Floating dtype of every float buffer (``np.float64`` or
        ``np.float32``).  The default keeps the historical fp64 shapes
        bit-identical; ``np.float32`` halves the workspace footprint
        and feeds the mixed-precision solve path
        (:func:`repro.sem.cg.cg_solve_mixed`).  ``cg_active`` stays
        bool and the ``(batch,)`` scalar reduction buffers stay fp64
        either way (inner products accumulate in fp64 on every path).

    Use :meth:`for_mesh` to size a workspace from a
    :class:`~repro.sem.mesh.BoxMesh` in one call.

    Thread safety
    -------------
    One workspace admits one (possibly batched) solve at a time — the
    buffers are reused in place across calls.  Give each concurrent
    solver its own workspace (one problem instance per concurrent
    solve) or serialize access with a lock, as
    :class:`repro.serve.SolveService` does around every stacked solve.
    """

    num_elements: int
    nx: int
    n_global: int = 0
    batch: int = 1
    dtype: "np.dtype | type" = np.float64

    tmp: NDArray[np.float64] = field(init=False, repr=False)
    u_local: NDArray[np.float64] = field(init=False, repr=False)
    w_local: NDArray[np.float64] = field(init=False, repr=False)
    cg_x: NDArray[np.float64] = field(init=False, repr=False)
    cg_r: NDArray[np.float64] = field(init=False, repr=False)
    cg_z: NDArray[np.float64] = field(init=False, repr=False)
    cg_p: NDArray[np.float64] = field(init=False, repr=False)
    cg_ap: NDArray[np.float64] = field(init=False, repr=False)
    cg_b: NDArray[np.float64] = field(init=False, repr=False)
    cg_invm: NDArray[np.float64] = field(init=False, repr=False)
    g_tmp: NDArray[np.float64] = field(init=False, repr=False)
    cg_rz: NDArray[np.float64] = field(init=False, repr=False)
    cg_pap: NDArray[np.float64] = field(init=False, repr=False)
    cg_alpha: NDArray[np.float64] = field(init=False, repr=False)
    cg_beta: NDArray[np.float64] = field(init=False, repr=False)
    cg_res: NDArray[np.float64] = field(init=False, repr=False)
    cg_stop: NDArray[np.float64] = field(init=False, repr=False)
    cg_active: NDArray[np.bool_] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_elements < 1:
            raise ValueError(
                f"element count must be >= 1, got {self.num_elements}"
            )
        if self.nx < 2:
            raise ValueError(f"nx must be >= 2, got {self.nx}")
        if self.n_global < 0:
            raise ValueError(f"n_global must be >= 0, got {self.n_global}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        self.dtype = np.dtype(self.dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(
                f"dtype must be float64 or float32, got {self.dtype}"
            )
        scratch_shape = (self.num_elements, self.nx, self.nx, self.nx)
        local_shape: tuple[int, ...] = scratch_shape
        global_shape: tuple[int, ...] = (self.n_global,)
        if self.batch > 1:
            local_shape = (self.batch,) + local_shape
            global_shape = (self.batch,) + global_shape
        for name in SCRATCH_BUFFERS:
            setattr(self, name, np.empty(scratch_shape, dtype=self.dtype))
        for name in LOCAL_FIELD_BUFFERS:
            setattr(self, name, np.empty(local_shape, dtype=self.dtype))
        for name in GLOBAL_BUFFERS:
            setattr(self, name, np.empty(global_shape, dtype=self.dtype))
        # Scalar reduction targets stay fp64 regardless of the field
        # dtype: the CG inner products are always *accumulated* in fp64
        # (the mixed path drops field storage, never dot precision), and
        # at (batch,) size the bytes are irrelevant anyway.
        for name in BATCH_SCALAR_BUFFERS:
            setattr(self, name, np.empty(self.batch, dtype=np.float64))
        self.cg_active = np.empty(self.batch, dtype=bool)

    # ------------------------------------------------------------------
    @classmethod
    def for_mesh(
        cls,
        mesh: BoxMesh,
        batch: int = 1,
        dtype: "np.dtype | type" = np.float64,
    ) -> "SolverWorkspace":
        """Size a full workspace (kernel + CG buffers) from a mesh."""
        e, nx = mesh.l2g.shape[0], mesh.l2g.shape[1]
        return cls(
            num_elements=e, nx=nx, n_global=mesh.n_global,
            batch=batch, dtype=dtype,
        )

    # ------------------------------------------------------------------
    def require_global(self, n_global: int) -> None:
        """Raise unless the global buffers hold ``n_global`` entries."""
        if n_global != self.n_global:
            raise ValueError(
                f"workspace sized for {self.n_global} global DOFs, "
                f"got {n_global}"
            )

    def require_batch(self, batch: int) -> None:
        """Raise unless the buffers carry exactly ``batch`` systems."""
        if batch != self.batch:
            raise ValueError(
                f"workspace sized for batch={self.batch}, "
                f"got a block of {batch} systems"
            )


#: Reserved key under which each workspace cache stores its creation
#: lock (ints / ``(int, str)`` tuples are the workspace keys, so a str
#: can never collide).
_CACHE_LOCK_KEY: str = "__create_lock__"


def cached_batch_workspace(
    cache: "dict[object, SolverWorkspace]",
    mesh: BoxMesh,
    batch: int,
    base: "SolverWorkspace",
    dtype: "np.dtype | type" = np.float64,
) -> "SolverWorkspace":
    """Shared per-problem cache of batched workspaces.

    Parameters
    ----------
    cache:
        The problem's private ``{batch: workspace}`` dict, mutated in
        place on a miss (a per-cache creation lock is also stashed in
        it, under a reserved non-``int`` key).
    mesh:
        Mesh the workspaces are sized for.
    batch:
        Requested stacked-system count.
    base:
        The problem's own unbatched workspace, returned for
        ``batch == 1`` when its dtype matches ``dtype``.
    dtype:
        Floating dtype of the requested workspace.  fp64 keeps the
        historical plain-``int`` cache keys; other dtypes key on
        ``(batch, dtype.str)`` so fp64 and fp32 workspaces coexist in
        one cache without colliding.

    Returns
    -------
    SolverWorkspace
        Warm workspace for ``batch`` systems; sized once per distinct
        ``batch`` and reused, so repeated batched solves stay warm.
        Used by :class:`~repro.sem.poisson.PoissonProblem` and
        :class:`~repro.sem.helmholtz.HelmholtzProblem`.

    Notes
    -----
    Creation is guarded by a per-cache lock: two threads racing an
    unseen batch size through ``problem.batch_workspace(B)`` directly
    (the solve service serializes its own callers, bare problems
    don't) must materialize exactly *one* workspace — the losing
    duplicate of a check-then-insert race is a field-sized allocation
    its caller warms once and the cache never hands out again.  The
    lock covers only construction; *use* of the returned workspace is
    still the caller's to serialize (one solve per workspace at a time).
    """
    dtype = np.dtype(dtype)
    if batch == 1 and dtype == base.dtype:
        return base
    key: object = (
        batch if dtype == np.dtype(np.float64) else (batch, dtype.str)
    )
    ws = cache.get(key)
    if ws is not None:
        return ws
    lock = cache.get(_CACHE_LOCK_KEY)
    if lock is None:
        # setdefault is atomic under the GIL: every racer converges on
        # one lock even when the cache starts empty.
        lock = cache.setdefault(_CACHE_LOCK_KEY, threading.Lock())
    with lock:
        ws = cache.get(key)
        if ws is None:
            ws = SolverWorkspace.for_mesh(mesh, batch=batch, dtype=dtype)
            cache[key] = ws
    return ws
