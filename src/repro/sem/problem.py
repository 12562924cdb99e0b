"""The one SEM problem core: scatter -> local Ax -> gather, in any dtype.

The paper runs the Poisson operator and its BK5/Helmholtz variant ("one
more geometric factor") through one accelerator pipeline; so does this
module.  :class:`SEMProblem` holds everything the two global problems
share — the constructor tail, the workspaces, the operator
(:meth:`~SEMProblem.apply` / :meth:`~SEMProblem.apply32`) and its
:meth:`~SEMProblem.diagonal`, ``export_shared`` / ``solve`` /
``l2_error`` — and the single operator pipeline
:meth:`SEMProblem._apply`.  :class:`~repro.sem.poisson.PoissonProblem`
supplies the Dirichlet mask (``_mask``) and its own names for the
three methods; :class:`~repro.sem.helmholtz.HelmholtzProblem` supplies
``lam``, the coefficient of the mass term ``lam * B u`` that the
operator and its diagonal add.  Precision is a parameter of the
pipeline, not a second pipeline: it selects the workspace and the
``as_dtype`` twins of the gather-scatter, the geometry and the mask,
and nothing else.
"""

from __future__ import annotations

from typing import Callable, ClassVar

import numpy as np
from numpy.typing import NDArray

from repro.analysis.annotations import hot_path
from repro.sem import native
from repro.sem.cg import check_precision, cg_solve, cg_solve_mixed
from repro.sem.element import ReferenceElement
from repro.sem.gather_scatter import GatherScatter
from repro.sem.geometry import geometric_factors
from repro.sem.kernels import AxKernel, ax_local_matmul, get_ax_kernel
from repro.sem.workspace import SolverWorkspace, cached_batch_workspace

#: A problem's ``ax_backend``: ``None`` (the production kernel), a
#: registered kernel's name, or a plain ``(ref, u, g)`` callable.
AxBackend = AxKernel | str | None


def stiffness_diagonal(
    ref: ReferenceElement, g: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Element-local diagonal of ``D^T G D``, matrix-free.

    ``diag(A^e)[ijk] = sum_l D[l,i]^2 G_rr(l,j,k) + D[l,j]^2 G_ss(i,l,k)
    + D[l,k]^2 G_tt(i,j,l)`` plus the cross terms that involve only the
    node itself (``2 D[i,i] D[j,j] G_rs`` etc.).  Returned un-gathered,
    ``(E, nx, nx, nx)``, so a problem can add its own local term first.
    """
    d2 = ref.deriv ** 2
    diag = np.einsum("li,eljk->eijk", d2, g[:, 0], optimize=True)
    diag += np.einsum("lj,eilk->eijk", d2, g[:, 3], optimize=True)
    diag += np.einsum("lk,eijl->eijk", d2, g[:, 5], optimize=True)
    dd = np.diag(ref.deriv)
    diag += 2.0 * g[:, 1] * dd[:, None, None] * dd[None, :, None]
    diag += 2.0 * g[:, 2] * dd[:, None, None] * dd[None, None, :]
    diag += 2.0 * g[:, 4] * dd[None, :, None] * dd[None, None, :]
    return diag


def _backend(spec: AxBackend) -> AxKernel:
    """The kernel an ``ax_backend`` value names: the production one for
    ``None``, the registered one for a name, a callable as it is."""
    if spec is None:
        return ax_local_matmul
    if isinstance(spec, str):
        return get_ax_kernel(spec)
    if not callable(spec):
        raise TypeError(
            f"ax_backend must be None, a kernel name or a callable, "
            f"got {spec!r}"
        )
    return spec


class SEMProblem:
    """What every global SEM problem on a box mesh is made of.

    Not constructed directly: a specialisation is a dataclass declaring
    the fields ``mesh``, ``ax_backend``, ``precision``, the ``_parts``
    hand-off and (``init=False``) ``geometry``, ``gs`` and
    ``workspace``, and its ``__post_init__`` runs this class's as the
    constructor tail.

    ``ax_backend=None``, every specialisation's default, is the
    production kernel :func:`~repro.sem.kernels.ax_local_matmul`
    (``"matmul"`` is another spelling of it).  With an unreplaced
    gather-scatter the whole operator is then one compiled pass per
    element (:meth:`_fused`); otherwise the layers run through the
    problem's :class:`~repro.sem.workspace.SolverWorkspace`, so the CG
    hot path performs no field-sized allocations after warm-up.  Any
    other backend — a registered name, a plain ``(ref, u, g)`` callable
    such as the accelerator model's — is called as
    ``backend(ref, u, g)`` on the scattered fields (a stacked
    ``(B, E, ...)`` block for a stacked input) and runs the layers one
    by one.  The shared buffers make one problem instance serve one
    solve at a time, though that solve may carry a stacked ``(B, n)``
    block of right-hand sides through :meth:`batch_workspace`.

    Two things may be replaced on an instance after construction, and
    the core reads both at every use rather than caching them: the
    public operator methods (``problem.apply_A = wrapper`` is what
    :attr:`operator` hands out from then on) and ``problem.gs`` (the
    pipeline asks ``self.gs`` for its ``as_dtype`` twin per application;
    a replacement numbers the nodes as the mesh, as the mask assumes).
    """

    #: The spec kind (see :data:`repro.sem.spec.PROBLEM_KINDS`).
    kind: ClassVar[str]
    #: Coefficient of the mass term: the operator is ``A + lam B``, or
    #: ``A`` where it is ``None`` (a Helmholtz problem's field sets it).
    lam = None

    def __post_init__(self, _parts: "object | None" = None) -> None:
        check_precision(self.precision)
        if _parts is not None:
            self.geometry = _parts.geometry
            self.gs = _parts.gather_scatter
        else:
            self.geometry = geometric_factors(self.mesh)
            self.gs = GatherScatter.from_mesh(self.mesh)
        self.ax_backend = _backend(self.ax_backend)
        self.workspace = SolverWorkspace.for_mesh(self.mesh)
        self._batch_workspaces: dict[object, SolverWorkspace] = {}
        self._precond_diag: NDArray[np.float64] | None = (
            None if _parts is None else _parts.precond_diag
        )
        # The fused pass masks only elements with a mask value other than 1.
        mask = self._mask(np.float64)
        self._edge = None if mask is None else (
            mask[self.mesh.l2g] != 1).any(axis=(1, 2, 3)).astype(np.uint8)

    # ------------------------------------------------------------------
    @property
    def ref(self) -> ReferenceElement:
        """The mesh's reference element."""
        return self.mesh.ref

    @property
    def n_dofs(self) -> int:
        """Number of global DOFs (including any masked boundary nodes)."""
        return self.mesh.n_global

    @property
    def operator(self) -> Callable[..., NDArray[np.float64]]:
        """The global SPD operator callback, as the instance has it at
        access time (:meth:`apply_A`, or what replaced it).

        The uniform solver-facing protocol; the serving layer
        (:mod:`repro.serve`) binds problems through this property.
        """
        return self.apply_A

    @property
    def operator32(self) -> Callable[..., NDArray[np.float32]]:
        """The same operator in fp32 (:meth:`apply_A32`).

        The mixed-precision solvers
        (:func:`~repro.sem.cg.cg_solve_mixed`) drive their fp32 inner
        iterations through this.
        """
        return self.apply_A32

    def precond_diag(self) -> NDArray[np.float64]:
        """The Jacobi diagonal, computed once and cached.

        Repeated solves (and every batch a :class:`repro.serve.SolveService`
        dispatches) reuse one assembled diagonal instead of regathering
        it; treat the returned array as read-only.
        """
        if self._precond_diag is None:
            self._precond_diag = self.diagonal()
        return self._precond_diag

    def export_shared(self):
        """Export the immutable arrays to shared memory for worker fleets.

        Returns a :class:`~repro.sem.spec.SharedProblemExport` whose
        ``spec`` rebuilds this problem in any process over one attached
        block — geometry and its fp32 twin, gather-scatter map and
        multiplicities, coordinates, quadrature arrays and Jacobi
        diagonal, zero-copy: one physical copy across every worker.
        The caller owns the export: ``close()`` it when the fleet is
        done.  :func:`~repro.sem.spec.export_shared_problem` says what
        it refuses.
        """
        from repro.sem.spec import export_shared_problem

        return export_shared_problem(self)

    def batch_workspace(
        self, batch: int, dtype: "np.dtype | type" = np.float64
    ) -> SolverWorkspace:
        """The problem's workspace for ``batch`` stacked right-hand sides.

        Sized once per distinct ``(batch, dtype)`` and cached, so
        repeated batched solves stay warm; ``batch=1`` in fp64 returns
        the problem's own :attr:`workspace`.  ``dtype=np.float32``
        yields the half-footprint twin the mixed-precision inner solves
        run through.
        """
        return cached_batch_workspace(
            self._batch_workspaces, self.mesh, batch, self.workspace,
            dtype=dtype,
        )

    # ------------------------------------------------------------------
    # The operator, its diagonal, and the one pipeline behind both.
    def apply(
        self,
        u_global: NDArray[np.float64],
        out: NDArray[np.float64] | None = None,
    ) -> NDArray[np.float64]:
        """The global operator: mask -> scatter -> local ``Ax`` (+ ``lam``
        times the mass) -> gather -> mask.

        Symmetric positive definite on the unmasked DOFs, which CG
        requires.  Accepts one global vector or a stacked ``(B, n)``
        block (a batch of one runs the single-system path on its only
        row); passing ``out`` makes the application allocation-free (see
        :meth:`_apply`).
        """
        return self._apply(u_global, out, np.float64)

    def apply32(
        self,
        u_global: NDArray[np.float32],
        out: NDArray[np.float32] | None = None,
    ) -> NDArray[np.float32]:
        """:meth:`apply` in fp32: the same pipeline over the cached fp32
        geometry, gather-scatter and mask twins.  Inputs and outputs are
        fp32."""
        return self._apply(u_global, out, np.float32)

    #: The operator under the solvers' name (what :attr:`operator` returns).
    apply_A = apply
    apply_A32 = apply32

    def diagonal(self) -> NDArray[np.float64]:
        """The assembled operator diagonal, for Jacobi preconditioning:
        the gathered :func:`stiffness_diagonal` plus ``lam`` times the
        mass, with masked rows set to one."""
        diag = stiffness_diagonal(self.ref, self.geometry.g)
        if self.lam is not None:
            diag += self.lam * self.geometry.mass
        out = self.gs.gather(diag)
        mask = self._mask(np.float64)
        if mask is not None:
            out[mask == 0] = 1.0
        return out

    def _mask(self, dtype: type) -> "NDArray | None":
        """The 0/1 global mask applied before scatter and after gather,
        in ``dtype`` — ``None`` (the default) for an unmasked operator."""
        return None

    def _fused(self, dtype: type) -> "native.FusedPass | None":
        """The compiled scatter -> ``Ax`` (+ mass term) -> gather-add
        pass of this operator in ``dtype``, where it gives the layers'
        bits — the production kernel and an unreplaced gather-scatter
        with an :attr:`~GatherScatter.affine` map — else ``None``.  The
        vectors are the caller's to check."""
        if self.ax_backend is not ax_local_matmul:
            return None
        gs = self.gs.as_dtype(dtype)
        if type(gs) is not GatherScatter or gs.affine is None:
            return None
        d, geo = self.ref.deriv_as(dtype), self.geometry.as_dtype(dtype)
        g, (org, s0, s1) = geo.g, gs.affine
        mass = None if self.lam is None else geo.mass
        nx, size = d.shape[0], g.itemsize
        if (not d.flags.c_contiguous
                or g.dtype != gs.dtype or not g.flags.aligned
                or g.strides[2:] != (nx * nx * size, nx * size, size)
                or (mass is not None and (
                    mass.dtype != gs.dtype or not mass.flags.c_contiguous
                    or not mass.flags.aligned))):
            return None
        return native.FusedPass(
            native.ax_gs_kernel(nx, gs.dtype), self.n_dofs, d,
            self._mask(dtype), org, s0, s1, self._edge, g, mass,
            0.0 if self.lam is None else float(self.lam), gs.split,
        )

    def _solver_pass(self, operator: Callable, dtype: np.dtype):
        """:meth:`_fused` for the compiled CG loop
        (:func:`repro.sem.cg.cg_solve`) to call in place of ``operator``
        on ``dtype`` vectors — when ``operator`` is this problem's own
        operator in that dtype (the function of :meth:`apply` /
        :meth:`apply32`, under whatever public name); else ``None``."""
        own = {np.dtype(np.float64): SEMProblem.apply,
               np.dtype(np.float32): SEMProblem.apply32}.get(dtype)
        return self._fused(dtype.type) if operator is own else None

    @hot_path
    def _apply(self, u_global: NDArray, out: "NDArray | None", dtype: type):
        """mask -> scatter -> local Ax (+ mass term) -> gather -> mask.

        The body behind all four public operator methods.  Where
        :meth:`_fused` allows, that is one compiled pass per element with
        no element-local field in memory (the paper's on-chip dataflow)
        and the layers' bits; otherwise the layers run one by one.  Every
        intermediate lives in the ``dtype`` workspace, so passing ``out``
        (as :func:`~repro.sem.cg.cg_solve` does) makes the application
        allocation-free with the production kernel; in fp32 the
        gather-scatter and geometry twins stream half the bytes per DOF,
        which is where the mixed solve's speedup comes from on this
        bandwidth-bound operator (the first fp32 call per batch size pays
        the one-time twin casts).

        A stacked ``(B, n)`` input applies the operator to all ``B``
        systems at once through the cached batched workspace — the path
        :func:`~repro.sem.cg.cg_solve_batched` drives.  A batch of one
        runs the single-system path on its only row.
        """
        if u_global.ndim == 2 and u_global.shape[0] == 1:
            if out is not None:
                self._apply(u_global[0], out[0], dtype)
                return out
            return self._apply(u_global[0], None, dtype)[None]
        fused = self._fused(dtype)
        # C reads ``u_global`` and writes ``out`` unchecked, zero-filled
        # first: ``out`` must be writeable, contiguous and apart from it.
        if (fused is not None and u_global.dtype == fused.d.dtype
                and u_global.ndim in (1, 2) and u_global.flags.c_contiguous
                and u_global.flags.aligned
                and u_global.shape[-1] == fused.n
                and (out is None or (
                    out.flags.carray and out.dtype == u_global.dtype
                    and out.shape == u_global.shape
                    and not np.may_share_memory(u_global, out)))):
            if out is None:  # an out-less call allocates, as gather does
                out = np.empty_like(u_global)  # lint: ignore[hot-path-alloc]
            fused(u_global, out)
            return out
        gs = self.gs.as_dtype(dtype)
        geo = self.geometry.as_dtype(dtype)
        mask = self._mask(dtype)
        ws = self.batch_workspace(
            u_global.shape[0] if u_global.ndim == 2 else 1, dtype
        )
        if mask is not None:
            u_global = np.multiply(u_global, mask, out=ws.g_tmp)
        gs.scatter(u_global, out=ws.u_local)
        if self.ax_backend is ax_local_matmul:
            w_local = ax_local_matmul(
                self.ref, ws.u_local, geo.g, out=ws.w_local,
            )
        else:
            w_local = self.ax_backend(self.ref, ws.u_local, geo.g)
        if self.lam is not None:
            self._add_mass(
                geo.mass, ws.u_local, w_local,
                ws.tmp[:self.mesh.num_elements],
            )
        w = gs.gather(w_local, out=out)
        if mask is not None:
            np.multiply(w, mask, out=w)
        return w

    @hot_path
    def _add_mass(self, mass, u_local, w_local, tmp) -> None:
        """``w += (mass * u) * lam`` in element space, one system at a
        time through the single-system scratch ``tmp``: the rounding of
        the fused pass's mass term, for every backend and dtype."""
        lam = tmp.dtype.type(self.lam)
        stacked = w_local.ndim == 5
        for w_row, u_row in zip(w_local if stacked else (w_local,),
                                u_local if stacked else (u_local,)):
            np.multiply(mass, u_row, out=tmp)
            np.multiply(tmp, lam, out=tmp)
            w_row += tmp

    def solve(
        self,
        b: NDArray[np.float64],
        tol: float = 1e-10,
        maxiter: int = 1000,
        x0: NDArray[np.float64] | None = None,
        precision: str | None = None,
    ):
        """Solve the problem's system through its cached workspaces.

        Dispatches on ``precision`` (default: the problem's own
        :attr:`precision` field): ``"fp64"`` runs the historical
        :func:`~repro.sem.cg.cg_solve`, ``"mixed"`` the fp32-inner /
        fp64-refinement :func:`~repro.sem.cg.cg_solve_mixed` — both to
        the same fp64 ``tol``, judged on the true residual for the
        mixed path.  A stacked ``(B, n)`` right-hand side solves the
        whole block at once either way.
        """
        precision = check_precision(
            self.precision if precision is None else precision
        )
        b = np.asarray(b, dtype=np.float64)
        batch = b.shape[0] if b.ndim == 2 else 1
        ws = self.batch_workspace(batch)
        diag = self.precond_diag()
        if precision == "fp64":
            return cg_solve(
                self.operator, b, x0=x0, precond_diag=diag, tol=tol,
                maxiter=maxiter, workspace=ws,
            )
        ws32 = self.batch_workspace(batch, dtype=np.float32)
        return cg_solve_mixed(
            self.operator, self.operator32, b, x0=x0, precond_diag=diag,
            tol=tol, maxiter=maxiter, workspace=ws, workspace32=ws32,
        )

    def l2_error(
        self,
        u_global: NDArray[np.float64],
        exact: Callable[[NDArray, NDArray, NDArray], NDArray],
    ) -> float:
        """Discrete L2 error ``sqrt(sum B (u - u_exact)^2)`` over the mesh."""
        x, y, z = self.mesh.coords
        diff = self.gs.scatter(u_global) - exact(x, y, z)
        return float(np.sqrt(np.sum(self.geometry.mass * diff ** 2)))
