"""Poisson problem setup: assembled operator, RHS, manufactured solutions.

The paper solves the homogeneous Poisson equation in weak form (its Eq. 1)
with a preconditioned Krylov method whose core is the matrix-free ``Ax``.
:class:`PoissonProblem` is the :class:`~repro.sem.problem.SEMProblem`
core plus Dirichlet masking: the global SPD operator ``A`` that
:func:`repro.sem.cg.cg_solve` consumes, its Jacobi diagonal and masked
right-hand side, plus a spectral-accuracy manufactured solution for
verification.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Callable, ClassVar

import numpy as np
from numpy.typing import NDArray

from repro.sem.gather_scatter import GatherScatter
from repro.sem.geometry import Geometry
from repro.sem.mesh import BoxMesh
from repro.sem.problem import AxBackend, SEMProblem
from repro.sem.workspace import SolverWorkspace


@dataclass
class PoissonProblem(SEMProblem):
    """Homogeneous-Dirichlet Poisson problem on a box mesh.

    Parameters
    ----------
    mesh:
        The SEM mesh.
    ax_backend:
        ``None`` (the default) runs the production kernel,
        :func:`~repro.sem.kernels.ax_local_matmul`, which ``"matmul"``
        also names.  A registered name or a plain ``(ref, u, g)``
        callable runs in its place — the FPGA accelerator simulator
        plugs in here (see
        :meth:`repro.core.accel.SEMAccelerator.as_ax_backend`).
    precision:
        Default solve precision policy: ``"fp64"`` (the historical
        bit-exact double path) or ``"mixed"`` (fp32 inner Jacobi-CG +
        fp64 iterative refinement; see
        :func:`~repro.sem.cg.cg_solve_mixed`).  Selects the path
        :meth:`solve` takes and the default the serving layer inherits;
        either precision can still be requested per solve.

    Workspaces (one problem instance per concurrent solve), the
    backends, ``spec`` / ``solve`` and the operator pipeline are the
    core's (see :class:`~repro.sem.problem.SEMProblem`); this class adds
    the Dirichlet mask, applied to the input before the scatter and to
    the result after the gather, and Poisson's name for the operator
    diagonal (:meth:`jacobi_diagonal`, with the masked boundary rows set
    to one).
    """

    kind: ClassVar[str] = "poisson"

    mesh: BoxMesh
    ax_backend: AxBackend = None
    precision: str = "fp64"
    # The spec/rebuild hand-off (see repro.sem.spec.ProblemParts):
    # prebuilt immutable state — typically shared-memory views attached
    # by a worker process — adopted instead of recomputed.
    _parts: InitVar["object | None"] = None
    geometry: Geometry = field(init=False)
    gs: GatherScatter = field(init=False)
    interior: NDArray[np.bool_] = field(init=False, repr=False)
    workspace: SolverWorkspace = field(init=False, repr=False)

    jacobi_diagonal = SEMProblem.diagonal

    def __post_init__(self, _parts: "object | None" = None) -> None:
        # The mask first: the core's constructor reads it.
        self.interior = ~self.mesh.boundary_mask()
        # 0/1 float twins of the mask per dtype, cast on first use.
        self._masks: dict[type, NDArray] = {}
        super().__post_init__(_parts)

    def _mask(self, dtype: type) -> NDArray:
        mask = self._masks.get(dtype)
        if mask is None:
            mask = self._masks[dtype] = self.interior.astype(dtype)
        return mask

    # ------------------------------------------------------------------
    def rhs_from_forcing(
        self, f: Callable[[NDArray, NDArray, NDArray], NDArray]
    ) -> NDArray[np.float64]:
        """Weak-form right-hand side ``b = Q^T B f`` with boundary masked.

        Parameters
        ----------
        f:
            Forcing as a function of nodal coordinate arrays.
        """
        x, y, z = self.mesh.coords
        f_local = f(x, y, z) * self.geometry.mass
        b = self.gs.gather(f_local)
        b[~self.interior] = 0.0
        return b

    def nodal_values(
        self, u: Callable[[NDArray, NDArray, NDArray], NDArray]
    ) -> NDArray[np.float64]:
        """Evaluate an analytic field at the global nodes."""
        x, y, z = self.mesh.coords
        u_local = u(x, y, z)
        # Average the redundant interface copies (they are identical for a
        # continuous analytic field, so a plain gather/multiplicity works).
        return self.gs.gather(u_local) / self.gs.multiplicity()


def sine_manufactured(
    extent: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> tuple[
    Callable[[NDArray, NDArray, NDArray], NDArray],
    Callable[[NDArray, NDArray, NDArray], NDArray],
]:
    """Return ``(u_exact, forcing)`` for ``-lap(u) = f`` with
    ``u = sin(pi x/Lx) sin(pi y/Ly) sin(pi z/Lz)`` (zero on the boundary).

    ``f = pi^2 (Lx^-2 + Ly^-2 + Lz^-2) u``, so a single pair serves any box.
    """
    lx, ly, lz = extent
    coef = np.pi ** 2 * (1.0 / lx ** 2 + 1.0 / ly ** 2 + 1.0 / lz ** 2)

    def u_exact(x: NDArray, y: NDArray, z: NDArray) -> NDArray:
        return (
            np.sin(np.pi * x / lx)
            * np.sin(np.pi * y / ly)
            * np.sin(np.pi * z / lz)
        )

    def forcing(x: NDArray, y: NDArray, z: NDArray) -> NDArray:
        return coef * u_exact(x, y, z)

    return u_exact, forcing
