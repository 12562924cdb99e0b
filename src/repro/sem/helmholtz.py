"""BK5-style Helmholtz problem: the CEED bake-off operator end-to-end.

The paper positions its kernel next to CEED's bake-off kernel BK5, which
"closely resembles the local Poisson operator, but also considers one
more geometric factor" — the collocation mass term.  This module lifts
:func:`repro.sem.operators.helmholtz_local` to a solvable global problem
``(A + lam B) u = b``, strictly SPD for ``lam > 0`` even without
boundary conditions: the :class:`~repro.sem.problem.SEMProblem` core
(the same pipeline and backend-injection hook as
:class:`~repro.sem.poisson.PoissonProblem`) plus ``lam`` and the one
mass-term axpy it adds to the operator and to the diagonal.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Callable, ClassVar

import numpy as np
from numpy.typing import NDArray

from repro.analysis.annotations import hot_path
from repro.sem.gather_scatter import GatherScatter
from repro.sem.geometry import Geometry
from repro.sem.mesh import BoxMesh
from repro.sem.operators import ax_local
from repro.sem.problem import AxBackend, SEMProblem, stiffness_diagonal
from repro.sem.workspace import SolverWorkspace


@dataclass
class HelmholtzProblem(SEMProblem):
    """Global SPD Helmholtz system ``(A + lam B) u = b`` on a box mesh.

    Parameters
    ----------
    mesh:
        The SEM mesh.
    lam:
        Helmholtz coefficient (> 0 makes the operator strictly SPD, so
        no Dirichlet mask is needed — the natural BK5 setting).
    ax_backend:
        Stiffness-part backend — a registry name (see
        :mod:`repro.sem.kernels`) or a callable (the accelerator plugs
        in here; the mass term is a cheap diagonal axpy the paper's
        kernel leaves on the host).
    precision:
        Default solve precision policy (``"fp64"`` or ``"mixed"``), as
        :class:`~repro.sem.poisson.PoissonProblem`.

    Everything else — workspaces (one problem instance per concurrent
    solve), the allocation-free pipeline, stacked ``(B, n)`` inputs,
    ``spec`` / ``solve`` — is the core's (see
    :class:`~repro.sem.problem.SEMProblem`).
    """

    kind: ClassVar[str] = "helmholtz"
    _OPERATOR: ClassVar[str] = "apply"
    _OPERATOR32: ClassVar[str] = "apply32"
    _DIAGONAL: ClassVar[str] = "diagonal"

    mesh: BoxMesh
    lam: float = 1.0
    ax_backend: AxBackend | str = ax_local
    precision: str = "fp64"
    # Spec/rebuild hand-off (see repro.sem.spec.ProblemParts), as in
    # PoissonProblem: adopt prebuilt (possibly shared-memory) state.
    _parts: InitVar["object | None"] = None
    geometry: Geometry = field(init=False)
    gs: GatherScatter = field(init=False)
    workspace: SolverWorkspace = field(init=False, repr=False)

    def __post_init__(self, _parts: "object | None" = None) -> None:
        if self.lam <= 0:
            raise ValueError(f"lam must be > 0 for an SPD system, got {self.lam}")
        super().__post_init__(_parts)

    @hot_path
    def _local_term(self, ws: SolverWorkspace, geo: Geometry, w_local) -> None:
        """``w += lam * mass * u``, the one spelling for every backend
        and dtype (``mass * u`` first, then ``lam``)."""
        # The mass-term axpy reuses the elementwise scratch, which the
        # kernel is done with by the time it returns.  The scratch is
        # single-system even for batched workspaces, so a stacked
        # block sweeps the axpy one system at a time.
        tmp = ws.tmp[:self.mesh.num_elements]
        batched = w_local.ndim == 5
        rows = w_local if batched else (w_local,)
        u_rows = ws.u_local if batched else (ws.u_local,)
        for w_row, u_row in zip(rows, u_rows):
            np.multiply(geo.mass, u_row, out=tmp)
            np.multiply(tmp, self.lam, out=tmp)
            w_row += tmp

    def apply(
        self,
        u_global: NDArray[np.float64],
        out: NDArray[np.float64] | None = None,
    ) -> NDArray[np.float64]:
        """Apply ``A + lam B`` globally (scatter, local op, gather).

        Accepts a single global vector or a stacked ``(B, n)`` block
        (a batch of one runs the single-system path on its only row).
        """
        return self._apply(u_global, out, np.float64)

    def apply32(
        self,
        u_global: NDArray[np.float32],
        out: NDArray[np.float32] | None = None,
    ) -> NDArray[np.float32]:
        """:meth:`apply` in fp32: the same pipeline over the cached fp32
        geometry and gather-scatter twins, the mass-term axpy on the
        fp32 ``mass`` copy.  Inputs and outputs are fp32."""
        return self._apply(u_global, out, np.float32)

    def diagonal(self) -> NDArray[np.float64]:
        """Assembled operator diagonal (for Jacobi preconditioning)."""
        diag = stiffness_diagonal(self.ref, self.geometry.g)
        diag += self.lam * self.geometry.mass
        return self.gs.gather(diag)

    def rhs_from_function(
        self, f: Callable[[NDArray, NDArray, NDArray], NDArray]
    ) -> NDArray[np.float64]:
        """Weak right-hand side ``b = Q^T B f`` (no masking)."""
        x, y, z = self.mesh.coords
        return self.gs.gather(f(x, y, z) * self.geometry.mass)


def cosine_manufactured(
    extent: tuple[float, float, float] = (1.0, 1.0, 1.0),
    lam: float = 1.0,
) -> tuple[
    Callable[[NDArray, NDArray, NDArray], NDArray],
    Callable[[NDArray, NDArray, NDArray], NDArray],
]:
    """``(u_exact, forcing)`` for ``-lap(u) + lam u = f`` with the
    pure-Neumann-compatible solution
    ``u = cos(pi x/Lx) cos(pi y/Ly) cos(pi z/Lz)``.

    The cosine has zero normal derivative on the box boundary, so the
    unmasked weak form converges spectrally without boundary terms.
    """
    lx, ly, lz = extent
    coef = np.pi ** 2 * (1.0 / lx ** 2 + 1.0 / ly ** 2 + 1.0 / lz ** 2)

    def u_exact(x: NDArray, y: NDArray, z: NDArray) -> NDArray:
        return (
            np.cos(np.pi * x / lx)
            * np.cos(np.pi * y / ly)
            * np.cos(np.pi * z / lz)
        )

    def forcing(x: NDArray, y: NDArray, z: NDArray) -> NDArray:
        return (coef + lam) * u_exact(x, y, z)

    return u_exact, forcing
