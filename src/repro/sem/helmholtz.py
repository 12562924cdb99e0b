"""BK5-style Helmholtz problem: the CEED bake-off operator end-to-end.

The paper positions its kernel next to CEED's bake-off kernel BK5, which
"closely resembles the local Poisson operator, but also considers one
more geometric factor" — the collocation mass term.  This module is the
solvable global problem ``(A + lam B) u = b``, strictly SPD for
``lam > 0`` even without boundary conditions: the
:class:`~repro.sem.problem.SEMProblem` core (the same pipeline and
backends as :class:`~repro.sem.poisson.PoissonProblem`) plus ``lam``,
the coefficient of the mass term the operator and its diagonal add.
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
        The stiffness part's kernel, as for
        :class:`~repro.sem.poisson.PoissonProblem`.  The mass term rides
        in the production kernel's compiled pass (one more multiply-add
        per node); with any other backend it is an axpy on the host,
        where the paper's kernel leaves it.
    precision:
        Default solve precision policy (``"fp64"`` or ``"mixed"``), as
        :class:`~repro.sem.poisson.PoissonProblem`.

    Everything else — workspaces (one problem instance per concurrent
    solve), the operator (:meth:`apply`, :meth:`apply32`) and its
    :meth:`diagonal`, stacked ``(B, n)`` inputs, ``export_shared`` /
    ``solve`` — is the core's (see :class:`~repro.sem.problem.SEMProblem`).
    """

    kind: ClassVar[str] = "helmholtz"

    mesh: BoxMesh
    lam: float = 1.0
    ax_backend: AxBackend = None
    precision: str = "fp64"
    # Rebuild hand-off (see repro.sem.spec.ProblemParts), as in
    # PoissonProblem: adopt prebuilt shared-memory state.
    _parts: InitVar["object | None"] = None
    geometry: Geometry = field(init=False)
    gs: GatherScatter = field(init=False)
    workspace: SolverWorkspace = field(init=False, repr=False)

    def __post_init__(self, _parts: "object | None" = None) -> None:
        if self.lam <= 0:
            raise ValueError(f"lam must be > 0 for an SPD system, got {self.lam}")
        super().__post_init__(_parts)

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
