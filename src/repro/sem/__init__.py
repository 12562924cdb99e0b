"""Spectral Element Method numerics substrate (paper §II).

Everything needed to *run* the paper's kernel and the surrounding solver on
a laptop: GLL quadrature, spectral differentiation, hexahedral meshes,
geometric factors, the matrix-free local Poisson operator (Listing 1), the
BK5-style Helmholtz variant, gather-scatter, and preconditioned CG.
"""

import numpy as _np

if not hasattr(_np, "vecdot"):  # new in numpy 2.0
    # pip enforces pyproject's floor; running from src/ on the path
    # (as the benchmark does) bypasses it, so fail here, by name.
    raise ImportError(
        "repro.sem needs numpy >= 2.0 (pyproject's floor); the installed "
        f"numpy is {_np.__version__}"
    )

from repro.sem.legendre import legendre, legendre_prime
from repro.sem.quadrature import gll_points_and_weights
from repro.sem.basis import (
    barycentric_weights,
    lagrange_basis_matrix,
    interpolate,
    interpolation_matrix,
)
from repro.sem.derivative import derivative_matrix, derivative_matrix_general
from repro.sem.element import ReferenceElement
from repro.sem.mesh import BoxMesh
from repro.sem.geometry import (
    Geometry,
    geometric_factors,
    affine_geometric_factors,
    reference_gradient,
    G_COMPONENTS,
)
from repro.sem.operators import ax_local_listing1
from repro.sem.gather_scatter import GatherScatter
from repro.sem.kernels import (
    ax_local_matmul,
    get_ax_kernel,
    register_ax_kernel,
)
from repro.sem.workspace import SolverWorkspace
from repro.sem.problem import SEMProblem
from repro.sem.poisson import PoissonProblem, sine_manufactured
from repro.sem.cg import cg_solve, cg_solve_batched, CGResult, BatchedCGResult
from repro.sem.helmholtz import HelmholtzProblem, cosine_manufactured
from repro.sem.nekbone import (
    NekboneCase,
    NekboneReport,
    element_sweep,
)
from repro.sem.shared import (
    SharedArrayManifest,
    SlotRing,
    attach_shared_arrays,
    export_shared_arrays,
)
from repro.sem.spec import (
    ProblemSpec,
    SharedProblemExport,
    export_shared_problem,
    rebuild,
)

__all__ = [
    "legendre",
    "legendre_prime",
    "gll_points_and_weights",
    "barycentric_weights",
    "lagrange_basis_matrix",
    "interpolate",
    "interpolation_matrix",
    "derivative_matrix",
    "derivative_matrix_general",
    "ReferenceElement",
    "BoxMesh",
    "Geometry",
    "geometric_factors",
    "affine_geometric_factors",
    "reference_gradient",
    "G_COMPONENTS",
    "ax_local_listing1",
    "ax_local_matmul",
    "get_ax_kernel",
    "register_ax_kernel",
    "SolverWorkspace",
    "GatherScatter",
    "SEMProblem",
    "PoissonProblem",
    "sine_manufactured",
    "cg_solve",
    "cg_solve_batched",
    "CGResult",
    "BatchedCGResult",
    "HelmholtzProblem",
    "cosine_manufactured",
    "NekboneCase",
    "NekboneReport",
    "element_sweep",
    "SharedArrayManifest",
    "SlotRing",
    "attach_shared_arrays",
    "export_shared_arrays",
    "ProblemSpec",
    "SharedProblemExport",
    "export_shared_problem",
    "rebuild",
]
