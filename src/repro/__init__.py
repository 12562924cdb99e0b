"""repro — reproduction of *High-Performance Spectral Element Methods on
Field-Programmable Gate Arrays* (Karp et al., IPDPS 2021).

The package provides four layers:

``repro.sem``
    The Spectral Element Method numerics substrate: Gauss-Lobatto-Legendre
    quadrature, spectral differentiation, hexahedral meshes, geometric
    factors, the matrix-free local Poisson operator ``Ax`` of
    Nekbone/Nek5000 (Listing 1 of the paper), gather-scatter and a
    Jacobi-preconditioned conjugate-gradient solver.

``repro.serve``
    The multi-tenant serving layer: a dynamic micro-batching
    :class:`~repro.serve.SolveService` that coalesces independent solve
    requests into warm batched CG dispatches, with warm workspaces,
    backpressure and throughput stats.

``repro.hls``
    A small high-level-synthesis modeling substrate: loop nests, unrolling,
    on-chip-memory arbitration analysis and initiation-interval scheduling.
    The paper's ``T = 2^k`` / ``(N+1) mod T = 0`` throughput constraint is
    *derived* here rather than hard-coded.

``repro.core``
    The paper's primary contribution: the FPGA SEM-accelerator (functional
    cycle-level simulator with on-chip BRAM, external-memory banking, and
    a pipelined datapath) plus the Section-IV performance model
    (cost/intensity, resource, throughput, padding, power, roofline).

``repro.hardware``
    The evaluation substrate: the Table-II architecture catalog, FPGA device
    descriptions (Stratix 10 GX2800, Agilex 027, Stratix 10M, the paper's
    hypothetical "ideal" FPGA) and analytic CPU/GPU execution-time models
    used to regenerate the comparison figures.

``repro.experiments``
    Drivers that regenerate every table and figure of the paper's
    evaluation section (``python -m repro.experiments <table1|table2|fig1|
    fig2|fig3|ablations|all>``).
"""

from repro.sem import (
    ReferenceElement,
    gll_points_and_weights,
    derivative_matrix,
    BoxMesh,
    geometric_factors,
    ax_local_listing1,
    ax_local_matmul,
    get_ax_kernel,
    SolverWorkspace,
    PoissonProblem,
    cg_solve,
    cg_solve_batched,
    BatchedCGResult,
)
from repro.serve import SolveService, SolveTicket
from repro.core import (
    KernelCost,
    operational_intensity,
    flops_per_dof,
    bytes_per_dof,
    PerformanceModel,
    padding_gain,
    Roofline,
)
from repro.core.accel import (
    AcceleratorConfig,
    SEMAccelerator,
    SynthesisReport,
)
from repro.hardware import (
    ArchSpec,
    SYSTEM_CATALOG,
    FPGADevice,
    STRATIX10_GX2800,
    AGILEX_027,
    STRATIX10_M,
    IDEAL_FPGA,
    HostExecutionModel,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # sem
    "ReferenceElement",
    "gll_points_and_weights",
    "derivative_matrix",
    "BoxMesh",
    "geometric_factors",
    "ax_local_listing1",
    "ax_local_matmul",
    "get_ax_kernel",
    "SolverWorkspace",
    "PoissonProblem",
    "cg_solve",
    "cg_solve_batched",
    "BatchedCGResult",
    # serve
    "SolveService",
    "SolveTicket",
    # core
    "KernelCost",
    "operational_intensity",
    "flops_per_dof",
    "bytes_per_dof",
    "PerformanceModel",
    "padding_gain",
    "Roofline",
    "AcceleratorConfig",
    "SEMAccelerator",
    "SynthesisReport",
    # hardware
    "ArchSpec",
    "SYSTEM_CATALOG",
    "FPGADevice",
    "STRATIX10_GX2800",
    "AGILEX_027",
    "STRATIX10_M",
    "IDEAL_FPGA",
    "HostExecutionModel",
]
