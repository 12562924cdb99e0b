"""A Nekbone-style proxy driver: the paper's reference workload.

Nekbone [34] is "the Thermal Hydraulics mini-application" — the proxy for
Nek5000 the paper takes its CPU baseline from.  Its standard workflow:
build a box of elements, set up the SEM operator, run a fixed number of
CG iterations on a manufactured right-hand side, and report the solve's
MFLOPS.  :class:`NekboneCase` reproduces that workflow on this library's
substrate, with the usual Nekbone element-count sweep helper.  The case
is a driver, not a problem: it builds a
:class:`~repro.sem.poisson.PoissonProblem` (:attr:`NekboneCase.problem`),
and :meth:`NekboneCase.run` is that problem's ``solve`` on the
manufactured right-hand side plus the FLOP accounting.  To serve or
share the case's system, hand ``case.problem`` to the service or the
fleet.

FLOP accounting follows Nekbone's convention: the ``Ax`` kernel's
``(12(N+1)+15)`` FLOPs/DOF plus the CG vector operations
(2 axpy + 1 aypx + 3 reductions ~ 10 FLOPs per DOF per iteration, with
the gather-scatter additions counted once per interface DOF).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.cost import flops_per_dof
from repro.sem.cg import CGResult, MixedCGResult
from repro.sem.element import ReferenceElement
from repro.sem.mesh import BoxMesh
from repro.sem.poisson import AxBackend, PoissonProblem, sine_manufactured


@dataclass(frozen=True)
class NekboneReport:
    """Outcome of one Nekbone-style run.

    Attributes
    ----------
    iterations:
        CG iterations executed.
    flops_ax / flops_cg:
        Operator vs vector-update FLOPs (Nekbone reports both lumped).
    seconds:
        Wall time of the solve phase.
    mflops:
        Nekbone's headline metric (total FLOPs / time / 1e6).
    residual_norm:
        Final residual (Nekbone prints it for verification).
    """

    n: int
    num_elements: int
    iterations: int
    flops_ax: int
    flops_cg: int
    seconds: float
    residual_norm: float

    @property
    def total_flops(self) -> int:
        """Operator + vector FLOPs."""
        return self.flops_ax + self.flops_cg

    @property
    def mflops(self) -> float:
        """Nekbone's reported MFLOPS."""
        return self.total_flops / self.seconds / 1e6 if self.seconds > 0 else 0.0


#: CG vector-op FLOPs per global DOF per iteration (2 axpy, 1 aypx,
#: 2 dots + 1 norm): Nekbone's accounting.
CG_FLOPS_PER_DOF_PER_ITER: int = 10


@dataclass
class NekboneCase:
    """One Nekbone configuration (degree + element box).

    Parameters
    ----------
    n:
        Polynomial degree (Nekbone's ``lx1 - 1``).
    shape:
        Element box ``(ex, ey, ez)`` (Nekbone's processor-local brick).
    ax_backend:
        Operator backend, as for
        :class:`~repro.sem.poisson.PoissonProblem`: the production kernel
        by default, or the FPGA simulator via
        :meth:`repro.core.accel.SEMAccelerator.as_ax_backend`.
    precision:
        Default solve precision policy (``"fp64"`` or ``"mixed"``),
        forwarded to the underlying problem; ``"mixed"`` makes
        :meth:`run` use the fp32-inner refinement solver.

    Attributes
    ----------
    problem:
        The case's :class:`~repro.sem.poisson.PoissonProblem` — what a
        :class:`~repro.serve.SolveService` or a process fleet serves.
    """

    n: int
    shape: tuple[int, int, int]
    ax_backend: AxBackend = None
    precision: str = "fp64"
    problem: PoissonProblem = field(init=False)

    def __post_init__(self) -> None:
        ref = ReferenceElement.from_degree(self.n)
        mesh = BoxMesh.build(ref, self.shape)
        self.problem = PoissonProblem(
            mesh, ax_backend=self.ax_backend, precision=self.precision,
        )

    @property
    def num_elements(self) -> int:
        """Total elements of the case."""
        return self.problem.mesh.num_elements

    def run(
        self, iterations: int = 100, tol: float = 0.0
    ) -> "tuple[NekboneReport, CGResult | MixedCGResult]":
        """Execute the solve phase and report Nekbone-style metrics.

        ``tol = 0`` runs exactly ``iterations`` CG steps (Nekbone's fixed
        iteration count); a positive tolerance stops early.  A case built
        with ``precision="mixed"`` runs the fp32-inner refinement solver
        instead (``iterations`` caps each inner correction solve) and
        requires a positive ``tol`` — refinement is convergence-driven,
        so a fixed-iteration budget has no mixed analogue.
        """
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        mixed = self.problem.precision == "mixed"
        if mixed and tol <= 0:
            raise ValueError(
                "precision='mixed' needs tol > 0 (the refinement loop "
                "converges on the fp64 true residual)"
            )
        prob = self.problem
        _, forcing = sine_manufactured(prob.mesh.extent)
        b = prob.rhs_from_forcing(forcing)
        prob.precond_diag()  # assembled outside the timed solve phase

        start = time.perf_counter()
        # The solve phase runs through the problem's workspaces: zero
        # field-sized allocations per CG iteration (Nekbone discipline).
        result = prob.solve(b, tol=tol, maxiter=iterations)
        elapsed = time.perf_counter() - start

        # Operator applications: fp64 counts the initial residual plus
        # one per iteration; mixed counts the fp32 inner applies (one
        # per inner iteration) plus one fp64 true-residual per sweep.
        n_ax = (
            result.iterations + result.sweeps
            if mixed else result.iterations + 1
        )
        flops_ax = n_ax * flops_per_dof(self.n) * prob.mesh.num_local_dofs
        flops_cg = (
            result.iterations * CG_FLOPS_PER_DOF_PER_ITER * prob.n_dofs
        )
        report = NekboneReport(
            n=self.n,
            num_elements=self.num_elements,
            iterations=result.iterations,
            flops_ax=flops_ax,
            flops_cg=flops_cg,
            seconds=elapsed,
            residual_norm=result.residual_norm,
        )
        return report, result


def element_sweep(
    n: int,
    element_counts: tuple[int, ...] = (1, 8, 27, 64),
    iterations: int = 20,
    ax_backend: AxBackend = None,
) -> list[NekboneReport]:
    """Nekbone's standard sweep: cubic boxes of growing element count.

    ``element_counts`` must be perfect cubes (Nekbone grows its brick
    cube by cube).
    """
    reports: list[NekboneReport] = []
    for count in element_counts:
        edge = round(count ** (1.0 / 3.0))
        if edge ** 3 != count:
            raise ValueError(f"element count {count} is not a perfect cube")
        case = NekboneCase(n, (edge, edge, edge), ax_backend=ax_backend)
        report, _ = case.run(iterations=iterations)
        reports.append(report)
    return reports
