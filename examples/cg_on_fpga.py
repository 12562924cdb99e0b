#!/usr/bin/env python
"""End-to-end: a Nekbone-style CG solve with the FPGA as Ax backend.

The paper accelerates the ``Ax`` kernel inside an iterative solver; this
example actually runs that solver — Jacobi-preconditioned CG on the SEM
Poisson system — with the simulated accelerator plugged in as the
operator backend, then reports both numerics (identical solution) and
the accelerator's accumulated simulated kernel time vs. modeled host
baselines.

Run:  python examples/cg_on_fpga.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    AcceleratorConfig,
    BoxMesh,
    PoissonProblem,
    ReferenceElement,
    SEMAccelerator,
    STRATIX10_GX2800,
    cg_solve,
)
from repro.hardware.hostmodel import HostExecutionModel
from repro.sem import sine_manufactured


def main() -> None:
    n = 7
    ref = ReferenceElement.from_degree(n)
    mesh = BoxMesh.build(ref, shape=(3, 3, 3))
    u_exact, forcing = sine_manufactured(mesh.extent)

    # Reference solve on the CPU (the production kernel).
    cpu_problem = PoissonProblem(mesh)
    b = cpu_problem.rhs_from_forcing(forcing)
    diag = cpu_problem.jacobi_diagonal()
    cpu_result = cg_solve(cpu_problem.apply_A, b, precond_diag=diag, tol=1e-11)

    # Same solve with the simulated FPGA as the Ax backend.
    accelerator = SEMAccelerator(AcceleratorConfig.banked(n), STRATIX10_GX2800)
    fpga_problem = PoissonProblem(mesh, ax_backend=accelerator.as_ax_backend())
    fpga_result = cg_solve(fpga_problem.apply_A, b, precond_diag=diag, tol=1e-11)

    assert fpga_result.converged and cpu_result.converged
    diff = float(np.max(np.abs(fpga_result.x - cpu_result.x)))
    err = fpga_problem.l2_error(fpga_result.x, u_exact)
    print(f"CG iterations: cpu={cpu_result.iterations} fpga={fpga_result.iterations}")
    print(f"solution agreement |u_fpga - u_cpu|_inf = {diff:.2e}")
    print(f"L2 error vs manufactured solution       = {err:.2e}")

    # Accumulated simulated kernel time across all Ax applications.
    reports = accelerator.history
    kernel_s = sum(r.time_kernel_s for r in reports)
    flops = sum(r.flops for r in reports)
    print(
        f"\nFPGA backend: {len(reports)} Ax calls, {flops / 1e9:.2f} GFLOP, "
        f"{kernel_s * 1e3:.3f} ms simulated kernel time "
        f"({flops / kernel_s / 1e9:.1f} GFLOP/s sustained)"
    )

    # Modeled host baselines for the same operator workload.
    print("\nmodeled time for the same Ax workload on comparison systems:")
    for name in ("Intel Xeon Gold 6130", "NVIDIA Tesla V100 PCIe"):
        host = HostExecutionModel.for_system(name)
        t = sum(
            host.time_seconds(n, r.num_elements) for r in reports
        )
        print(f"  {name:28s} {t * 1e3:8.3f} ms  ({flops / t / 1e9:7.1f} GFLOP/s)")


if __name__ == "__main__":
    main()
