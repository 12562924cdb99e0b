"""The SEM accelerator: functional execution + cycle-level performance.

:class:`SEMAccelerator` is the reproduction's stand-in for the paper's
synthesized OpenCL kernels.  It is *functionally real* — it computes the
actual ``Ax`` result with the production kernel (checked against the
Listing-1 reference) — and *performance-modeled*: cycles are derived
from the HLS
schedule (II, arbitration), the banked external-memory model and the
calibrated effective-bandwidth curve, reproducing Table I at the
reference size and the Fig.-1 size sweeps.

Use :meth:`SEMAccelerator.as_ax_backend` to plug the accelerator into
:class:`repro.sem.poisson.PoissonProblem` and run whole CG solves
"on the FPGA".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from repro.core.accel.config import AcceleratorConfig
from repro.core.accel.datapath import (
    PIPELINE_FILL_CYCLES,
    DatapathPlan,
    plan_datapath,
)
from repro.core.accel.extmem import (
    MemorySystemState,
    baseline_cycles_per_dof,
    effective_bandwidth,
)
from repro.core.calibration import FPGA_LAUNCH_OVERHEAD_S
from repro.core.cost import KernelCost, MemoryTraffic
from repro.core.device import FPGADevice
from repro.sem.element import ReferenceElement
from repro.sem.kernels import ax_local_matmul
from repro.util.units import MEGA


@dataclass(frozen=True)
class CycleReport:
    """Performance accounting of one accelerator run.

    Attributes
    ----------
    cycles_compute:
        Issue cycles of the compute pipeline (incl. fill).
    cycles_memory:
        Cycles the external memory needs for the streamed traffic.
    cycles_total:
        ``max(compute, memory)`` — the dataflow design overlaps them.
    time_kernel_s:
        Kernel-only wall time (``cycles_total / f``), the paper's
        PCIe-excluded measurement convention.
    time_total_s:
        Including host launch overhead (used for the Fig.-1 size sweep).
    gflops:
        Kernel-only GFLOP/s.
    gflops_end_to_end:
        GFLOP/s including launch overhead.
    dofs_per_cycle:
        Achieved throughput (the paper's headline metric).
    """

    config: AcceleratorConfig
    num_elements: int
    flops: int
    bytes_external: int
    cycles_compute: float
    cycles_memory: float
    cycles_total: float
    time_kernel_s: float
    time_total_s: float
    gflops: float
    gflops_end_to_end: float
    dofs_per_cycle: float
    memory: MemorySystemState | None
    datapath: DatapathPlan | None


@dataclass
class SEMAccelerator:
    """A degree-specialized SEM accelerator on a given FPGA device.

    Parameters
    ----------
    config:
        Design point (degree, unroll, memory layout, II pragma, ...).
    device:
        Target FPGA (bank count and peak bandwidth come from here).

    The kernel cost, memory-traffic model and datapath plan are pure
    functions of the (frozen) configuration, so they are computed once
    and the per-element-count :class:`CycleReport` is memoized —
    :meth:`performance` is O(1) per CG iteration.
    """

    config: AcceleratorConfig
    device: FPGADevice
    _ref: ReferenceElement = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._ref = ReferenceElement.from_degree(self.config.n)
        self._cost = KernelCost(self.config.n)
        self._traffic = MemoryTraffic(self.config.n)
        self._perf_cache: dict[int, CycleReport] = {}

    # ------------------------------------------------------------------
    # Functional path
    # ------------------------------------------------------------------
    def run(
        self, u: NDArray[np.float64], g: NDArray[np.float64]
    ) -> tuple[NDArray[np.float64], CycleReport]:
        """Execute ``Ax`` on local fields and report cycles.

        ``u``: ``(E, nx, nx, nx)``, or a stacked ``(B, E, nx, nx, nx)``
        block (the report is per system); ``g``: ``(E, 6, nx, nx, nx)``.
        Numerics are the production kernel's,
        :func:`~repro.sem.kernels.ax_local_matmul` (checked against the
        Listing-1 reference, as the element-level simulator is); the
        cycle report follows the §III/§IV model.
        """
        w = ax_local_matmul(self._ref, u, g)
        report = self.performance(u.shape[-4])
        return w, report

    def execute_element_detailed(
        self, u_e: NDArray[np.float64], g_e: NDArray[np.float64]
    ) -> NDArray[np.float64]:
        """Cycle-faithful single-element execution (slow; tests/debug).

        Processes the flattened DOF space in unrolled groups of ``T``
        lanes exactly as the hardware issues them, with the contraction
        accumulated in the same sequential order as Listing 1 — the
        result is bit-identical to :func:`repro.sem.operators.
        ax_local_listing1`.
        """
        nx = self.config.nx
        t = self.config.unroll
        d = self._ref.deriv
        dxt = d.reshape(-1)
        dx = d.T.copy().reshape(-1)
        u_flat = u_e.transpose(2, 1, 0).reshape(-1)
        g_flat = g_e.transpose(3, 2, 1, 0).reshape(-1, 6)
        ndof = nx ** 3
        shur = np.zeros(ndof)
        shus = np.zeros(ndof)
        shut = np.zeros(ndof)
        w_flat = np.zeros(ndof)

        # Phase 1, issued in lane groups of T consecutive flat DOFs.
        for group in range(0, ndof, t):
            for ijk in range(group, min(group + t, ndof)):
                i = ijk % nx
                j = (ijk // nx) % nx
                k = ijk // (nx * nx)
                rtmp = 0.0
                stmp = 0.0
                ttmp = 0.0
                for l in range(nx):
                    rtmp += dxt[l + i * nx] * u_flat[l + j * nx + k * nx * nx]
                    stmp += dxt[l + j * nx] * u_flat[i + l * nx + k * nx * nx]
                    ttmp += dxt[l + k * nx] * u_flat[i + j * nx + l * nx * nx]
                shur[ijk] = g_flat[ijk, 0] * rtmp + g_flat[ijk, 1] * stmp + g_flat[ijk, 2] * ttmp
                shus[ijk] = g_flat[ijk, 1] * rtmp + g_flat[ijk, 3] * stmp + g_flat[ijk, 4] * ttmp
                shut[ijk] = g_flat[ijk, 2] * rtmp + g_flat[ijk, 4] * stmp + g_flat[ijk, 5] * ttmp
        # Phase 2.
        for group in range(0, ndof, t):
            for ijk in range(group, min(group + t, ndof)):
                i = ijk % nx
                j = (ijk // nx) % nx
                k = ijk // (nx * nx)
                ij = i + j * nx
                wijke = 0.0
                for l in range(nx):
                    wijke += dx[l + i * nx] * shur[l + j * nx + k * nx * nx]
                    wijke += dx[l + j * nx] * shus[i + l * nx + k * nx * nx]
                    wijke += dx[l + k * nx] * shut[ij + l * nx * nx]
                w_flat[ijk] = wijke
        return w_flat.reshape(nx, nx, nx).transpose(2, 1, 0)

    def as_ax_backend(self):
        """A problem's ``ax_backend``: ``backend(ref, u, g) -> w`` on
        ``(E, ...)`` fields or a stacked ``(B, E, ...)`` block.  Appends
        one cycle report per system to ``self.history`` for end-to-end
        solver accounting."""
        self.history: list[CycleReport] = []

        def backend(ref: ReferenceElement, u: NDArray, g: NDArray) -> NDArray:
            if ref.degree != self.config.n:
                raise ValueError(
                    f"accelerator built for N={self.config.n}, "
                    f"got fields at N={ref.degree}"
                )
            w, report = self.run(u, g)
            systems = u.shape[0] if u.ndim == 5 else 1
            self.history.extend([report] * systems)
            return w

        return backend

    # ------------------------------------------------------------------
    # Performance path
    # ------------------------------------------------------------------
    def performance(self, num_elements: int) -> CycleReport:
        """Cycle/bandwidth accounting for ``num_elements`` elements.

        Reports are memoized per element count (the model is pure in
        ``(config, device, num_elements)``), so repeated calls from a
        solver loop cost a dictionary lookup.
        """
        if num_elements < 1:
            raise ValueError(f"element count must be >= 1, got {num_elements}")
        cached = self._perf_cache.get(num_elements)
        if cached is not None:
            return cached
        cfg = self.config
        dofs = num_elements * cfg.nx ** 3
        flops = self._cost.flops(num_elements)
        nbytes = self._traffic.bytes_total(num_elements)
        f_hz = cfg.clock_mhz * MEGA

        if not cfg.use_local_memory:
            # §III-A baseline: latency-bound, no overlap.
            cycles = dofs * baseline_cycles_per_dof(cfg.n) + PIPELINE_FILL_CYCLES
            report = self._report(
                num_elements, flops, nbytes, cycles, cycles, cycles, f_hz,
                memory=None, datapath=None,
            )
        else:
            plan = plan_datapath(cfg)
            mem = effective_bandwidth(
                cfg, num_elements, self.device.peak_bandwidth, plan.ii
            )
            cycles_compute = plan.cycles_for_dofs(dofs) + PIPELINE_FILL_CYCLES
            cycles_memory = nbytes * f_hz / mem.effective_bandwidth
            cycles_total = max(cycles_compute, cycles_memory)
            report = self._report(
                num_elements, flops, nbytes,
                cycles_compute, cycles_memory, cycles_total, f_hz,
                memory=mem, datapath=plan,
            )
        self._perf_cache[num_elements] = report
        return report

    def _report(
        self,
        num_elements: int,
        flops: int,
        nbytes: int,
        cycles_compute: float,
        cycles_memory: float,
        cycles_total: float,
        f_hz: float,
        memory: MemorySystemState | None,
        datapath: DatapathPlan | None,
    ) -> CycleReport:
        dofs = num_elements * self.config.nx ** 3
        t_kernel = cycles_total / f_hz
        t_total = t_kernel + FPGA_LAUNCH_OVERHEAD_S
        return CycleReport(
            config=self.config,
            num_elements=num_elements,
            flops=flops,
            bytes_external=nbytes,
            cycles_compute=cycles_compute,
            cycles_memory=cycles_memory,
            cycles_total=cycles_total,
            time_kernel_s=t_kernel,
            time_total_s=t_total,
            gflops=flops / t_kernel / 1e9,
            gflops_end_to_end=flops / t_total / 1e9,
            dofs_per_cycle=dofs / cycles_total,
            memory=memory,
            datapath=datapath,
        )
