"""Analytic CPU/GPU execution-time models for the comparison figures.

The paper measured its nine systems; we model them.  For a
problem of ``E`` elements at degree ``N`` the kernel time is

``t(E) = t_launch + flops(E) / (P_plateau(N) * ramp(E))``

where ``P_plateau(N)`` is the architecture's calibrated large-problem
performance (:mod:`repro.hardware.calibration`), ``ramp(E) = E / (E +
E_half)`` (normalized to 1 at the 4096-element reference) captures device
fill / latency effects, and ``t_launch`` the per-kernel overhead.  This
is the standard latency-throughput model; it reproduces Fig. 1's curve
shapes — GPUs crawling at small sizes then dominating, CPUs flat almost
from the start — while pinning the 4096-element values to the paper's
stated ratios.

A :class:`HostExecutionModel` also reports measured power (calibrated)
and roofline context, so Fig. 2's bars, efficiency line and roofline
line all come from one object.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cost import KernelCost, operational_intensity
from repro.core.power import power_efficiency
from repro.core.roofline import Roofline
from repro.hardware.calibration import (
    HOST_E_HALF,
    HOST_LAUNCH_OVERHEAD_S,
    anchor,
)
from repro.hardware.catalog import SYSTEM_CATALOG
from repro.hardware.specs import ArchSpec, ArchType

#: Reference size at which calibrated plateaus are quoted.
REFERENCE_ELEMENTS: int = 4096


@dataclass(frozen=True)
class HostSample:
    """One modeled operating point of a host architecture."""

    arch: str
    n: int
    num_elements: int
    time_s: float
    gflops: float
    watts: float
    gflops_per_w: float


@dataclass(frozen=True)
class HostExecutionModel:
    """Execution-time model of one CPU/GPU from the catalog.

    Build with :meth:`for_system`; query :meth:`sample` over problem
    sizes and degrees.
    """

    spec: ArchSpec
    e_half: float
    launch_overhead_s: float

    @classmethod
    def for_system(cls, name: str) -> "HostExecutionModel":
        """Model for a Table-II system by display name."""
        spec = SYSTEM_CATALOG[name]
        if spec.arch_type is ArchType.FPGA:
            raise ValueError(
                "the FPGA is simulated by repro.core.accel.SEMAccelerator, "
                "not the host model"
            )
        return cls(
            spec=spec,
            e_half=HOST_E_HALF[name],
            launch_overhead_s=HOST_LAUNCH_OVERHEAD_S[name],
        )

    # ------------------------------------------------------------------
    def plateau_gflops(self, n: int) -> float:
        """Calibrated large-problem performance at degree ``n``."""
        return anchor(self.spec.name, n)[0]

    def measured_watts(self, n: int) -> float:
        """Calibrated power draw at degree ``n`` under load."""
        return anchor(self.spec.name, n)[1]

    def ramp(self, num_elements: int) -> float:
        """Device-fill factor, = 1 at the 4096-element reference."""
        if num_elements < 1:
            raise ValueError(f"element count must be >= 1, got {num_elements}")
        ref = REFERENCE_ELEMENTS / (REFERENCE_ELEMENTS + self.e_half)
        val = num_elements / (num_elements + self.e_half) / ref
        return min(val, 1.0 / ref)

    # ------------------------------------------------------------------
    def time_seconds(self, n: int, num_elements: int) -> float:
        """Modeled kernel time for one ``Ax`` application."""
        flops = KernelCost(n).flops(num_elements)
        plateau = self.plateau_gflops(n) * 1e9
        return self.launch_overhead_s + flops / (plateau * self.ramp(num_elements))

    def sample(self, n: int, num_elements: int) -> HostSample:
        """Modeled operating point (performance, power, efficiency)."""
        t = self.time_seconds(n, num_elements)
        flops = KernelCost(n).flops(num_elements)
        gflops = flops / t / 1e9
        watts = self.measured_watts(n)
        return HostSample(
            arch=self.spec.name,
            n=n,
            num_elements=num_elements,
            time_s=t,
            gflops=gflops,
            watts=watts,
            gflops_per_w=power_efficiency(gflops, watts),
        )

    # ------------------------------------------------------------------
    def roofline(self) -> Roofline:
        """Vendor-sheet roofline of this system."""
        return Roofline(self.spec.peak_flops, self.spec.peak_bandwidth)

    def roofline_gflops(self, n: int) -> float:
        """Roofline-attainable GFLOP/s for the ``Ax`` kernel at ``n``."""
        return self.roofline().attainable(operational_intensity(n)) / 1e9

    def roofline_fraction(self, n: int) -> float:
        """Calibrated plateau as a fraction of the roofline (<= ~1)."""
        return self.plateau_gflops(n) / self.roofline_gflops(n)
